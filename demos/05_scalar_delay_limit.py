"""Scalar recruitment-saturation equation: simulation meets fixed point.

The single-population building block behind the attraction proof is

    v'(t) = (1 - tau'(v) v') a1 e^{-dj tau(v)} v_lag / (1 + a2 v_lag) - a3 v,

with v_lag = v(t - tau(v)).  Whenever the survival-discounted gain beats the
mortality a3, every positive history converges to the unique positive root of
v = (a1 e^{-dj tau(v)} - a3) / (a2 a3); otherwise the population dies out.

The proof compares solutions of such scalar equations.  The last part runs
that comparison as an experiment: two ordered histories of a forced equation
with the same delay, and whether their solutions stay ordered.
"""
import math

from preydelay import (comparison_probe, saturating_delay, scalar_fixed_point,
                       scalar_limit)

delay = saturating_delay(tau_m=0.5, tau_M=1.2, theta=1.0)

# viable: a1 e^{-dj tau(0)} comfortably above a3
a1, a2, a3, dj = 2.5, 1.2, 0.9, 0.4
vtilde, viable = scalar_fixed_point(a1, a2, a3, dj, delay)
print(f"fixed point: v~ = {vtilde:.8f} (viable = {viable})")

result = scalar_limit(a1, a2, a3, dj, delay,
                      histories=[lambda t: 0.3, lambda t: 2.5],
                      horizon=300.0)
for start, tail, err in zip((0.3, 2.5), result.tail_estimates,
                            result.rel_errors):
    print(f"  v(0) = {start:.1f}: tail average = {tail:.8f} "
          f"(relative error {err:.1e})")

# extinction regime: gain cannot balance mortality at any state
res0 = scalar_limit(1.0, 1.0, 2.0, 0.5, delay, [lambda t: 1.0], horizon=80.0)
print(f"\nnon-viable draw: fixed point = {res0.fixed_point}, "
      f"tail = {res0.tail_estimates[0]:.2e} (dies out)")

# order preservation: v' = (1 - tau'(v) v') e^{-dj tau(v)} F(t - tau(v)) - a3 v
hi = lambda t: 1.0 + 0.2 * math.cos(t)
lo = lambda t: 0.5 * hi(t)
report = comparison_probe(dj, a3, delay,
                          forcing=lambda s: 1.0 + 0.4 * math.sin(0.7 * s),
                          pairs=[(hi, lo)], horizon=30.0)
print(f"\nordered histories stay ordered: {report.held_all} "
      f"(largest lo - hi: {report.pairs[0].max_violation:.1e})")
