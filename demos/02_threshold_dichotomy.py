"""Permanence exactly above the reproduction threshold.

The predator net reproduction number R = n e^{-dj tau(0)} f(K, 0) / d counts
offspring of one predator in a prey-saturated world.  Sweeping the capture
rate b moves R through 1: below it every run collapses to (K, 0, 0), above
it prey and predator persist together, from tiny or huge starting stocks
alike.  The horizon 200/d is a cap: each run stops once its verdict has
settled, and `t_decided` says where.
"""
import math

from preydelay import (ModelParams, ModelSpec, linear, permanence_probe,
                       reproduction_number, saturating_delay,
                       spread_histories)

r, K, n, dj, d = 1.0, 2.0, 1.0, 0.5, 1.0
delay = saturating_delay(tau_m=0.5, tau_M=1.0, theta=1.0)

for R_target in (0.5, 0.9, 1.5, 3.0):
    b = R_target * d / (n * math.exp(-dj * delay.tau_m) * K)
    model = ModelSpec(ModelParams(r, K, n, dj, d), delay, linear(b))
    R = reproduction_number(model)
    verdict = permanence_probe(model,
                               spread_histories(model, n=5, seed=42,
                                                lo=0.05, hi=5.0),
                               horizon=200.0 / d)
    print(f"b = {b:.4f}  R = {R:.3f}  ->  {verdict.verdict}")
    for rec in verdict.records:
        if verdict.verdict == "permanent":
            reading = f"tail min(x, y) = {rec.liminf_xy:.4g}"
        else:
            reading = f"distance to (K, 0, 0) = {rec.terminal_error:.2e}"
        print(f"    {rec.label:>14s}: {reading}, decided at "
              f"t = {rec.t_decided:.6g} of {200.0 / d:g}")
