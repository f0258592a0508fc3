"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest -v -s tests/test_acceptance.py  to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

from preydelay import (ModelParams, ModelSpec, QuasiPolynomial,
                       beddington_deangelis, boundary_equilibria,
                       characteristic_eval, consistent_history,
                       correction_factor, default_stepper, extrapolated_limits,
                       global_attraction_probe, imaginary_crossings, integrate,
                       lag_times, linear, linearize_at, make_delay,
                       monotone_bounds, permanence_probe, quasi_polynomial,
                       reproduction_number, rightmost_abscissa,
                       saturating_delay, scalar_limit, solve_coexistence,
                       spread_histories, yj_integral, classify_equilibrium)
from preydelay.model import DelayFunction

from oracles import (RK4StepsOracle, implicit_rate_solution,
                     quartic_has_positive_root)
from conftest import linear_family_model


def announce(number: int, name: str):
    print(f"ACCEPTANCE {number:2d}/10  {name}: PASS")


# shared moderate-horizon models and histories; their runs at the default
# tolerances are reused by criteria 3, 4 and 5
@pytest.fixture(scope="module")
def fixture_scenarios(bd_model, const_delay_model):
    models = [linear_family_model(R) for R in (0.5, 0.9, 1.5, 3.0)]
    models += [bd_model, const_delay_model]
    return [(m, consistent_history(m, x0=m.params.K / 2.0,
                                   y0=max(m.params.K / 4.0, 0.1),
                                   amp=0.2, omega=2.0)) for m in models]


def fixture_integrations(scenarios, rtol=1e-8, cap=None):
    """Each scenario integrated to t = 60 at ``rtol``, with the step cap
    ``cap`` tau(0) if one is given and the default cap if not."""
    runs = []
    for m, hist in scenarios:
        caps = {} if cap is None else {"h_max": cap * m.delay.tau_m}
        runs.append((m, integrate(m, hist, default_stepper(m, 60.0, rtol=rtol,
                                                           **caps))))
    return runs


@pytest.fixture(scope="module")
def fixture_runs(fixture_scenarios):
    return fixture_integrations(fixture_scenarios)


def juvenile_conservation_error(runs) -> float:
    """Worst relative gap between the juvenile ODE channel and the integral
    of the recruitment flux, at nine times of each run."""
    worst = 0.0
    for m, traj in runs:
        atol = 1e-10
        for t in np.linspace(m.delay.tau_M, traj.t_end, 9):
            ode = traj.lookup(float(t))[2]
            quad_val = yj_integral(m, traj, float(t))
            worst = max(worst, abs(ode - quad_val) / max(abs(ode), atol))
    return worst


def test_c01_threshold_dichotomy():
    t0 = time.time()
    for R_target in (0.5, 0.9, 1.5, 3.0):
        m = linear_family_model(R_target)
        horizon = 200.0 / m.params.d
        eq = solve_coexistence(m)
        refs = ({"x_ref": eq.x_star, "y_ref": eq.y_star} if eq is not None
                else {})
        histories = spread_histories(m, n=5, seed=42, **refs)
        verdict = permanence_probe(m, histories, horizon=horizon,
                                   eps_floor=1e-6, extinction_tol=1e-3)
        R = reproduction_number(m)
        assert R == pytest.approx(R_target, rel=1e-12)
        assert (verdict.verdict == "permanent") == (R > 1.0)
        if R < 1.0:
            assert all(rec.terminal_error <= 1e-3 for rec in verdict.records)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"dichotomy suite took {elapsed:.1f}s"
    announce(1, f"threshold dichotomy in {elapsed:.1f}s")


def test_c02_constant_delay_oracle_equivalence(const_delay_model):
    m = const_delay_model
    hist = consistent_history(m, 1.0, 0.3, amp=0.2, omega=2.0)
    cfg = default_stepper(m, 10.0, rtol=1e-10, atol=1e-12)
    traj = integrate(m, hist, cfg)
    oracle = RK4StepsOracle(
        r=m.params.r, K=m.params.K, n=m.params.n, dj=m.params.dj,
        d=m.params.d, f=m.response.f, tau=1.0,
        history=lambda s: (hist.phi1(s), hist.phi3(s), hist.phi2(s)),
        t_end=10.0, h=1e-4)
    worst = 0.0
    for t in np.arange(0.25, 10.0001, 0.25):
        got = np.array(traj.lookup(float(t)))
        want = oracle.at(float(t))
        worst = max(worst, float(np.max(np.abs(got - want)
                                        / np.maximum(np.abs(want), 1e-12))))
    assert worst <= 1e-6, worst
    announce(2, f"constant-delay RK4 oracle, max rel dev {worst:.2e}")


def test_c03_juvenile_channel_conservation(fixture_runs):
    worst = juvenile_conservation_error(fixture_runs)
    assert worst <= 1e-5, worst
    announce(3, f"juvenile conservation, worst rel dev {worst:.2e}")


def test_juvenile_conservation_under_the_rtol_scaled_cap(fixture_scenarios):
    # the default cap grows with rtol (0.95 tau(0) from about 1e-7 on); at
    # 1e-6 the cap sets none of c03's error (4.01e-4 under both caps), and
    # at 1e-7 the error stays within the ratio to rtol that the cap-free
    # runs at 1e-6 show (3.41e-5 measured)
    coarse = juvenile_conservation_error(
        fixture_integrations(fixture_scenarios, rtol=1e-6))
    capped = juvenile_conservation_error(
        fixture_integrations(fixture_scenarios, rtol=1e-6, cap=0.6))
    assert coarse == pytest.approx(capped, rel=0.05), (coarse, capped)
    worst = juvenile_conservation_error(
        fixture_integrations(fixture_scenarios, rtol=1e-7))
    assert worst <= 400 * 1e-7, worst


def test_c04_boundedness_certificate(fixture_runs):
    from preydelay import boundedness_certificate
    for m, traj in fixture_runs:
        cert = boundedness_certificate(m, traj, tail_fraction=0.25,
                                       tolerance=0.01)
        assert cert.v_within_limit, (m.to_dict(), cert)
    announce(4, "boundedness certificate on all fixtures")


def test_c05_correction_factor_identities(fixture_runs):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        tp = rng.uniform(0.0, 2.0)
        d = rng.uniform(0.05, 2.0)
        y = rng.uniform(0.0, 10.0)
        N = rng.uniform(0.0, 10.0)
        delay = DelayFunction(tau=lambda v, tp=tp: 0.5 + tp * v,
                              tau_prime=lambda v, tp=tp: tp,
                              tau_m=0.5, tau_M=math.inf)
        m = ModelSpec(ModelParams(1.0, 2.0, 1.0, 0.5, d), delay, linear(1.0))
        got = correction_factor(m, y, N)
        assert got > 0.0
        yp = implicit_rate_solution(tp, d, y, N)
        worst = max(worst, abs(got - (1.0 - tp * yp)))
    assert worst <= 1e-12, worst
    for m, traj in fixture_runs:
        lags = lag_times(m, traj)
        assert np.all(np.diff(lags) > 0.0)
    announce(5, f"correction identities, worst |closed - newton| {worst:.2e}")


def test_c06_equilibrium_threshold_equivalence():
    rng = np.random.default_rng(42)
    tested = 0
    while tested < 200:
        kind = rng.choice(["constant", "saturating", "exp"])
        tau_m = rng.uniform(0.1, 1.2)
        tau_M = tau_m if kind == "constant" else tau_m + rng.uniform(0.05, 1.5)
        coef = ({} if kind == "constant"
                else {"theta": rng.uniform(0.5, 2.0)} if kind == "saturating"
                else {"lam": rng.uniform(0.3, 2.0)})
        m = ModelSpec(
            ModelParams(r=rng.uniform(0.3, 2.5), K=rng.uniform(1.0, 15.0),
                        n=rng.uniform(0.3, 2.5), dj=rng.uniform(0.05, 1.0),
                        d=rng.uniform(0.05, 1.5)),
            make_delay(kind, tau_m, tau_M, **coef),
            beddington_deangelis(b=rng.uniform(0.05, 2.5),
                                 k1=rng.uniform(0.0, 0.5),
                                 k2=rng.uniform(0.05, 2.0)))
        R = reproduction_number(m)
        if abs(R - 1.0) < 1e-3:
            continue
        tested += 1
        eq = solve_coexistence(m)
        assert (eq is not None) == (R > 1.0), (R, m.to_dict())
        if eq is not None:
            assert eq.residual <= 1e-10
    announce(6, f"threshold equivalence on {tested} random specs")


def test_c07_quartic_classifier_vs_root_oracle():
    # i omega is a root for some delay only if omega^4 + B1 omega^2 + B2 = 0
    # has a positive root omega; the draws within 1e-9 of a decision
    # boundary (B2 = 0, or a double root in omega^2) are skipped
    rng = np.random.default_rng(42)
    agreements = tested = 0
    while tested < 1000:
        qp = QuasiPolynomial(*rng.uniform(-3.0, 3.0, 4), tau=1.0)
        B1 = qp.H1 ** 2 - 2.0 * qp.H2 - qp.N1 ** 2
        B2 = qp.H2 ** 2 - qp.N2 ** 2
        if min(abs(B2), abs(B1 * B1 / 4.0 - B2) if B1 < 0.0 else math.inf) < 1e-9:
            continue
        tested += 1
        agreements += (bool(imaginary_crossings(qp))
                       == quartic_has_positive_root(0.0, B1, 0.0, B2))
    assert agreements == tested == 1000
    announce(7, "crossing quadratic agrees with the root oracle 1000/1000")


def test_c08_spectral_checks(bd_model):
    r, d, tau = 1.0, 0.8, 1.0

    def scalar_qp(c):
        return QuasiPolynomial(H1=d + r, H2=r * d, N1=-c, N2=-c * r, tau=tau)

    ab, roots = rightmost_abscissa(scalar_qp(d))
    assert abs(ab) <= 1e-10
    assert any(abs(z) <= 1e-10 for z in roots)

    ab_low, _ = rightmost_abscissa(scalar_qp(0.9 * d))
    assert ab_low < 0.0

    c_high = 1.1 * d
    ab_high, _ = rightmost_abscissa(scalar_qp(c_high))
    lo, hi = 0.0, c_high
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + d - c_high * math.exp(-mid * tau) < 0.0:
            lo = mid
        else:
            hi = mid
    assert ab_high > 0.0
    assert ab_high == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    eq = solve_coexistence(bd_model)
    verdict = classify_equilibrium(bd_model, eq)
    assert verdict.verdict == "locally_asymptotically_stable"
    assert verdict.crossings == ()
    assert verdict.rightmost < -1e-8
    announce(8, f"spectral checks (fixture abscissa {verdict.rightmost:.3f})")


def test_c09_global_attraction_and_brackets(bd_model):
    t0 = time.time()
    eq = solve_coexistence(bd_model)
    horizon = 500.0 / bd_model.params.d
    report = global_attraction_probe(bd_model, eq, n_histories=10,
                                     horizon=horizon, seed=42,
                                     rel_tol_xy=1e-4, rel_tol_yj=1e-3)
    assert report.all_converged, report.worst

    for eps in (1e-2, 1e-3, 1e-4):
        br = monotone_bounds(bd_model, eq, epsilon=eps)
        assert np.all(np.diff(br.x_over) <= 1e-12)
        assert np.all(np.diff(br.x_under) >= -1e-12)
        assert np.all(np.diff(br.y_over) <= 1e-12)
        assert np.all(np.diff(br.y_under) >= -1e-12)
        assert np.all((br.x_under <= eq.x_star) & (eq.x_star <= br.x_over))
        assert np.all((br.y_under <= eq.y_star) & (eq.y_star <= br.y_over))

    x_o, x_u, y_o, y_u = extrapolated_limits(bd_model, eq,
                                             epsilons=(1e-2, 1e-3, 1e-4))
    for got, want in ((x_o, eq.x_star), (x_u, eq.x_star),
                      (y_o, eq.y_star), (y_u, eq.y_star)):
        assert got == pytest.approx(want, abs=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"attraction suite took {elapsed:.1f}s"
    announce(9, f"global attraction + brackets in {elapsed:.1f}s")


def test_c10_scalar_recruitment_limit():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        a3 = rng.uniform(0.5, 1.5)
        dj = rng.uniform(0.1, 0.8)
        tau_m = rng.uniform(0.3, 0.8)
        tau_M = tau_m + rng.uniform(0.2, 0.8)
        theta = rng.uniform(0.5, 2.0)
        ratio = rng.uniform(1.5, 4.0)
        a1 = ratio * a3 * math.exp(dj * tau_m)
        a2 = rng.uniform(0.5, 2.0)
        delay = saturating_delay(tau_m, tau_M, theta)
        res = scalar_limit(a1, a2, a3, dj, delay,
                           histories=[lambda t: 0.5, lambda t: 2.0],
                           horizon=250.0 / a3)
        assert res.viable
        worst = max(worst, max(res.rel_errors))
    assert worst <= 1e-4
    announce(10, f"scalar recruitment limit, worst rel err {worst:.2e}")
