import hashlib
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from preydelay import (DelayFunction, IntegrationError, LagDomainError,
                       ModelParams, ModelSpec, StepperConfig,
                       StepSizeUnderflow, beddington_deangelis,
                       constant_delay, consistent_history, constant_history,
                       correction_factor, crowley_martin, default_stepper,
                       exp_delay, export_csv, holling2, integrate,
                       integrate_scalar_sdtd, lag_times, linear,
                       saturating_delay, spread_histories, yj_integral)
from preydelay import cli, engine
from preydelay.model import HistoryConsistencyWarning

from forking import serially
from conftest import (DEFECT_ATOL, DEFECT_HISTORY_SEED, DEFECT_MODEL,
                      linear_family_model, opaque)
from oracles import RK4StepsOracle, implicit_rate_solution

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"


def quiet_integrate(model, hist, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HistoryConsistencyWarning)
        return integrate(model, hist, cfg)


# --------------------------------------------------------------------------
# right-hand side


def test_rhs_decoupled_prey_is_logistic(const_delay_model):
    m = ModelSpec(const_delay_model.params, const_delay_model.delay, linear(0.0))
    hist = constant_history(0.5, 0.3, 0.2)
    cfg = default_stepper(m, 10.0, rtol=1e-10, atol=1e-12)
    traj = quiet_integrate(m, hist, cfg)
    r, K, x0 = 1.0, 2.0, 0.5
    for t in (1.0, 5.0, 10.0):
        exact = K * x0 * math.exp(r * t) / (K + x0 * (math.exp(r * t) - 1.0))
        assert traj.lookup(t)[0] == pytest.approx(exact, rel=1e-8)
        assert traj.lookup(t)[1] == pytest.approx(0.3 * math.exp(-0.8 * t), rel=1e-7)


def test_rhs_constant_delay_has_no_correction(const_delay_model):
    m = const_delay_model
    x_lag, y_lag = 0.9, 0.5
    xp, yp, yjp = engine._make_rhs(m)(0.0, (1.2, 0.7, 0.4),
                                      lambda s: (x_lag, y_lag))
    p = m.params
    N = p.n * math.exp(-p.dj * 1.0) * m.response.f(x_lag, y_lag) * y_lag
    assert yp == pytest.approx(N - p.d * 0.7, rel=1e-15)
    assert xp == pytest.approx(p.r * 1.2 * (1 - 1.2 / p.K)
                               - m.response.f(1.2, 0.7) * 0.7, rel=1e-15)
    assert yjp == pytest.approx(p.n * m.response.f(1.2, 0.7) * 0.7
                                - p.dj * 0.4 - N, rel=1e-15)


def test_rhs_matches_implicit_newton_solution():
    rng = np.random.default_rng(11)
    for _ in range(200):
        tau_m = rng.uniform(0.2, 0.8)
        m = ModelSpec(
            ModelParams(*rng.uniform(0.3, 2.0, 5)),
            saturating_delay(tau_m, tau_m + rng.uniform(0.1, 1.0),
                             rng.uniform(0.5, 2.0)),
            beddington_deangelis(b=rng.uniform(0.3, 2.0),
                                 k1=rng.uniform(0.0, 0.5),
                                 k2=rng.uniform(0.0, 2.0)))
        x, y, yj = (rng.uniform(0.0, 3.0) for _ in range(3))
        lag = (rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
        _, yp, _ = engine._make_rhs(m)(1.0, (x, y, yj), lambda s: lag)
        p = m.params
        tau = m.delay.tau(y)
        N = p.n * math.exp(-p.dj * tau) * m.response.f(*lag) * lag[1]
        yp_newton = implicit_rate_solution(m.delay.tau_prime(y), p.d, y, N)
        assert yp == pytest.approx(yp_newton, rel=1e-12, abs=1e-12)


def test_rhs_core_inlines_the_model_maturation_law():
    # rhs_core writes N, the birth flux and the correction factor out for
    # speed; they must equal ModelSpec's maturation law to the last bit
    rng = np.random.default_rng(7)
    for i in range(200):
        tau_m = rng.uniform(0.2, 0.8)
        tau_M = tau_m + rng.uniform(0.1, 1.0)
        p = ModelParams(*rng.uniform(0.3, 2.0, 5))
        if i % 4:
            m = ModelSpec(p, saturating_delay(tau_m, tau_M, rng.uniform(0.5, 2.0)),
                          beddington_deangelis(b=rng.uniform(0.3, 2.0),
                                               k1=rng.uniform(0.0, 0.5),
                                               k2=rng.uniform(0.0, 2.0)))
        else:
            m = ModelSpec(p, exp_delay(tau_m, tau_M, rng.uniform(0.5, 2.0)),
                          crowley_martin(b=rng.uniform(0.3, 2.0),
                                         k1=rng.uniform(0.0, 0.5),
                                         k2=rng.uniform(0.0, 2.0)))
        x, y, yj = (rng.uniform(0.01, 3.0) for _ in range(3))
        lag = (rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0))
        _, yp, yjp = engine._make_rhs(m)(1.0, (x, y, yj), lambda s: lag)
        N = m.maturation_gain(m.delay.tau(y), *lag) * lag[1]
        assert yp == (N - p.d * y) / (1.0 + m.delay.tau_prime(y) * N)
        assert yjp == (m.birth_flux(x, y) - p.dj * yj
                       - correction_factor(m, y, N) * N)


def test_rhs_core_prey_and_mature_rates_do_not_read_yj():
    # the positivity guard clamps a negative yj instead of rejecting the
    # step, which is safe only because x' and y' do not depend on yj
    rng = np.random.default_rng(5)
    for _ in range(100):
        tau_m = rng.uniform(0.2, 0.8)
        m = ModelSpec(
            ModelParams(*rng.uniform(0.3, 2.0, 5)),
            saturating_delay(tau_m, tau_m + rng.uniform(0.1, 1.0),
                             rng.uniform(0.5, 2.0)),
            beddington_deangelis(b=rng.uniform(0.3, 2.0),
                                 k1=rng.uniform(0.0, 0.5),
                                 k2=rng.uniform(0.0, 2.0)))
        rhs = engine._make_rhs(m)
        x, y = rng.uniform(0.0, 3.0, 2)
        lag = tuple(rng.uniform(0.0, 3.0, 2))
        rates = {rhs(1.0, (x, y, yj), lambda s: lag)[:2]
                 for yj in (-1e-6, 0.0, *rng.uniform(0.0, 5.0, 3))}
        assert len(rates) == 1


# --------------------------------------------------------------------------
# integration


def test_constant_delay_matches_fixed_step_rk4(const_delay_model):
    m = const_delay_model
    hist = consistent_history(m, 1.0, 0.3, amp=0.2, omega=2.0)
    cfg = default_stepper(m, 5.0, rtol=1e-10, atol=1e-12)
    traj = integrate(m, hist, cfg)
    oracle = RK4StepsOracle(
        r=1.0, K=2.0, n=1.0, dj=0.2, d=0.8, f=m.response.f, tau=1.0,
        history=lambda s: (hist.phi1(s), hist.phi3(s), hist.phi2(s)),
        t_end=5.0, h=2e-4)
    for t in np.arange(0.5, 5.0001, 0.5):
        got = np.array(traj.lookup(float(t)))
        want = oracle.at(float(t))
        rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12))
        assert rel < 1e-6, (t, got, want)


def test_state_dependent_delay_matches_fixed_step_rk4(bd_model):
    # the oracle keeps y' = (1 - tau'(y) y') N - d y implicit; dropping its
    # tau' term (on a coarse grid) moves it by 1.3e-2 and 0.63, so the 1e-6
    # of c02 sees the moving-boundary term
    holling = ModelSpec(ModelParams(1.2, 3.0, 1.1, 0.4, 0.5),
                        exp_delay(0.4, 1.2, 2.0), holling2(1.5, 0.4))
    for m in (bd_model, holling):
        hist = consistent_history(m, 2.0, 0.5, amp=0.2)
        traj = integrate(m, hist, default_stepper(m, 10.0, rtol=1e-10,
                                                  atol=1e-12))
        p = m.params

        def oracle_run(h, tau_prime):
            return RK4StepsOracle(
                r=p.r, K=p.K, n=p.n, dj=p.dj, d=p.d, f=m.response.f,
                tau=m.delay.tau, tau_prime=tau_prime,
                history=lambda s: (hist.phi1(s), hist.phi3(s), hist.phi2(s)),
                t_end=10.0, h=h)

        def worst_dev(oracle):
            worst = 0.0
            for t in np.arange(0.25, 10.0001, 0.25):
                got = np.array(traj.lookup(float(t)))
                want = oracle.at(float(t))
                worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(
                    np.abs(want), 1e-12))))
            return worst

        assert worst_dev(oracle_run(2e-3, m.delay.tau_prime)) <= 1e-6
        assert worst_dev(oracle_run(1e-2, lambda y: 0.0)) > 1e-3


def test_positivity_and_decay_floor(bd_model, bd_traj):
    assert np.all(bd_traj.us >= 0.0)
    y0 = bd_traj.lookup(0.0)[1]
    d = bd_model.params.d
    for t, y in zip(bd_traj.ts, bd_traj.us[:, 1]):
        assert y >= y0 * math.exp(-d * t) * (1.0 - 1e-7)


def test_crashed_prey_is_not_absorbed_at_zero():
    m = ModelSpec.from_dict(DEFECT_MODEL)
    hist = spread_histories(m, n=5, seed=DEFECT_HISTORY_SEED, lo=0.1,
                            hi=3.0)[-1]
    traj = integrate(m, hist, default_stepper(m, 20.0, rtol=1e-6,
                                              atol=DEFECT_ATOL))
    assert np.min(traj.us[:, 0]) < 1e-30      # the crash is still resolved
    assert np.all(traj.us[:, 0] > 0.0)
    assert np.all(traj.us[:, 1] > 0.0)


def test_negative_juvenile_overshoot_is_clamped_not_throttled():
    # yj's ODE channel dips below -atol where the exact stock is tiny; a
    # guard that rejected those steps held h near atol / |yj'| for 15 755
    # steps on this run
    m = linear_family_model(2.0)
    hist = spread_histories(m, n=5, seed=1)[-1]
    traj = integrate(m, hist, default_stepper(m, 10.0,
                                              atol=(1e-30, 1e-30, 1e-10)))
    assert traj.n_steps <= 550           # 500 on x86-64 Linux
    assert np.all(traj.us >= 0.0)


@settings(max_examples=30, deadline=None)
@given(b=st.floats(0.5, 3.0), level=st.floats(0.1, 10.0),
       omega=st.floats(1.0, 3.0), phase=st.floats(0.0, 2.0 * math.pi))
# the DEFECT_MODEL history that the clamp used to absorb
@example(b=1.9448246476596909, level=3.0, omega=2.0540566346964573,
         phase=1.9404891379190397)
def test_positive_histories_keep_x_and_y_positive(b, level, omega, phase):
    doc = dict(DEFECT_MODEL, response={"kind": "Linear",
                                       "coefficients": {"b": b}})
    m = ModelSpec.from_dict(doc)
    x_ref, y_ref = m.params.K / 2.0, m.params.K / 4.0
    hist = consistent_history(m, x_ref * level, y_ref * level, amp=0.2,
                              omega=omega, phase=phase)
    traj = integrate(m, hist, default_stepper(m, 20.0, rtol=1e-6,
                                              atol=DEFECT_ATOL))
    assert np.all(traj.us[:, :2] > 0.0)


def test_lag_time_strictly_increasing(bd_model, bd_traj):
    lags = lag_times(bd_model, bd_traj)
    assert np.all(np.diff(lags) > 0.0)


def test_dense_output_continuous_at_joins(bd_traj):
    for t in bd_traj.ts[1:-1:7]:
        left = np.array(bd_traj.lookup(float(np.nextafter(t, -np.inf))))
        right = np.array(bd_traj.lookup(float(np.nextafter(t, np.inf))))
        assert np.max(np.abs(left - right)) < 1e-12


def test_interior_lookup_refines_at_local_error_order(bd_model):
    # mid-step dense output is DOPRI5's fourth-order continuous extension,
    # and a half-step re-integration must shrink the interior deviation
    hist = consistent_history(bd_model, 2.0, 0.5, amp=0.2)
    ref = integrate(bd_model, hist,
                    default_stepper(bd_model, 8.0, rtol=1e-12, atol=1e-14))
    devs = []
    for h in (0.2, 0.1):
        cfg = StepperConfig(t_end=8.0, rtol=1e6, atol=1e6, h_init=h, h_max=h,
                            positivity_guard=False)
        traj = integrate(bd_model, hist, cfg)
        worst = 0.0
        for t in np.linspace(0.3, 7.7, 23):
            a = np.array(traj.lookup(float(t)))
            b = np.array(ref.lookup(float(t)))
            worst = max(worst, float(np.max(np.abs(a - b)
                                            / np.maximum(np.abs(b), 1e-10))))
        devs.append(worst)
    assert devs[0] < 3e-5
    assert devs[1] < devs[0] / 3.0  # fourth-order interpolant: ~16x per halving


def test_midpoint_error_stays_at_the_nodal_error(bd_model):
    # a dense output of order q gives a delay method of order min(5, q + 1):
    # between nodes the fourth-order extension is as accurate as the nodes
    # themselves, where a cubic Hermite read several times worse
    hist = consistent_history(bd_model, 2.0, 0.5, amp=0.2)
    ref = integrate(bd_model, hist,
                    default_stepper(bd_model, 40.0, rtol=1e-13, atol=1e-15))
    for rtol in (1e-6, 1e-8):
        traj = integrate(bd_model, hist,
                         default_stepper(bd_model, 40.0, rtol=rtol))
        nodes = traj.ts[traj.ts >= 5.0]
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        node_err, mid_err = (np.max(np.abs(traj.sample(t) - ref.sample(t)))
                             for t in (nodes, mids))
        assert mid_err <= 2.0 * node_err, (rtol, mid_err, node_err)


def test_convergence_order_at_least_four(const_delay_model):
    m = const_delay_model
    hist = consistent_history(m, 1.0, 0.3, amp=0.2, omega=2.0)
    ref = integrate(m, hist, default_stepper(m, 4.0, rtol=1e-12, atol=1e-14))
    ref_end = np.array(ref.lookup(4.0))
    errs, hs = [], []
    for h in (0.25, 0.125, 0.0625, 0.03125):
        cfg = StepperConfig(t_end=4.0, rtol=1e6, atol=1e6, h_init=h, h_max=h,
                            positivity_guard=False)
        traj = quiet_integrate(m, hist, cfg)
        end = np.array(traj.lookup(4.0))
        errs.append(np.max(np.abs(end - ref_end)))
        hs.append(h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 4.0, (slope, errs)


def test_h_max_must_stay_below_minimum_delay(bd_model):
    hist = constant_history(1.0, 0.5, 0.2)
    cfg = StepperConfig(t_end=10.0, h_init=0.01, h_max=0.6)
    with pytest.raises(ValueError, match="tau"):
        integrate(bd_model, hist, cfg)


def test_scalar_h_max_must_stay_below_minimum_delay():
    # v' = 1.5 v (1 - v(t - 0.5)): with h_max = 5 the lags would land inside
    # the step and read the one-pass Euler line
    cfg = StepperConfig(t_end=20.0, rtol=1e-8, h_init=0.01, h_max=5.0)
    with pytest.raises(ValueError, match="tau"):
        integrate_scalar_sdtd(lambda t, v, lookup: 1.5 * v * (1.0 - lookup(t - 0.5)),
                              lambda s: 0.5, cfg, 0.5, 0.5)


def _traced_peak(fn, *args):
    """(fn(*args), the peak of the memory it allocated, in bytes)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stored_solution_costs_under_120_bytes_a_step(bd_model):
    # t, u, f and d of a step are ten floats; the growth of the peak between
    # two horizons leaves out what every run allocates once
    hist = consistent_history(bd_model, 2.0, 0.5, amp=0.2)
    (short, peak0), (long, peak1) = (
        _traced_peak(integrate, bd_model, hist, default_stepper(bd_model, t_end))
        for t_end in (30.0, 120.0))
    assert long.n_steps > 3 * short.n_steps
    assert (peak1 - peak0) / (long.n_steps - short.n_steps) <= 120.0


def test_inconsistent_history_warning_names_the_caller(bd_model):
    hist = constant_history(2.0, 0.4, 5.0)  # juvenile stock far too large
    with pytest.warns(HistoryConsistencyWarning) as record:
        integrate(bd_model, hist, default_stepper(bd_model, 1.0))
    assert [w.filename for w in record] == [__file__]


def test_step_budget_failure_carries_partial_trajectory(bd_model):
    hist = consistent_history(bd_model, 2.0, 0.5)
    cfg = StepperConfig(t_end=50.0, h_init=0.01, h_max=0.2, max_steps=10)
    with pytest.raises(IntegrationError) as exc_info:
        integrate(bd_model, hist, cfg)
    partial = exc_info.value.trajectory
    assert partial is not None and 0.0 < partial.t_end < 50.0


def test_vanishing_minimum_delay_stage_iteration():
    # tau(0) = 0 exercises the provisional-segment fixed point; compare a
    # run with roomy steps against a sharply capped one
    m = ModelSpec(ModelParams(1.0, 2.0, 1.0, 0.4, 0.9),
                  exp_delay(0.0, 0.8, 1.5), linear(1.2))
    hist = consistent_history(m, 1.0, 0.4, amp=0.1)
    a = quiet_integrate(m, hist, StepperConfig(t_end=6.0, rtol=1e-9,
                                               atol=1e-11, h_init=0.01,
                                               h_max=0.05))
    b = quiet_integrate(m, hist, StepperConfig(t_end=6.0, rtol=1e-9,
                                               atol=1e-11, h_init=0.002,
                                               h_max=0.008))
    for t in np.linspace(0.5, 6.0, 12):
        va, vb = np.array(a.lookup(float(t))), np.array(b.lookup(float(t)))
        assert np.max(np.abs(va - vb) / np.maximum(np.abs(vb), 1e-9)) < 1e-5


def test_integrate_returns_the_stored_arrays(bd_traj):
    # bd_traj's ts, us, fs and ds as integrate returned them at commit
    # 547a046, before the lag reads were inlined and the step's per-call
    # lookup closure dropped: the leaner step moves no bit
    want = np.load(Path(__file__).parent / "data" / "bd_model_t60.npz")
    for name in ("ts", "us", "fs", "ds"):
        assert np.array_equal(getattr(bd_traj, name), want[name]), name


@pytest.mark.parametrize("where, k, bad", [
    ("u1", 0, math.nan), ("u1", 2, math.inf),
    ("err", 1, math.nan), ("err", 2, -math.inf)])
def test_non_finite_step_is_cut_tenfold_until_underflow(bd_model, monkeypatch,
                                                        where, k, bad):
    spoiled_hs = []

    def spoil(t0, h, *values):
        # values: the attempt's end x, y, yj, then its error estimate
        values = list(values)
        if t0 >= 1.0:
            spoiled_hs.append(h)
            values[k if where == "u1" else 3 + k] = bad
        return values

    # the stages of every attempt end in a call of spoil, in a stepping loop
    # generated afresh
    monkeypatch.setattr(engine, "_spoil", spoil, raising=False)
    monkeypatch.setattr(engine, "_STAGES", engine._STAGES
                        + "x, y, yj, ex, ey, ez = _spoil(t0, h, x, y, yj, "
                          "ex, ey, ez)\n")
    monkeypatch.setattr(engine, "_KERNELS", {})
    hist = consistent_history(bd_model, 2.0, 0.5, amp=0.2)
    with pytest.raises(StepSizeUnderflow) as exc_info:
        integrate(bd_model, hist, default_stepper(bd_model, 5.0))
    partial = exc_info.value.trajectory
    assert partial.t_end >= 1.0 and np.isfinite(partial.us).all()
    # the error norm reads inf, which cuts the step tenfold each time (a
    # NaN norm would halve it, a finite one could accept the step)
    assert len(spoiled_hs) > 5
    assert all(b == a * 0.1 for a, b in zip(spoiled_hs, spoiled_hs[1:]))
    # every spoiled attempt was rejected, and the partial record counts it
    assert partial.n_attempts >= partial.n_steps + len(spoiled_hs)


def test_attempt_budget_failure_says_attempts():
    # the demo scenario: the budget runs out with three of its 40 attempts
    # rejected
    scn = cli.load_scenario(DEMO_CONFIG)
    cfg = default_stepper(scn.model, 80.0, max_steps=40, h_init=0.29)
    with pytest.raises(IntegrationError, match="exceeded 40 attempts") as exc:
        integrate(scn.model, scn.history, cfg)
    partial = exc.value.trajectory
    assert (partial.n_steps, partial.n_attempts) == (37, 40)


def test_default_stepper_takes_the_callers_step_sizes(bd_model):
    cfg = default_stepper(bd_model, 80.0, h_init=0.3)
    assert (cfg.h_init, cfg.h_max) == (0.3, 0.6 * bd_model.delay.tau_m)
    cfg = default_stepper(bd_model, 80.0, h_max=0.2)
    assert (cfg.h_init, cfg.h_max) == (0.01, 0.2)
    cfg = default_stepper(bd_model, 80.0, h_init=0.001, h_max=0.004)
    assert (cfg.h_init, cfg.h_max) == (0.001, 0.004)
    with pytest.raises(ValueError, match="h_init <= h_max"):
        default_stepper(bd_model, 80.0, h_init=0.4)
    hist = consistent_history(bd_model, 2.0, 0.5)
    for h_max in (bd_model.delay.tau_m, 0.8):
        with pytest.raises(ValueError, match="must be below tau"):
            integrate(bd_model, hist, default_stepper(bd_model, 80.0,
                                                      h_max=h_max))


def test_default_cap_grows_with_rtol_between_two_fixed_fractions(bd_model):
    # 0.6 tau(0) up to rtol 1e-8 (so every default-tolerance run keeps its
    # bits), 0.95 tau(0) from about 1e-7, and rtol^(1/5) in between
    tau_m = bd_model.delay.tau_m
    cap = lambda rtol: default_stepper(bd_model, 80.0, rtol=rtol).h_max
    for rtol in (1e-8, 1e-10):
        assert cap(rtol) == 0.6 * tau_m
    for rtol in (1e-7, 1e-6):
        assert cap(rtol) == 0.95 * tau_m
    between = [cap(rtol) for rtol in np.geomspace(1e-8, 1e-7, 9)]
    assert all(a < b for a, b in zip(between, between[1:]))
    assert all(cap(rtol) < tau_m for rtol in np.geomspace(1e-14, 1.0, 29))


def test_delay_below_its_minimum_raises_lag_domain_error():
    # tau(0) = 1 sets the step cap, but this law falls to 0.02 at y = 0.5,
    # so a lag reaches past the last accepted node
    falling = DelayFunction(tau=lambda y: 1.0 / (1.0 + 100.0 * y),
                            tau_prime=lambda y: -100.0 / (1.0 + 100.0 * y) ** 2,
                            tau_m=1.0, tau_M=1.0)
    m = ModelSpec(ModelParams(1.0, 2.0, 1.0, 0.4, 0.9), falling, linear(1.2))
    with pytest.raises(LagDomainError, match="past the last accepted node"):
        quiet_integrate(m, constant_history(1.0, 0.5, 0.1),
                        default_stepper(m, 5.0))


# --------------------------------------------------------------------------
# lagged lookup and the juvenile integral


def test_lagged_lookup_reads_history(const_delay_model):
    m = const_delay_model
    hist = consistent_history(m, 1.0, 0.3, amp=0.2, omega=2.0)
    traj = integrate(m, hist, default_stepper(m, 3.0))
    x_lag, y_lag, _ = traj.lookup(0.5 - m.delay.tau(1.0))
    assert x_lag == pytest.approx(hist.phi1(-0.5), rel=1e-12)
    assert y_lag == pytest.approx(hist.phi3(-0.5), rel=1e-12)


def test_lagged_lookup_outside_history_raises(const_delay_model):
    m = const_delay_model
    hist = consistent_history(m, 1.0, 0.3)
    traj = integrate(m, hist, default_stepper(m, 3.0))
    with pytest.raises(ValueError):
        traj.lookup(-1.5)


def _quartic_reference(traj, s):
    """One point of the dense output, written out per segment as a scalar loop."""
    ts, us, fs, ds = traj.ts, traj.us, traj.fs, traj.ds
    if s >= traj.t_end:
        return us[-1].tolist()
    i = int(np.searchsorted(ts, s, side="right")) - 1
    h = ts[i + 1] - ts[i]
    th = (s - ts[i]) / h
    row = []
    for m in range(traj.dim):
        a, b, d = h * fs[i, m], h * fs[i + 1, m], ds[i, m]
        du = us[i + 1, m] - us[i, m]
        c2 = 3.0 * du - 2.0 * a - b + d
        c3 = a + b - 2.0 * du - 2.0 * d
        row.append(us[i, m] + th * (a + th * (c2 + th * (c3 + th * d))))
    return row


def test_sample_at_accepted_nodes_returns_node_values(bd_traj):
    assert np.array_equal(bd_traj.sample(bd_traj.ts), bd_traj.us)


def test_sample_matches_history_and_per_point_quartic(bd_model):
    hist = consistent_history(bd_model, 2.0, 0.5, amp=0.2)
    traj = integrate(bd_model, hist, default_stepper(bd_model, 6.0))
    grid = np.concatenate([np.linspace(-traj.tau_M, 0.0, 9),
                           np.linspace(0.0, traj.t_end, 97)[1:],
                           [traj.t_end * (1.0 + 1e-12)]])
    got = traj.sample(grid)
    for s, row in zip(grid, got):
        if s <= 0.0:
            want = [hist.phi1(s), hist.phi3(s), hist.phi2(s)]
        else:
            want = _quartic_reference(traj, s)
        assert row.tolist() == want, s
        assert traj.lookup(float(s)) == tuple(row.tolist())


def test_lag_cursor_reads_out_of_order_like_sample(bd_traj):
    # the stepper's store, its buffers filled with the trajectory's steps,
    # reads every point of the record in any order bit for bit like
    # Trajectory.sample: node times, times just below the last node and
    # history reads come mixed, so that a stale cached segment would show
    traj = bd_traj
    store = engine._SolutionStore(traj._history, traj.tau_M)
    for buf, values in ((store.ts, traj.ts), (store.us, traj.us),
                        (store.fs, traj.fs), (store.ds, traj.ds)):
        buf.extend(values.ravel().tolist())
    t_last = traj.t_end
    rng = np.random.default_rng(7)
    times = np.concatenate([
        rng.uniform(-traj.tau_M, t_last, 2000), traj.ts, [-traj.tau_M],
        t_last - np.array([1, 2, 3, 1e3]) * np.spacing(t_last)])
    # forward, which steps from segment to segment, then shuffled, then
    # backward
    shuffled = rng.permutation(times)
    grid = np.concatenate([np.sort(times), shuffled, -np.sort(-times)])
    want = traj.sample(grid)[:, :2].tolist()
    for s, row in zip(grid.tolist(), want):
        assert store.eval_past(s) == tuple(row), s


def test_sample_rejects_times_outside_the_record(bd_traj):
    for s in (-bd_traj.tau_M * 1.01, bd_traj.t_end * 1.01):
        with pytest.raises(LagDomainError):
            bd_traj.sample([0.5, s])
        with pytest.raises(LagDomainError):
            bd_traj.lookup(s)


@pytest.fixture(scope="module")
def long_demo():
    """The demo config at a horizon of 2560: an export of 5 121 rows, six
    blocks, read through sample; (scenario, trajectory)."""
    scn = cli.load_scenario(DEMO_CONFIG, horizon=2560.0)
    return scn, integrate(scn.model, scn.history, scn.stepper)


def assert_python_rows_equal_sample(traj, times):
    # the same bits, -0.0 included
    got = [[v.hex() for v in row] for row in traj._rows(times)]
    assert got == [[v.hex() for v in row] for row in traj.sample(times).tolist()]


def test_python_reader_equals_sample_bit_for_bit(long_demo):
    # the reader that short exports, the chart and lookup use against the
    # arrays that long exports use: every CSV time of the long export and
    # its lag, history times, node times and t_end, in order (segment to
    # segment), shuffled (bisecting) and backward
    scn, traj = long_demo
    stride = scn.outputs.stride
    assert traj.n_steps > 8000
    times = [i * stride for i in range(int(traj.t_end / stride + 1e-9) + 1)]
    assert len(times) > 5 * engine._CSV_BLOCK
    ys = [y for _, y, _ in traj._rows(times)]
    lags = [t - scn.model.delay.tau(max(y, 0.0)) for t, y in zip(times, ys)]
    assert min(lags) < 0.0
    history = [*np.linspace(-traj.tau_M, 0.0, 17).tolist(), -0.0,
               -traj.tau_M * (1.0 + 1e-12)]
    ends = [traj.t_end, traj.t_end * (1.0 + 1e-12),
            float(np.nextafter(traj.t_end, 0.0))]
    for grid in (times, lags, history, traj.ts.tolist(), ends):
        assert_python_rows_equal_sample(traj, grid)
    everything = [*times, *lags, *history, *traj.ts.tolist(), *ends]
    rng = np.random.default_rng(20261020)
    shuffled = rng.permutation(everything).tolist()
    assert_python_rows_equal_sample(traj, shuffled)
    assert_python_rows_equal_sample(traj, shuffled[::-1])
    for s in shuffled[:200]:
        assert traj.lookup(s) == tuple(traj.sample([s])[0].tolist())


def test_python_reader_of_a_scalar_run_equals_sample():
    # live = 1: the reader computes the padded components and drops them
    cfg = StepperConfig(t_end=20.0, h_init=0.01, h_max=0.4)
    traj = integrate_scalar_sdtd(
        lambda t, v, lookup: 1.5 * v * (1.0 - lookup(t - 0.5)),
        lambda s: 0.5 + 0.1 * math.sin(3.0 * s), cfg, 0.5, 0.5)
    assert traj.dim == 1
    grid = [*np.linspace(-0.5, 20.0, 413).tolist(), *traj.ts.tolist()]
    assert_python_rows_equal_sample(traj, grid)
    assert all(len(row) == 1 for row in traj._rows(grid))


def test_python_reader_refuses_what_sample_refuses(long_demo):
    _, traj = long_demo
    for s in (-traj.tau_M * 1.01, traj.t_end * 1.01, -math.inf, math.inf):
        with pytest.raises(LagDomainError) as want:
            traj.sample([0.5, -0.5, s, 1.0])
        for read in (lambda: traj._rows([0.5, -0.5, s, 1.0]),
                     lambda: traj.lookup(s)):
            with pytest.raises(LagDomainError) as got:
                read()
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("horizon, block, in_python", [
    (None, 100, "default"), (2560.0, 8192, "other")])
def test_both_export_paths_write_the_same_bytes(long_demo, tmp_path,
                                                monkeypatch, horizon, block,
                                                in_python):
    # the demo's 161 rows are one block, read in Python; with blocks of 100
    # they read through sample.  The long run's six blocks read through
    # sample; as one block, in Python.
    if horizon is None:
        scn = cli.load_scenario(DEMO_CONFIG)
        traj = integrate(scn.model, scn.history, scn.stepper)
    else:
        scn, traj = long_demo
    stride = scn.outputs.stride
    sampled = []
    sample = engine.Trajectory.sample

    def counting_sample(self, times):
        sampled.append(len(times))
        return sample(self, times)

    monkeypatch.setattr(engine.Trajectory, "sample", counting_sample)
    paths = {}
    for name, size in (("default", engine._CSV_BLOCK), ("other", block)):
        monkeypatch.setattr(engine, "_CSV_BLOCK", size)
        paths[name] = tmp_path / f"{name}.csv"
        del sampled[:]
        serially(monkeypatch, lambda: export_csv(scn.model, traj,
                                                 paths[name], stride))
        assert (not sampled) == (name == in_python)
    default = paths["default"].read_bytes()
    assert default == paths["other"].read_bytes()
    assert default.count(b"\n") == 1 + int(traj.t_end / stride + 1e-9) + 1


VANISHING_DELAY = exp_delay(0.0, 0.8, 1.5)


def run_delay_scalar(h_max, rtol=1e-9, atol=1e-11, calls=None,
                     delay=VANISHING_DELAY, t_end=6.0):
    """A scalar equation with a state-dependent delay from a small v.

    With tau(0) = 0 (the default delay) the lag lands inside the step, so the
    run goes through the overlap iteration.  ``calls["rhs"]`` counts the
    right-hand side's calls.
    """
    def rhs_scalar(t, v, lookup):
        if calls is not None:
            calls["rhs"] += 1
        vc = v if v > 0.0 else 0.0
        tau = delay.tau(vc)
        vlag = max(lookup(t - tau), 0.0)
        G = 2.0 * math.exp(-0.3 * tau) * vlag / (1.0 + vlag)
        return (G - 0.5 * v) / (1.0 + delay.tau_prime(vc) * G)

    def history(s):
        return 0.02 * (1.0 + 0.1 * math.sin(3.0 * s))

    cfg = StepperConfig(t_end=t_end, rtol=rtol, atol=atol,
                        h_init=h_max / 4, h_max=h_max)
    return integrate_scalar_sdtd(rhs_scalar, history, cfg,
                                 delay.tau_m, delay.tau_M)


def test_scalar_equation_with_vanishing_minimum_delay():
    grid = np.linspace(0.5, 6.0, 12)
    ref = run_delay_scalar(0.001, rtol=1e-12,
                                     atol=1e-14).sample(grid)[:, 0]
    calls = {"rhs": 0}
    roomy = run_delay_scalar(0.05, calls=calls)
    # FSAL: 6 new stages per pass, more than one pass on overlapping steps
    assert calls["rhs"] > 1 + 6 * roomy.n_attempts
    assert VANISHING_DELAY.tau(roomy.us[0, 0]) < 0.05
    assert roomy.dim == 1
    for traj in (roomy, run_delay_scalar(0.008)):
        v = traj.sample(grid)[:, 0]
        assert np.max(np.abs(v - ref) / ref) < 1e-6


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# SHA-256 of ts, us and ds, in that order, of two tau(0) = 0 runs, recorded
# at commit 9c34501, while the overlap iteration was part of the generated step
OVERLAP_SHA256 = {
    "holling2_model":
        "11a7c0a0505b03dd803a28bb37b2a52bdd235d24cce0a56c5852c0f5966ffc67",
    "scalar_h_max_0.05":
        "966f63af86b20a35ea27b87035b1068452940850b55d73fd995d7527dd56f4da",
    "scalar_h_max_0.008":
        "f0c1893a1378c7e3925580bcb0648dcebe5687b582254b8a902a1ffb4652073f",
}


def test_overlap_path_bits_are_pinned():
    # the tau(0) = 0 model run of test_step_kernel's overlap test and the
    # scalar runs above
    model = ModelSpec(ModelParams(r=1.0, K=3.0, n=1.0, dj=0.3, d=0.4),
                      VANISHING_DELAY, holling2(1.5, 0.5))
    hist = consistent_history(model, 1.5, 0.01, amp=0.2)
    runs = {"holling2_model": quiet_integrate(model, hist,
                                              default_stepper(model, 6.0)),
            "scalar_h_max_0.05": run_delay_scalar(0.05),
            "scalar_h_max_0.008": run_delay_scalar(0.008)}
    for name, traj in runs.items():
        assert _sha256(traj.ts, traj.us, traj.ds) == OVERLAP_SHA256[name], name


# SHA-256 of ts, us, fs and ds, in that order, and the attempt count of three
# runs through the stepping loop, recorded at commit 4dba3c7, while the loop
# was written by hand and called the generated step once an attempt; the
# deep crash, which runs at rtol 1e-6, re-recorded under the rtol-scaled
# default cap (0.95 tau(0) there)
LOOP_PINS = {
    "deep_crash": (
        "d5df467fe6e3c1429806c7e65296668ac07b9378b8c582d0935f87ca3b8bef3a",
        3044),
    "scalar_tau_m_0.5": (
        "9f7c51e9e85325e08a73780bf87cc409d7330197a7b84a8705156da209178d40",
        139),
    "called_laws": (
        "3693c91943d0efb615f09e7f02ec91c0769cdb6613bf712f8edcab317716524c",
        124),
}


def loop_pin_runs(bd_model) -> dict:
    """The three runs of LOOP_PINS, by name."""
    # a prey crash to the subnormals under the dichotomy probe's atol: the
    # positivity guard halves the steps that would take x to 0 and clamps
    # the juvenile channel's overshoots
    crash = ModelSpec.from_dict(dict(DEFECT_MODEL, response={
        "kind": "Linear", "coefficients": {"b": 3.0}}))
    K = crash.params.K
    hist = consistent_history(crash, 4.0 * K, 2.0 * K, amp=0.2)
    # laws that carry no text are called, and the lags cross from the
    # history into the store
    called = opaque(bd_model)
    return {"deep_crash": quiet_integrate(crash, hist, default_stepper(
                crash, 10.0, rtol=1e-6, atol=(1e-300, 1e-300, 1e-8))),
            "scalar_tau_m_0.5": run_delay_scalar(
                0.3, delay=saturating_delay(0.5, 1.0, 1.0), t_end=20.0),
            "called_laws": quiet_integrate(
                called, consistent_history(bd_model, 2.0, 0.5, amp=0.2),
                default_stepper(bd_model, 30.0))}


def test_loop_path_bits_are_pinned(bd_model):
    runs = loop_pin_runs(bd_model)
    called = opaque(bd_model)
    assert runs["deep_crash"].n_attempts > runs["deep_crash"].n_steps
    assert runs["deep_crash"].us[:, 0].min() < 1e-300
    assert runs["deep_crash"].us[:, 2].min() == 0.0
    assert all(engine._law_text(fn) is None for fn in (
        called.response.f, called.delay.tau, called.delay.tau_prime))
    for name, traj in runs.items():
        got = (_sha256(traj.ts, traj.us, traj.fs, traj.ds), traj.n_attempts)
        assert got == LOOP_PINS[name], name


# soft stops as fractions of t_end: the same stop twice, stops a step apart
# and one near the end
SOFT_STOPS = (0.1, 0.1, 0.103, 0.37, 0.5, 0.95)


def split_at_soft_stops(monkeypatch, stopped: list) -> None:
    """Make every run pause at SOFT_STOPS on its way to t_end, recording
    (soft stop, node reached, step cap) at each."""
    advance = engine.Run.advance

    def in_windows(run, t_stop):
        for frac in SOFT_STOPS:
            soft = frac * run.cfg.t_end
            assert not advance(run, soft)
            stopped.append((soft, run.store.ts[-1], run.cfg.h_max))
        return advance(run, t_stop)

    monkeypatch.setattr(engine.Run, "advance", in_windows)


def test_loop_pins_hold_when_runs_pause_at_soft_stops(bd_model, monkeypatch):
    # a run resumed on its store takes the steps of one that never paused
    stopped = []
    split_at_soft_stops(monkeypatch, stopped)
    runs = loop_pin_runs(bd_model)
    assert len(stopped) == len(runs) * len(SOFT_STOPS)
    # each pause is at the first node at or past its soft stop
    for soft, t, h_max in stopped:
        assert soft <= t < soft + h_max
    for name, traj in runs.items():
        got = (_sha256(traj.ts, traj.us, traj.fs, traj.ds), traj.n_attempts)
        assert got == LOOP_PINS[name], name


def test_attempts_count_across_windows(monkeypatch):
    # the deep-crash run of LOOP_PINS takes 3 044 attempts to t = 10; capped
    # at 2 500 it fails at t = 3.15, past three pauses, where it fails
    # unpaused, with the same partial run
    crash = ModelSpec.from_dict(dict(DEFECT_MODEL, response={
        "kind": "Linear", "coefficients": {"b": 3.0}}))
    K = crash.params.K
    hist = consistent_history(crash, 4.0 * K, 2.0 * K, amp=0.2)
    cfg = default_stepper(crash, 10.0, rtol=1e-6,
                          atol=(1e-300, 1e-300, 1e-8), max_steps=2500)
    with pytest.raises(IntegrationError, match="exceeded 2500") as whole:
        quiet_integrate(crash, hist, cfg)
    split_at_soft_stops(monkeypatch, [])
    with pytest.raises(IntegrationError, match="exceeded 2500") as paused:
        quiet_integrate(crash, hist, cfg)
    assert str(paused.value) == str(whole.value)
    got, want = paused.value.trajectory, whole.value.trajectory
    assert got.n_attempts == want.n_attempts == 2500
    assert np.array_equal(got.ts, want.ts) and np.array_equal(got.us, want.us)


def test_yj_integral_matches_initial_juvenile_stock(bd_model):
    hist = consistent_history(bd_model, 2.0, 0.5, amp=0.2)
    traj = integrate(bd_model, hist, default_stepper(bd_model, 5.0))
    assert yj_integral(bd_model, traj, 0.0) == pytest.approx(
        hist.phi2(0.0), rel=1e-8)


def test_yj_integral_zero_for_zero_response(const_delay_model):
    m = ModelSpec(const_delay_model.params, const_delay_model.delay, linear(0.0))
    hist = constant_history(1.0, 0.3, 0.2)
    traj = quiet_integrate(m, hist, default_stepper(m, 5.0))
    assert yj_integral(m, traj, 3.0) == 0.0


def test_yj_integral_tracks_ode_channel(bd_model, bd_traj):
    for t in (2.0, 10.0, 20.0, 45.0):
        ode = bd_traj.lookup(t)[2]
        quad_val = yj_integral(bd_model, bd_traj, t)
        assert abs(ode - quad_val) / max(ode, 1e-10) < 1e-6


# --------------------------------------------------------------------------
# CSV export


def test_csv_export_deterministic_and_well_formed(bd_model, tmp_path):
    hist = consistent_history(bd_model, 2.0, 0.5, amp=0.2)
    cfg = default_stepper(bd_model, 10.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(bd_model, integrate(bd_model, hist, cfg), p1, stride=0.5)
    export_csv(bd_model, integrate(bd_model, hist, cfg), p2, stride=0.5)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,yj,tau,lag_s,correction"
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.0
    assert row[4] == pytest.approx(bd_model.delay.tau(row[2]), rel=1e-12)
    assert row[5] == row[0] - row[4]
    assert row[6] > 0.0
    # round trip: every float survives parse/format exactly
    assert repr(row[6]) in lines[1]


def _csv_row_by_row(model, traj, stride):
    """export_csv's text, built one row and one lookup at a time."""
    n_rows = int(math.floor(traj.t_end / stride + 1e-9)) + 1
    times = [i * stride for i in range(n_rows)]
    if times[-1] < traj.t_end - 1e-9 * max(1.0, traj.t_end):
        times.append(traj.t_end)
    lines = ["t,x,y,yj,tau,lag_s,correction"]
    for t in times:
        x, y, yj = traj.lookup(t)
        tau = model.delay.tau(max(y, 0.0))
        x_lag, y_lag = traj.lookup(t - tau)[:2]
        y_lag = max(y_lag, 0.0)
        N = model.maturation_gain(tau, max(x_lag, 0.0), y_lag) * y_lag
        corr = correction_factor(model, max(y, 0.0), N)
        lines.append(",".join(repr(v) for v in (t, x, y, yj, tau, t - tau, corr)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("stride, block", [
    (0.0291, None),        # three blocks of the default size, t_end off the grid
    (0.5, 16),             # t_end on the grid
    (60.0 / 47.5, 16),     # 48 rows, three full blocks, then the t_end row
])
def test_csv_blocks_write_the_row_by_row_bytes(bd_model, bd_traj, stride,
                                               block, tmp_path, monkeypatch):
    if block is not None:
        monkeypatch.setattr(engine, "_CSV_BLOCK", block)
    n_rows = int(math.floor(bd_traj.t_end / stride + 1e-9)) + 1
    assert n_rows > 2 * engine._CSV_BLOCK
    path = tmp_path / "t.csv"
    export_csv(bd_model, bd_traj, path, stride)
    assert path.read_bytes() == _csv_row_by_row(bd_model, bd_traj,
                                                stride).encode()


def test_csv_export_memory_does_not_grow_with_rows(bd_model, bd_traj, tmp_path):
    peaks = [_traced_peak(export_csv, bd_model, bd_traj, tmp_path / "t.csv",
                          bd_traj.t_end / rows)[1] for rows in (3000, 12000)]
    assert peaks[1] <= 1.1 * peaks[0], peaks
