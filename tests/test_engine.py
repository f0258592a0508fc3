import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from preydelay import (IntegrationError, LagDomainError, ModelParams,
                       ModelSpec, StepperConfig, beddington_deangelis,
                       constant_delay, consistent_history, constant_history,
                       correction_factor, crowley_martin, default_stepper,
                       exp_delay, export_csv, integrate, integrate_scalar_sdtd,
                       lag_times, linear, saturating_delay, spread_histories,
                       yj_integral)
from preydelay import engine
from preydelay.model import HistoryConsistencyWarning

from conftest import (DEFECT_ATOL, DEFECT_HISTORY_SEED, DEFECT_MODEL,
                      linear_family_model)
from oracles import RK4StepsOracle, implicit_rate_solution


def quiet_integrate(model, hist, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HistoryConsistencyWarning)
        return integrate(model, hist, cfg)


@pytest.fixture(scope="module")
def bd_traj(bd_model):
    hist = consistent_history(bd_model, 2.0, 0.5, amp=0.2)
    return integrate(bd_model, hist, default_stepper(bd_model, 60.0))


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
    # the stepper's store, fed the trajectory's steps, reads every point of
    # its retained window, in any order, bit for bit like Trajectory.sample
    traj = bd_traj
    store = engine._SolutionStore(None, traj.tau_M)
    store.append(0.0, tuple(traj.us[0]), tuple(traj.fs[0]))
    rng = np.random.default_rng(7)
    for k in range(1, len(traj.ts)):
        t = float(traj.ts[k])
        store.append(t, tuple(traj.us[k]), tuple(traj.fs[k]),
                     tuple(traj.ds[k - 1]))
        lo = max(t - traj.tau_M, 1e-9)
        grid = np.concatenate([rng.uniform(lo, t, 5),
                               traj.ts[(traj.ts >= lo) & (traj.ts <= t)]])
        rng.shuffle(grid)
        for s in grid.tolist():
            assert store.eval_past(s) == tuple(traj.sample([s])[0, :2]), (t, s)
    assert store._segs[0][0] > 0.0  # the early segments were dropped


def test_sample_rejects_times_outside_the_record(bd_traj):
    for s in (-bd_traj.tau_M * 1.01, bd_traj.t_end * 1.01):
        with pytest.raises(LagDomainError):
            bd_traj.sample([0.5, s])
        with pytest.raises(LagDomainError):
            bd_traj.lookup(s)


def test_scalar_equation_with_vanishing_minimum_delay(monkeypatch):
    # tau(0) = 0 and a small v: the lag lands inside the step, so the scalar
    # run goes through the provisional-segment iteration too
    delay = exp_delay(0.0, 0.8, 1.5)
    calls = {"rhs": 0, "attempts": 0}

    def rhs_scalar(t, v, lookup):
        calls["rhs"] += 1
        vc = v if v > 0.0 else 0.0
        tau = delay.tau(vc)
        vlag = max(lookup(t - tau), 0.0)
        G = 2.0 * math.exp(-0.3 * tau) * vlag / (1.0 + vlag)
        return (G - 0.5 * v) / (1.0 + delay.tau_prime(vc) * G)

    def history(s):
        return 0.02 * (1.0 + 0.1 * math.sin(3.0 * s))

    def run(h_max, rtol=1e-9, atol=1e-11):
        cfg = StepperConfig(t_end=6.0, rtol=rtol, atol=atol,
                            h_init=h_max / 4, h_max=h_max)
        return integrate_scalar_sdtd(rhs_scalar, history, cfg,
                                     delay.tau_m, delay.tau_M)

    grid = np.linspace(0.5, 6.0, 12)
    ref = run(0.001, rtol=1e-12, atol=1e-14).sample(grid)[:, 0]
    attempt_step = engine._attempt_step

    def counting_attempt_step(*args):
        calls["attempts"] += 1
        return attempt_step(*args)

    monkeypatch.setattr(engine, "_attempt_step", counting_attempt_step)
    calls["rhs"] = 0
    roomy = run(0.05)
    # FSAL: 6 new stages per pass, more than one pass on overlapping steps
    assert calls["rhs"] > 1 + 6 * calls["attempts"]
    assert delay.tau(roomy.us[0, 0]) < 0.05
    assert roomy.dim == 1
    for traj in (roomy, run(0.008)):
        v = traj.sample(grid)[:, 0]
        assert np.max(np.abs(v - ref) / ref) < 1e-6


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
