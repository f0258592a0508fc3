import math
import os
import threading
import warnings

import numpy as np
import pytest

from preydelay import (BracketSequences, InconclusiveError, IntegrationError,
                       ModelParams, ModelSpec, beddington_deangelis,
                       boundedness_limit, comparison_probe, constant_delay,
                       consistent_history, constant_history, default_stepper,
                       exp_delay, export_csv, extrapolated_limits,
                       global_attraction_probe,
                       integrate, linear, monotone_bounds, permanence_probe,
                       reproduction_number, saturating_delay,
                       scalar_fixed_point, scalar_limit, solve_coexistence,
                       spread_histories, boundedness_certificate)
from preydelay import analysis
from preydelay.analysis import AnalysisError, BracketNestingError, HorizonError
from preydelay.model import HistoryConsistencyWarning

from conftest import (DEFECT_ATOL, DEFECT_HISTORY_SEED, DEFECT_MODEL,
                      linear_family_model)
from forking import assert_no_child_left, serially


# --------------------------------------------------------------------------
# boundedness


def test_limit_closed_form_when_rates_match():
    m = ModelSpec(ModelParams(1.0, 2.0, 1.0, 1.0, 1.0), constant_delay(0.5),
                  linear(1.0))
    # n K (d + r)^2 / (4 r d)
    assert boundedness_limit(m) == pytest.approx(2.0)


def test_prey_only_tail_reaches_capacity():
    m = ModelSpec(ModelParams(1.0, 2.0, 1.0, 0.5, 1.0), constant_delay(0.5),
                  linear(0.0))
    hist = constant_history(0.2, 0.1, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HistoryConsistencyWarning)
        traj = integrate(m, hist, default_stepper(m, 40.0))
    cert = boundedness_certificate(m, traj, tail_fraction=0.25)
    assert cert.observed_x_sup == pytest.approx(2.0, rel=1e-6)
    assert cert.v_within_limit


def test_certificate_requires_long_tail(bd_model):
    hist = consistent_history(bd_model, 2.0, 0.5)
    traj = integrate(bd_model, hist, default_stepper(bd_model, 20.0))
    with pytest.raises(HorizonError):
        boundedness_certificate(bd_model, traj, tail_fraction=0.25)


def test_certificate_holds_on_fixture(bd_model):
    hist = spread_histories(bd_model, n=1, seed=7)[0]
    traj = integrate(bd_model, hist, default_stepper(bd_model, 60.0))
    cert = boundedness_certificate(bd_model, traj)
    assert cert.v_within_limit
    assert cert.x_within_capacity(bd_model.params.K)


# --------------------------------------------------------------------------
# permanence / extinction


def test_supercritical_family_is_permanent():
    # the largest history crashes the prey and needs the recovery window
    # before the persistent regime shows in the tail
    m = linear_family_model(2.0)
    verdict = permanence_probe(m, spread_histories(m, n=5, seed=1),
                               horizon=200.0)
    assert verdict.verdict == "permanent"
    assert not verdict.boundary_case
    assert all(rec.liminf_xy > 1e-6 for rec in verdict.records)


def test_subcritical_family_goes_extinct():
    m = linear_family_model(0.5)
    histories = spread_histories(m, n=5, seed=2)
    verdict = permanence_probe(m, histories, horizon=200.0)
    assert verdict.verdict == "extinction"
    assert all(rec.terminal_error <= 1e-3 for rec in verdict.records)
    # the predator itself dies off far below its starting level
    traj = integrate(m, histories[2], default_stepper(m, 200.0))
    assert traj.lookup(200.0)[1] < 1e-3 * histories[2].phi3(0.0)


def test_dichotomy_on_random_spec_sample():
    # verdict equals (R > 1) across random linear and interference-response
    # draws; the band around R = 1 is excluded wide enough that horizon
    # 200/d settles both branches (coarser tolerances: verdicts only)
    rng = np.random.default_rng(8)
    from preydelay import beddington_deangelis, linear as linear_resp, make_delay
    tested = 0
    while tested < 50:
        r = rng.uniform(0.5, 1.5)
        K = rng.uniform(1.0, 4.0)
        n = rng.uniform(0.5, 1.5)
        dj = rng.uniform(0.2, 0.8)
        d = rng.uniform(0.5, 1.2)
        tau_m = rng.uniform(0.4, 0.9)
        delay = make_delay("saturating", tau_m, tau_m + rng.uniform(0.1, 0.6),
                           theta=rng.uniform(0.5, 2.0))
        if rng.random() < 0.5:
            resp = linear_resp(b=rng.uniform(0.1, 2.0))
        else:
            resp = beddington_deangelis(b=rng.uniform(0.1, 2.0),
                                        k1=rng.uniform(0.0, 0.4),
                                        k2=rng.uniform(0.1, 1.5))
        m = ModelSpec(ModelParams(r, K, n, dj, d), delay, resp)
        R = reproduction_number(m)
        if abs(R - 1.0) < 0.25:
            continue
        tested += 1
        horizon = 200.0 / d
        cfg = default_stepper(m, horizon, rtol=1e-6,
                              atol=(1e-30, 1e-30, 1e-8))
        verdict = permanence_probe(
            m, spread_histories(m, n=5, seed=tested, lo=0.1, hi=3.0),
            horizon=horizon, cfg=cfg)
        assert (verdict.verdict == "permanent") == (R > 1.0), (R, m.to_dict())
    assert tested == 50


def test_exact_threshold_lands_on_extinction_branch():
    # tune d to the recruitment gain so R == 1 exactly in floating point
    r, K, n, dj, tau_m = 1.0, 2.0, 1.0, 0.5, 0.5
    b = 0.9
    d = n * math.exp(-dj * tau_m) * b * K
    m = ModelSpec(ModelParams(r, K, n, dj, d),
                  saturating_delay(tau_m, 1.0, 1.0), linear(b))
    assert reproduction_number(m) == 1.0
    # at the threshold the predator decays only algebraically, so the
    # terminal tolerance is relaxed relative to the subcritical runs
    verdict = permanence_probe(m, spread_histories(m, n=3, seed=3),
                               horizon=250.0, extinction_tol=1e-2)
    assert verdict.verdict == "extinction"
    assert verdict.boundary_case


def test_deep_prey_crash_stays_permanent():
    # R = 12.46; one history crashes the prey to ~5e-41 under a 1e-30 floor
    m = ModelSpec.from_dict(DEFECT_MODEL)
    horizon = 200.0 / m.params.d
    verdict = permanence_probe(
        m, spread_histories(m, n=5, seed=DEFECT_HISTORY_SEED, lo=0.1, hi=3.0),
        horizon=horizon,
        cfg=default_stepper(m, horizon, rtol=1e-6, atol=DEFECT_ATOL))
    assert verdict.verdict == "permanent"
    assert all(rec.liminf_xy > 1e-6 for rec in verdict.records)


# The model of job 20 of the dichotomy benchmark's seed 7 (R = 5.385): its
# coexistence point's abscissa reads +0.0122, so none of its runs can settle,
# and its records at the benchmark's settings, as read before the probes
# stopped settled runs
CYCLING_MODEL = {
    "params": {"r": 1.3447322944889888, "K": 3.0027556722813733,
               "n": 0.7901616508294579, "dj": 0.3611624834624159,
               "d": 0.6239259143938131},
    "delay": {"kind": "saturating",
              "coefficients": {"theta": 0.9280105405705013},
              "tau_m": 0.6023561030448519, "tau_M": 0.8823975706013429},
    "response": {"kind": "Linear", "coefficients": {"b": 1.7601467581194445}}}
CYCLING_HISTORY_SEED = 402740295
CYCLING_RECORDS = (  # label, liminf_xy, terminal_error
    ("level0.1", 0.4289455144426553, 0.7754127297232802),
    ("level0.234035", 0.42969255140884816, 0.8494220478255678),
    ("level0.547723", 0.43704536773017527, 0.7550529861662018),
    ("level1.28186", 0.42812839212958514, 0.7925063384483164),
    ("level3", 0.42571274597362346, 0.8535047807361219))


def test_runs_that_never_settle_keep_their_full_horizon_records():
    m = ModelSpec.from_dict(CYCLING_MODEL)
    horizon = 400.0 / m.params.d
    verdict = permanence_probe(
        m, spread_histories(m, n=5, seed=CYCLING_HISTORY_SEED, lo=0.1, hi=3.0),
        horizon=horizon, cfg=default_stepper(m, horizon, rtol=1e-6,
                                             atol=(1e-300, 1e-300, 1e-8)))
    assert verdict.verdict == "permanent"
    assert verdict.records == tuple(
        analysis.HistoryRecord(label, liminf, term, True, horizon)
        for label, liminf, term in CYCLING_RECORDS)


def test_settled_runs_stop_early_and_pass_the_check_there():
    # most runs of both branches settle in a fraction of the horizon (the
    # R = 2 run from ten times the reference level crashes the prey and
    # settles at t = 156), and each record's check holds on the run up to
    # where it stopped
    for R in (0.5, 2.0):
        m = linear_family_model(R)
        verdict = permanence_probe(m, spread_histories(m, n=5, seed=1),
                                   horizon=200.0)
        assert verdict.verdict == ("permanent" if R > 1.0 else "extinction")
        decided = sorted(rec.t_decided for rec in verdict.records)
        assert all(rec.ok for rec in verdict.records)
        assert decided[2] < 50.0 and decided[-1] < 200.0
        # pauses fall every four maximum delays (tau_M = 1), and four
        # windows are the fewest that show three falls
        assert decided[0] >= 16.0


def test_extinction_on_too_short_a_horizon_stays_inconclusive():
    # at R = 0.9 the predator decays slowly: by t = 24 two of the five runs
    # are still more than 1e-3 from (K, 0, 0), so they may not stop early,
    # and the probe reads inconclusive as it did over the whole horizon
    m = linear_family_model(0.9)
    with pytest.raises(InconclusiveError, match="disagree") as exc_info:
        permanence_probe(m, spread_histories(m, n=5, seed=1), horizon=24.0)
    failed = [rec for rec in exc_info.value.records if not rec.ok]
    assert len(failed) == 2
    for rec in failed:
        assert rec.terminal_error > 1e-3 and rec.t_decided == 24.0


def test_settle_rule_needs_three_falls_at_the_abscissa_rate():
    rule = analysis._Settling(analysis._predator_envelope, 0.5, cap=1.0)
    node = (1.0, 0.5, 0.5)
    assert rule.holds([8.0, 4.0, 2.0, 1.0], node)
    assert rule.holds([100.0, 8.0, 4.0, 2.0, 1.0], node)
    assert not rule.holds([4.0, 2.0, 1.0], node)           # two falls only
    assert not rule.holds([8.0, 4.0, 2.5, 1.0], node)      # one too slow
    assert not rule.holds([16.0, 8.0, 4.0, 2.0], node)     # above the cap
    assert not rule.holds([8.0, 4.0, 2.0, math.nan], node)
    far = analysis._Settling(analysis._predator_envelope, 0.5,
                             near=lambda x, y, yj: y + yj < 1.0)
    assert not far.holds([8.0, 4.0, 2.0, 1.0], node)


def test_envelopes_are_the_largest_node_distance():
    # the relative envelope reads only each component's extremes
    from array import array
    rng = np.random.default_rng(20261019)
    eq = solve_coexistence(linear_family_model(2.0))
    envelope = analysis._relative_envelope(eq)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        nodes = rng.uniform(0.5, 1.5, (n, 3)) * [eq.x_star, eq.y_star, 1.0]
        us = array("d", [0.0] * 6 + nodes.ravel().tolist() + [9.0] * 3)
        a, b = 6, 6 + 3 * n
        assert envelope(us, a, b) == max(
            max(abs(x / eq.x_star - 1.0), abs(y / eq.y_star - 1.0))
            for x, y, _ in nodes.tolist())
        assert analysis._predator_envelope(us, a, b) == max(
            y + yj for _, y, yj in nodes.tolist())


def test_mixed_outcomes_raise_inconclusive():
    # permanent dynamics probed with an extinction-sized horizon floor:
    # force disagreement by lying about R via eps_floor too high
    m = linear_family_model(3.0)
    with pytest.raises(InconclusiveError) as exc_info:
        permanence_probe(m, spread_histories(m, n=4, seed=4), horizon=60.0,
                         eps_floor=1e9)
    # no run stops early on a record that fails its check
    assert all(rec.t_decided == 60.0 for rec in exc_info.value.records)


# --------------------------------------------------------------------------
# comparison probe


def test_identical_data_stay_identical():
    delay = saturating_delay(0.4, 1.0, 1.0)
    hist = lambda t: 0.8 + 0.1 * math.sin(2.0 * t)
    rep = comparison_probe(dj=0.3, d=1.0, delay=delay,
                           forcing=lambda s: 1.0 + 0.3 * math.sin(s),
                           pairs=[(hist, hist)], horizon=25.0)
    assert rep.held_all
    assert rep.pairs[0].max_violation < 1e-9


def test_comparison_probe_runs_at_a_small_minimum_delay():
    # the step cap 0.6 tau_m = 0.006 lies below the usual 0.01 first step
    delay = saturating_delay(0.01, 0.5, 1.0)
    hist = lambda t: 0.8 + 0.1 * math.sin(2.0 * t)
    rep = comparison_probe(dj=0.3, d=1.0, delay=delay,
                           forcing=lambda s: 1.0 + 0.3 * math.sin(s),
                           pairs=[(hist, hist)], horizon=5.0)
    assert rep.held_all
    assert rep.pairs[0].max_violation < 1e-9


def test_constant_delay_preserves_order():
    delay = constant_delay(0.7)
    pairs = []
    for lo_scale in (0.2, 0.5, 0.9):
        hi = lambda t: 1.0 + 0.2 * math.cos(t)
        lo = lambda t, s=lo_scale: s * (1.0 + 0.2 * math.cos(t))
        pairs.append((hi, lo))
    rep = comparison_probe(dj=0.4, d=0.8, delay=delay,
                           forcing=lambda s: 1.0 + 0.4 * math.sin(0.7 * s),
                           pairs=pairs, horizon=30.0)
    assert rep.held_all


def test_steep_state_dependence_is_reported_not_asserted():
    delay = exp_delay(0.05, 1.5, 4.0)
    hi = lambda t: 1.0
    lo = lambda t: 0.97
    rep = comparison_probe(dj=0.4, d=0.8, delay=delay,
                           forcing=lambda s: 1.0 + 0.8 * math.sin(3.0 * s),
                           pairs=[(hi, lo)], horizon=30.0)
    # outcome is data: both holding and violation are acceptable results
    assert rep.pairs[0].max_violation is not None


# --------------------------------------------------------------------------
# scalar limit


def test_fixed_point_trivial_values():
    # negligible juvenile mortality: vtilde = (a1 - a3) / (a2 a3) = 1
    v, viable = scalar_fixed_point(2.0, 1.0, 1.0, 1e-14, constant_delay(0.6))
    assert viable and v == pytest.approx(1.0, rel=1e-9)
    # survival exactly one half: a1 = 4, a3 = 1 gives vtilde = 1
    v, viable = scalar_fixed_point(4.0, 1.0, 1.0, math.log(2.0),
                                   constant_delay(1.0))
    assert viable and v == pytest.approx(1.0, rel=1e-12)


def test_nonviable_returns_extinction_flag():
    res = scalar_limit(1.0, 1.0, 2.0, 0.5, constant_delay(1.0),
                       [lambda t: 1.0], horizon=80.0)
    assert not res.viable and res.fixed_point == 0.0
    assert res.tail_estimates[0] < 1e-6


def test_saturating_delay_limit_matches_simulation():
    delay = saturating_delay(0.5, 1.2, 1.0)
    res = scalar_limit(2.5, 1.2, 0.9, 0.4, delay,
                       [lambda t: 0.3, lambda t: 2.5], horizon=300.0)
    assert res.viable
    assert max(res.rel_errors) < 1e-4


def test_short_horizon_tail_misses_the_fixed_point():
    # by t = 10 the tails still sit 0.5-5% from the fixed point 0.8351, far
    # beyond the 1e-4 agreement; at 300 the same histories agree to 1e-15
    delay = saturating_delay(0.5, 1.2, 1.0)
    levels = np.random.default_rng(20261019).uniform(0.2, 3.0, 3)
    histories = [lambda t, v=float(v): v for v in levels]
    with pytest.raises(analysis.ScalarLimitMismatch,
                       match="disagree with fixed point 0.83513644 beyond "
                             "0.0001 relative"):
        scalar_limit(2.5, 1.2, 0.9, 0.4, delay, histories, horizon=10.0)
    res = scalar_limit(2.5, 1.2, 0.9, 0.4, delay, histories, horizon=300.0)
    assert max(res.rel_errors) < 1e-4


def test_scalar_limit_runs_at_a_small_minimum_delay():
    delay = saturating_delay(0.01, 0.5, 1.0)
    res = scalar_limit(2.5, 1.2, 0.9, 0.4, delay,
                       [lambda t: 0.3, lambda t: 2.5], horizon=30.0)
    assert res.viable
    assert max(res.rel_errors) < 1e-4


# --------------------------------------------------------------------------
# monotone brackets


def test_brackets_nest_and_contain_equilibrium(bd_model):
    eq = solve_coexistence(bd_model)
    br = monotone_bounds(bd_model, eq, epsilon=1e-3)
    assert isinstance(br, BracketSequences)
    assert np.all(np.diff(br.x_over) <= 1e-12)
    assert np.all(np.diff(br.x_under) >= -1e-12)
    assert np.all(br.x_under <= br.x_over)
    assert np.all(br.x_under > 0.0) and np.all(br.y_under > 0.0)
    assert np.all((br.x_under <= eq.x_star) & (eq.x_star <= br.x_over))
    assert np.all((br.y_under <= eq.y_star) & (eq.y_star <= br.y_over))


def test_bracket_limits_identity(bd_model):
    eq = solve_coexistence(bd_model)
    eps = 1e-3
    br = monotone_bounds(bd_model, eq, epsilon=eps)
    p = bd_model.params
    c = bd_model.response.coefficients
    coef = (p.n * c["b"] * math.exp(-p.dj * br.tau_hat)
            - p.d * c["k1"]) / (c["k2"] * p.d)
    x_o, x_u, y_o, y_u = br.limits
    assert (y_o - y_u) == pytest.approx(coef * (x_o - x_u) + 2 * eps, abs=1e-10)


def test_bracket_contraction_factor_below_one(bd_model):
    eq = solve_coexistence(bd_model)
    p = bd_model.params
    c = bd_model.response.coefficients
    e = math.exp(-p.dj * bd_model.delay.tau(eq.y_star))
    q = c["b"] * p.K * (p.n * c["b"] * e - p.d * c["k1"]) / (
        c["k2"] * p.d * p.r)
    assert 0.0 < q < 1.0


def test_extrapolated_limits_hit_equilibrium(bd_model):
    eq = solve_coexistence(bd_model)
    x_o, x_u, y_o, y_u = extrapolated_limits(bd_model, eq)
    assert x_o == pytest.approx(eq.x_star, abs=1e-6)
    assert x_u == pytest.approx(eq.x_star, abs=1e-6)
    assert y_o == pytest.approx(eq.y_star, abs=1e-6)
    assert y_u == pytest.approx(eq.y_star, abs=1e-6)


def test_oversized_epsilon_raises_with_index(bd_model):
    eq = solve_coexistence(bd_model)
    with pytest.raises(BracketNestingError) as exc_info:
        monotone_bounds(bd_model, eq, epsilon=5.0)
    assert exc_info.value.index >= 0


def test_prey_handling_breaks_containment(bd_k1_model):
    # with k1 > 0 the over-bound map drops the k1 x term, so its limit is
    # offset from the true equilibrium and containment must fail
    eq = solve_coexistence(bd_k1_model)
    with pytest.raises(BracketNestingError):
        monotone_bounds(bd_k1_model, eq, epsilon=1e-4)


def test_bracket_requires_attraction_conditions():
    m = ModelSpec(ModelParams(1.0, 5.0, 1.0, 0.55, 0.45),
                  saturating_delay(0.5, 1.0, 1.0),
                  beddington_deangelis(b=1.0, k1=0.0, k2=2.0))
    eq = solve_coexistence(m)
    with pytest.raises(AnalysisError):
        monotone_bounds(m, eq, epsilon=1e-3)


def test_bracket_validates_tau_hat_before_conditions(bd_model):
    # with k2 = 0.05 the attraction conditions fail; a bad tau_hat must still
    # be reported as a bad argument, not as a failed condition
    m = ModelSpec(bd_model.params, bd_model.delay,
                  beddington_deangelis(b=1.0, k1=0.0, k2=0.05))
    eq = solve_coexistence(m)
    with pytest.raises(ValueError, match="tau_hat"):
        monotone_bounds(m, eq, epsilon=1e-4, tau_hat="bogus")


# --------------------------------------------------------------------------
# global attraction


def test_equilibrium_history_stays_at_equilibrium(bd_model):
    eq = solve_coexistence(bd_model)
    hist = constant_history(eq.x_star, eq.y_star, eq.yj_star)
    traj = integrate(bd_model, hist, default_stepper(bd_model, 50.0))
    vals = traj.sample(np.linspace(0.0, 50.0, 41))
    star = np.array([eq.x_star, eq.y_star, eq.yj_star])
    assert np.max(np.abs(vals - star) / star) < 1e-6


def test_probe_converges_on_fixture(bd_model):
    eq = solve_coexistence(bd_model)
    rep = global_attraction_probe(bd_model, eq, n_histories=4, horizon=400.0,
                                  seed=9)
    assert rep.all_converged
    assert rep.worst.err_x < 1e-4


def test_probe_requires_conditions_by_default():
    m = ModelSpec(ModelParams(1.0, 5.0, 1.0, 0.55, 0.45),
                  saturating_delay(0.5, 1.0, 1.0),
                  beddington_deangelis(b=1.0, k1=0.0, k2=2.0))
    eq = solve_coexistence(m)
    with pytest.raises(AnalysisError):
        global_attraction_probe(m, eq, n_histories=2, horizon=50.0)
    # exploratory mode returns data with no expectation attached
    rep = global_attraction_probe(m, eq, n_histories=2, horizon=50.0,
                                  require_conditions=False)
    assert len(rep.records) == 2


# --------------------------------------------------------------------------
# histories run side by side


def test_forked_permanence_records_equal_serial(forks, monkeypatch):
    m = linear_family_model(2.0)
    hists = spread_histories(m, n=5, seed=1, lo=0.1, hi=3.0)
    run = lambda: permanence_probe(m, hists, horizon=10.0, eps_floor=0.0)
    verdict = run()
    assert forks[0] == 1
    assert verdict == serially(monkeypatch, run)
    assert forks[0] == 1
    assert_no_child_left()


def test_forked_records_equal_serial_when_some_runs_stop_early(forks,
                                                               monkeypatch):
    # at R = 3 and horizon 60 two runs settle early and three run to the
    # horizon; the first run's end forks the other four
    m = linear_family_model(3.0)
    hists = spread_histories(m, n=5, seed=1, lo=0.1, hi=3.0)
    run = lambda: permanence_probe(m, hists, horizon=60.0)
    verdict = run()
    assert forks[0] == 1
    decided = [rec.t_decided for rec in verdict.records]
    assert 0 < sum(t < 60.0 for t in decided) < len(decided)
    assert verdict == serially(monkeypatch, run)
    assert forks[0] == 1
    assert_no_child_left()


def test_forked_attraction_records_equal_serial(forks, monkeypatch, bd_model):
    eq = solve_coexistence(bd_model)
    run = lambda: global_attraction_probe(bd_model, eq, n_histories=5,
                                          horizon=30.0, seed=9)
    report = run()
    assert forks[0] == 1
    assert report == serially(monkeypatch, run)
    assert_no_child_left()


def test_probe_whose_runs_settle_early_forks_nothing(fork_count):
    # a horizon of 2 000 capped steps, and every run settles within 200
    m = linear_family_model(2.0)
    verdict = permanence_probe(
        m, spread_histories(m, n=5, seed=1, lo=0.1, hi=3.0), horizon=600.0)
    h_max = default_stepper(m, 600.0).h_max
    assert all(rec.t_decided / h_max < analysis._FORK_MIN_STEPS
               for rec in verdict.records)
    assert fork_count[0] == 0


def test_probe_forks_the_histories_after_a_long_run(fork_count,
                                                    monkeypatch):
    from preydelay import _forkmap

    mapped = []
    fork_map = _forkmap.fork_map

    def recording_fork_map(fn, items):
        mapped.append([h.label for h in items])
        return fork_map(fn, items)

    monkeypatch.setattr(_forkmap, "fork_map", recording_fork_map)
    m = linear_family_model(3.0)
    hists = spread_histories(m, n=5, seed=1, lo=0.1, hi=3.0)[::-1]
    run = lambda: permanence_probe(m, hists, horizon=600.0)
    verdict = run()
    h_max = default_stepper(m, 600.0).h_max
    assert verdict.records[0].t_decided / h_max >= analysis._FORK_MIN_STEPS
    assert fork_count[0] == 1
    assert mapped == [[h.label for h in hists[1:]]]
    assert verdict == serially(monkeypatch, run)
    assert fork_count[0] == 1
    assert_no_child_left()


def test_child_warning_reaches_the_caller(forks):
    # the first run forks the other two; the child's item is the last
    m = linear_family_model(2.0)
    hists = spread_histories(m, n=3, seed=1)
    hists[2] = constant_history(1.0, 0.5, 1e-3, label="inconsistent")
    with pytest.warns(HistoryConsistencyWarning, match="juvenile") as caught:
        permanence_probe(m, hists, horizon=10.0, eps_floor=0.0)
    assert forks[0] == 1
    assert sum(w.category is HistoryConsistencyWarning for w in caught) == 1
    assert_no_child_left()


def test_child_warning_repeats_show_once_like_serial(forks):
    m = linear_family_model(2.0)
    hists = spread_histories(m, n=3, seed=1)
    hists[2] = constant_history(1.0, 0.5, 1e-3, label="inconsistent")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(2):
            permanence_probe(m, hists, horizon=10.0, eps_floor=0.0)
    assert forks[0] == 2
    # (Python 3.12 adds its own DeprecationWarning for the fork)
    shown = [w for w in caught if w.category is HistoryConsistencyWarning]
    assert len(shown) == 1
    assert shown[0].filename == analysis.__file__
    assert_no_child_left()


def test_child_integration_error_surfaces_like_a_serial_run(forks,
                                                            monkeypatch):
    # only the deep-crash history (the last level) needs more than 150 steps
    # to reach t = 20; the first run forks the other four, and the last is
    # the child's second item
    m = ModelSpec.from_dict(DEFECT_MODEL)
    hists = spread_histories(m, n=5, seed=DEFECT_HISTORY_SEED, lo=0.1, hi=3.0)
    cfg = default_stepper(m, 20.0, rtol=1e-6, atol=DEFECT_ATOL, max_steps=150)
    run = lambda: permanence_probe(m, hists, horizon=20.0, cfg=cfg)
    with pytest.raises(IntegrationError) as forked:
        run()
    assert forks[0] == 1
    assert_no_child_left()
    with pytest.raises(IntegrationError) as serial:
        serially(monkeypatch, run)
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)
    got, want = forked.value.trajectory, serial.value.trajectory
    assert np.array_equal(got.ts, want.ts) and np.array_equal(got.us, want.us)


def test_parent_failure_stops_the_children(forks):
    # a run from the steady state reaches t = 4 within 20 attempts and forks
    # the others, which need more; the parent's first item fails
    m = linear_family_model(2.0)
    eq = solve_coexistence(m)
    hists = [consistent_history(m, eq.x_star, eq.y_star, label="steady")]
    hists += spread_histories(m, n=4, seed=1)
    cfg = default_stepper(m, 4.0, max_steps=20)
    with pytest.raises(IntegrationError, match="exceeded 20 attempts"):
        permanence_probe(m, hists, horizon=4.0, cfg=cfg)
    assert forks[0] == 1
    assert_no_child_left()


def test_probe_with_a_live_thread_does_not_fork(forks):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30.0,))
    thread.start()
    try:
        m = linear_family_model(2.0)
        permanence_probe(m, spread_histories(m, n=3, seed=1), horizon=10.0,
                         eps_floor=0.0)
    finally:
        release.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert forks[0] == 0


def test_one_usable_cpu_runs_serially(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("a probe or export forked with one usable CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(analysis, "_FORK_MIN_STEPS", 0)
    m = linear_family_model(2.0)
    permanence_probe(m, spread_histories(m, n=3, seed=1), horizon=10.0,
                     eps_floor=0.0)
    # 3 001 rows: three blocks, enough to fork on two CPUs
    traj = integrate(m, spread_histories(m, n=1, seed=1)[0],
                     default_stepper(m, 10.0))
    export_csv(m, traj, tmp_path / "t.csv", 10.0 / 3000)
