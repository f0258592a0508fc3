import math
import os
import warnings

import numpy as np
import pytest

from preydelay import (BracketSequences, InconclusiveError, ModelParams,
                       ModelSpec, beddington_deangelis,
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
    cert = boundedness_certificate(m, traj)
    assert cert.observed_x_sup == pytest.approx(2.0, rel=1e-6)
    assert cert.v_within_limit


def test_certificate_requires_long_tail(bd_model):
    hist = consistent_history(bd_model, 2.0, 0.5)
    traj = integrate(bd_model, hist, default_stepper(bd_model, 20.0))
    with pytest.raises(HorizonError):
        boundedness_certificate(bd_model, traj)


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


def test_exact_threshold_lands_on_extinction_branch(monkeypatch):
    # tune d to the recruitment gain so R == 1 exactly in floating point
    r, K, n, dj, tau_m = 1.0, 2.0, 1.0, 0.5, 0.5
    b = 0.9
    d = n * math.exp(-dj * tau_m) * b * K
    m = ModelSpec(ModelParams(r, K, n, dj, d),
                  saturating_delay(tau_m, 1.0, 1.0), linear(b))
    assert reproduction_number(m) == 1.0
    # at the threshold the predator decays only algebraically, so the
    # terminal tolerance is relaxed relative to the subcritical runs
    monkeypatch.setattr(analysis, "_EXTINCTION_TOL", 1e-2)
    verdict = permanence_probe(m, spread_histories(m, n=3, seed=3),
                               horizon=250.0)
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
# coexistence point's abscissa reads +0.0122, so no envelope rule fits it and
# its runs approach a cycle; its records at the benchmark's settings over the
# whole horizon 400/d, as read before the probes stopped any run early
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


def test_runs_that_approach_a_cycle_stop_once_their_troughs_stop_falling():
    # the trough rule stops each run within a tenth of the horizon, and the
    # tail minimum read there is at most the full-horizon one (1% allowed)
    m = ModelSpec.from_dict(CYCLING_MODEL)
    horizon = 400.0 / m.params.d
    verdict = permanence_probe(
        m, spread_histories(m, n=5, seed=CYCLING_HISTORY_SEED, lo=0.1, hi=3.0),
        horizon=horizon, cfg=default_stepper(m, horizon, rtol=1e-6,
                                             atol=(1e-300, 1e-300, 1e-8)))
    assert verdict.verdict == "permanent"
    assert [rec.label for rec in verdict.records] == [
        label for label, _, _ in CYCLING_RECORDS]
    for rec, (_, liminf, _) in zip(verdict.records, CYCLING_RECORDS):
        assert rec.ok and rec.t_decided < 0.1 * horizon
        assert 1e-6 < rec.liminf_xy <= 1.01 * liminf


def _trough_settle(xs, ys, every: int):
    """The index of the node at whose window end the trough rule first
    settles nodes (t, x, y) = (i, xs[i], ys[i]) paused every ``every``
    nodes, or None."""
    from array import array
    from types import SimpleNamespace
    store = SimpleNamespace(ts=array("d"), us=array("d"))
    settled = analysis._Troughs().watch()
    for i, (x, y) in enumerate(zip(xs, ys)):
        store.ts.append(float(i))
        store.us.extend((x, y, 0.0))
        if i % every == every - 1 and settled(store):
            return i
    return None


def test_troughs_are_parabola_vertices():
    # 2 (t - 1.25)^2 + 0.5 at t = 0, 1 and 3
    assert analysis._vertex(0.0, 1.0, 3.0, 3.625, 0.625, 6.625) == \
        pytest.approx(0.5, rel=1e-14)
    # a minimum between even nodes: the vertex lies below the node value
    assert analysis._vertex(0.0, 1.0, 2.0, 1.0, 0.0, 0.5) < 0.0


def test_trough_rule_settles_minima_that_stop_falling():
    holds = analysis._Troughs.holds
    assert holds([1.0, 1.0, 1.0, 1.0])
    assert holds([0.5, 1.0, 1.5, 2.0])
    assert holds([5.0, 1.0, 0.9995, 0.999, 0.9985])   # within the slack
    assert not holds([1.0, 1.0, 1.0])                   # two changes only
    assert not holds([1.0, 0.99, 0.98, 0.97])
    assert not holds([1.0, 1.0, 0.998, 1.0])            # one fall too steep
    assert not holds([1.0, 0.5, 1.0, 0.5, 1.0])
    # node-level troughs of oscillations, 32 nodes a period
    t = np.arange(2000) * (2.0 * math.pi / 32.0)
    wave = 1.5 + np.sin(t)
    shapes = {"flat": wave, "rising": wave * (2.0 - np.exp(-0.01 * t)),
              "falling": wave * np.exp(-0.01 * t),
              "period 2": wave * (1.0 + 0.2 * np.cos(0.5 * t)),
              "below the floor": 1e-7 * wave}
    for every in (1, 7, 50):
        found = {name: _trough_settle(xs.tolist(), wave.tolist(), every)
                 for name, xs in shapes.items()}
        assert found["falling"] is found["period 2"] is None
        assert found["below the floor"] is None
        # the fourth trough of each is at node 24 + 3 * 32 = 120, and shows
        # once node 121 is in; a rule paused at every node settles there, one
        # paused less often at the first window end after it
        for name in ("flat", "rising"):
            assert found[name] == 121 + (-122) % every, (name, every)
        # and y alone falling keeps the run going
        assert _trough_settle(wave.tolist(), shapes["falling"].tolist(),
                              every) is None
        # a trough is below its left neighbour: a constant run shows none
        assert _trough_settle([1.0] * 200, [1.0] * 200, every) is None


# The records of demo 02's four models and of the linear family's probes at
# R = 0.5 and 2: every run settles by an envelope rule, and the records are
# those read before the trough rule, in every bit
SETTLED_RECORDS = {
    ("demo", 0.5): (
        ("level0.05", 4.87141881509441e-06, 6.333900949506699e-06, 16.0900121212929),
        ("level0.158114", 1.9875562339271735e-05, 1.2064205737294387e-05, 16.07153041456179),
        ("level0.5", 0.00016097277415460934, 8.535014003474561e-05, 16.114527672922737),
        ("level1.58114", 0.0007544464563458122, 0.00039887465580812353, 16.033609098366735),
        ("level5", 0.0006901927718070559, 0.00036486712967609414, 20.000677072731257)),
    ("demo", 0.9): (
        ("level0.05", 0.00029453371150092034, 0.00018663036683486123, 16.07388528720404),
        ("level0.158114", 0.0015378082710818574, 0.0009565702649427799, 16.105202141089144),
        ("level0.5", 0.001546325689599825, 0.0009602592081374706, 48.055689898476416),
        ("level1.58114", 0.0012738433990295754, 0.0007909079662204999, 64.23108087210838),
        ("level5", 0.0012836764256155058, 0.0007970182640001378, 52.18124397209221)),
    ("demo", 1.5): (
        ("level0.05", 0.2865345330228021, 0.2946802484295161, 40.04675146406917),
        ("level0.158114", 0.2942047789384377, 0.29510003217274505, 32.28148774957782),
        ("level0.5", 0.30452142721240777, 0.2932692365383104, 48.01657601721306),
        ("level1.58114", 0.30292733351196044, 0.2937489327761913, 20.251628896681833),
        ("level5", 0.30442917386225543, 0.29326923182598397, 84.2120485913144)),
    ("family", 0.5): (
        ("level0.01", 2.8930399584420297e-07, 2.1030623331919074e-05, 16.135189327142342),
        ("level0.0562341", 4.721571564654834e-06, 6.368404625312074e-06, 16.0808455143968),
        ("level0.316228", 9.6182226386858e-05, 5.13125913980117e-05, 16.097216358818304),
        ("level1.77828", 0.0013701244837707122, 0.0007251200551549042, 16.059493872271734),
        ("level10", 0.00043962024473022626, 0.0002328051800951636, 20.1102648480842)),
    ("family", 2.0): (
        ("level0.01", 0.3525228810843723, 0.46492253747867474, 48.17188967806999),
        ("level0.0562341", 0.3615320980759249, 0.46493224337340056, 40.044612284535454),
        ("level0.316228", 0.3616063875858418, 0.46490802625401895, 32.11235153015685),
        ("level1.77828", 0.3616347802503126, 0.46500157794116037, 36.169750026576985),
        ("level10", 0.00042389622248685863, 0.4647640131069931, 156.19488585366443))}


@pytest.mark.parametrize("source,R", sorted(SETTLED_RECORDS))
def test_runs_with_an_envelope_rule_keep_their_records(source, R):
    # demos/02_threshold_dichotomy.py probes the same family
    m = linear_family_model(R)
    histories = (spread_histories(m, n=5, seed=42, lo=0.05, hi=5.0)
                 if source == "demo" else spread_histories(m, n=5, seed=1))
    verdict = permanence_probe(m, histories, horizon=200.0)
    assert verdict.records == tuple(
        analysis.HistoryRecord(label, liminf, term, True, t)
        for label, liminf, term, t in SETTLED_RECORDS[source, R])


# demo 02's runs at R = 3 have an envelope rule, but their troughs stop
# falling first; the records in every bit.  By the envelope rule alone they
# stopped at t = 60.16, 60.14, 48.24, 60.19 and 136.19.
TROUGH_FIRST_RECORDS = (
    ("level0.05", 0.3178744771808561, 0.6494799054906227, 48.16142201184363),
    ("level0.158114", 0.3184642745180156, 0.6537343268435346, 44.06653841466873),
    ("level0.5", 0.32654961076234335, 0.6438330928949436, 44.11268596551038),
    ("level1.58114", 0.30839815941191034, 0.6358483819892393, 40.03194720551869),
    ("level5", 0.2172929233240362, 0.6297837943790029, 116.17203004088542))


def test_runs_with_an_envelope_rule_settle_on_troughs_that_stop_first():
    m = linear_family_model(3.0)
    verdict = permanence_probe(
        m, spread_histories(m, n=5, seed=42, lo=0.05, hi=5.0), horizon=200.0)
    assert verdict.records == tuple(
        analysis.HistoryRecord(label, liminf, term, True, t)
        for label, liminf, term, t in TROUGH_FIRST_RECORDS)


# The model of job 28 of the dichotomy benchmark's seed 20261018 (R = 8.85):
# its coexistence point's abscissa reads +0.036, and its runs approach a
# cycle on which the node minima move by about 0.3% with where the nodes fall
SLOW_CYCLE_MODEL = {
    "params": {"r": 0.6749307165864156, "K": 3.958060017524873,
               "n": 1.4815446003911101, "dj": 0.7686741213438906,
               "d": 0.6878403117767146},
    "delay": {"kind": "saturating",
              "coefficients": {"theta": 1.7437812751553181},
              "tau_m": 0.6113162826889864, "tau_M": 0.9936019636222194},
    "response": {"kind": "Linear", "coefficients": {"b": 1.66074280742865}}}
SLOW_CYCLE_HISTORY_SEED = 1393270813
# The model of job 53 of seed 20261024 (R = 2.26): its runs reach E* to
# rounding by t = 145 and then stay there in every bit, while its envelope
# rule asks for a fall at the contour search's abscissa of -0.594
STILL_MODEL = {
    "params": {"r": 0.8423117183341619, "K": 3.2954949877003616,
               "n": 1.4174861300614756, "dj": 0.6335971130495965,
               "d": 0.5014269964143976},
    "delay": {"kind": "saturating",
              "coefficients": {"theta": 1.99824207342559},
              "tau_m": 0.7307172521491712, "tau_M": 1.131949774450326},
    "response": {"kind": "BeddingtonDeAngelis",
                 "coefficients": {"b": 0.39457355812930783,
                                  "k1": 0.006781401964391165,
                                  "k2": 1.2978908789172436}}}
STILL_HISTORY_SEED = 1144593922


def _benchmark_probe(doc: dict, history_seed: int):
    """The dichotomy benchmark's probe of the model ``doc``, and its
    horizon."""
    m = ModelSpec.from_dict(doc)
    horizon = 400.0 / m.params.d
    return permanence_probe(
        m, spread_histories(m, n=5, seed=history_seed, lo=0.1, hi=3.0),
        horizon=horizon, cfg=default_stepper(m, horizon, rtol=1e-6,
                                             atol=(1e-300, 1e-300, 1e-8))
    ), horizon


def test_runs_on_a_cycle_settle_on_the_parabola_troughs(monkeypatch):
    verdict, horizon = _benchmark_probe(SLOW_CYCLE_MODEL,
                                        SLOW_CYCLE_HISTORY_SEED)
    assert verdict.verdict == "permanent"
    assert all(rec.ok and rec.t_decided < horizon
               for rec in verdict.records)
    # on the node minima three of the runs never settle
    monkeypatch.setattr(analysis, "_vertex", lambda t0, t1, t2, a, b, e: b)
    verdict, _ = _benchmark_probe(SLOW_CYCLE_MODEL, SLOW_CYCLE_HISTORY_SEED)
    assert sum(rec.t_decided == horizon for rec in verdict.records) == 3


def test_runs_that_stop_moving_settle():
    verdict, horizon = _benchmark_probe(STILL_MODEL, STILL_HISTORY_SEED)
    assert verdict.verdict == "permanent"
    assert all(rec.ok and rec.t_decided < 0.25 * horizon
               for rec in verdict.records)


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
    assert rule.holds([8.0, 4.0, 2.0, 1.0], node, False)
    assert rule.holds([100.0, 8.0, 4.0, 2.0, 1.0], node, False)
    assert not rule.holds([4.0, 2.0, 1.0], node, False)    # two falls only
    assert not rule.holds([8.0, 4.0, 2.5, 1.0], node, False)  # one too slow
    assert not rule.holds([16.0, 8.0, 4.0, 2.0], node, False)  # above the cap
    assert not rule.holds([8.0, 4.0, 2.0, math.nan], node, False)
    far = analysis._Settling(analysis._predator_envelope, 0.5,
                             near=lambda x, y, yj: y + yj < 1.0)
    assert not far.holds([8.0, 4.0, 2.0, 1.0], node, False)
    # a window that moved no node stands in for the falls, within the cap
    # and the near test
    assert rule.holds([1.0], node, True)
    assert not rule.holds([2.0], node, True)
    assert not far.holds([0.5], node, True)


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


def test_mixed_outcomes_raise_inconclusive(monkeypatch):
    # permanent dynamics probed with an extinction-sized horizon floor:
    # force disagreement by lying about R via a floor too high
    monkeypatch.setattr(analysis, "_EPS_FLOOR", 1e9)
    m = linear_family_model(3.0)
    with pytest.raises(InconclusiveError) as exc_info:
        permanence_probe(m, spread_histories(m, n=4, seed=4), horizon=60.0)
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


def test_comparison_probe_refuses_no_pairs():
    # with no pair it reported held_all=True, having compared nothing
    with pytest.raises(ValueError, match="at least one pair"):
        comparison_probe(dj=0.3, d=1.0, delay=constant_delay(0.7),
                         forcing=lambda s: 1.0, pairs=[], horizon=5.0)


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


def test_scalar_limit_refuses_no_histories():
    # with no history it returned no estimate and raised no mismatch
    with pytest.raises(ValueError, match="at least one history"):
        scalar_limit(2.5, 1.2, 0.9, 0.4, saturating_delay(0.5, 1.2, 1.0),
                     [], horizon=30.0)


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


def test_attraction_probe_refuses_no_histories(bd_model):
    # with no history it reported all_converged=True over no records
    eq = solve_coexistence(bd_model)
    with pytest.raises(ValueError, match="at least one history"):
        global_attraction_probe(bd_model, eq, n_histories=0)


# --------------------------------------------------------------------------
# the probes fork nothing


def test_probe_whose_runs_settle_early_forks_nothing(fork_count):
    # a horizon of 2 000 capped steps, and every run settles within 200
    m = linear_family_model(2.0)
    verdict = permanence_probe(
        m, spread_histories(m, n=5, seed=1, lo=0.1, hi=3.0), horizon=600.0)
    h_max = default_stepper(m, 600.0).h_max
    assert all(rec.t_decided / h_max < 200.0 for rec in verdict.records)
    assert fork_count[0] == 0


def test_one_usable_cpu_runs_serially(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("a probe or export forked with one usable CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(analysis, "_EPS_FLOOR", 0.0)
    m = linear_family_model(2.0)
    permanence_probe(m, spread_histories(m, n=3, seed=1), horizon=10.0)
    # 3 001 rows: three blocks, enough to fork on two CPUs
    traj = integrate(m, spread_histories(m, n=1, seed=1)[0],
                     default_stepper(m, 10.0))
    export_csv(m, traj, tmp_path / "t.csv", 10.0 / 3000)
