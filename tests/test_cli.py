import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from preydelay import cli, power_law, stability
from preydelay.cli import (EXIT_CHECK_FAILURE, EXIT_CONFIG, EXIT_NUMERICAL,
                           EXIT_OK, main)
from preydelay.engine import LagDomainError, default_stepper
from preydelay.model import HistoryConsistencyWarning, ModelSpec
from preydelay.equilibria import NoConvergenceError, WindingError

from forking import assert_no_child_left, serially

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"


def write_config(path, *, b=1.0, k1=0.0, k2=10.0, d=0.45, t_end=60.0,
                 extra=None, history=None, sweep=None, svg=None):
    doc = {
        "schema": 1,
        "model": {
            "params": {"r": 1.0, "K": 5.0, "n": 1.0, "dj": 0.55, "d": d},
            "delay": {"kind": "saturating", "coefficients": {"theta": 1.0},
                      "tau_m": 0.5, "tau_M": 1.0},
            "response": {"kind": "BeddingtonDeAngelis",
                         "coefficients": {"b": b, "k1": k1, "k2": k2}},
        },
        "history": history or {"kind": "constant_plus_sine", "x": 2.0,
                               "y": 0.4, "amp": 0.2, "omega": 2.0},
        "stepper": {"t_end": t_end},
        "outputs": {"stride": 0.5, "csv": "traj.csv"},
        "seed": 42,
    }
    if svg:
        doc["outputs"]["svg"] = svg
    if sweep is not None:
        doc["sweep"] = sweep
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


def subcritical_config(path, t_end=250.0):
    # linear response scaled so R = 0.5; prey returns to capacity
    doc = {
        "schema": 1,
        "model": {
            "params": {"r": 1.0, "K": 2.0, "n": 1.0, "dj": 0.5, "d": 1.0},
            "delay": {"kind": "saturating", "coefficients": {"theta": 1.0},
                      "tau_m": 0.5, "tau_M": 1.0},
            "response": {"kind": "Linear",
                         "coefficients": {"b": 0.5 / (math.exp(-0.25) * 2.0)}},
        },
        "history": {"kind": "constant_plus_sine", "x": 1.0, "y": 0.5,
                    "amp": 0.2, "omega": 2.0},
        "stepper": {"t_end": t_end},
        "outputs": {"stride": 1.0, "csv": "traj.csv"},
        "seed": 42,
    }
    path.write_text(json.dumps(doc))
    return path


def test_simulate_subcritical_reaches_extinction_state(tmp_path, capsys):
    cfg = subcritical_config(tmp_path / "cfg.json")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x,y,yj,tau,lag_s,correction"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(2.0, abs=1e-3)   # x -> K
    assert abs(last[2]) < 1e-3                        # y -> 0
    assert abs(last[3]) < 1e-3                        # yj -> 0


def test_simulate_deterministic_output(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", t_end=20.0, svg="traj.svg")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "traj.csv").read_bytes() == (out2 / "traj.csv").read_bytes()
    assert (out1 / "traj.svg").read_bytes() == (out2 / "traj.svg").read_bytes()
    assert (out1 / "traj.svg").read_text().startswith("<svg")


def chart_polylines(path):
    """The points of each polyline of an SVG chart, as (x, y) strings."""
    return [[pt.split(",") for pt in pts.split()] for pts in
            re.findall(r'<polyline points="([^"]*)"', path.read_text())]


@pytest.mark.parametrize("horizon", ["80.3", "0.2"])
def test_simulate_chart_spans_exactly_the_horizon(tmp_path, horizon):
    # off the stride grid the chart once sampled past t_end (exit 3), and
    # below one stride it drew a single point at nan with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(DEMO_CONFIG), "--out",
                     str(tmp_path), "--horizon", horizon]) == EXIT_OK
    assert (tmp_path / "trajectory.csv").is_file()
    svg = tmp_path / "trajectory.svg"
    assert "nan" not in svg.read_text()
    lines = chart_polylines(svg)
    assert len(lines) == 4
    for points in lines:
        # the plot area spans x = 70 to 700
        assert points[0][0] == "70" and points[-1][0] == "700"


def test_simulate_chart_keeps_two_points_per_pixel_column(tmp_path):
    assert main(["simulate", "--config", str(DEMO_CONFIG), "--out",
                 str(tmp_path), "--horizon", "10240"]) == EXIT_OK
    with open(tmp_path / "trajectory.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 20481
    lines = chart_polylines(tmp_path / "trajectory.svg")
    assert [len(points) for points in lines] == [1260] * 4


def test_equilibria_report_round_trips(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["equilibria", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"R", "equilibria"}
    kinds = {e["kind"] for e in doc["equilibria"]}
    assert kinds == {"trivial", "predator_extinction", "coexistence"}
    for e in doc["equilibria"]:
        assert set(e) == {"kind", "x", "y", "yj", "tau", "residual"}
        assert e["residual"] <= 1e-10
    on_disk = json.loads((tmp_path / "equilibria.json").read_text())
    assert on_disk == doc


def test_stability_subcritical_extinction_point_is_stable(tmp_path, capsys):
    cfg = subcritical_config(tmp_path / "cfg.json")
    assert main(["stability", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    by_kind = {r["equilibrium"]: r for r in reports}
    assert by_kind["trivial"]["verdict"] == "unstable"
    assert by_kind["predator_extinction"]["verdict"] == \
        "locally_asymptotically_stable"
    assert "coexistence" not in by_kind
    for rep in reports:
        assert set(rep) == {"equilibrium", "coefficients", "verdict",
                            "reason", "conditions", "rightmost"}


def test_stability_fixture_coexistence_is_stable(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["stability", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    coex = [r for r in reports if r["equilibrium"] == "coexistence"][0]
    assert coex["verdict"] == "locally_asymptotically_stable"
    assert coex["conditions"]["thm7"] and coex["conditions"]["thm8"]
    assert coex["rightmost"]["re"] < 0.0


def test_verify_suite_passes_on_fixture(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", t_end=60.0)
    assert main(["verify", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_OK
    tree = ET.parse(tmp_path / "verify.xml")
    suite = tree.getroot()
    assert suite.tag == "testsuite"
    assert suite.attrib["failures"] == "0"
    assert int(suite.attrib["tests"]) >= 8
    csv_lines = (tmp_path / "verify_checks.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "check,passed,detail,data"
    assert len(csv_lines) == int(suite.attrib["tests"]) + 1
    assert "np." not in (tmp_path / "verify_checks.csv").read_text()


def test_sweep_writes_mandated_header(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       sweep={"k2": [2.0, 10.0], "d": [0.45, 1.0]})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                 "--threads", "2"]) == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "k2,d,tau_m,tau_M,R,coexists,thm7_pass,thm8_pass,rightmost_re"
    assert len(lines) == 5
    row = lines[1].split(",")
    assert row[5] in ("true", "false")


SWEEP_18 = {"k2": [1.0, 10.0], "d": [0.3, 0.45, 5.0], "tau_m": [0.25, 0.75],
            "tau_M": [0.5, 1.0]}


def test_sweep_rows_match_one_point_at_a_time(tmp_path):
    from preydelay import (ModelSpec, boundary_equilibria,
                           classify_equilibrium, solve_coexistence)

    cfg = write_config(tmp_path / "cfg.json", sweep=SWEEP_18)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    base = cli.load_scenario(cfg).model.to_dict()
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2 * 3 * 3
    for row in rows:
        k2, d, tau_m, tau_M = map(float, row.split(",")[:4])
        base["params"]["d"] = d
        base["response"]["coefficients"]["k2"] = k2
        base["delay"]["tau_m"], base["delay"]["tau_M"] = tau_m, tau_M
        point = ModelSpec.from_dict(base)
        eq = solve_coexistence(point) or boundary_equilibria(point)[1]
        want = classify_equilibrium(point, eq).rightmost
        assert row.split(",")[-1] == repr(float(want))


def test_forked_sweep_writes_the_serial_bytes(forks, monkeypatch, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", sweep=SWEEP_18)
    argv = ["sweep", "--config", str(cfg), "--out"]
    assert main(argv + [str(tmp_path / "short")]) == EXIT_OK
    assert forks[0] == 0  # fewer searches than the fork needs
    monkeypatch.setattr(stability, "_FORK_MIN_SEARCHES", 2)
    assert main(argv + [str(tmp_path / "forked")]) == EXIT_OK
    assert forks[0] == 1
    assert serially(monkeypatch, lambda: main(
        argv + [str(tmp_path / "serial")])) == EXIT_OK
    assert forks[0] == 1
    csvs = [(tmp_path / run / "sweep.csv").read_bytes()
            for run in ("short", "forked", "serial")]
    assert csvs[0] == csvs[1] == csvs[2]
    assert_no_child_left()


def test_forked_sweep_raises_the_first_failing_point(forks, monkeypatch,
                                                    tmp_path, capsys):
    # the coexistence points' quasi-polynomials in grid order; the search of
    # the second (a child's share) and the third (the caller's) fails
    cfg = write_config(tmp_path / "cfg.json", sweep=SWEEP_18)
    model = cli.load_scenario(cfg).model
    points = [(d, cli._sweep_point(model, k2, d, tau_m, tau_M)[1])
              for k2 in SWEEP_18["k2"] for d in SWEEP_18["d"]
              for tau_m in SWEEP_18["tau_m"] for tau_M in SWEEP_18["tau_M"]
              if tau_m <= tau_M]
    failing = [stability._quasi_polynomial(d, coeffs)
               for d, coeffs in points if coeffs.C != 0.0][1:3]
    search = stability.rightmost_abscissae

    def failing_search(qps, boxes):
        return [WindingError(f"search {failing.index(qp)} failed")
                if qp in failing else result
                for qp, result in zip(qps, search(qps, boxes))]

    monkeypatch.setattr(stability, "rightmost_abscissae", failing_search)
    monkeypatch.setattr(stability, "_FORK_MIN_SEARCHES", 2)
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path)]
    assert main(argv) == EXIT_NUMERICAL
    assert forks[0] == 1
    assert serially(monkeypatch, lambda: main(argv)) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "numerical failure: search 0 failed\n" * 2
    assert not (tmp_path / "sweep.csv").exists()
    assert_no_child_left()


def test_sweep_runs_no_contour_search_where_nothing_coexists(tmp_path,
                                                            monkeypatch):
    def windings(*args):
        raise WindingError("contour search at the predator-free state")

    monkeypatch.setattr(stability, "_windings", windings)
    cfg = write_config(tmp_path / "cfg.json",
                       sweep={"k2": [1.0, 10.0], "d": [5.0]})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[5] for row in rows] == ["false", "false"]


SWEEP_144_SHA256 = (
    "9d0e6b099dfed8df598a8eced7abb9e18017dbfd606182a4e3449a008d3de61c")


def test_sweep_of_144_points_is_pinned(tmp_path):
    # the grid of tests/working_set.py on the demo model: 108 coexistence
    # searches, enough to be shared among the CPUs, and 36 closed forms
    from working_set import SWEEP_GRID

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(json.loads(DEMO_CONFIG.read_text()),
                                   sweep=SWEEP_GRID)))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    data = (tmp_path / "sweep.csv").read_bytes()
    assert data.count(b"\n") == 145
    assert hashlib.sha256(data).hexdigest() == SWEEP_144_SHA256


# the first four ids name the rule their case breaks
@pytest.mark.parametrize("sweep, message", [
    pytest.param({"k2": 5.0}, "sweep.k2 must be a list",
                 id="sweep0-sweep.k2 must be a list of numbers"),
    pytest.param({"d": ["a"]}, "sweep.d[0] must be a number, got 'a'",
                 id="sweep1-sweep.d must be a list of numbers"),
    pytest.param({"tau_M": [1.0, None]},
                 "sweep.tau_M[1] must be a number, got None",
                 id="sweep2-sweep.tau_M must be a list of numbers"),
    pytest.param({"tau_m": [True]}, "sweep.tau_m[0] must be a number, got True",
                 id="sweep3-sweep.tau_m must be a list of numbers"),
    ({"k2": [2.0], "horizon": 50.0}, "unknown key sweep.horizon"),
    # a NaN reached the coexistence solver's bracket and named no key
    ({"d": [0.45, math.nan]}, "sweep.d[1] must be finite, got nan"),
    # read "parameter d must be strictly positive" after a point was solved
    ({"d": [0.45, -2.0]}, "sweep.d[1] = -2.0 is out of range (must be > 0)"),
    ({"tau_m": [-0.5, 0.5]},
     "sweep.tau_m[0] = -0.5 is out of range (must be >= 0)")])
def test_sweep_config_errors_name_their_key(tmp_path, monkeypatch, capsys,
                                            sweep, message):
    def fail(model):
        raise AssertionError("a point was solved before the grid was checked")

    monkeypatch.setattr(cli, "solve_coexistence", fail)
    cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("guard", ["false", "true", 0, 1, None])
def test_positivity_guard_must_be_a_json_boolean(tmp_path, capsys, guard):
    # read with bool(), the string "false" once turned the guard on
    cfg = write_config(tmp_path / "cfg.json")
    doc = json.loads(cfg.read_text())
    doc["stepper"]["positivity_guard"] = guard
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: stepper.positivity_guard must be true or false\n")
    for guard in (False, True):
        doc["stepper"]["positivity_guard"] = guard
        cfg.write_text(json.dumps(doc))
        assert cli.load_scenario(cfg).stepper.positivity_guard is guard


@pytest.mark.parametrize("stride", [-0.5, 0.0, math.inf, math.nan])
def test_bad_stride_exits_2_before_integrating(tmp_path, monkeypatch, capsys,
                                               stride):
    def fail(*args, **kwargs):
        raise AssertionError("integrated before the config was checked")

    monkeypatch.setattr(cli, "integrate", fail)
    cfg = write_config(tmp_path / "cfg.json")
    doc = json.loads(cfg.read_text())
    doc["outputs"]["stride"] = stride
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    message = (f"must be finite, got {stride!r}" if not math.isfinite(stride)
               else f"= {stride!r} is out of range (must be > 0)")
    assert capsys.readouterr().err == f"config error: outputs.stride {message}\n"
    assert not (tmp_path / "traj.csv").exists()


def edit_config(path, section: str, key: str, value):
    doc = json.loads(path.read_text())
    doc[section][key] = value
    path.write_text(json.dumps(doc))
    return path


def edit_model(path, keys: tuple, value):
    doc = json.loads(path.read_text())
    node = doc["model"]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(doc))
    return path


def fail_to_integrate(monkeypatch) -> None:
    def fail(*args, **kwargs):
        raise AssertionError("integrated before the config was checked")

    monkeypatch.setattr(cli, "integrate", fail)


@pytest.mark.parametrize("section, key, value, name, got", [
    ("stepper", "t_end", "abc", "stepper.t_end", "'abc'"),
    ("stepper", "rtol", [1e-8], "stepper.rtol", "[1e-08]"),
    ("stepper", "h_max", True, "stepper.h_max", "True"),
    ("stepper", "atol", "1e-10", "stepper.atol", "'1e-10'"),
    ("stepper", "atol", [1e-10, "x", 1e-8], "stepper.atol[1]", "'x'"),
    ("outputs", "stride", "0.5", "outputs.stride", "'0.5'"),
    ("history", "omega", {"w": 2.0}, "history.omega", "{'w': 2.0}"),
])
def test_config_numbers_that_are_not_numbers_name_their_key(
        tmp_path, monkeypatch, capsys, section, key, value, name, got):
    # read with float(), "abc" exited 2 naming no key and a list exited 1
    fail_to_integrate(monkeypatch)
    cfg = edit_config(write_config(tmp_path / "cfg.json"), section, key, value)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {name} must be a number, got {got}\n")


@pytest.mark.parametrize("path, value, name, got", [
    (("params", "r"), "abc", "model.params.r", "'abc'"),
    (("params", "r"), True, "model.params.r", "True"),
    (("delay", "tau_m"), "x", "model.delay.tau_m", "'x'"),
    (("delay", "coefficients", "theta"), [1.0],
     "model.delay.coefficients.theta", "[1.0]"),
    (("response", "coefficients", "k2"), "10",
     "model.response.coefficients.k2", "'10'"),
])
def test_model_numbers_that_are_not_numbers_name_their_key(
        tmp_path, monkeypatch, capsys, path, value, name, got):
    # read with float(), "abc" exited 2 naming no key and true ran as 1.0
    fail_to_integrate(monkeypatch)
    cfg = edit_model(write_config(tmp_path / "cfg.json"), path, value)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {name} must be a number, got {got}\n")


@pytest.mark.parametrize("path, value, name, got", [
    (("response", "coefficients", "b"), math.nan,
     "model.response.coefficients.b", "nan"),
    (("delay", "tau_M"), math.inf, "model.delay.tau_M", "inf"),
])
def test_non_finite_model_numbers_name_their_key(
        tmp_path, monkeypatch, capsys, path, value, name, got):
    # a NaN b ran the history quadrature to its panel cap and then named no
    # key, and an infinite tau_M exited with "math domain error"
    fail_to_integrate(monkeypatch)
    cfg = edit_model(write_config(tmp_path / "cfg.json"), path, value)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {name} must be finite, got {got}\n")


@pytest.mark.parametrize("times, message", [
    ([-1.0, "abc"], "history.times[1] must be a number, got 'abc'"),
    ([True, 0.0], "history.times[0] must be a number, got True"),
    ("abc", "history.times must be a list")])
def test_tabulated_times_that_are_not_numbers_name_their_key(
        tmp_path, monkeypatch, capsys, times, message):
    fail_to_integrate(monkeypatch)
    history = tabulated([-1.0, 0.0])
    history["times"] = times
    cfg = write_config(tmp_path / "cfg.json", history=history)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("key, value", [("csv", 5), ("svg", ["a.svg"])])
def test_output_names_must_be_strings(tmp_path, monkeypatch, capsys, key,
                                      value):
    # "csv": 5 used to fail with a TypeError (exit 1) after the whole run
    fail_to_integrate(monkeypatch)
    cfg = edit_config(write_config(tmp_path / "cfg.json"), "outputs", key,
                      value)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: outputs.{key} must be a file name, got {value!r}\n")


@pytest.mark.parametrize("amp", [-0.2, 1.0])
def test_sine_history_amplitude_out_of_range_names_its_key(tmp_path, capsys,
                                                           amp):
    # read "relative amplitude must lie in [0, 1)", which named no key
    cfg = edit_config(write_config(tmp_path / "cfg.json"), "history", "amp",
                      amp)
    assert main(["equilibria", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: history.amp = {amp!r} is out of range (relative "
        "amplitude must lie in [0, 1))\n")


SINE = {"kind": "constant_plus_sine", "amp": 0.2, "omega": 2.0}


@pytest.mark.parametrize("command", ["simulate", "equilibria", "stability",
                                     "verify", "sweep"])
@pytest.mark.parametrize("history, key", [
    ({"kind": "constant", "x": -2.0, "y": 0.4}, "x"),
    ({"kind": "constant", "x": 2.0, "y": 0.0}, "y"),
    ({"kind": "constant", "x": 2.0, "y": 0.4, "yj": -0.1}, "yj"),
    ({**SINE, "x": -2.0, "y": 0.4}, "x"),
    ({**SINE, "x": 2.0, "y": -0.4}, "y"),
    ({**SINE, "x": 2.0, "y": 0.4, "yj": 0.0}, "yj"),
], ids=["constant.x<0", "constant.y=0", "constant.yj<0", "sine.x<0",
        "sine.y<0", "sine.yj=0"])
def test_non_positive_history_level_names_its_key(tmp_path, capsys, command,
                                                  history, key):
    # x = -2 loaded: equilibria exited 0, and simulate exited 2 naming phi1
    cfg = write_config(tmp_path / "cfg.json", history=history)
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: history.{key} = {history[key]!r} is out of range "
        "(must be > 0)\n")


@pytest.mark.parametrize("command", ["equilibria", "stability", "verify"])
def test_an_overflowing_law_is_a_numerical_failure(tmp_path, capsys,
                                                   command):
    # every coefficient in its catalog range, but K ** k = 50 ** 200
    # overflows a float: it exited 1 with an OverflowError traceback
    cfg = demo_with(tmp_path, [
        (("params", "K"), 50.0),
        (("response",), {"kind": "Saturation",
                         "coefficients": {"b": 1.0, "h": 0.5, "k": 200.0}})])
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err


def test_per_component_atol_list_is_read_as_stepper_config_takes_it(
        tmp_path, monkeypatch, capsys):
    # a list of three floors used to exit 1 with float()'s TypeError
    cfg = edit_config(write_config(tmp_path / "cfg.json", t_end=10.0),
                      "stepper", "atol", [1e-12, 1e-12, 1e-10])
    assert cli.load_scenario(cfg).stepper.atol == (1e-12, 1e-12, 1e-10)
    for command in ("simulate", "verify"):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    fail_to_integrate(monkeypatch)
    edit_config(cfg, "stepper", "atol", [1e-12, 1e-10])
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: stepper.atol must be a number or a list of 3 numbers, "
        "got [1e-12, 1e-10]\n")


def test_sweep_reports_the_first_failing_point(tmp_path, monkeypatch, capsys):
    def fail(model):
        raise AssertionError("a point was solved before the grid was checked")

    monkeypatch.setattr(cli, "solve_coexistence", fail)
    cfg = write_config(tmp_path / "cfg.json",
                       sweep={"tau_m": [1.0, 0.5], "tau_M": [1.0]})
    doc = json.loads(cfg.read_text())
    doc["model"]["delay"] = {"kind": "constant", "coefficients": {},
                             "tau_m": 1.0, "tau_M": 1.0}
    cfg.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: sweep.tau_m[1] = 0.5 and sweep.tau_M[0] = 1.0: "
        "constant delay requires tau_m == tau_M\n")
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_failed_solve_exits_3_not_no_coexistence(tmp_path, monkeypatch,
                                                       capsys):
    # a solver failure is not evidence that no coexistence point exists
    def fail(model):
        raise NoConvergenceError("stalled", (math.nan, math.nan), math.inf)

    monkeypatch.setattr(cli, "solve_coexistence", fail)
    cfg = write_config(tmp_path / "cfg.json", sweep={"k2": [1.0, 10.0]})
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "numerical failure: stalled" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", extra={"bogus": 1})
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_nested_unknown_key_reports_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    doc = json.loads(cfg.read_text())
    doc["stepper"]["h_minimum"] = 0.1
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "stepper.h_minimum" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_horizon_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", t_end=60.0)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                 "--horizon", "5.0"]) == EXIT_OK
    lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
    assert float(lines[-1].split(",")[0]) == pytest.approx(5.0)


@pytest.mark.parametrize("horizon, t_end", [("inf", 60.0), (None, math.inf)])
def test_infinite_horizon_is_a_config_error(tmp_path, capsys, horizon, t_end):
    # an infinite t_end (the flag, or "Infinity" in the JSON) ran no step
    # and reported a one-row trajectory as a success
    cfg = write_config(tmp_path / "cfg.json", t_end=t_end)
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path)]
    if horizon is not None:
        argv += ["--horizon", horizon]
    assert main(argv) == EXIT_CONFIG
    # the flag is checked by StepperConfig, the config key as a config number
    assert (("t_end must be positive and finite" if horizon
             else "stepper.t_end must be finite, got inf")
            in capsys.readouterr().err)
    assert not (tmp_path / "traj.csv").exists()


def tabulated(times):
    n = len(times)
    return {"kind": "tabulated", "times": times,
            "series": {"x": [2.0] * n, "y": [0.4] * n, "yj": [0.3] * n}}


@pytest.mark.parametrize("times", [[-0.1, 0.0], [-1.0, -0.5], [-0.5, 0.5]])
def test_tabulated_history_short_of_the_delay_range_exits_2(tmp_path, capsys,
                                                            times):
    # tau_M = 1: the table must reach -1 and 0, or the history would be
    # extended as a constant without a word
    cfg = write_config(tmp_path / "cfg.json", history=tabulated(times))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "history.times" in err
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("times", [[-1.0, 0.0], [-2.0, -1.0, 0.0, 1.0]])
def test_tabulated_history_covering_the_delay_range_loads(tmp_path, times):
    cfg = write_config(tmp_path / "cfg.json", history=tabulated(times))
    assert cli.load_scenario(cfg).history.knots == tuple(times)


@pytest.mark.parametrize("name, values, message", [
    ("x", [2.0, 2.0, 2.0], "history.series.x has 3 values, history.times 2"),
    ("yj", 0.3, "history.series.yj must be a list")])
def test_tabulated_series_off_the_times_names_its_key(tmp_path, capsys, name,
                                                      values, message):
    history = tabulated([-1.0, 0.0])
    history["series"][name] = values
    cfg = write_config(tmp_path / "cfg.json", history=history)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_config_step_sizes_follow_default_stepper(tmp_path):
    # tau(0) = 0.01 < 1/60: the default cap 0.006 lies below the usual first
    # step 0.01, and an h_max of 0.008 lies between the cap and tau(0)
    path = write_config(tmp_path / "cfg.json")
    doc = json.loads(path.read_text())
    doc["model"]["delay"].update(tau_m=0.01, tau_M=0.5)
    for steps in ({"h_max": 0.008}, {"h_max": 0.008, "rtol": 1e-6},
                  {"h_init": 0.002}, {"rtol": 1e-6}, {}):
        doc["stepper"] = {"t_end": 60.0, **steps}
        path.write_text(json.dumps(doc))
        scn = cli.load_scenario(path)
        assert scn.stepper == default_stepper(scn.model, 60.0, **steps), steps
    assert scn.stepper.h_max == pytest.approx(0.006)
    doc["stepper"] = {"t_end": 60.0, "h_max": 0.008}
    path.write_text(json.dumps(doc))
    assert cli.load_scenario(path).stepper.h_init == 0.008


def test_verify_failure_exits_1(tmp_path):
    # a deliberately inconsistent juvenile level breaks yj conservation
    cfg = write_config(tmp_path / "cfg.json", t_end=60.0,
                       history={"kind": "constant", "x": 2.0, "y": 0.4,
                                "yj": 5.0})
    with pytest.warns(HistoryConsistencyWarning):
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_CHECK_FAILURE


def test_verify_writes_its_reports_when_the_run_fails(tmp_path, monkeypatch,
                                                      capsys):
    # a power law with k < 1 fails validation and empties the prey in
    # finite time, so the run ends in the positivity guard; a config refuses
    # that k, so the demo config's model takes it in code
    from_dict = ModelSpec.from_dict

    def with_bad_power_law(doc):
        return dataclasses.replace(from_dict(doc),
                                   response=power_law(b=1.5, k=0.5))

    monkeypatch.setattr(ModelSpec, "from_dict",
                        staticmethod(with_bad_power_law))
    assert main(["verify", "--config", str(DEMO_CONFIG),
                 "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "positivity guard kept rejecting steps" in capsys.readouterr().err
    suite = ET.parse(tmp_path / "verify.xml").getroot()
    failed = {case.attrib["name"]: case.find("failure").attrib["message"]
              for case in suite if case.find("failure") is not None}
    assert "exponent 'k' must be > 1" in failed["model_validation"]
    assert "positivity guard kept rejecting steps" in failed["integration"]
    rows = {row["check"]: row for row in csv.DictReader(
        (tmp_path / "verify_checks.csv").read_text().splitlines())}
    assert rows["model_validation"]["passed"] == "false"
    assert rows["integration"]["passed"] == "false"
    assert "positivity guard" in rows["integration"]["detail"]
    # the checks that read the trajectory are skipped
    assert "yj_conservation" not in rows
    assert int(suite.attrib["tests"]) == len(rows)


@pytest.mark.parametrize("section, coefficients, named", [
    ("delay", {"lam": 1.0}, "'lam'"),
    ("delay", {}, "'theta'"),
    ("response", {"b": 1.0, "k1": 0.0, "k2": 10.0, "h": 0.5}, "'h'"),
    ("response", {"b": 1.0}, "'k1'"),
])
def test_wrong_law_coefficients_are_a_config_error(tmp_path, capsys, section,
                                                   coefficients, named):
    doc = json.loads(DEMO_CONFIG.read_text())
    doc["model"][section]["coefficients"] = coefficients
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["equilibria", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err
    assert "Traceback" not in err


OUT_OF_RANGE = [  # (edits of the demo config's model, the message's tail)
    ([(("params", "d"), -1)],
     "model.params.d = -1.0 is out of range (must be > 0)"),
    ([(("delay", "coefficients", "theta"), 0)],
     "model.delay.coefficients.theta = 0.0 is out of range (must be > 0)"),
    ([(("response", "coefficients", "b"), 0)],
     "model.response.coefficients.b = 0.0 is out of range "
     "(BeddingtonDeAngelis: coefficient 'b' must be > 0)"),
    ([(("response", "coefficients", "k2"), -1)],
     "model.response.coefficients.k2 = -1.0 is out of range "
     "(BeddingtonDeAngelis: coefficient 'k2' must be >= 0)"),
    ([(("delay", "tau_m"), 2), (("delay", "tau_M"), 1)],
     "model.delay.tau_M = 1.0 is out of range "
     "(must be >= model.delay.tau_m = 2.0)"),
    ([(("delay", "tau_m"), -0.5)],
     "model.delay.tau_m = -0.5 is out of range (must be >= 0)"),
]


def demo_with(tmp_path, edits):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(DEMO_CONFIG.read_text())
    for keys, value in edits:
        edit_model(cfg, keys, value)
    return cfg


@pytest.mark.parametrize("edits, message", OUT_OF_RANGE, ids=[
    "d=-1", "theta=0", "b=0", "k2=-1", "tau_m>tau_M", "tau_m<0"])
def test_out_of_range_law_coefficients_are_a_config_error(tmp_path, capsys,
                                                          edits, message):
    # theta = 0 ended in a ZeroDivisionError traceback (exit 1); the others
    # exited 0 with a report on a model outside the paper's hypotheses
    cfg = demo_with(tmp_path, edits)
    assert main(["equilibria", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "equilibria.json").exists()


def test_negative_minimum_delay_is_a_config_error_for_stability(tmp_path,
                                                                capsys):
    # it exited 2 with "g has the same sign at both ends of [-0.45, ...]",
    # which named no key
    edits, message = OUT_OF_RANGE[-1]
    cfg = demo_with(tmp_path, edits)
    assert main(["stability", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_out_of_range_sweep_value_is_a_config_error_at_its_point(tmp_path,
                                                                 capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       sweep={"k2": [10.0, -1.0], "d": [0.45]})
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: sweep.k2[1] = -1.0 is out of range "
        "(BeddingtonDeAngelis: coefficient 'k2' must be >= 0)\n")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("stepper, message", [
    ({"rtol": 0}, "stepper.rtol = 0.0 is out of range (must be > 0)"),
    ({"atol": -1e-10}, "stepper.atol = -1e-10 is out of range (must be > 0)"),
    ({"atol": [1e-12, 0, 1e-10]},
     "stepper.atol[1] = 0.0 is out of range (must be > 0)"),
    ({"h_max": -1}, "stepper.h_max = -1.0 is out of range (must be > 0)"),
    ({"h_init": 0}, "stepper.h_init = 0.0 is out of range (must be > 0)"),
    # the demo's cap is 0.6 tau(0) = 0.3
    ({"h_init": 0.5}, "stepper.h_init = 0.5 is out of range "
     "(must be <= the model's default step cap = 0.3)"),
    ({"h_init": 0.5, "h_max": 0.1}, "stepper.h_init = 0.5 is out of range "
     "(must be <= stepper.h_max = 0.1)"),
], ids=["rtol=0", "atol<0", "atol[1]=0", "h_max<0", "h_init=0",
        "h_init>default cap", "h_init>h_max"])
def test_out_of_range_stepper_settings_are_a_config_error(tmp_path, capsys,
                                                          stepper, message):
    # each exited 2 with a message that named no key
    cfg = demo_with(tmp_path, [])
    for key, value in stepper.items():
        edit_config(cfg, "stepper", key, value)
    assert main(["equilibria", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_lag_domain_error_exits_3(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise LagDomainError("lag before the history")

    monkeypatch.setattr(cli, "integrate", fail)
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_inexact_equilibrium_exits_3(tmp_path, monkeypatch, capsys):
    solve = cli.solve_coexistence
    monkeypatch.setattr(cli, "solve_coexistence", lambda model: dataclasses.replace(
        solve(model), residual=1e-6))
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["stability", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "numerical failure: equilibrium residual" in capsys.readouterr().err


def test_stability_past_the_exponent_range_is_no_untyped_failure(tmp_path,
                                                                 capsys):
    # d tau(0) = 900 > log(DBL_MAX): e^(d tau) overflows in the closed form
    # of the predator-free state, which reads its abscissa all the same
    cfg = write_config(tmp_path / "cfg.json")
    doc = json.loads(cfg.read_text())
    doc["model"]["params"]["dj"] = 0.001
    doc["model"]["delay"] = {"kind": "constant", "coefficients": {},
                             "tau_m": 2000.0, "tau_M": 2000.0}
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        # the long delay's history quadrature and the coexistence search
        # warn of their own
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["stability", "--config", str(cfg), "--out", str(tmp_path)])
    # the coexistence state's contour search may still fail, with a typed
    # error
    assert rc in (EXIT_OK, EXIT_NUMERICAL)
    if rc == EXIT_NUMERICAL:
        assert capsys.readouterr().err.startswith("numerical failure: winding")


def test_cross_check_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    from preydelay import stability

    monkeypatch.setattr(stability, "spectral_abscissae",
                        lambda points: [(0.25, complex(0.25, 1.0))] * len(points))
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["stability", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "numerical failure: the algebraic route" in capsys.readouterr().err


def test_simulate_reports_inconsistent_history_on_stderr(tmp_path):
    # a fresh interpreter, so that the test runner's warning capture is not
    # what shows the warning
    cfg = write_config(tmp_path / "cfg.json", t_end=5.0,
                       history={"kind": "constant", "x": 2.0, "y": 0.4,
                                "yj": 5.0})
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-m", "preydelay", "simulate",
                          "--config", str(cfg), "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_OK
    assert "HistoryConsistencyWarning" in run.stderr
    assert "deviates from the implied juvenile stock" in run.stderr


def test_import_loads_no_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, preydelay; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def config_nodes(doc, path=""):
    """(dotted path, value) of every object, list and value below ``doc``."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        where = f"{path}[{key}]" if isinstance(doc, list) else (
            f"{path}.{key}" if path else key)
        yield where, value
        yield from config_nodes(value, where)


DEMO_NODES = list(config_nodes(json.loads(DEMO_CONFIG.read_text())))


def set_node(doc, path: str, value) -> None:
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


@st.composite
def mutated_demo(draw):
    """The demo config with one node changed: (doc, path, numeric)."""
    path, value = draw(st.sampled_from(DEMO_NODES))
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    options = [draw(st.sampled_from([other for other in ("x", True, None, {}, [], 5.0)
                                     if type(other) is not type(value)]))]
    if numeric:
        options += [math.nan, math.inf, -math.inf, -value, [value, value]]
    if isinstance(value, list):
        options += [value[:-1], value + value[:1]]
    if isinstance(value, dict):
        options.append(dict(value, bogus=1.0))
    if path.endswith(".kind"):
        options.append("NoSuchKind")
    doc = json.loads(DEMO_CONFIG.read_text())
    set_node(doc, path, draw(st.sampled_from(options)))
    return doc, path, numeric


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_demo())
def test_a_mutated_demo_config_is_run_or_named_as_a_config_error(
        tmp_path, capsys, case):
    # never exit 1, the untyped failure; every refusal is one line, and a
    # changed number is named by its key
    doc, path, numeric = case
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["equilibria", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc in (EXIT_OK, EXIT_CONFIG), err
    if rc == EXIT_CONFIG:
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not numeric or path in err, err
