"""The generated DP5 step: law texts written in, calls where there is none.

The engine writes each catalog law's expression text into one generated
step per set of laws and calls any other law.  Both paths must give the
same bits, a law must never be recovered from its ``kind``, and a law text
is compiled once however many models use it.
"""
import collections
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from preydelay import (ModelParams, ModelSpec,
                       beddington_deangelis, consistent_history,
                       constant_delay, crowley_martin, default_stepper,
                       exp_delay, holling1, holling2, holling3, integrate,
                       ivlev, linear, power_law, saturating_delay, saturation)
import preydelay
from preydelay import _law, cli, engine
from preydelay.delays import DELAY_CATALOG
from preydelay.model import HistoryConsistencyWarning
from preydelay.responses import RESPONSE_CATALOG

from conftest import opaque

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"
SRC = Path(preydelay.__file__).resolve().parents[1]

# one law of every catalog kind; Holling I's break b = 1.2 lies inside the
# prey range of the runs below, so the runs cross its kink
RESPONSES = {
    "Linear": linear(0.8),
    "PowerLaw": power_law(0.6, 1.5),
    "HollingI": holling1(1.0, 1.2),
    "HollingII": holling2(1.5, 0.5),
    "HollingIII": holling3(1.5, 0.5),
    "Saturation": saturation(1.5, 0.5, 1.5),
    "Ivlev": ivlev(1.2, 0.8),
    "BeddingtonDeAngelis": beddington_deangelis(1.0, 0.5, 2.0),
    "CrowleyMartin": crowley_martin(1.0, 0.5, 2.0),
}
DELAYS = {
    "constant": constant_delay(0.6),
    "saturating": saturating_delay(0.5, 1.0, 1.0),
    "exp": exp_delay(0.5, 1.0, 1.5),
}
PARAMS = ModelParams(r=1.0, K=3.0, n=1.0, dj=0.3, d=0.4)


def run(model, t_end=10.0, y0=0.5):
    hist = consistent_history(model, 1.5, y0, amp=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HistoryConsistencyWarning)
        return integrate(model, hist, default_stepper(model, t_end))


def assert_same_bits(a, b):
    for name in ("ts", "us", "fs", "ds"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_the_cases_cover_the_catalog():
    assert set(RESPONSES) == set(RESPONSE_CATALOG)
    assert set(DELAYS) == set(DELAY_CATALOG)
    for kind, laws in (*RESPONSES.items(), *DELAYS.items()):
        assert laws.kind == kind


@pytest.mark.parametrize("delay", sorted(DELAYS))
@pytest.mark.parametrize("response", sorted(RESPONSES))
def test_written_in_laws_equal_called_laws(response, delay):
    model = ModelSpec(PARAMS, DELAYS[delay], RESPONSES[response])
    assert model.response.f.law and model.delay.tau_prime.law
    called = opaque(model)
    assert (engine._make_rhs(model).loop.__code__
            is not engine._make_rhs(called).loop.__code__)
    traj = run(model)
    assert_same_bits(traj, run(called))
    if response == "HollingI":
        assert traj.us[:, 0].min() < 1.2 < traj.us[:, 0].max()


def test_overlap_path_equal_for_written_in_and_called_laws(monkeypatch):
    # tau(0) = 0 and a small y: lags land inside the step, which iterates
    # its lookups against a provisional segment, read through _quartic;
    # Holling II's h meets the step size h
    model = ModelSpec(PARAMS, exp_delay(0.0, 0.8, 1.5), RESPONSES["HollingII"])
    provisional_reads = [0]
    quartic = engine._quartic

    def counting_quartic(seg, s):
        provisional_reads[0] += 1
        return quartic(seg, s)

    monkeypatch.setattr(engine, "_quartic", counting_quartic)
    traj = run(model, t_end=6.0, y0=0.01)
    assert provisional_reads[0] > 100
    assert_same_bits(traj, run(opaque(model), t_end=6.0, y0=0.01))


def test_a_replaced_law_is_used_not_its_kind():
    base = saturating_delay(0.5, 1.0, 1.0)
    other = saturating_delay(0.5, 1.0, 3.0)
    swapped = dataclasses.replace(base, tau=other.tau,
                                  tau_prime=other.tau_prime)
    assert (swapped.kind, swapped.coefficients) == (base.kind, base.coefficients)
    bd = RESPONSES["BeddingtonDeAngelis"]
    got = run(ModelSpec(PARAMS, swapped, bd))
    assert_same_bits(got, run(ModelSpec(PARAMS, other, bd)))
    assert not np.array_equal(got.us, run(ModelSpec(PARAMS, base, bd)).us)


@pytest.mark.parametrize("wraps", [False, True])
def test_a_counting_tau_prime_sees_every_rhs_call(bd_model, wraps):
    # the benchmark's traced run counts RHS calls through a wrapped tau';
    # DP5 with FSAL makes six new RHS calls an attempt plus the first one.
    # A wrapper that copies the law's attributes, text included, is still
    # called.
    calls = {"rhs": 0}
    tau_prime = bd_model.delay.tau_prime

    def counting_tau_prime(y):
        calls["rhs"] += 1
        return tau_prime(y)

    if wraps:
        counting_tau_prime = functools.wraps(tau_prime)(counting_tau_prime)
        assert counting_tau_prime.law is tau_prime.law

    counted = dataclasses.replace(bd_model, delay=dataclasses.replace(
        bd_model.delay, tau_prime=counting_tau_prime))
    traj = run(counted, t_end=30.0)
    assert traj.n_attempts >= traj.n_steps > 100
    assert calls["rhs"] == 6 * traj.n_attempts + 1
    assert_same_bits(traj, run(bd_model, t_end=30.0))


def test_sweep_compiles_each_law_text_once_and_no_step(tmp_path, monkeypatch):
    doc = json.loads(DEMO_CONFIG.read_text())
    # the benchmark's 144-point grid
    doc["sweep"] = {"k2": [1.0, 2.0, 5.0, 10.0, 15.0, 20.0],
                    "d": [0.3, 0.45, 0.9, 5.0], "tau_m": [0.25, 0.5, 0.75],
                    "tau_M": [1.0, 1.5]}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    compiled = collections.Counter()
    compile_maker = _law._compile_maker

    def counting_compile_maker(args, text, constants):
        compiled[text] += 1
        return compile_maker(args, text, constants)

    monkeypatch.setattr(_law, "_MAKERS", {})
    monkeypatch.setattr(_law, "_compile_maker", counting_compile_maker)
    monkeypatch.setattr(engine, "_KERNELS", {})
    assert cli.main(["sweep", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 145
    model = ModelSpec(PARAMS, DELAYS["saturating"],
                      RESPONSES["BeddingtonDeAngelis"])
    laws = (model.response.f, model.response.f_x, model.response.f_y,
            model.delay.tau, model.delay.tau_prime)
    assert compiled == {fn.law.text: 1 for fn in laws}
    assert engine._KERNELS == {}


# the outputs of the demo config at the commit before the step was generated
# (the chart's at the commit before it was drawn without NumPy)
DEMO_SHA256 = {
    "trajectory.csv":
        "2f76df2da48320d11b6770ba0243c859d28bd61dd95105e9e6a573b9937be22d",
    "trajectory.svg":
        "65476496cf703d3803a48946b761dc22eec68b983423bed878b13d62d96f9230",
    "equilibria.json":
        "7509e184f77cec86507ad2975f29801fa6c4cb93d5d53a4b630e9405d47f06e0",
    "stability.json":
        "8135440394334ae5b9b9e22b87607ed7d90127bea44f074e42fe2a0a23a88aa9",
}


def test_demo_outputs_are_byte_identical(tmp_path):
    for command in ("simulate", "equilibria", "stability"):
        assert cli.main([command, "--config", str(DEMO_CONFIG),
                         "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 162
    for name, digest in DEMO_SHA256.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name


# the demo config's trajectory.csv at horizon 2560: 5 121 rows in five blocks,
# read through Trajectory.sample and shared among the usable CPUs; the same
# bytes are written on one CPU
TRAJECTORY_2560_SHA256 = (
    "674a3216b1e67768a7886f8fa20f75ac41afd830399cb6a9fbacf1b47fbdb9a7")


def test_a_long_export_is_pinned(tmp_path):
    assert cli.main(["simulate", "--config", str(DEMO_CONFIG), "--horizon",
                     "2560", "--out", str(tmp_path)]) == 0
    data = (tmp_path / "trajectory.csv").read_bytes()
    assert data.count(b"\n") == 5122
    assert hashlib.sha256(data).hexdigest() == TRAJECTORY_2560_SHA256


# The peak of the allocations made while generating the benchmark's long_run
# loop, in a fresh process: 1.36 MB on x86-64 Linux with Python 3.11, against
# 0.83 MB for the straight-line step that the loop replaced.
COMPILE_PEAK_BUDGET = 1_500_000
COMPILE_PEAK = """
import tracemalloc
from preydelay import (ModelParams, ModelSpec, beddington_deangelis, engine,
                       saturating_delay)
model = ModelSpec(ModelParams(r=1.0, K=10.0, n=1.0, dj=0.55, d=0.3),
                  saturating_delay(0.5, 1.0, 1.0),
                  beddington_deangelis(b=1.0, k1=1.0, k2=0.1))
tracemalloc.start()
engine._make_rhs(model)
print(tracemalloc.get_traced_memory()[1])
"""


def test_generating_a_loop_stays_within_its_compile_budget():
    run = subprocess.run([sys.executable, "-c", COMPILE_PEAK],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert 0 < int(run.stdout) <= COMPILE_PEAK_BUDGET
