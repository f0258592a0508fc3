"""CLI start-up contract and the package namespace with its lazily loaded names."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import quoteattr as stdlib_quoteattr

import pytest

import preydelay
from preydelay import cli
from startup_imports import DEFERRED

HERE = Path(__file__).resolve().parent
SRC = Path(preydelay.__file__).resolve().parents[1]
DEMO_CONFIG = HERE.parent / "demos" / "config_example.json"

# every public name ``import preydelay`` exposes, the submodules and the
# lazily loaded names of stability and analysis included
PUBLIC_NAMES = frozenset("""
BoundednessCertificate BracketSequences ComparisonReport ConditionReport
ConvergenceReport DelayFunction DichotomyVerdict Equilibrium EquilibriumKind
FunctionalResponse HistoryConsistencyWarning HistoryFunction InconclusiveError
IntegrationError LagDomainError LinearizationCoeffs ModelParams ModelSpec
NoConvergenceError PositivityViolation QuasiPolynomial
ResponseKind ScalarLimitResult StabilityVerdict StepSizeUnderflow
StepperConfig Trajectory ValidationReport Verdict WindingError analysis
beddington_deangelis boundary_equilibria boundedness_certificate
boundedness_limit characteristic_eval check_global_conditions
classify_equilibrium comparison_probe consistent_history constant_delay
constant_history constant_plus_sine_history correction_factor crowley_martin
default_stepper delays engine equilibria exp_delay export_csv
extrapolated_limits global_attraction_probe history_consistency_error holling1
holling2 holling3 imaginary_crossings integrate integrate_scalar_sdtd ivlev
lag_times linear linearize_at make_delay make_response model
monotone_bounds permanence_probe power_law quasi_polynomial
reproduction_number responses rightmost_abscissa saturating_delay
saturation scalar_fixed_point scalar_limit solve_coexistence spread_histories
stability steady_state_residual tabulated_history validate yj_integral yj_star
""".split())
SUBMODULES = ("delays", "responses", "model", "engine", "equilibria",
              "stability", "analysis")


def run_startup_check(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, str(HERE / "startup_imports.py"),
                           *map(str, argv)],
                          env=env, capture_output=True, text=True)


def test_import_cli_defers_subcommand_modules():
    run = run_startup_check()
    assert run.returncode == 0, f"loaded at import: {run.stdout}{run.stderr}"


def test_import_preydelay_defers_numpy_and_subcommand_modules():
    run = run_startup_check("preydelay")
    assert run.returncode == 0, f"loaded at import: {run.stdout}{run.stderr}"


def test_equilibria_subcommand_defers_other_subcommands_modules(tmp_path):
    run = run_startup_check("equilibria", "--config", DEMO_CONFIG,
                            "--out", tmp_path)
    assert run.returncode == 0, f"loaded by the call: {run.stdout}{run.stderr}"
    assert (tmp_path / "equilibria.json").is_file()


SPECTRAL_REPORTS = {"stability": "stability.json", "sweep": "sweep.csv"}


@pytest.mark.parametrize("command", sorted(SPECTRAL_REPORTS))
def test_spectral_subcommand_defers_analysis_and_svg(command, tmp_path):
    run = run_startup_check(command, "--config", DEMO_CONFIG, "--out", tmp_path)
    assert run.returncode == 0, f"loaded by the call: {run.stdout}{run.stderr}"
    assert (tmp_path / SPECTRAL_REPORTS[command]).is_file()


OTHER_REPORTS = {"simulate": "trajectory.csv", "verify": "verify.xml"}


@pytest.mark.parametrize("command", sorted(OTHER_REPORTS))
def test_simulate_and_verify_defer_other_subcommands_modules(command, tmp_path):
    run = run_startup_check(command, "--config", DEMO_CONFIG, "--out", tmp_path)
    assert run.returncode == 0, f"loaded by the call: {run.stdout}{run.stderr}"
    assert (tmp_path / OTHER_REPORTS[command]).is_file()


def test_the_144_point_sweep_forks_nothing(tmp_path):
    # its 108 contour searches run in the calling process
    from working_set import SWEEP_GRID

    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(dict(json.loads(DEMO_CONFIG.read_text()),
                                   sweep=SWEEP_GRID)))
    run = run_startup_check("sweep", "--config", cfg, "--out", tmp_path)
    assert run.returncode == 0, f"loaded by the call: {run.stdout}{run.stderr}"
    assert (tmp_path / "sweep.csv").is_file()


def test_every_startup_case_is_checked():
    checked = {"preydelay", "preydelay.cli", "equilibria", *SPECTRAL_REPORTS,
               *OTHER_REPORTS}
    assert set(DEFERRED) == checked
    for case in ("preydelay", "preydelay.cli", "equilibria", "simulate"):
        assert "numpy" in DEFERRED[case]
    for case in SPECTRAL_REPORTS:
        assert {"preydelay.analysis", "preydelay.svg", "xml.sax"} <= set(DEFERRED[case])
    assert {"numpy", "preydelay.stability", "preydelay.analysis", "xml.sax",
            "concurrent.futures", "numpy.polynomial", "numpy.ma",
            "scipy", "preydelay._forkmap"} == set(DEFERRED["simulate"])
    assert {"preydelay.svg", "xml.sax", "concurrent.futures",
            "numpy.polynomial", "numpy.ma", "scipy",
            "preydelay._forkmap"} == set(DEFERRED["verify"])
    for case in DEFERRED:
        assert "preydelay._forkmap" in DEFERRED[case]


def test_package_exposes_every_public_name():
    for name in sorted(PUBLIC_NAMES):
        obj = getattr(preydelay, name)
        if name in SUBMODULES:
            assert obj is importlib.import_module(f"preydelay.{name}")
            continue
        homes = [m for m in SUBMODULES
                 if hasattr(importlib.import_module(f"preydelay.{m}"), name)]
        assert homes, name
        for m in homes:
            assert getattr(importlib.import_module(f"preydelay.{m}"), name) is obj, (m, name)


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from preydelay import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert set(preydelay.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(preydelay))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        preydelay.no_such_name
    assert not hasattr(preydelay, "no_such_name")


def test_winding_error_is_one_class():
    from preydelay import stability
    assert preydelay.WindingError is stability.WindingError
    assert cli.WindingError is stability.WindingError


@pytest.mark.parametrize("text", [
    "plain", 'say "hi"', "it's", "both \" and '", "a&b<c>d",
    "line\nbreak\rreturn\ttab", "\"'&<>\n\r\t all at once", ""])
def test_quoteattr_matches_stdlib(text):
    assert cli.quoteattr(text) == stdlib_quoteattr(text)
