"""Command-line front end: simulate, equilibria, stability, verify, sweep.

Configuration is a versioned JSON document; unknown keys anywhere in it are
rejected with the offending key path.  Exit codes: 0 success, 1 check
failure, 2 usage or configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

from .engine import (IntegrationError, LagDomainError, StepperConfig,
                     default_stepper, export_csv, integrate, lag_times,
                     yj_integral)
from .equilibria import (_RESIDUAL_TOL, CrossCheckError, Equilibrium,
                         NoConvergenceError, WindingError, boundary_equilibria,
                         solve_coexistence)
from ._law import POSITIVE
from .delays import make_delay
from .model import (_DELAY_RANGES, _PARAM_RANGES, ConfigError,
                    HistoryFunction, ModelSpec, _out_of_range, _real, _reals,
                    check_keys, consistent_history, constant_history,
                    constant_plus_sine_history, reproduction_number,
                    tabulated_history, validate)
from .responses import RESPONSE_CATALOG, ResponseKind

# Start-up rule: a module that only some subcommands run (NumPy, stability,
# analysis, svg) is imported inside those subcommands.

__all__ = ["main", "Scenario", "load_scenario", "ConfigError"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class Outputs:
    stride: float
    csv: str | None
    svg: str | None


@dataclass(frozen=True)
class Scenario:
    """A fully resolved run description loaded from a config file."""

    model: ModelSpec
    history: HistoryFunction
    stepper: StepperConfig
    outputs: Outputs
    sweep: dict | None


def _build_history(doc: dict, model: ModelSpec) -> HistoryFunction:
    check_keys(doc, "history", {"kind"},
                {"x", "y", "yj", "amp", "omega", "phase", "times", "series"})
    kind = doc["kind"]

    def num(key: str) -> float:
        return _real(doc[key], f"history.{key}")

    def level(key: str) -> float:
        # a level of a constant or sine history, positive at every theta
        return _real(doc[key], f"history.{key}", POSITIVE)

    if kind == "constant":
        check_keys(doc, "history", {"kind", "x", "y"}, {"yj"})
        x, y = level("x"), level("y")
        if "yj" in doc:
            return constant_history(x, y, level("yj"))
        return consistent_history(model, x, y)
    if kind == "constant_plus_sine":
        check_keys(doc, "history", {"kind", "x", "y", "amp", "omega"},
                    {"yj", "phase"})
        phase = num("phase") if "phase" in doc else 0.0
        x, y = level("x"), level("y")
        yj = level("yj") if "yj" in doc else None
        amp, omega = num("amp"), num("omega")
        try:
            if yj is not None:
                return constant_plus_sine_history(x, y, yj, amp=amp,
                                                  omega=omega, phase=phase)
            return consistent_history(model, x, y, amp=amp, omega=omega,
                                      phase=phase)
        except ValueError as exc:  # the amplitude's range is all they check
            raise _out_of_range("history.amp", amp, str(exc)) from None
    if kind == "tabulated":
        check_keys(doc, "history", {"kind", "times", "series"}, set())
        series = doc["series"]
        check_keys(series, "history.series", {"x", "y", "yj"}, set())
        times, columns = _reals(doc["times"], "history.times"), []
        for name in ("x", "y", "yj"):
            columns.append(_reals(series[name], f"history.series.{name}"))
            if len(columns[-1]) != len(times):
                raise ConfigError(
                    f"history.series.{name} has {len(columns[-1])} values, "
                    f"history.times {len(times)}")
        history = tabulated_history(times, *columns)
        lo, hi, tau_M = history.knots[0], history.knots[-1], model.delay.tau_M
        tol = 1e-9 * max(1.0, tau_M)
        if lo > -tau_M + tol or hi < -tol:
            raise ConfigError(
                f"history.times span [{lo:g}, {hi:g}] and must cover "
                f"[-tau_M, 0] = [{-tau_M:g}, 0]")
        return history
    raise ConfigError(f"unknown key history.kind value {kind!r}")


def _build_stepper(doc: dict, model: ModelSpec, horizon: float | None) -> StepperConfig:
    check_keys(doc, "stepper", {"t_end"},
                {"rtol", "atol", "h_init", "h_max", "positivity_guard"})
    t_end = (float(horizon) if horizon is not None
             else _real(doc["t_end"], "stepper.t_end", POSITIVE))
    opts = {key: _real(doc[key], f"stepper.{key}", POSITIVE)
            for key in ("rtol", "h_init", "h_max") if doc.get(key) is not None}
    atol = doc.get("atol")
    if isinstance(atol, list):
        # one floor a component, as StepperConfig takes it
        if len(atol) != 3:
            raise ConfigError("stepper.atol must be a number or a list of 3 "
                              f"numbers, got {atol!r}")
        opts["atol"] = tuple(_reals(atol, "stepper.atol", POSITIVE))
    elif atol is not None:
        opts["atol"] = _real(atol, "stepper.atol", POSITIVE)
    guard = doc.get("positivity_guard", StepperConfig.positivity_guard)
    if not isinstance(guard, bool):
        raise ConfigError("stepper.positivity_guard must be true or false")
    h_init = opts.pop("h_init", None)
    cfg = default_stepper(model, t_end, positivity_guard=guard, **opts)
    if h_init is None:
        return cfg
    if h_init > cfg.h_max:
        cap = "stepper.h_max" if "h_max" in opts else "the model's default step cap"
        raise _out_of_range("stepper.h_init", h_init,
                            f"must be <= {cap} = {cfg.h_max!r}")
    return dataclasses.replace(cfg, h_init=h_init)


def load_scenario(path, horizon: float | None = None) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    # "seed" is accepted for schema 1 compatibility; nothing draws random numbers
    check_keys(doc, "", {"schema", "model"},
                {"history", "stepper", "outputs", "seed", "sweep"})
    if doc["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {doc['schema']!r}")
    try:
        model = ModelSpec.from_dict(doc["model"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    history = _build_history(doc.get("history", {"kind": "constant", "x": model.params.K / 2,
                                                 "y": model.params.K / 4}), model)
    stepper = _build_stepper(doc.get("stepper", {"t_end": 100.0}), model, horizon)
    odoc = doc.get("outputs", {})
    check_keys(odoc, "outputs", set(), {"stride", "csv", "svg"})
    stride = _real(odoc.get("stride", stepper.t_end / 200.0), "outputs.stride",
                   POSITIVE)
    for key in ("csv", "svg"):
        if odoc.get(key) is not None and not isinstance(odoc[key], str):
            raise ConfigError(f"outputs.{key} must be a file name, got "
                              f"{odoc[key]!r}")
    outputs = Outputs(stride=stride, csv=odoc.get("csv"), svg=odoc.get("svg"))
    sweep = doc.get("sweep")
    if sweep is not None:
        check_keys(sweep, "sweep", set(), {"k2", "d", "tau_m", "tau_M"})
        sweep = {axis: _reals(values, f"sweep.{axis}")
                 for axis, values in sweep.items()}
    return Scenario(model=model, history=history, stepper=stepper,
                    outputs=outputs, sweep=sweep)


# --------------------------------------------------------------------------
# subcommands


def _cmd_simulate(scn: Scenario, outdir: Path) -> int:
    traj = integrate(scn.model, scn.history, scn.stepper)
    csv_path = outdir / (scn.outputs.csv or "trajectory.csv")
    export_csv(scn.model, traj, csv_path, scn.outputs.stride)
    print(f"wrote {csv_path} ({traj.n_steps} steps to t={traj.t_end:g})")
    if scn.outputs.svg:
        from .svg import trajectory_chart

        svg_path = outdir / scn.outputs.svg
        trajectory_chart(scn.model, traj, svg_path, scn.outputs.stride)
        print(f"wrote {svg_path}")
    x, y, yj = traj.lookup(traj.t_end)
    print(f"final state: x={x:.6g} y={y:.6g} yj={yj:.6g}")
    return EXIT_OK


def _equilibria(model: ModelSpec) -> list[Equilibrium]:
    """The two boundary equilibria, then the coexistence point if it exists."""
    eqs = boundary_equilibria(model)
    coex = solve_coexistence(model)
    return eqs if coex is None else eqs + [coex]


def _equilibria_doc(model: ModelSpec) -> dict:
    return {
        "R": reproduction_number(model),
        "equilibria": [
            {"kind": e.kind, "x": e.x_star, "y": e.y_star, "yj": e.yj_star,
             "tau": e.tau_star, "residual": e.residual}
            for e in _equilibria(model)
        ],
    }


def _cmd_equilibria(scn: Scenario, outdir: Path) -> int:
    doc = _equilibria_doc(scn.model)
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    (outdir / "equilibria.json").write_text(text + "\n")
    return EXIT_OK


def _cmd_stability(scn: Scenario, outdir: Path) -> int:
    from .stability import classify_equilibrium

    model = scn.model
    reports = []
    for eq in _equilibria(model):
        verdict = classify_equilibrium(model, eq)
        cond = verdict.conditions
        reports.append({
            "equilibrium": eq.kind,
            "coefficients": {"A": verdict.coeffs.A, "B": verdict.coeffs.B,
                             "C": verdict.coeffs.C, "D": verdict.coeffs.D,
                             "eta": verdict.coeffs.eta},
            "verdict": verdict.verdict,
            "reason": verdict.reason,
            "conditions": None if cond is None else {
                "thm7": cond.local_ok, "thm8": cond.global_ok,
                "margins": cond.margins},
            "rightmost": None if verdict.rightmost_root is None else {
                "re": verdict.rightmost_root.real,
                "im": verdict.rightmost_root.imag},
        })
    text = json.dumps(reports, indent=2, sort_keys=True)
    print(text)
    (outdir / "stability.json").write_text(text + "\n")
    return EXIT_OK


def _cmd_verify(scn: Scenario, outdir: Path) -> int:
    import numpy as np

    from . import analysis
    from .stability import classify_equilibrium

    model = scn.model
    checks: list[tuple[str, bool, str, dict]] = []

    def add(name, passed, detail="", **data):
        checks.append((name, bool(passed), detail, data))

    report = validate(model)
    add("model_validation", report.passed,
        "; ".join(str(c) for c in report.failures))

    R = reproduction_number(model)
    eqs = _equilibria(model)
    coex = eqs[2] if len(eqs) > 2 else None
    add("threshold_consistency", (coex is not None) == (R > 1.0),
        f"R={R:.6g}, coexistence {'found' if coex else 'absent'}", R=R)
    if coex is not None:
        add("coexistence_residual", coex.residual <= _RESIDUAL_TOL,
            f"residual={coex.residual:.3g}", residual=coex.residual)

    horizon = max(scn.stepper.t_end, 41.0 * model.delay.tau_M)
    cfg = dataclasses.replace(scn.stepper, t_end=horizon)
    # a failed run still writes its reports, with the failure in them, and
    # skips the checks that read the trajectory
    failure = None
    try:
        traj = integrate(model, scn.history, cfg)
    except (IntegrationError, LagDomainError) as exc:
        failure = exc
        add("integration", False, str(exc))
    else:
        cert = analysis.boundedness_certificate(model, traj)
        add("boundedness_certificate",
            cert.v_within_limit and cert.x_within_capacity(model.params.K),
            f"V_sup={cert.observed_V_sup:.6g} limit={cert.V_limit:.6g}",
            V_sup=cert.observed_V_sup, V_limit=cert.V_limit)

        sample_ts = np.linspace(model.delay.tau_M, traj.t_end, 12)
        worst, yj_floor = 0.0, cfg.atol_vector(3)[2]
        for t in sample_ts:
            ode = traj.lookup(float(t))[2]
            quad_val = yj_integral(model, traj, float(t))
            worst = max(worst, abs(ode - quad_val) / max(abs(ode), yj_floor))
        add("yj_conservation", worst <= 1e-5, f"worst rel dev={worst:.3g}",
            worst=worst)

        lags = lag_times(model, traj)
        add("lag_monotonic", bool(np.all(np.diff(lags) > 0.0)),
            "s(t) = t - tau(y(t)) strictly increasing",
            min_step=float(np.min(np.diff(lags))))

    positive = all(eq.residual <= _RESIDUAL_TOL for eq in eqs[:2])
    add("boundary_residuals", positive, "")

    if (coex is not None
            and model.response.kind == ResponseKind.BEDDINGTON_DEANGELIS):
        verdict = classify_equilibrium(model, coex)
        cond = verdict.conditions
        if verdict.verdict == "locally_asymptotically_stable":
            add("spectral_consistency",
                verdict.rightmost is not None and verdict.rightmost < -1e-8,
                f"verdict={verdict.verdict}, rightmost={verdict.rightmost}",
                rightmost=verdict.rightmost)
        if cond.overall and model.response.coefficients["k1"] == 0.0:
            try:
                br = analysis.monotone_bounds(model, coex, 1e-4)
                add("bracket_containment", True,
                    f"limits={tuple(round(v, 8) for v in br.limits)}")
            except analysis.BracketNestingError as exc:
                add("bracket_containment", False, str(exc))

    n_fail = sum(1 for _, ok, _, _ in checks if not ok)
    _write_junit(outdir / "verify.xml", checks)
    _write_checks_csv(outdir / "verify_checks.csv", checks)
    for name, ok, detail, _ in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed; "
          f"reports in {outdir}")
    if failure is not None:
        raise failure
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILURE


def quoteattr(text: str) -> str:
    """``xml.sax.saxutils.quoteattr`` without its import of ``urllib`` and
    ``http``: escape ``& < >`` and newline, return and tab, then quote with
    ``"`` unless the text holds ``"`` and no ``'``."""
    for char, entity in (("&", "&amp;"), (">", "&gt;"), ("<", "&lt;"),
                         ("\n", "&#10;"), ("\r", "&#13;"), ("\t", "&#9;")):
        text = text.replace(char, entity)
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _write_junit(path: Path, checks) -> None:
    n_fail = sum(1 for _, ok, _, _ in checks if not ok)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<testsuite name="preydelay-verify" tests="{len(checks)}" '
             f'failures="{n_fail}">']
    for name, ok, detail, _ in checks:
        if ok:
            lines.append(f'  <testcase name={quoteattr(name)}/>')
        else:
            lines.append(f'  <testcase name={quoteattr(name)}>')
            lines.append(f'    <failure message={quoteattr(detail or name)}/>')
            lines.append('  </testcase>')
    lines.append('</testsuite>')
    path.write_text("\n".join(lines) + "\n")


def _write_checks_csv(path: Path, checks) -> None:
    lines = ["check,passed,detail,data"]
    for name, ok, detail, data in checks:
        datum = ";".join(
            f"{k}={float(v) if isinstance(v, numbers.Real) else v!r}"
            for k, v in data.items())
        detail_quoted = '"' + detail.replace('"', '""') + '"'
        lines.append(f"{name},{str(ok).lower()},{detail_quoted},{datum}")
    path.write_text("\n".join(lines) + "\n")


def _sweep_point(model: ModelSpec, k2: float, d: float, tau_m: float,
                 tau_M: float):
    """One grid point's CSV fields up to ``thm8_pass``, with the
    linearization whose spectral abscissa completes the row (computed by
    :func:`_sweep_rows`): (head, coefficients).  The linearization is at the
    coexistence state, or at the predator-free state where there is none."""
    from .stability import check_global_conditions, linearize_at

    base = model.to_dict()
    base["params"]["d"] = d
    base["response"]["coefficients"]["k2"] = k2
    base["delay"]["tau_m"] = tau_m
    base["delay"]["tau_M"] = tau_M
    point = ModelSpec.from_dict(base)
    R = reproduction_number(point)
    thm7 = thm8 = False
    coex = solve_coexistence(point)
    if coex is not None:
        cond = check_global_conditions(point, coex)
        thm7, thm8 = cond.local_ok, cond.global_ok
    eq = boundary_equilibria(point)[1] if coex is None else coex
    head = ",".join([repr(float(k2)), repr(float(d)), repr(float(tau_m)),
                     repr(float(tau_M)), repr(float(R)),
                     str(coex is not None).lower(), str(thm7).lower(),
                     str(thm8).lower()])
    return head, linearize_at(point, eq)


def _sweep_rows(model: ModelSpec, points) -> list[str]:
    """CSV rows of the grid points, their abscissae from one
    :func:`preydelay.stability.spectral_abscissae` call.  The first point,
    in grid order, that fails raises its error.
    """
    from .stability import spectral_abscissae

    heads, linearizations = [], []
    for point in points:
        try:
            head, coeffs = _sweep_point(model, *point)
        except Exception as exc:  # an earlier point's search may fail first
            heads.append(exc)
            continue
        heads.append(head)
        linearizations.append((point[1], coeffs))
    found = iter(spectral_abscissae(linearizations))
    rows = []
    for head in heads:
        if isinstance(head, Exception):
            raise head
        result = next(found)
        if isinstance(result, Exception):
            raise result
        rows.append(f"{head},{float(result[0])!r}")
    return rows


def _cmd_sweep(scn: Scenario, outdir: Path) -> int:
    if scn.sweep is None:
        raise ConfigError("missing key sweep (required by the sweep subcommand)")
    if scn.model.response.kind != ResponseKind.BEDDINGTON_DEANGELIS:
        raise ConfigError("sweep varies k2 and is defined for the "
                          "BeddingtonDeAngelis response")
    model, delay = scn.model, scn.model.delay
    axes = {"k2": [model.response.coefficients["k2"]], "d": [model.params.d],
            "tau_m": [delay.tau_m], "tau_M": [delay.tau_M], **scn.sweep}
    # a swept value out of range, or a (tau_m, tau_M) pair that makes no
    # delay of the model's kind, fails, named by its entries, before any solve
    for axis, bound in (("k2", RESPONSE_CATALOG[model.response.kind][1]["k2"]),
                        ("d", _PARAM_RANGES["d"]),
                        ("tau_m", _DELAY_RANGES["tau_m"])):
        for i, value in enumerate(axes[axis]):
            if not bound.admits(value):
                raise _out_of_range(f"sweep.{axis}[{i}]", value, bound)

    def entry(axis: str, i: int) -> str:
        return f"sweep.{axis}[{i}]" if axis in scn.sweep else f"model.delay.{axis}"

    pairs = [(i, tm, j, tM) for i, tm in enumerate(axes["tau_m"])
             for j, tM in enumerate(axes["tau_M"]) if tm <= tM]
    for i, tm, j, tM in pairs:
        try:
            make_delay(delay.kind, tm, tM, **delay.coefficients)
        except ValueError as exc:
            raise ConfigError(f"{entry('tau_m', i)} = {tm!r} and "
                              f"{entry('tau_M', j)} = {tM!r}: {exc}") from None
    points = [(k2, d, tm, tM) for k2 in axes["k2"] for d in axes["d"]
              for _, tm, _, tM in pairs]
    rows = _sweep_rows(model, points)
    csv_path = outdir / "sweep.csv"
    header = "k2,d,tau_m,tau_M,R,coexists,thm7_pass,thm8_pass,rightmost_re"
    csv_path.write_text("\n".join([header] + rows) + "\n")
    print(f"wrote {csv_path} ({len(rows)} grid points)")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="preydelay",
        description="Simulate and analyze the stage-structured predator-prey "
                    "system with a state-dependent maturation delay.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("simulate", "integrate the system and write trajectory CSV/SVG"),
            ("equilibria", "compute equilibria and print a JSON report"),
            ("stability", "classify equilibria and print a JSON report"),
            ("verify", "run the property suite; JUnit XML plus per-check CSV"),
            ("sweep", "grid over (k2, d, tau_m, tau_M) and write a CSV")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--horizon", type=float, default=None,
                       help="override stepper.t_end")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1,
                           help="accepted for compatibility and ignored; "
                           "the grid is searched in this process")
    return ap


def _overflowing_response(exc: Exception, scn: Scenario | None) -> str:
    """"the <kind> response (<coefficients>) overflows: " when ``exc`` is an
    OverflowError raised in a law of the scenario's response, else ""."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    resp = scn.model.response if scn else None
    if not isinstance(exc, OverflowError) or resp is None or (
            tb.tb_frame.f_code not in (resp.f.__code__, resp.f_x.__code__,
                                       resp.f_y.__code__)):
        return ""
    coeffs = ", ".join(f"{k} = {v!r}" for k, v in resp.coefficients.items())
    return f"the {resp.kind} response ({coeffs}) overflows: "


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    scn = None
    try:
        scn = load_scenario(args.config, horizon=args.horizon)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return _cmd_simulate(scn, outdir)
        if args.command == "equilibria":
            return _cmd_equilibria(scn, outdir)
        if args.command == "stability":
            return _cmd_stability(scn, outdir)
        if args.command == "verify":
            return _cmd_verify(scn, outdir)
        if args.command == "sweep":
            return _cmd_sweep(scn, outdir)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, LagDomainError, NoConvergenceError,
            WindingError, CrossCheckError, OverflowError) as exc:
        print(f"numerical failure: {_overflowing_response(exc, scn)}{exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
