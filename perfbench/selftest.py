#!/usr/bin/env python3
"""Benchmark self-test (about two minutes).

    python3 perfbench/selftest.py

1. Runs one minimal cycle of each workload through every output check and
   requires it to pass; then checks the same outputs against a perturbed
   reference, and against corrupted outputs, and requires ``failed_frac`` to
   become non-zero.
2. Runs ``run.py`` on each workload at minimal length, untraced and traced,
   and requires a correct result line that carries every metric that
   ``BENCHMARK.json`` names.
3. Requires ``run.py`` to fail without a result line in a directory that
   holds only ``BENCHMARK.json`` and the benchmark's files.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import preydelay  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import NULL  # noqa: E402

OUT = run.OUT / "selftest"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def failed_frac(workload, outputs) -> float:
    return sum(1 for out in outputs if workload.check(out)) / len(outputs)


def check_cli() -> None:
    w = wl.CliWorkload(ROOT, 0, OUT / "cli")
    outputs = [w.perform(i, NULL) for i in range(w.cycle)]
    expect(failed_frac(w, outputs) == 0.0, "cli: one cycle passes every check")
    reference = w.sweep_ref
    key = sorted(reference)[0]
    for field, value in (("rightmost_re", repr(float(
            reference[key]["rightmost_re"]) + 5 * wl.RIGHTMOST_TOL)),
                         ("coexists", "false"), ("thm7_pass", "true")):
        w.sweep_ref = copy.deepcopy(reference)
        w.sweep_ref[key][field] = value
        expect(failed_frac(w, outputs) > 0.0,
               f"cli: sweep reference with {field} perturbed fails")
    w.sweep_ref = {k: v for k, v in reference.items() if k != key}
    expect(failed_frac(w, outputs) > 0.0,
           "cli: sweep reference with a row missing fails")
    w.sweep_ref = reference
    by_command = {out.command: out for out in outputs}

    def rewrite(name, edit):
        return lambda o: (o.outdir / name).write_text(
            edit((o.outdir / name).read_text()))

    corrupt = {
        "simulate": rewrite("trajectory.csv", lambda t: t[:t.rindex("\n", 0, -1)]),
        "equilibria": rewrite("equilibria.json", lambda t: t.replace(
            '"residual": 0.0', '"residual": 1e-09', 1)),
        "stability": rewrite("stability.json", lambda t: "[]"),
        "verify": lambda o: setattr(o, "stdout",
                                    o.stdout + "FAIL  yj_conservation\n"),
        "sweep": lambda o: setattr(o, "returncode", 3),
    }
    for command, spoil in corrupt.items():
        out = copy.copy(by_command[command])
        spoil(out)
        expect(bool(w.check(out)), f"cli: corrupted {command} output fails")


def check_long_run() -> None:
    w = wl.LongRunWorkload(ROOT, 0, OUT / "long_run")
    out = w.perform(0, NULL)
    expect(failed_frac(w, [out]) == 0.0, "long_run: one job passes every check")
    reference = w.reference
    w.reference = reference * (1.0 + 5 * wl.TRAJ_RELERR_BOUND)
    expect(failed_frac(w, [out]) > 0.0, "long_run: perturbed reference fails")
    w.reference = reference
    out.certificate = dataclasses.replace(
        out.certificate, observed_V_sup=2.0 * out.certificate.V_limit)
    expect(failed_frac(w, [out]) > 0.0,
           "long_run: failing boundedness certificate fails")


def check_dichotomy() -> None:
    w = wl.DichotomyWorkload(ROOT, 0, OUT / "dichotomy")
    outputs = [w.perform(i, NULL) for i in range(w.cycle)]
    expect(failed_frac(w, outputs) == 0.0,
           "dichotomy: one job of each class passes every check")
    w.expected_verdict = lambda R: "extinction" if R > 1.0 else "permanent"
    expect(failed_frac(w, outputs) == 1.0,
           "dichotomy: reversed verdict reference fails every job")
    w.expected_verdict = wl.expected_verdict
    permanent = next(o for o in outputs if o.coexistence is not None)
    spoiled = copy.copy(permanent)
    spoiled.coexistence = None
    expect(bool(w.check(spoiled)), "dichotomy: missing coexistence point fails")


# an R > 1 draw (linear response, R = 12.46) whose largest probe history
# drives the prey to ~1e-42
DEFECT_MODEL = {
    "params": {"r": 1.0364350927391828, "K": 3.4359253239092973,
               "n": 1.1185953810840852, "dj": 0.3348125184798465,
               "d": 0.507241017052369},
    "delay": {"kind": "saturating", "coefficients": {"theta": 0.908203577540972},
              "tau_m": 0.500848797884172, "tau_M": 0.6302702267258389},
    "response": {"kind": "Linear", "coefficients": {"b": 1.9448246476596909}}}
DEFECT_HISTORY_SEED = 1385176604


def report_known_defect() -> None:
    """Say whether the absorbing positivity clamp still falsifies a probe.

    Not a pass/fail check: the dichotomy workload sidesteps this with a
    1e-300 floor.  Under the probe's default floor (1e-30) the prey of this
    R > 1 draw crashes below the floor, is clamped to exactly 0 and never
    recovers.
    """
    model = preydelay.ModelSpec.from_dict(DEFECT_MODEL)
    history = preydelay.spread_histories(model, n=wl.DICHOTOMY_HISTORIES,
                                         seed=DEFECT_HISTORY_SEED, lo=0.1,
                                         hi=3.0)[-1]
    traj = preydelay.integrate(model, history, preydelay.default_stepper(
        model, 20.0, rtol=1e-6, atol=(1e-30, 1e-30, 1e-8)))
    state = "reproduces" if traj.us[-1, 0] == 0.0 else "no longer reproduces"
    print(f"info known defect (R > 1 prey absorbed at exactly 0 under "
          f"atol 1e-30): {state}")


def check_runs() -> None:
    spec = run.benchmark_spec()
    for workload in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", "3", "--seconds", "1", "--trace",
                 str(trace), "--record",
                 str(OUT / f"{workload}-trace{trace}.json")],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            try:
                line = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                line = {}
            names = {m["name"] for m in spec[key]}
            metrics = line.get("metrics", {})
            expect(proc.returncode == 0 and set(line) == {
                "correct", "attempted", "failed", "metrics"}
                and line["correct"] and set(metrics) == names
                and all(isinstance(m["value"], (int, float))
                        and np.isfinite(m["value"]) for m in metrics.values()),
                f"run.py --workload {workload} --trace {trace}: correct line "
                f"with every {key} metric")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cli", "--seed", "1", "--seconds", "1", "--trace",
                           "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py fails without a result line when the sources are absent")
    shutil.rmtree(bare)


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    check_cli()
    check_long_run()
    check_dichotomy()
    report_known_defect()
    check_runs()
    check_bare_directory()
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
