#!/usr/bin/env python3
"""preydelay benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload {cli,long_run,dichotomy} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere inside a source checkout; the library is imported from
``src/``.  Each run sets up the workload, runs it as a closed loop with one
client for ``--seconds``, checks every operation's outputs, prints a table
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer metrics, taken from spans the benchmark records around its own
calls into each module.  A result record with the machine, versions, every
metric's sample count and quartiles, and (traced) the tracing overhead is
written to ``perfbench/out/records/``.  ``--workload all`` runs the three
workloads in turn and prints all end-to-end metrics, one row per workload.

See ``perfbench/README.md`` for the workloads, metrics and bounds.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("cli", "long_run", "dichotomy")
# fresh-interpreter set-ups per run; setup_s is their median
SETUP_REPEATS = 5
# fresh imports per traced run for init.import_s and init.scipy_import_s
IMPORT_REPEATS = 3
# the dichotomy seed reserved for confirming claims; never tune against it
HELD_OUT_SEED = 20261017
# model pool seed of the traced run's coverage job
COVERAGE_SEED = 0
# steps of the in-process calibration kernel
CAL_STEPS = 20000

# every end-to-end metric the run table can show, in table order
TABLE_METRICS = ("setup_s", "failed_frac", "peak_rss_mb", "cli_simulate_s",
                 "cli_equilibria_s", "cli_stability_s", "cli_verify_s",
                 "cli_sweep_s", "jobs_per_s", "job_p50_s", "job_tail_s",
                 "traj_max_relerr")


@dataclass
class Op:
    label: str
    latency: float
    errors: list
    traced: bool
    job: object
    scale: float = math.nan

    @property
    def normalized(self) -> float:
        return self.latency * self.scale


def python_kernel() -> float:
    """Wall time of a fixed pure-Python computation, to track machine speed.

    The kernel has the shape of the library's hot loops (scalar float
    arithmetic, tuple building, small function calls) and uses none of its
    code, so a change to the library cannot move it.
    """
    t0 = perf_counter()
    exp = math.exp

    def rate(u, lag):
        x, y, z = u
        n = 0.8 * exp(-0.3 * lag) * x * y / (1.0 + 0.5 * y)
        return (x * (1.0 - 0.1 * x) - x * y / (1.0 + y),
                (n - 0.3 * y) / (1.0 + 0.1 * n), n - 0.55 * z)

    u = (1.0, 0.5, 0.25)
    for _ in range(CAL_STEPS):
        k = rate(u, 0.5 + 0.5 * u[1] / (u[1] + 1.0))
        u = tuple(a + 1e-3 * b for a, b in zip(u, k))
    if not all(math.isfinite(v) for v in u):
        raise RuntimeError("calibration kernel diverged")
    return perf_counter() - t0


def spawn_kernel() -> float:
    """Wall time of a fresh interpreter importing numpy, to track start-up speed."""
    return timed_child(["-c", "import numpy"])


# Calibration kernels, each with its time on a quiet reference machine (the
# 2-core Xeon VM the benchmark was sized on).  Other tenants of a shared host
# move this machine's speed by up to a fifth over tens of seconds, so each
# operation's time is scaled by reference / (mean of the kernel times just
# before and just after it) and reads as seconds at the reference speed.
# The kernel that tracks an operation best is the one shaped like it: a
# fresh interpreter for CLI calls, in-process Python for in-process jobs.
KERNELS = {"python": (python_kernel, 0.025), "spawn": (spawn_kernel, 0.15)}


def scales(kernel: str, cals: list[float]) -> list[float]:
    """Scale of each timing taken between consecutive kernel times ``cals``."""
    ref = KERNELS[kernel][1]
    return [ref / (0.5 * (a + b)) for a, b in zip(cals, cals[1:])]


def provenance() -> dict:
    """Machine, versions and code identity for result and reference records."""
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "preydelay").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
                    "loadavg": list(os.getloadavg()),
                    "platform": platform.platform()},
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# measurement


def timed_child(args: list[str]) -> float:
    """Wall time of a fresh interpreter running ``args``; raises on failure."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    return elapsed


def setup_times(workload: str, seed: int) -> list[float]:
    """Wall time of each fresh-interpreter set-up.

    Not normalised: next to set-ups, a calibration kernel's time depends on
    what ran before the run (dichotomy runs in a row scaled set-up by 0.75,
    runs of mixed workloads by 1.0), while the wall times held within 10%.
    """
    args = [str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
            str(seed), "--setup-only"]
    return [timed_child(args) for _ in range(SETUP_REPEATS)]


def import_times() -> tuple[list[float], list[float]]:
    """Fresh ``import preydelay`` wall times, and the scipy share of each.

    The scipy share is the summed self time of ``scipy.*`` modules under
    ``python -X importtime``.
    """
    walls = [timed_child(["-c", "import preydelay"])
             for _ in range(IMPORT_REPEATS)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    shares = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import preydelay"], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        us = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", line)
            if m and m.group(2).split(".")[0] == "scipy":
                us += int(m.group(1))
        shares.append(us / 1e6)
    return walls, shares


def run_loop(workload, seconds: float, tracer) -> tuple[list[Op], float]:
    """Closed loop with one client: each operation starts when the last ends.

    With a tracer, blocks of ``workload.cycle`` operations alternate between
    untraced and traced, so both see the same input mix; replays run after a
    traced operation, outside its latency.  The workload's calibration
    kernel runs between operations.
    """
    from tracing import NULL
    kernel = KERNELS[workload.kernel][0]
    ops = []
    cals = [kernel()]
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        tr = tracer if tracer is not None and (i // workload.cycle) % 2 else NULL
        if tr.enabled:
            tr.job = i
        t0 = perf_counter()
        latency = None
        try:
            with tr.span("job"):
                out = workload.perform(i, tr)
            latency = perf_counter() - t0
            errors = workload.check(out)
            if tr.enabled:
                errors += workload.replay(i, out, tr)
        except Exception as exc:  # a failed operation is counted, not fatal
            latency = latency or perf_counter() - t0
            errors = [f"{type(exc).__name__}: {exc}"]
        ops.append(Op(workload.label(i), latency, errors, tr.enabled, i))
        cals.append(kernel())
        i += 1
    for op, scale in zip(ops, scales(workload.kernel, cals)):
        op.scale = scale
    return ops, perf_counter() - start


def coverage(tracer) -> list[Op]:
    """Spans for layers the workload's own jobs never call.

    Runs one in-process cycle of the five subcommands with their replays
    and, if still needed, one linear-response dichotomy job (the only path
    into the general equilibrium solver and the permanence probe).  Their
    spans are tagged ``coverage:`` and used only for layers without spans
    from the workload itself.
    """
    import tracing
    import workloads
    ops = []

    def missing():
        return tracing.SPAN_NAMES - {s.name for s in tracer.spans}

    dichotomy_only = {"analysis.permanence_probe", "equilibria.solve_general"}
    if missing() - dichotomy_only:
        cli_wl = workloads.CliWorkload(ROOT, COVERAGE_SEED, OUT / "coverage")
        for i in range(cli_wl.cycle):
            ops.append(covered(tracer, f"coverage:cli:{i}", cli_wl.label(i),
                               lambda: cli_wl.replay(i, None, tracer)))
    if missing():
        dich = workloads.DichotomyWorkload(ROOT, COVERAGE_SEED, OUT / "coverage")

        def job():
            out = dich.perform(0, tracer)
            return dich.check(out) + dich.replay(0, out, tracer)

        ops.append(covered(tracer, "coverage:dichotomy:0", dich.label(0), job))
    return ops


def covered(tracer, job: str, label: str, fn) -> Op:
    """One coverage operation; its errors count like any operation's."""
    tracer.job = job
    t0 = perf_counter()
    try:
        errors = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        errors = [f"{type(exc).__name__}: {exc}"]
    return Op(label, perf_counter() - t0, errors, True, job)


def tracing_overhead(ops: list[Op]) -> dict:
    """Traced over untraced median latency, per operation label."""
    from tracing import is_coverage
    ops = [op for op in ops if not is_coverage(op.job)]
    per_label = {}
    for label in sorted({op.label for op in ops}):
        on = [op.normalized for op in ops if op.label == label and op.traced]
        off = [op.normalized for op in ops
               if op.label == label and not op.traced]
        if on and off:
            per_label[label] = {
                "traced_p50_s": statistics.median(on), "n_traced": len(on),
                "untraced_p50_s": statistics.median(off), "n_untraced": len(off),
                "overhead_frac": statistics.median(on) / statistics.median(off) - 1}
    fracs = [v["overhead_frac"] for v in per_label.values()]
    return {"overhead_frac": statistics.median(fracs) if fracs else None,
            "per_label": per_label}


def end_to_end(workload, ops: list[Op], setups: list[float]) -> dict:
    """The run's end-to-end metrics; operation timings in seconds at reference
    speed, each also carrying ``raw``, the same statistic of the wall times.
    """
    from stats import summary, tail
    norm = [op.normalized for op in ops]
    raw = [op.latency for op in ops]
    done = sum(1 for op in ops if not op.errors)
    tail_value, tail_pct = tail(norm)
    metrics = {
        "setup_s": summary(setups, "s"),
        "failed_frac": {"value": (len(ops) - done) / len(ops), "unit": "1",
                        "n": len(ops)},
        "peak_rss_mb": {"value": workload.peak_rss_kb() / 1024.0, "unit": "MB",
                        "n": 1},
        "jobs_per_s": {"value": done / sum(norm), "unit": "1/s", "n": done,
                       "raw": done / sum(raw)},
        "job_p50_s": {**summary(norm, "s"), "raw": statistics.median(raw)},
        "job_tail_s": {"value": tail_value, "unit": "s", "n": len(norm),
                       "percentile": tail_pct, "raw": tail(raw)[0]},
    }
    metrics.update(workload.extra_metrics(ops))
    return metrics


# --------------------------------------------------------------------------
# reporting


def fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def print_metrics(workload: str, metrics: dict) -> None:
    print(f"{'workload':<10} {'metric':<36} {'value':>11} {'unit':<6} "
          f"{'n':>5}  {'q1':>9} {'q3':>9}  note")
    for name, m in metrics.items():
        note = []
        if "percentile" in m:
            note.append(f"p{m['percentile']:.1f}")
        if "source" in m:
            note.append(f"{m['source']}, {m['calls']} calls, "
                        f"self {m['self_total_s']:.3g} s")
        print(f"{workload:<10} {name:<36} {fmt(m['value']):>11} {m['unit']:<6} "
              f"{m['n']:>5}  {fmt(m.get('q1')):>9} {fmt(m.get('q3')):>9}  "
              + "; ".join(note))


def result_line(ops: list[Op], metrics: dict, names: list[str]) -> str:
    failed = sum(1 for op in ops if op.errors)
    return json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names}})


def write_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")


def run_one(args) -> int:
    import tracing
    import workloads
    spec = benchmark_spec()
    info = provenance()
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record_path = Path(args.record) if args.record else (
        OUT / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cls = workloads.WORKLOADS[args.workload]
    out = OUT / args.workload
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "started": started,
              **info}

    if not args.trace:
        setups = setup_times(args.workload, args.seed)
        workload = cls(ROOT, args.seed, out)
        ops, wall = run_loop(workload, args.seconds, None)
        metrics = end_to_end(workload, ops, setups)
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        tracer = tracing.Tracer()
        imports, scipy_shares = import_times()
        tracer.job = "setup"
        workload = cls(ROOT, args.seed, out, tracer)
        ops, wall = run_loop(workload, args.seconds, tracer)
        ops += coverage(tracer)
        from stats import summary
        metrics = {"init.import_s": summary(imports, "s"),
                   "init.scipy_import_s": summary(scipy_shares, "s")}
        metrics.update(tracing.layer_metrics(tracer.spans))
        names = [m["name"] for m in spec["per_layer"]]
        overhead = tracing_overhead(ops)
        spans_path = record_path.with_name(record_path.stem + "-spans.json")
        write_record(spans_path, tracing.spans_as_dicts(tracer.spans))
        record["trace_overhead"] = overhead
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        # None when attempts could not be counted independently
        counted = [s.counts for s in tracer.spans
                   if s.name == "engine.integrate" and s.counts["attempts_counted"]]
        record["rhs_identity_holds"] = all(
            c["rhs_calls"] == 6 * (c["steps_accepted"] + c["steps_rejected"]) + 1
            for c in counted) if counted else None

    record.update(attempted=len(ops), failed=sum(1 for op in ops if op.errors),
                  failures=[[op.label, op.errors] for op in ops if op.errors][:20],
                  metrics=metrics, reported=names,
                  wall_s=wall, kernel=workload.kernel,
                  ops=[[op.label, op.latency, op.scale, not op.errors, op.traced]
                       for op in ops])
    write_record(record_path, record)

    print_metrics(args.workload, metrics)
    if args.trace:
        o = record["trace_overhead"]
        print(f"tracing overhead (traced vs untraced median latency): "
              f"{fmt(o['overhead_frac'])}; rhs_calls = 6*(accepted+rejected)+1 "
              f"on every integrate call: {record['rhs_identity_holds']}")
    for label, errors in record["failures"]:
        print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)
    print(f"record: {record_path}")
    print(result_line(ops, metrics, names))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table row per workload."""
    records = {}
    for name in WORKLOAD_NAMES:
        path = OUT / "records" / f"all-{name}-seed{args.seed}.json"
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", "0",
                               "--record", str(path)],
                              stdout=subprocess.DEVNULL, timeout=600)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        records[name] = json.loads(path.read_text())
    units = {}
    for rec in records.values():
        for n, m in rec["metrics"].items():
            units.setdefault(n, m["unit"])
    print("value (sample count) per workload; '-' where a metric does not apply")
    heads = [f"{n} [{units.get(n, '')}]" for n in TABLE_METRICS]
    print(f"{'workload':<10}" + "".join(f"{h:>24}" for h in heads))
    for name, rec in records.items():
        cells = []
        for n in TABLE_METRICS:
            m = rec["metrics"].get(n)
            cells.append(f"{fmt(m['value'])} ({m['n']})" if m else "-")
        print(f"{name:<10}" + "".join(f"{c:>24}" for c in cells))
    for name, rec in records.items():
        tail = rec["metrics"]["job_tail_s"]
        print(f"{name}: job_tail_s is p{tail['percentile']:.1f} of {tail['n']}; "
              f"failed {rec['failed']}/{rec['attempted']}")
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": {
                          f"{w}.{n}": {"value": m["value"], "unit": m["unit"]}
                          for w, r in records.items()
                          for n, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="result record path (default under "
                                     "perfbench/out/records/)")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload's inputs and exit (timed as setup_s)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "preydelay" / "__init__.py").is_file():
        print(f"error: no preydelay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import workloads
        workloads.WORKLOADS[args.workload](
            ROOT, args.seed, OUT / "setup" / args.workload)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
