#!/usr/bin/env python3
"""Repeat benchmark runs, check their spread, and compare a parent with a change.

    # runs: seeds base, base+1, ...; with two sides, pair k runs both on seed
    # base+k and alternates which side runs first
    python3 perfbench/compare.py run --side parent=../parent --side change=. \\
        --workloads cli long_run dichotomy --pairs 10 --out perfbench/out/cmp

    # spread of each end-to-end metric across one side's runs, against its bound
    python3 perfbench/compare.py spread perfbench/out/cmp/change

    # the pair rule: one row per workload x metric
    python3 perfbench/compare.py pairs perfbench/out/cmp/parent perfbench/out/cmp/change

A side is a source checkout; each runs its own ``perfbench/run.py``, which a
change that claims a gain may not edit, so both sides run the same benchmark
code.  Bounds and directions come from this checkout's ``BENCHMARK.json``.
Use seeds that were not used while the change was written; the seed held out
for confirming claims is ``run.HELD_OUT_SEED``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
# the spread every end-to-end metric should stay under, as a share of its bound
STEADY_SHARE = 1.0 / 3.0


def cmd_run(args) -> int:
    sides = dict(s.split("=", 1) for s in args.side)
    out = Path(args.out)
    for k in range(args.pairs):
        seed = args.seed_base + k
        order = list(sides) if k % 2 == 0 else list(reversed(sides))
        for workload in args.workloads:
            for side in order:
                root = Path(sides[side]).resolve()
                record = (out / side / f"{workload}-{k:03d}.json").resolve()
                record.parent.mkdir(parents=True, exist_ok=True)
                proc = subprocess.run(
                    [sys.executable, str(root / "perfbench" / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(SPEC["run_seconds"]),
                     "--trace", "0", "--record", str(record)],
                    cwd=root, capture_output=True, text=True, timeout=900)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                print(f"pair {k} seed {seed} {side:>8} {workload:<10} "
                      f"exit {proc.returncode} {last[0][:160]}", flush=True)
                if proc.returncode != 0:
                    print(proc.stderr[-2000:], file=sys.stderr)
                    return 1
    return 0


def load(directory: Path) -> dict:
    """Records by workload, in pair order."""
    by_workload: dict[str, list] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if "workload" in rec and not rec.get("trace"):
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def values(records: list, name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records]


def cmd_spread(args) -> int:
    by_workload = load(Path(args.dir))
    summary = {}
    print(f"{'workload':<10} {'metric':<12} {'runs':>4} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}  status")
    unsteady = 0
    for workload, records in by_workload.items():
        failed = sum(r["failed"] for r in records)
        for m in SPEC["end_to_end"]:
            vals = values(records, m["name"])
            q1, med, q3 = stats.quartiles(vals)
            sp = stats.spread(vals)
            if m["name"] == "setup_s":
                status = "not bounded by spread"
            elif sp <= STEADY_SHARE * m["bound"]:
                status = "steady"
            elif sp <= m["bound"]:
                status = "within bound, above a third of it"
            else:
                status = "UNSTEADY"
                unsteady += 1
            print(f"{workload:<10} {m['name']:<12} {len(vals):>4} {med:>10.5g} "
                  f"{q1:>10.5g} {q3:>10.5g} {sp:>7.3f} {m['bound']:>6}  {status}")
            summary.setdefault(workload, {})[m["name"]] = {
                "unit": m["unit"], "runs": len(vals), "median": med, "q1": q1,
                "q3": q3, "spread": sp, "bound": m["bound"], "values": vals}
        print(f"{workload:<10} failed operations over all runs: {failed}")
        summary[workload]["failed_operations"] = failed
        summary[workload]["seeds"] = [r["seed"] for r in records]
    if args.json:
        first = next(iter(by_workload.values()))[0]
        Path(args.json).write_text(json.dumps({
            "machine": first["machine"], "versions": first["versions"],
            "commit": first["commit"], "src_sha256": first["src_sha256"],
            "run_seconds": first["seconds"], "workloads": summary},
            indent=1) + "\n")
    return 1 if unsteady else 0


def cmd_pairs(args) -> int:
    parent, change = load(Path(args.parent)), load(Path(args.change))
    print(f"{'workload':<10} {'metric':<12} {'pairs':>5} {'parent median':>14} "
          f"{'change median':>14} {'delta':>8} {'wins':>5} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_recs, c_recs = parent[workload], change[workload]
        n = min(len(p_recs), len(c_recs))
        for m in SPEC["end_to_end"]:
            v = stats.pair_verdict(values(p_recs[:n], m["name"]),
                                   values(c_recs[:n], m["name"]),
                                   m["better"], m["bound"])
            print(f"{workload:<10} {m['name']:<12} {v['pairs']:>5} "
                  f"{v['parent'][1]:>14.5g} {v['change'][1]:>14.5g} "
                  f"{v['delta_frac']:>+8.3f} {v['wins']:>5} "
                  f"{v['parent_spread']:>7.3f} {m['bound']:>6}  {v['verdict']}")
        failed = (sum(r["failed"] for r in p_recs[:n]),
                  sum(r["failed"] for r in c_recs[:n]))
        print(f"{workload:<10} failed operations: parent {failed[0]}, "
              f"change {failed[1]}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="repeat runs on consecutive seeds")
    r.add_argument("--side", action="append", required=True,
                   help="NAME=CHECKOUT; give one side or two")
    r.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in SPEC["workloads"]])
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=1000)
    r.add_argument("--out", required=True)
    s = sub.add_parser("spread", help="spread of one side's runs")
    s.add_argument("dir")
    s.add_argument("--json", help="also write the summary to this file")
    p = sub.add_parser("pairs", help="apply the pair rule to two sides")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args(argv)
    return {"run": cmd_run, "spread": cmd_spread, "pairs": cmd_pairs}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
