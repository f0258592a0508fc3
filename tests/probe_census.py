"""Census of the dichotomy benchmark's permanence probes.

    python tests/probe_census.py SEED... [--json FILE]

For each seed, builds the ``dichotomy`` workload's pool of 128 jobs
(``perfbench/workloads.py``) and probes each job's model as the benchmark
does, from its five histories at horizon 400/d.  Prints, per pool, the
failed verdicts (a verdict other than (R > 1) or an error), the runs that
reach the horizon, the jobs whose every run does and the share of the
horizon that the runs simulated.  With ``--json`` it writes every job's
records, as exact floats, so that the census of two trees can be diffed.
Exits 1 if any verdict failed or any job settled none of its runs.  Run it
with ``src`` on ``PYTHONPATH`` or with the package installed.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import preydelay  # noqa: E402

import workloads as wl  # noqa: E402


def census(seed: int) -> tuple[list, int, int]:
    """Each job's verdict and records in the pool of ``seed``, how many
    verdicts failed and how many jobs settled no run; prints the pool's
    summary."""
    pool = wl.DichotomyWorkload(ROOT, seed, ROOT)
    jobs, failed, at_horizon, all_at_horizon = [], [], 0, 0
    simulated = capped = 0.0
    for i, job in enumerate(pool.jobs):
        m = job.model
        histories = preydelay.spread_histories(
            m, n=wl.DICHOTOMY_HISTORIES, seed=job.history_seed, lo=0.1, hi=3.0)
        horizon, cfg = wl.probe_config(m)
        try:
            verdict = preydelay.permanence_probe(m, histories, horizon=horizon,
                                                 cfg=cfg)
            outcome, records = verdict.verdict, verdict.records
        except preydelay.InconclusiveError as exc:
            outcome, records = f"inconclusive: {exc}", exc.records
        except Exception as exc:  # any other failure is a failed verdict too
            outcome, records = f"{type(exc).__name__}: {exc}", ()
        if outcome != wl.expected_verdict(job.R):
            failed.append(f"  job {i} ({job.label}, R = {job.R:.6g}): {outcome}")
        reached = sum(rec.t_decided == horizon for rec in records)
        at_horizon += reached
        all_at_horizon += bool(records) and reached == len(records)
        simulated += sum(rec.t_decided for rec in records)
        capped += horizon * len(records)
        jobs.append({"job": i, "label": job.label, "R": job.R,
                     "horizon": horizon, "verdict": outcome,
                     "records": [[rec.label, rec.liminf_xy, rec.terminal_error,
                                  rec.ok, rec.t_decided] for rec in records]})
    runs = len(pool.jobs) * wl.DICHOTOMY_HISTORIES
    print(f"seed {seed}: {len(failed)} failed verdicts of {len(jobs)}",
          *failed,
          f"  {at_horizon} of {runs} runs reach the horizon; every run in "
          f"{all_at_horizon} jobs",
          f"  runs simulated {simulated / capped:.1%} of their horizons",
          sep="\n", flush=True)
    return jobs, len(failed), all_at_horizon


def main(argv: list[str]) -> int:
    out = None
    if "--json" in argv:
        i = argv.index("--json")
        out, argv = argv[i + 1], argv[:i] + argv[i + 2:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    pools, n_bad = {}, 0
    for seed in map(int, argv):
        pools[seed], failed, unsettled = census(seed)
        n_bad += failed + unsettled
    if out is not None:
        with open(out, "w") as fh:
            json.dump(pools, fh, indent=1)
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
