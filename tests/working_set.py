"""Check that a CLI run's peak memory grows only by what the run keeps.

    python tests/working_set.py simulate
    python tests/working_set.py sweep

Each case runs ``python -m preydelay`` twice, each time in a fresh process:
a small run and one SCALE times as large.  It reads each child's peak
resident memory (``ru_maxrss`` from ``os.wait4``, in KiB on Linux) and
divides the growth by what the larger run added.

Both cases run ``demos/config_example.json``, the config the budgets were
measured on.

- ``simulate`` runs it at ``--horizon`` SIMULATE_HORIZON and SCALE times
  that.  The growth is taken per added accepted step, a count the command
  prints.  A run keeps its trajectory, 80 bytes a step, the export writes
  its rows in fixed blocks, and the SVG chart holds at most 1 260 points.
- ``sweep`` runs its model on SWEEP_GRID (144 points) and on the same grid
  with SCALE times as many k2 values.  The growth is taken per added
  point.  The spectral search counts its rectangles in fixed chunks.

Prints the growth and exits 1 if it exceeds the case's budget.  Run it with
``src`` on ``PYTHONPATH`` or with the package installed.
"""
import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"
SCALE = 4
SIMULATE_HORIZON = 640.0
STEP_BYTES = 250
SWEEP_GRID = {"k2": [1.0, 2.0, 5.0, 10.0, 15.0, 20.0],
              "d": [0.3, 0.45, 0.9, 5.0],
              "tau_m": [0.25, 0.5, 0.75],
              "tau_M": [1.0, 1.5]}
POINT_BYTES = 16 * 1024


def peak_rss(command: str, doc: dict, workdir: Path, *extra: str) -> tuple:
    """(peak RSS in bytes, stdout) of ``preydelay COMMAND`` on doc, run fresh."""
    workdir.mkdir()
    config = workdir / "config.json"
    config.write_text(json.dumps(doc))
    log = workdir / "stdout.txt"
    with open(log, "wb") as fh:
        child = subprocess.Popen(
            [sys.executable, "-m", "preydelay", command, "--config",
             str(config), "--out", str(workdir), *extra], stdout=fh)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"preydelay {command} exited {child.returncode}")
    return usage.ru_maxrss * 1024, log.read_text()


def simulate_growth(doc: dict, tmp: Path) -> tuple:
    """Bytes of peak RSS per added accepted step, and the budget."""
    runs = []
    for k, horizon in enumerate((SIMULATE_HORIZON, SCALE * SIMULATE_HORIZON)):
        rss, out = peak_rss("simulate", doc, tmp / f"simulate{k}",
                            "--horizon", repr(horizon))
        runs.append((rss, int(re.search(r"\((\d+) steps", out).group(1))))
    (rss0, steps0), (rss1, steps1) = runs
    return (rss1 - rss0) / (steps1 - steps0), "step", STEP_BYTES


def sweep_growth(doc: dict, tmp: Path) -> tuple:
    """Bytes of peak RSS per added grid point, and the budget."""
    k2s = SWEEP_GRID["k2"]
    n = SCALE * len(k2s)
    grids = [SWEEP_GRID, dict(SWEEP_GRID, k2=[
        k2s[0] + (k2s[-1] - k2s[0]) * i / (n - 1) for i in range(n)])]
    runs = []
    for k, grid in enumerate(grids):
        rss, _ = peak_rss("sweep", dict(doc, sweep=grid), tmp / f"sweep{k}")
        with open(tmp / f"sweep{k}" / "sweep.csv") as fh:
            runs.append((rss, sum(1 for _ in fh) - 1))
    (rss0, points0), (rss1, points1) = runs
    return (rss1 - rss0) / (points1 - points0), "point", POINT_BYTES


CASES = {"simulate": simulate_growth, "sweep": sweep_growth}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("case", choices=sorted(CASES))
    args = ap.parse_args(argv)
    doc = json.loads(DEMO_CONFIG.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        growth, unit, budget = CASES[args.case](doc, Path(tmp))
    print(f"{args.case}: peak RSS grows {growth:.0f} B per {unit} "
          f"(budget {budget} B)")
    return 0 if growth <= budget else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
