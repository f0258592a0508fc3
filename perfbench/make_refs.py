#!/usr/bin/env python3
"""Regenerate the stored references the benchmark checks its outputs against.

    python3 perfbench/make_refs.py

- ``refs/long_run.npy``: the ``long_run`` trajectory integrated at
  rtol=1e-12, atol=1e-14, sampled on the output grid (t = 0, 0.1, ..., 1000;
  rows t, columns x, y, yj).
- ``refs/sweep.csv``: the ``sweep`` subcommand's 144 rows on the benchmark's
  grid.
- ``refs/refs.json``: the commit, source digest, versions and settings that
  produced them.

References are generated here, outside the timed runs.  Regenerate them
only from a commit whose results are trusted, never from a change under test.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import preydelay  # noqa: E402
from preydelay import cli  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402

REF_RTOL = 1e-12
REF_ATOL = 1e-14


def long_run_reference() -> tuple[np.ndarray, dict]:
    model = wl.long_run_model()
    history = wl.long_run_history(model)
    cfg = preydelay.default_stepper(model, wl.LONG_RUN_T, rtol=REF_RTOL,
                                    atol=REF_ATOL)
    t0 = time.perf_counter()
    traj = preydelay.integrate(model, history, cfg)
    elapsed = time.perf_counter() - t0
    n = int(round(wl.LONG_RUN_T / wl.LONG_RUN_STRIDE)) + 1
    grid = np.linspace(0.0, wl.LONG_RUN_T, n)
    meta = {"file": "long_run.npy", "model": model.to_dict(),
            "history": "consistent_history(m, 1.2 x*, 0.8 y*, amp=0.2)",
            "t_end": wl.LONG_RUN_T, "rtol": REF_RTOL, "atol": REF_ATOL,
            "grid": f"linspace(0, {wl.LONG_RUN_T:g}, {n})",
            "columns": ["x", "y", "yj"], "steps_accepted": traj.n_steps,
            "integrate_s": elapsed}
    return traj.sample(grid), meta


def sweep_reference(tmp: Path) -> tuple[Path, dict]:
    config = tmp / "sweep_config.json"
    config.write_text(json.dumps(wl.sweep_config_doc(ROOT)))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["sweep", "--config", str(config), "--out", str(tmp),
                       "--threads", "1"])
    if rc != 0:
        raise SystemExit(f"sweep exited {rc}")
    meta = {"file": "sweep.csv", "config": "demos/config_example.json",
            "grid": wl.SWEEP_GRID, "threads": 1,
            "rows": len(wl.read_sweep_csv(tmp / "sweep.csv"))}
    return tmp / "sweep.csv", meta


def main() -> int:
    refs = wl.REFS
    refs.mkdir(exist_ok=True)
    samples, long_meta = long_run_reference()
    np.save(refs / "long_run.npy", samples)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        path, sweep_meta = sweep_reference(Path(tmp))
        shutil.copyfile(path, refs / "sweep.csv")
    doc = {"generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           **run.provenance(), "long_run": long_meta, "sweep": sweep_meta}
    (refs / "refs.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {refs}: long_run {samples.shape}, "
          f"{long_meta['steps_accepted']} steps; sweep {sweep_meta['rows']} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
