"""The benchmark's three workloads: their inputs, jobs, output checks and replays.

Each workload is a closed loop with one client in one process.  A workload
builds its inputs in its constructor (set-up), runs one operation per
``perform`` call (timed by the caller), checks the operation's outputs in
``check`` (not timed) and, in the traced run, replays the library's internal
calls as direct public calls in ``replay``.

- ``cli``: fresh ``python -m preydelay`` subprocesses cycling through the five
  subcommands.  Interpreter start-up and import dominate the four small
  calls while the sweep spends most of its time in the spectral search, so
  start-up changes and spectral-search changes both show, and can be told
  apart by subcommand.
- ``long_run``: one long oscillating trajectory (B = 1) integrated at a tight
  tolerance and post-processed; loads the stepper, the lag lookups and the
  dense output, and has nothing for an ensemble change to batch.
- ``dichotomy``: one seeded random model per job with five probe histories;
  the many medium runs an ensemble integrator would batch, and the only
  workload that reaches the general (non-BD) equilibrium solver.

``cli`` and ``long_run`` use fixed inputs with stored references; the seed
drives only the ``dichotomy`` model and history draws.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import preydelay
from preydelay import analysis, cli, stability, svg

from stats import summary
from tracing import NULL

BENCH_DIR = Path(__file__).resolve().parent
REFS = BENCH_DIR / "refs"

RESIDUAL_TOL = 1e-10
RIGHTMOST_TOL = 1e-10
# traj_max_relerr may not exceed this; the seed commit reads 1.44e-5
TRAJ_RELERR_BOUND = 2e-5

CLI_COMMANDS = ("simulate", "equilibria", "stability", "verify", "sweep")
SWEEP_GRID = {"k2": [1.0, 2.0, 5.0, 10.0, 15.0, 20.0],
              "d": [0.3, 0.45, 0.9, 5.0],
              "tau_m": [0.25, 0.5, 0.75],
              "tau_M": [1.0, 1.5]}
SWEEP_THREADS = 2
SWEEP_FLAGS = ("coexists", "thm7_pass", "thm8_pass")

LONG_RUN_T = 1000.0
LONG_RUN_STRIDE = 0.1
LONG_RUN_SAMPLES = 20001


def long_run_model() -> preydelay.ModelSpec:
    """BD model whose coexistence point is unstable (rightmost root ~ +0.18)."""
    return preydelay.ModelSpec(
        preydelay.ModelParams(r=1.0, K=10.0, n=1.0, dj=0.55, d=0.3),
        preydelay.saturating_delay(0.5, 1.0, 1.0),
        preydelay.beddington_deangelis(b=1.0, k1=1.0, k2=0.1))


def long_run_history(model: preydelay.ModelSpec,
                     tr=NULL) -> preydelay.HistoryFunction:
    eq = preydelay.solve_coexistence(model)
    with tr.span("model.consistent_history"):
        return preydelay.consistent_history(model, 1.2 * eq.x_star,
                                            0.8 * eq.y_star, amp=0.2)


def sweep_config_doc(root: Path) -> dict:
    """The demo config with the benchmark's 144-point sweep grid."""
    doc = json.loads((root / "demos" / "config_example.json").read_text())
    doc["sweep"] = SWEEP_GRID
    return doc


def read_sweep_csv(path: Path) -> dict:
    """sweep.csv rows keyed by (k2, d, tau_m, tau_M)."""
    with open(path, newline="") as fh:
        return {(float(r["k2"]), float(r["d"]), float(r["tau_m"]),
                 float(r["tau_M"])): r for r in csv.DictReader(fh)}


def _scenario_panels(model, ts, vals):
    """The simulate subcommand's chart panels for samples ``vals`` at ``ts``."""
    taus = [model.delay.tau(max(v, 0.0)) for v in vals[:, 1]]
    series = svg.Series
    return [([series("x", list(ts), list(vals[:, 0])),
              series("y", list(ts), list(vals[:, 1])),
              series("yj", list(ts), list(vals[:, 2]))],
             "population densities", "t", "density"),
            ([series("tau(y)", list(ts), taus)],
             "maturation delay along the run", "t", "tau")]


def _fresh_dir(path: Path) -> Path:
    """An empty directory, so a check never reads an earlier call's output."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _solve_span(model) -> str:
    if model.response.kind == preydelay.ResponseKind.BEDDINGTON_DEANGELIS:
        return "equilibria.solve_closed_form"
    return "equilibria.solve_general"


def _replay_rightmost(tr, model, verdict) -> None:
    """Replay the spectral search ``classify_equilibrium`` made internally."""
    if verdict.qp is None or verdict.equilibrium.kind == \
            preydelay.EquilibriumKind.TRIVIAL:
        return
    box_of = getattr(stability, "_classification_box", None)
    box = box_of(model.params.d, verdict.coeffs) if box_of else None
    with tr.span("stability.rightmost_abscissa") as counts:
        _, roots = preydelay.rightmost_abscissa(verdict.qp, box=box)
    counts["roots"] = len(roots)


def _classify_all(tr, model, eqs) -> list:
    return [tr.call("stability.classify", preydelay.classify_equilibrium,
                    model, eq) for eq in eqs]


def _equilibria(tr, model) -> tuple[list, object]:
    eqs = preydelay.boundary_equilibria(model)
    coex = tr.call(_solve_span(model), preydelay.solve_coexistence, model)
    return eqs + ([coex] if coex is not None else []), coex


# --------------------------------------------------------------------------
# cli


@dataclass
class CliOutput:
    command: str
    returncode: int
    stdout: str
    outdir: Path


class CliWorkload:
    """Each operation is one fresh ``python -m preydelay <command>`` call."""

    name = "cli"
    kernel = "spawn"
    cycle = len(CLI_COMMANDS)

    def __init__(self, root: Path, seed: int, out: Path, tr=NULL):
        self.out = out
        out.mkdir(parents=True, exist_ok=True)
        self.config = root / "demos" / "config_example.json"
        self.sweep_config = out / "sweep_config.json"
        self.sweep_config.write_text(json.dumps(sweep_config_doc(root)))
        self.sweep_ref = read_sweep_csv(REFS / "sweep.csv")
        scn = cli.load_scenario(self.config)
        self.simulate_rows = int(math.floor(
            scn.stepper.t_end / scn.outputs.stride + 1e-9)) + 1
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child_maxrss_kb = 0

    def label(self, i: int) -> str:
        return CLI_COMMANDS[i % len(CLI_COMMANDS)]

    def argv(self, command: str, outdir: Path) -> list[str]:
        config = self.sweep_config if command == "sweep" else self.config
        argv = [command, "--config", str(config), "--out", str(outdir)]
        if command == "sweep":
            argv += ["--threads", str(SWEEP_THREADS)]
        return argv

    def perform(self, i: int, tr) -> CliOutput:
        command = self.label(i)
        outdir = _fresh_dir(self.out / command)
        log = outdir / "stdout.txt"
        with tr.span(f"cli.{command}.call"), open(log, "wb") as fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "preydelay", *self.argv(command, outdir)],
                stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=self.out)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        return CliOutput(command, proc.returncode,
                         log.read_text(errors="replace"), outdir)

    def check(self, out: CliOutput) -> list[str]:
        if out.returncode != 0:
            return [f"{out.command} exited {out.returncode}: "
                    f"{out.stdout.strip()[-200:]}"]
        return getattr(self, f"_check_{out.command}")(out)

    def _check_simulate(self, out: CliOutput) -> list[str]:
        with open(out.outdir / "trajectory.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.simulate_rows:
            return [f"trajectory.csv has {rows} rows, "
                    f"expected {self.simulate_rows}"]
        return []

    def _check_equilibria(self, out: CliOutput) -> list[str]:
        doc = json.loads((out.outdir / "equilibria.json").read_text())
        bad = [e for e in doc["equilibria"] if not e["residual"] <= RESIDUAL_TOL]
        errors = [f"{e['kind']} residual {e['residual']:.3g}" for e in bad]
        if len(doc["equilibria"]) != 3:
            errors.append(f"{len(doc['equilibria'])} equilibria, expected 3")
        return errors

    def _check_stability(self, out: CliOutput) -> list[str]:
        reports = json.loads((out.outdir / "stability.json").read_text())
        if [r["equilibrium"] for r in reports] != [
                "trivial", "predator_extinction", "coexistence"]:
            return [f"stability.json lists {[r['equilibrium'] for r in reports]}"]
        return []

    def _check_verify(self, out: CliOutput) -> list[str]:
        lines = [ln for ln in out.stdout.splitlines()
                 if ln.startswith(("PASS", "FAIL"))]
        errors = [f"verify: {ln}" for ln in lines if not ln.startswith("PASS")]
        if not lines:
            errors.append("verify printed no checks")
        return errors

    def _check_sweep(self, out: CliOutput) -> list[str]:
        rows = read_sweep_csv(out.outdir / "sweep.csv")
        if len(rows) != len(self.sweep_ref) or set(rows) != set(self.sweep_ref):
            return [f"sweep.csv has {len(rows)} grid points, "
                    f"expected {len(self.sweep_ref)}"]
        errors = []
        for key, ref in self.sweep_ref.items():
            row = rows[key]
            for flag in SWEEP_FLAGS:
                if row[flag] != ref[flag]:
                    errors.append(f"sweep {key} {flag}={row[flag]}, "
                                  f"reference {ref[flag]}")
            got, want = float(row["rightmost_re"]), float(ref["rightmost_re"])
            if not (abs(got - want) <= RIGHTMOST_TOL
                    or (math.isnan(got) and math.isnan(want))):
                errors.append(f"sweep {key} rightmost_re={got!r}, "
                              f"reference {want!r}")
        return errors

    def replay(self, i: int, out, tr) -> list[str]:
        """Run the subcommand in-process, then its library calls directly."""
        command = self.label(i)
        outdir = _fresh_dir(self.out / "inproc" / command)
        buf = io.StringIO()
        with tr.span(f"cli.{command}.body"), contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv(command, outdir))
        errors = self.check(CliOutput(command, rc, buf.getvalue(), outdir))
        getattr(self, f"_replay_{command}")(tr, outdir)
        return errors

    def _scenario(self, tr):
        """The demo scenario, replaying the consistent history it builds."""
        scn = cli.load_scenario(self.config)
        h = json.loads(self.config.read_text())["history"]
        tr.call("model.consistent_history", preydelay.consistent_history,
                scn.model, float(h["x"]), float(h["y"]),
                amp=float(h.get("amp", 0.0)), omega=float(h.get("omega", 2.0)),
                phase=float(h.get("phase", 0.0)))
        return scn

    def _replay_simulate(self, tr, outdir: Path) -> None:
        scn = self._scenario(tr)
        tr.call("model.history_consistency_error",
                preydelay.history_consistency_error, scn.model, scn.history)
        traj = tr.integrate(scn.model, scn.history, scn.stepper)
        tr.call("engine.export_csv", preydelay.export_csv, scn.model, traj,
                outdir / "replay.csv", scn.outputs.stride)
        stride = scn.outputs.stride
        ts = np.arange(0.0, traj.t_end + stride / 2, stride)
        with tr.span("engine.sample", points=len(ts)):
            vals = traj.sample(ts)
        tr.call("svg.stacked_chart", svg.stacked_chart,
                _scenario_panels(scn.model, ts, vals), outdir / "replay.svg")

    def _replay_equilibria(self, tr, outdir: Path) -> None:
        _equilibria(tr, self._scenario(tr).model)

    def _replay_stability(self, tr, outdir: Path) -> None:
        model = self._scenario(tr).model
        eqs, _ = _equilibria(tr, model)
        for verdict in _classify_all(tr, model, eqs):
            _replay_rightmost(tr, model, verdict)

    def _replay_verify(self, tr, outdir: Path) -> None:
        scn = self._scenario(tr)
        model = scn.model
        tr.call("model.validate", preydelay.validate, model)
        eqs, coex = _equilibria(tr, model)
        cfg = preydelay.StepperConfig(
            t_end=max(scn.stepper.t_end, 41.0 * model.delay.tau_M),
            rtol=scn.stepper.rtol, atol=scn.stepper.atol,
            h_init=scn.stepper.h_init, h_max=scn.stepper.h_max,
            positivity_guard=scn.stepper.positivity_guard)
        tr.call("model.history_consistency_error",
                preydelay.history_consistency_error, model, scn.history)
        traj = tr.integrate(model, scn.history, cfg)
        tr.call("analysis.boundedness_certificate",
                preydelay.boundedness_certificate, model, traj)
        for t in np.linspace(model.delay.tau_M, traj.t_end, 12):
            tr.call("engine.yj_integral", preydelay.yj_integral, model, traj,
                    float(t))
        if coex is None:
            return
        _replay_rightmost(tr, model, tr.call(
            "stability.classify", preydelay.classify_equilibrium, model, coex))
        for tau_hat in ("equilibrium", "zero"):
            # the zero-delay variant need not bracket; verify reports it
            with contextlib.suppress(analysis.AnalysisError), \
                    tr.span("analysis.monotone_bounds"):
                preydelay.monotone_bounds(model, coex, 1e-4, tau_hat=tau_hat)

    def _replay_sweep(self, tr, outdir: Path) -> None:
        base = cli.load_scenario(self.sweep_config).model.to_dict()
        for k2 in SWEEP_GRID["k2"]:
            for d in SWEEP_GRID["d"]:
                for tau_m in SWEEP_GRID["tau_m"]:
                    for tau_M in SWEEP_GRID["tau_M"]:
                        base["params"]["d"] = d
                        base["response"]["coefficients"]["k2"] = k2
                        base["delay"]["tau_m"] = tau_m
                        base["delay"]["tau_M"] = tau_M
                        model = preydelay.ModelSpec.from_dict(base)
                        eqs, coex = _equilibria(tr, model)
                        eq = coex if coex is not None else eqs[1]
                        _replay_rightmost(tr, model, tr.call(
                            "stability.classify",
                            preydelay.classify_equilibrium, model, eq))

    def peak_rss_kb(self) -> int:
        return self.child_maxrss_kb

    def extra_metrics(self, ops) -> dict:
        out = {}
        for c in CLI_COMMANDS:
            mine = [op for op in ops if op.label == c]
            if mine:
                out[f"cli_{c}_s"] = {
                    **summary([op.normalized for op in mine], "s"),
                    "raw": statistics.median(op.latency for op in mine)}
        return out


# --------------------------------------------------------------------------
# in-process workloads


class _InProcessWorkload:
    """A workload whose jobs run in the benchmark's own process."""

    kernel = "python"

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def extra_metrics(self, ops) -> dict:
        return {}


# --------------------------------------------------------------------------
# long_run


@dataclass
class LongRunOutput:
    samples: np.ndarray
    certificate: object
    csv_path: Path


class LongRunWorkload(_InProcessWorkload):
    """Each job integrates one long oscillating trajectory and post-processes it."""

    name = "long_run"
    cycle = 1

    def __init__(self, root: Path, seed: int, out: Path, tr=NULL):
        out.mkdir(parents=True, exist_ok=True)
        self.out = out
        self.model = long_run_model()
        self.history = long_run_history(self.model, tr)
        self.cfg = preydelay.default_stepper(self.model, LONG_RUN_T,
                                             rtol=1e-10, atol=1e-12)
        self.grid = np.linspace(0.0, LONG_RUN_T, LONG_RUN_SAMPLES)
        self.reference = np.load(REFS / "long_run.npy")
        self.ref_every = (LONG_RUN_SAMPLES - 1) // (len(self.reference) - 1)
        self.csv_rows = int(math.floor(LONG_RUN_T / LONG_RUN_STRIDE + 1e-9)) + 1
        self.max_relerr = []

    def label(self, i: int) -> str:
        return self.name

    def perform(self, i: int, tr) -> LongRunOutput:
        traj = tr.integrate(self.model, self.history, self.cfg)
        csv_path = self.out / "trajectory.csv"
        tr.call("engine.export_csv", preydelay.export_csv, self.model, traj,
                csv_path, LONG_RUN_STRIDE)
        with tr.span("engine.sample", points=len(self.grid)):
            samples = traj.sample(self.grid)
        cert = tr.call("analysis.boundedness_certificate",
                       preydelay.boundedness_certificate, self.model, traj)
        return LongRunOutput(samples, cert, csv_path)

    def relerr(self, out: LongRunOutput) -> float:
        """Largest relative deviation from the reference, all three channels."""
        got = out.samples[::self.ref_every]
        return float(np.max(np.abs(got - self.reference)
                            / np.abs(self.reference)))

    def check(self, out: LongRunOutput) -> list[str]:
        errors = []
        err = self.relerr(out)
        self.max_relerr.append(err)
        if not err <= TRAJ_RELERR_BOUND:
            errors.append(f"traj_max_relerr {err:.3g} above {TRAJ_RELERR_BOUND:g}")
        cert = out.certificate
        if not (cert.v_within_limit and cert.x_within_capacity(self.model.params.K)):
            errors.append(f"boundedness certificate failed: V_sup="
                          f"{cert.observed_V_sup:.6g} limit={cert.V_limit:.6g}")
        with open(out.csv_path) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.csv_rows:
            errors.append(f"export_csv wrote {rows} rows, expected {self.csv_rows}")
        return errors

    def replay(self, i: int, out: LongRunOutput, tr) -> list[str]:
        tr.call("model.history_consistency_error",
                preydelay.history_consistency_error, self.model, self.history)
        return []

    def extra_metrics(self, ops) -> dict:
        if not self.max_relerr:
            return {}
        return {"traj_max_relerr": {"value": max(self.max_relerr), "unit": "1",
                                    "n": len(self.max_relerr)}}


# --------------------------------------------------------------------------
# dichotomy

# A job's cost goes as its step count, the horizon 400/d over the step cap
# 0.45 tau_m, and log 1 / (d tau_m) explains about 90% of the variance of the
# log job time within three of the four classes.  So job i draws a model of
# class i % 4 whose 1 / (d tau_m) lies in stratum DICHOTOMY_STRATUM_ORDER[
# (i // 4) % 8] of that quantity's distribution under the test's draws:
# every 32 consecutive jobs cover both response kinds on both sides of R = 1
# at every cost scale, whatever the seed, and job times vary less between
# seeds.  The order pairs cheap with dear strata, so that a run, which ends
# part-way through a cycle, still gets a balanced mix.
DICHOTOMY_CLASSES = (("linear", True), ("bd", True), ("linear", False),
                     ("bd", False))
DICHOTOMY_STRATUM_ORDER = (0, 7, 3, 4, 1, 6, 2, 5)
DICHOTOMY_STRATA = len(DICHOTOMY_STRATUM_ORDER)
DICHOTOMY_POOL = 128
DICHOTOMY_HISTORIES = 5
# Probe settings.  Under the random-spec test's horizon 200/d and floor
# atol = 1e-30 on x and y, 4 of about 1600 draws checked here (all R > 1)
# were inconclusive; under 400/d and 1e-300, none of about 2500:
# - a history three times the reference level is still in its transient
#   crash (y ~ 1e-9) during the tail window; every such draw settles by 400/d;
# - the prey crashes to ~1e-42, below the 1e-30 floor, and the positivity
#   clamp sets it to exactly 0, where it stays.  A floor of 1e-300 keeps the
#   control relative, as the probe intends.
DICHOTOMY_HORIZON_D = 400.0
DICHOTOMY_ATOL = (1e-300, 1e-300, 1e-8)


@dataclass
class DichotomyJob:
    model: preydelay.ModelSpec
    R: float
    history_seed: int
    label: str


@dataclass
class DichotomyOutput:
    job: DichotomyJob
    histories: list
    coexistence: object
    classified: list
    verdict: object


def cost_strata() -> np.ndarray:
    """Edges of the DICHOTOMY_STRATA equiprobable strata of 1 / (d tau_m)."""
    rng = np.random.default_rng(0)
    cost = 1.0 / (rng.uniform(0.5, 1.2, 100_000) * rng.uniform(0.4, 0.9, 100_000))
    edges = np.quantile(cost, np.linspace(0.0, 1.0, DICHOTOMY_STRATA + 1))
    edges[0], edges[-1] = 0.0, math.inf
    return edges


def draw_dichotomy_job(rng: np.random.Generator, kind: str, permanent: bool,
                       cost_lo: float, cost_hi: float) -> DichotomyJob:
    """Draw parameters like the random-spec dichotomy test, with |R - 1| >= 0.25.

    Draws are kept only when cost_lo <= 1 / (d tau_m) < cost_hi.
    """
    while True:
        r = rng.uniform(0.5, 1.5)
        K = rng.uniform(1.0, 4.0)
        n = rng.uniform(0.5, 1.5)
        dj = rng.uniform(0.2, 0.8)
        d = rng.uniform(0.5, 1.2)
        tau_m = rng.uniform(0.4, 0.9)
        if not cost_lo <= 1.0 / (d * tau_m) < cost_hi:
            continue
        delay = preydelay.make_delay("saturating", tau_m,
                                     tau_m + rng.uniform(0.1, 0.6),
                                     theta=rng.uniform(0.5, 2.0))
        if kind == "linear":
            resp = preydelay.linear(b=rng.uniform(0.1, 2.0))
        else:
            resp = preydelay.beddington_deangelis(b=rng.uniform(0.1, 2.0),
                                                  k1=rng.uniform(0.0, 0.4),
                                                  k2=rng.uniform(0.1, 1.5))
        model = preydelay.ModelSpec(preydelay.ModelParams(r, K, n, dj, d),
                                    delay, resp)
        R = preydelay.reproduction_number(model)
        if abs(R - 1.0) >= 0.25 and (R > 1.0) == permanent:
            side = "permanent" if permanent else "extinction"
            return DichotomyJob(model, R, int(rng.integers(2**31)),
                                f"{kind}-{side}")


def probe_config(model) -> tuple[float, preydelay.StepperConfig]:
    horizon = DICHOTOMY_HORIZON_D / model.params.d
    return horizon, preydelay.default_stepper(model, horizon, rtol=1e-6,
                                              atol=DICHOTOMY_ATOL)


def expected_verdict(R: float) -> str:
    return "permanent" if R > 1.0 else "extinction"


class DichotomyWorkload(_InProcessWorkload):
    """Each job is one seeded random model probed from five histories."""

    name = "dichotomy"
    cycle = len(DICHOTOMY_CLASSES) * DICHOTOMY_STRATA

    def __init__(self, root: Path, seed: int, out: Path, tr=NULL):
        rng = np.random.default_rng(seed)
        n, edges = len(DICHOTOMY_CLASSES), cost_strata()
        self.jobs = []
        for i in range(DICHOTOMY_POOL):
            k = DICHOTOMY_STRATUM_ORDER[(i // n) % DICHOTOMY_STRATA]
            job = draw_dichotomy_job(rng, *DICHOTOMY_CLASSES[i % n],
                                     edges[k], edges[k + 1])
            # the label names the stratum too, so that the traced run's
            # overhead compares jobs of like cost
            job.label += f"-cost{k}"
            self.jobs.append(job)
        self.expected_verdict = expected_verdict

    def label(self, i: int) -> str:
        return self.jobs[i % len(self.jobs)].label

    def perform(self, i: int, tr) -> DichotomyOutput:
        job = self.jobs[i % len(self.jobs)]
        m = job.model
        histories = preydelay.spread_histories(
            m, n=DICHOTOMY_HISTORIES, seed=job.history_seed, lo=0.1, hi=3.0)
        eqs, coex = _equilibria(tr, m)
        classified = _classify_all(tr, m, eqs)
        horizon, cfg = probe_config(m)
        verdict = tr.call("analysis.permanence_probe", preydelay.permanence_probe,
                          m, histories, horizon=horizon, cfg=cfg)
        return DichotomyOutput(job, histories, coex, classified, verdict)

    def check(self, out: DichotomyOutput) -> list[str]:
        job = out.job
        errors = []
        want = self.expected_verdict(job.R)
        if out.verdict.verdict != want:
            errors.append(f"verdict {out.verdict.verdict}, expected {want} "
                          f"(R={job.R:.6g})")
        if (out.coexistence is not None) != (job.R > 1.0):
            errors.append(f"coexistence {'found' if out.coexistence else 'absent'}"
                          f" with R={job.R:.6g}")
        if out.coexistence is not None and not \
                out.coexistence.residual <= RESIDUAL_TOL:
            errors.append(f"coexistence residual {out.coexistence.residual:.3g}")
        return errors

    def replay(self, i: int, out: DichotomyOutput, tr) -> list[str]:
        m = out.job.model
        x_ref, y_ref = m.params.K / 2.0, max(m.params.K / 4.0, 0.1)
        for level in np.geomspace(0.1, 3.0, DICHOTOMY_HISTORIES):
            tr.call("model.consistent_history", preydelay.consistent_history,
                    m, float(x_ref * level), float(y_ref * level), amp=0.2)
        for verdict in out.classified:
            _replay_rightmost(tr, m, verdict)
        _, cfg = probe_config(m)
        for hist in out.histories:
            tr.call("model.history_consistency_error",
                    preydelay.history_consistency_error, m, hist)
            traj = tr.integrate(m, hist, cfg)
            # the probe's tail grid: 512 points over the last quarter plus
            # the accepted nodes inside it
            t_lo = 0.75 * traj.t_end
            grid = np.unique(np.concatenate([
                np.linspace(t_lo, traj.t_end, 512),
                traj.ts[(traj.ts >= t_lo) & (traj.ts <= traj.t_end)]]))
            with tr.span("engine.sample", points=len(grid)):
                traj.sample(grid)
        return []



WORKLOADS = {w.name: w for w in (CliWorkload, LongRunWorkload, DichotomyWorkload)}
