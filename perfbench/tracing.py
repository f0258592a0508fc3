"""Spans recorded by the benchmark around its own calls into the library.

A span holds a name, start, end, parent span and job id.  Spans are kept in
memory and written out when the run ends.  Calls the library makes
internally are not wrapped; the traced run replays them as direct public
calls on the same inputs instead.  :class:`NullTracer` has the same
interface and records nothing, so the timed runs execute the same job code
with tracing off.
"""
from __future__ import annotations

import dataclasses
import statistics
from contextlib import contextmanager
from time import perf_counter

from preydelay import engine


@dataclasses.dataclass
class Span:
    name: str
    job: object
    parent: int | None
    start: float
    end: float | None = None
    counts: dict = dataclasses.field(default_factory=dict)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = None

    @contextmanager
    def span(self, name: str, **counts):
        """Record a span; the yielded dict takes counts known only afterwards."""
        rec = Span(name, self.job, self._open[-1] if self._open else None,
                   perf_counter(), counts=dict(counts))
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec.counts
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def integrate(self, model, history, cfg):
        """``engine.integrate`` with its step attempts and RHS calls counted.

        RHS calls are counted through a wrapped ``tau_prime``, which the RHS
        calls once per evaluation; attempts through the engine's per-attempt
        step function.  Counting stops when ``integrate`` returns, because
        ``export_csv`` calls ``tau_prime`` too.
        """
        rhs_calls = [0]
        attempts = [0]
        tau_prime = model.delay.tau_prime

        def counting_tau_prime(y):
            rhs_calls[0] += 1
            return tau_prime(y)

        counted = dataclasses.replace(model, delay=dataclasses.replace(
            model.delay, tau_prime=counting_tau_prime))
        attempt_step = getattr(engine, "_attempt_step", None)
        if attempt_step is not None:
            def counting_attempt_step(*args, **kwargs):
                attempts[0] += 1
                return attempt_step(*args, **kwargs)
            engine._attempt_step = counting_attempt_step
        try:
            with self.span("engine.integrate") as counts:
                traj = engine.integrate(counted, history, cfg)
        finally:
            if attempt_step is not None:
                engine._attempt_step = attempt_step
        if attempt_step is None:
            # the engine no longer exposes its step function: derive the
            # attempts from the RHS count (6 new stages per attempt, FSAL)
            attempts[0] = (rhs_calls[0] - 1) // 6
        counts.update(steps_accepted=traj.n_steps, rhs_calls=rhs_calls[0],
                      attempts=attempts[0],
                      steps_rejected=attempts[0] - traj.n_steps,
                      attempts_counted=attempt_step is not None)
        return traj


class NullTracer:
    enabled = False
    job = None

    @contextmanager
    def span(self, name: str, **counts):
        yield {}

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def integrate(self, model, history, cfg):
        return engine.integrate(model, history, cfg)


NULL = NullTracer()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

# (metric, unit, better, span name, what):  what is "time" for the per-call
# self time, ("per", count) for self time divided by a count, and
# ("count", count) for a count per call.
LAYER_METRICS = [
    ("cli.simulate.body_s", "s", "lower", "cli.simulate.body", "time"),
    ("cli.equilibria.body_s", "s", "lower", "cli.equilibria.body", "time"),
    ("cli.stability.body_s", "s", "lower", "cli.stability.body", "time"),
    ("cli.verify.body_s", "s", "lower", "cli.verify.body", "time"),
    ("cli.sweep.body_s", "s", "lower", "cli.sweep.body", "time"),
    ("engine.integrate_s", "s", "lower", "engine.integrate", "time"),
    ("engine.us_per_attempt", "us", "lower", "engine.integrate",
     ("per", "attempts")),
    ("engine.steps_accepted", "count", "lower", "engine.integrate",
     ("count", "steps_accepted")),
    ("engine.steps_rejected", "count", "lower", "engine.integrate",
     ("count", "steps_rejected")),
    ("engine.rhs_calls", "count", "lower", "engine.integrate",
     ("count", "rhs_calls")),
    ("engine.sample_us_per_point", "us", "lower", "engine.sample",
     ("per", "points")),
    ("engine.export_csv_s", "s", "lower", "engine.export_csv", "time"),
    ("engine.yj_integral_ms", "ms", "lower", "engine.yj_integral", "time"),
    ("model.consistent_history_ms", "ms", "lower", "model.consistent_history",
     "time"),
    ("model.history_consistency_error_ms", "ms", "lower",
     "model.history_consistency_error", "time"),
    ("model.validate_ms", "ms", "lower", "model.validate", "time"),
    ("equilibria.solve_closed_form_ms", "ms", "lower",
     "equilibria.solve_closed_form", "time"),
    ("equilibria.solve_general_ms", "ms", "lower", "equilibria.solve_general",
     "time"),
    ("stability.classify_ms", "ms", "lower", "stability.classify", "time"),
    ("stability.rightmost_abscissa_ms", "ms", "lower",
     "stability.rightmost_abscissa", "time"),
    ("stability.roots_found", "count", "higher", "stability.rightmost_abscissa",
     ("count", "roots")),
    ("analysis.permanence_probe_s", "s", "lower", "analysis.permanence_probe",
     "time"),
    ("analysis.boundedness_certificate_ms", "ms", "lower",
     "analysis.boundedness_certificate", "time"),
    ("analysis.monotone_bounds_ms", "ms", "lower", "analysis.monotone_bounds",
     "time"),
    ("svg.stacked_chart_ms", "ms", "lower", "svg.stacked_chart", "time"),
]

SPAN_NAMES = {row[3] for row in LAYER_METRICS}


def is_coverage(job) -> bool:
    return isinstance(job, str) and job.startswith("coverage:")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-call medians of every layer metric, with sample count and totals.

    A layer uses the spans of the workload's own jobs when there are any,
    and the coverage pass's spans otherwise; ``source`` says which.
    """
    selfs = self_times(spans)
    by_name: dict[str, dict[bool, list]] = {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s.name, {True: [], False: []})[
            is_coverage(s.job)].append((s, st))
    out = {}
    for metric, unit, better, name, what in LAYER_METRICS:
        groups = by_name.get(name, {True: [], False: []})
        source = "workload" if groups[False] else "coverage"
        rows = groups[False] or groups[True]
        if what == "time":
            values = [st * _SCALE[unit] for _, st in rows]
        elif what[0] == "per":
            values = [st * _SCALE[unit] / s.counts[what[1]] for s, st in rows
                      if s.counts.get(what[1])]
        else:
            values = [float(s.counts[what[1]]) for s, _ in rows]
        out[metric] = {
            "value": statistics.median(values) if values else None,
            "unit": unit, "better": better, "n": len(values),
            "self_total_s": sum(st for _, st in rows), "calls": len(rows),
            "source": source,
        }
    return out


def spans_as_dicts(spans: list[Span]) -> list[dict]:
    return [dataclasses.asdict(s) for s in spans]
