"""Trajectory-level verification probes.

Each probe turns one of the model's qualitative statements into a numerical
experiment: eventual boundedness of V = n x + y + yj, the permanence /
extinction dichotomy at reproduction number one, order preservation for the
scalar delayed equation, convergence of the scalar recruitment-saturation
equation to its fixed point, and the monotone over/under bracketing scheme
that pins the coexistence equilibrium.

The two probes that run many histories of one model, :func:`permanence_probe`
and :func:`global_attraction_probe`, run them in order in the calling process
until one run proves long: it stopped after at least 200 capped steps
(``t_decided / h_max``).  The histories after it are dealt round-robin to
``os.fork()`` children on POSIX when more than one CPU is usable, through
:func:`preydelay._forkmap.fork_map`.  Their records, warnings and exceptions
are those of a serial run; restricting the CPU affinity to one CPU (for
example ``taskset -c 0``) forces the serial path.

The horizon of those two probes is a cap.  A run pauses every four maximum
delays and stops at the first pause where its verdict is settled: the
envelope of its distance from the steady state over each of the last three
windows has fallen at least at half the rate that the state's spectral
abscissa sets (which must lie below -1e-8), and the probe's own check holds
on the run so far.  Its record is read off the run up to there, and
``t_decided`` says where that was; a run that never settles, on a cycle say,
goes on to the horizon and keeps a fixed-length run's record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Callable

import numpy as np

from .delays import DelayFunction
from .engine import (StepperConfig, Trajectory, _capped_stepper,
                     default_stepper, integrate_scalar_sdtd, start_run)
from .equilibria import (Equilibrium, NoConvergenceError, WindingError,
                         _bracketed_root, boundary_equilibria,
                         solve_coexistence)
from .model import (HistoryFunction, ModelSpec, _dissipation,
                    consistent_history, reproduction_number)
from .responses import ResponseKind
from .stability import (check_global_conditions, linearize_at,
                        spectral_abscissae)

__all__ = [
    "AnalysisError",
    "HorizonError",
    "InconclusiveError",
    "BracketNestingError",
    "ScalarLimitMismatch",
    "BoundednessCertificate",
    "DichotomyVerdict",
    "ComparisonReport",
    "ScalarLimitResult",
    "BracketSequences",
    "ConvergenceReport",
    "boundedness_certificate",
    "permanence_probe",
    "comparison_probe",
    "scalar_limit",
    "scalar_fixed_point",
    "monotone_bounds",
    "extrapolated_limits",
    "global_attraction_probe",
    "spread_histories",
]


class AnalysisError(RuntimeError):
    pass


class HorizonError(AnalysisError):
    """The trajectory is too short for the requested tail statistics."""


class InconclusiveError(AnalysisError):
    """Histories disagreed on the verdict; carries per-history records."""

    def __init__(self, message: str, records: list):
        super().__init__(message)
        self.records = records


class BracketNestingError(AnalysisError):
    """Monotone bracketing failed; carries the first offending index."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class ScalarLimitMismatch(AnalysisError):
    """Simulated tail disagrees with the computed fixed point."""


# The probes' fixed settings; each probe's docstring states those it uses.
# The tail they read is the last quarter of a run, sampled at its nodes there
# and at 512 even times.  The bracketing recursion stops after 400 rounds if
# its over-estimates have not settled.
_TAIL_FRACTION, _TAIL_POINTS = 0.25, 512
_BOUND_TOL = 0.01
_EPS_FLOOR, _EXTINCTION_TOL = 1e-6, 1e-3
_ATTRACTION_TOL_XY, _ATTRACTION_TOL_YJ = 1e-4, 1e-3
_ORDER_TOL, _SCALAR_LIMIT_TOL = 1e-6, 1e-4
_BRACKET_ITERS = 400
_BRACKET_EPSILONS = (1e-2, 1e-3, 1e-4)


def _tail_grid(traj: Trajectory):
    t_lo = traj.t_end * (1.0 - _TAIL_FRACTION)
    grid = np.linspace(t_lo, traj.t_end, _TAIL_POINTS)
    nodes = traj.ts[(traj.ts >= t_lo) & (traj.ts <= traj.t_end)]
    # np.unique would import numpy.ma on every verify call
    ts = np.sort(np.concatenate([grid, nodes]))
    return ts[np.concatenate([[True], ts[1:] != ts[:-1]])]


# --------------------------------------------------------------------------
# histories side by side

# A probe forks the histories after the first whose run took at least this
# many capped steps: t_decided / h_max, a lower bound on its steps.  The
# default cap grows with rtol above 1e-8 (0.6 to 0.95 tau(0), see
# engine.default_stepper), so a run at a coarse rtol counts fewer capped steps
# for the same time.  On a 2-core x86-64 VM a fork, the child's exit and the
# pickled records cost 2-9 ms, and a long first run does not make the runs
# after it long.  Over 205 of the benchmark's 5-history dichotomy jobs (seeds
# 20261040-47), forking the rest after the first run took, in the median,
# 1.25x the all-serial time where that run had 40-100 capped steps, 1.18x at
# 100-150, 1.11x at 150-200, 1.06x at 200-300, 0.92x at 300-400 and 0.78x
# from 400 on.  Their total time moved by under 1% for thresholds from 200 to
# 400; over seeds 20261040-41 it was 2.5% higher at 100 than at 200.  At 200
# a job whose first run reaches its horizon forks exactly when a rule on the
# horizon at 200 forked it, so the slowest jobs, whose runs all reach the
# horizon, keep their split.
_FORK_MIN_STEPS = 200


def _map_histories(fn, histories: list, cfg: StepperConfig) -> list:
    """``[fn(h) for h in histories]``: the same records or exception.

    The histories run here in order until one's record has ``t_decided``
    of at least ``_FORK_MIN_STEPS`` capped steps; the ones after it go
    through :func:`preydelay._forkmap.fork_map`.
    """
    records = []
    for i, hist in enumerate(histories):
        records.append(fn(hist))
        if records[-1].t_decided / cfg.h_max >= _FORK_MIN_STEPS:
            from ._forkmap import fork_map

            records += fork_map(fn, histories[i + 1:])
            break
    return records


# --------------------------------------------------------------------------
# runs that stop once their verdict is settled

# A probe's run pauses every _WINDOW_TAU maximum delays.  A window's envelope
# is the largest distance from the steady state over the nodes the window
# accepted.  The run has settled on the state at a window end once each of
# the last _SETTLE_FALLS envelopes is at most e^(lambda W / 2) times the one
# before (lambda the state's spectral abscissa, below _SETTLE_ABSCISSA; W the
# window), the last one is within the rule's cap, and the probe's own record
# check holds on the run so far.  A pause costs a re-entry of the stepping
# loop and an envelope, about 8 us on a 2-core x86-64 VM, against 4-12 steps
# of 20-60 us each in a window: about 1% of the dichotomy benchmark's jobs.
_WINDOW_TAU = 4.0
_SETTLE_FALLS = 3
_SETTLE_ABSCISSA = -1e-8
_SETTLE_DISTANCE = 1e-2


def _anywhere(x: float, y: float, yj: float) -> bool:
    return True


@dataclass(frozen=True)
class _Settling:
    """A settle rule.

    ``envelope(us, a, b)`` is the largest distance from the steady state
    over the nodes us[a:b] (three floats a node); ``factor`` is the fall
    e^(lambda W / 2) asked of each envelope and ``cap`` bounds the last one.
    ``near(x, y, yj)``, a test of the last node that the probe's record
    check implies, spares building that record where it cannot pass.
    """

    envelope: Callable
    factor: float
    cap: float = math.inf
    near: Callable[[float, float, float], bool] = _anywhere

    def holds(self, envelopes: list, node) -> bool:
        """Whether the envelopes so far, oldest first, and the last node
        settle the run."""
        last = envelopes[-_SETTLE_FALLS - 1:]
        return (len(last) > _SETTLE_FALLS and last[-1] <= self.cap
                and all(b <= self.factor * a for a, b in zip(last, last[1:]))
                and self.near(*node))


def _settling(model: ModelSpec, eq: Equilibrium | None, envelope,
              **kwargs) -> _Settling | None:
    """The rule that settles runs on ``eq`` (``kwargs`` set its cap and
    near test), or None where none can: no point, a spectral abscissa at or
    above _SETTLE_ABSCISSA or a search that failed."""
    window = _WINDOW_TAU * model.delay.tau_M
    if eq is None or not window > 0.0:
        return None
    try:
        coeffs = linearize_at(model, eq)
    except NoConvergenceError:
        return None
    (found,) = spectral_abscissae([(model.params.d, coeffs)])
    if isinstance(found, WindingError) or not found[0] < _SETTLE_ABSCISSA:
        return None
    return _Settling(envelope, math.exp(0.5 * found[0] * window), **kwargs)


def _relative_envelope(eq: Equilibrium):
    """The envelope of max(|x/x* - 1|, |y/y* - 1|) over nodes us[a:b].

    Each term is monotone in its value, rounding included, so its largest
    value over the nodes is at their smallest or largest value.
    """
    x_star, y_star = eq.x_star, eq.y_star

    def envelope(us, a: int, b: int) -> float:
        xs, ys = us[a:b:3], us[a + 1:b:3]
        return max(abs(max(xs) / x_star - 1.0), abs(min(xs) / x_star - 1.0),
                   abs(max(ys) / y_star - 1.0), abs(min(ys) / y_star - 1.0))
    return envelope


def _predator_envelope(us, a: int, b: int) -> float:
    """The envelope of y + yj over nodes us[a:b]."""
    return max(map(add, us[a + 1:b:3], us[a + 2:b:3]))


def _settled_run(model: ModelSpec, hist: HistoryFunction, cfg: StepperConfig,
                 settling: _Settling | None, record):
    """``record(trajectory)``'s record of ``hist``'s run: over the run so far
    at the first window end where ``settling`` holds and the record's ok
    flag does too, else over the whole run to cfg.t_end.

    ``record`` returns (record, ok).  The run's steps and bits up to where
    it stops are those of an uninterrupted run (see
    :class:`preydelay.engine.Run`).
    """
    run = start_run(model, hist, cfg)
    if settling is not None:
        window, us = _WINDOW_TAU * model.delay.tau_M, run.store.us
        envelopes, start, k = [], 0, 1
        while not run.advance(k * window):
            k += 1
            if len(us) == start:  # a step longer than the window
                continue
            envelopes.append(settling.envelope(us, start, len(us)))
            start = len(us)
            if settling.holds(envelopes, us[-3:]):
                rec, ok = record(run.trajectory(copy=True))
                if ok:
                    return rec
    else:
        run.advance(cfg.t_end)
    return record(run.trajectory())[0]


# --------------------------------------------------------------------------
# boundedness


@dataclass(frozen=True)
class BoundednessCertificate:
    """Eventual bound for V = n x + y + yj versus the observed tail supremum."""

    M_bound: float
    V_limit: float
    observed_V_sup: float
    observed_x_sup: float
    tail_start: float

    @property
    def v_within_limit(self) -> bool:
        return self.observed_V_sup <= self.V_limit * (1.0 + _BOUND_TOL)

    def x_within_capacity(self, K: float) -> bool:
        return self.observed_x_sup <= K * (1.0 + _BOUND_TOL)


def boundedness_certificate(model: ModelSpec,
                            traj: Trajectory) -> BoundednessCertificate:
    """Check the dissipativity bound on the trajectory tail.

    V' <= -min(dj, d) V + M along solutions, where M maximizes the concave
    quadratic n (min(dj,d)+r) x - n r x^2 / K, so the supremum of V over the
    last quarter of the run must not exceed M / min(dj, d) by more than 1%.
    Requires that quarter to span at least ten maximum delays.
    """
    p = model.params
    if traj.t_end * _TAIL_FRACTION < 10.0 * traj.tau_M:
        raise HorizonError(
            f"tail window {traj.t_end * _TAIL_FRACTION:.3g} shorter than "
            f"10 tau_M = {10.0 * traj.tau_M:.3g}")
    m, M_bound = _dissipation(model)
    ts = _tail_grid(traj)
    vals = traj.sample(ts)
    V = p.n * vals[:, 0] + vals[:, 1] + vals[:, 2]
    return BoundednessCertificate(
        M_bound=M_bound, V_limit=M_bound / m,
        observed_V_sup=float(np.max(V)),
        observed_x_sup=float(np.max(vals[:, 0])),
        tail_start=float(ts[0]))


# --------------------------------------------------------------------------
# permanence / extinction dichotomy


@dataclass(frozen=True)
class HistoryRecord:
    label: str
    liminf_xy: float
    terminal_error: float
    ok: bool
    t_decided: float        # where the run stopped: settled, or the horizon


@dataclass(frozen=True)
class DichotomyVerdict:
    verdict: str            # "permanent" or "extinction"
    R: float
    boundary_case: bool     # |R - 1| below the exclusion band
    records: tuple[HistoryRecord, ...]


def spread_histories(model: ModelSpec, n: int = 5, seed: int = 42,
                     x_ref: float | None = None, y_ref: float | None = None,
                     lo: float = 0.01, hi: float = 10.0) -> list[HistoryFunction]:
    """Consistent positive histories with levels log-spaced in [lo, hi] x reference.

    Constant-plus-sine shapes with seeded phases exercise lagged lookups over
    the whole history window; the juvenile level is always the implied
    recruitment integral so the juvenile channel starts consistently.
    """
    rng = np.random.default_rng(seed)
    x_ref = model.params.K / 2.0 if x_ref is None else x_ref
    y_ref = max(model.params.K / 4.0, 0.1) if y_ref is None else y_ref
    levels = np.geomspace(lo, hi, n)
    out = []
    for i, lv in enumerate(levels):
        out.append(consistent_history(
            model, x0=float(x_ref * lv), y0=float(y_ref * lv),
            amp=0.2, omega=float(rng.uniform(1.0, 3.0)),
            phase=float(rng.uniform(0.0, 2.0 * math.pi)),
            label=f"level{lv:g}"))
    return out


def permanence_probe(model: ModelSpec, histories: list[HistoryFunction],
                     horizon: float,
                     cfg: StepperConfig | None = None) -> DichotomyVerdict:
    """Decide permanence (R > 1) or extinction (R <= 1) from long runs.

    Permanent branch: the infimum of min(x, y) over the last quarter of the
    run must exceed 1e-6 for every history.  Extinction branch: the
    terminal state must lie within 1e-3 (scaled by max(1, K)) of (K, 0, 0).
    Mixed outcomes raise :class:`InconclusiveError` with the per-history
    data.  Once a
    run has taken 200 capped steps, the histories after it run side by side
    on the usable CPUs, with the records of a serial run.

    ``horizon`` is a cap.  Each run pauses every four maximum delays and
    stops at the first pause where its verdict is settled: on the
    extinction branch, y + yj's envelope over each of the last three
    windows has fallen at least by e^(lambda W / 2) (lambda the abscissa at
    (K, 0, 0), W the window); on the permanent branch, the envelope of
    max(|x/x* - 1|, |y/y* - 1|) is within 1e-2 and falls likewise at the
    coexistence point's abscissa.  Neither rule applies where that abscissa
    is not below -1e-8.  The record is checked on the run so far, and a run
    stops only where it holds; ``t_decided`` is where the run stopped, the
    horizon for one that never settled.
    """
    if len(histories) < 2:
        raise ValueError("need several histories spanning magnitudes")
    p = model.params
    R = reproduction_number(model)
    expect_permanent = R > 1.0
    # near-pure relative control on the multiplicative channels: large
    # histories drive the prey through deep crashes (x ~ 1e-18 yet strictly
    # positive), and an absolute floor above that level would leave the depth
    # of the crash, and so the time it takes to recover, uncontrolled; the
    # juvenile flux-difference channel keeps a real floor
    cfg = cfg or default_stepper(model, horizon, atol=(1e-30, 1e-30, 1e-10))

    def terminal_error(x: float, y: float, yj: float) -> float:
        return max(abs(x - p.K), abs(y), abs(yj)) / max(1.0, p.K)

    if expect_permanent:
        try:
            eq = solve_coexistence(model)
        except NoConvergenceError:
            eq = None
        settling = _settling(model, eq, eq and _relative_envelope(eq),
                             cap=_SETTLE_DISTANCE)
    else:
        settling = _settling(
            model, boundary_equilibria(model)[1], _predator_envelope,
            near=lambda *u: terminal_error(*u) <= _EXTINCTION_TOL)

    def probe(hist: HistoryFunction) -> HistoryRecord:
        def record(traj: Trajectory) -> tuple[HistoryRecord, bool]:
            ts = _tail_grid(traj)
            vals = traj.sample(ts)
            liminf_xy = float(np.min(np.minimum(vals[:, 0], vals[:, 1])))
            term_err = terminal_error(*traj.lookup(traj.t_end))
            ok = (liminf_xy > _EPS_FLOOR) if expect_permanent else (
                term_err <= _EXTINCTION_TOL)
            return HistoryRecord(hist.label, liminf_xy, term_err, ok,
                                 traj.t_end), ok

        return _settled_run(model, hist, cfg, settling, record)

    records = _map_histories(probe, histories, cfg)
    if not all(rec.ok for rec in records):
        if any(rec.ok for rec in records):
            raise InconclusiveError(
                "histories disagree on the permanence verdict", records)
        raise InconclusiveError(
            f"all histories contradict the R = {R:.6g} branch", records)
    return DichotomyVerdict(
        verdict="permanent" if expect_permanent else "extinction",
        R=R, boundary_case=abs(R - 1.0) < 1e-3, records=tuple(records))


# --------------------------------------------------------------------------
# scalar comparison probe


@dataclass(frozen=True)
class PairOutcome:
    label: str
    held: bool
    first_violation_time: float | None
    max_violation: float


@dataclass(frozen=True)
class ComparisonReport:
    held_all: bool
    pairs: tuple[PairOutcome, ...]


def comparison_probe(dj: float, d: float, delay: DelayFunction, forcing,
                     pairs, horizon: float) -> ComparisonReport:
    """Order-preservation experiment for the scalar delayed equation.

    Both solutions of a pair solve v' = (1 - tau'(v) v') e^{-dj tau(v)}
    F(t - tau(v)) - d v.  Each pair is (hi_history, lo_history) with
    lo <= hi on the history window.  The report records whether
    lo(t) <= hi(t) + 1e-6 held throughout; this is an experiment, not an
    assertion, because order preservation is not guaranteed for genuinely
    state-dependent delays.
    """
    if not pairs:
        raise ValueError("need at least one pair of histories")

    def rhs(t, v, lookup):
        vc = v if v > 0.0 else 0.0
        tau = delay.tau(vc)
        G = math.exp(-dj * tau) * forcing(t - tau)
        return (G - d * v) / (1.0 + delay.tau_prime(vc) * G)

    cfg = _capped_stepper(delay.tau_m, horizon, StepperConfig.rtol,
                          StepperConfig.atol, positivity_guard=False)
    outcomes = []
    for i, (hist_hi, hist_lo) in enumerate(pairs):
        traj_hi = integrate_scalar_sdtd(rhs, hist_hi, cfg, delay.tau_m, delay.tau_M)
        traj_lo = integrate_scalar_sdtd(rhs, hist_lo, cfg, delay.tau_m, delay.tau_M)
        ts = np.union1d(traj_hi.ts, traj_lo.ts)
        hi = traj_hi.sample(ts)[:, 0]
        lo = traj_lo.sample(ts)[:, 0]
        gap = lo - hi
        worst = float(np.max(gap))
        if worst > _ORDER_TOL:
            first = float(ts[int(np.argmax(gap > _ORDER_TOL))])
            outcomes.append(PairOutcome(f"pair{i}", False, first, worst))
        else:
            outcomes.append(PairOutcome(f"pair{i}", True, None, worst))
    return ComparisonReport(all(o.held for o in outcomes), tuple(outcomes))


# --------------------------------------------------------------------------
# scalar saturation equation: fixed point and limit


@dataclass(frozen=True)
class ScalarLimitResult:
    fixed_point: float
    viable: bool
    tail_estimates: tuple[float, ...]
    rel_errors: tuple[float, ...]


def scalar_fixed_point(a1: float, a2: float, a3: float, dj: float,
                       delay: DelayFunction) -> tuple[float, bool]:
    """Positive root of v = (a1 e^{-dj tau(v)} - a3) / (a2 a3).

    Returns (0, False) when a1 e^{-dj tau(0)} <= a3 (extinction regime: the
    gain cannot balance mortality at any state).
    """
    def excess(v: float) -> float:
        return (a1 * math.exp(-dj * delay.tau(v)) - a3) / (a2 * a3)

    if excess(0.0) <= 0.0:
        return 0.0, False
    # g(v) = v - excess(v) is increasing; g(0) < 0 <= g(excess(0))
    return _bracketed_root(lambda v: v - excess(v), 0.0, excess(0.0),
                           xtol=1e-15, rtol=8.9e-16), True


def scalar_limit(a1: float, a2: float, a3: float, dj: float,
                 delay: DelayFunction, histories,
                 horizon: float) -> ScalarLimitResult:
    """Long-run limit of v' = (1 - tau'(v) v') a1 e^{-dj tau(v)} v_lag / (1 + a2 v_lag) - a3 v.

    Integrates from each nonnegative history (v(0) > 0), estimates the limit
    as the average over the last quarter of the run, and checks it against
    :func:`scalar_fixed_point` to 1e-4 relative, raising
    :class:`ScalarLimitMismatch` on disagreement.  In the extinction regime
    the fixed point is 0 and no agreement is asserted.
    """
    if not histories:
        raise ValueError("need at least one history")
    vtilde, viable = scalar_fixed_point(a1, a2, a3, dj, delay)

    def rhs(t, v, lookup):
        vc = v if v > 0.0 else 0.0
        tau = delay.tau(vc)
        vlag = lookup(t - tau)
        if vlag < 0.0:
            vlag = 0.0
        G = a1 * math.exp(-dj * tau) * vlag / (1.0 + a2 * vlag)
        return (G - a3 * v) / (1.0 + delay.tau_prime(vc) * G)

    cfg = _capped_stepper(delay.tau_m, horizon, StepperConfig.rtol,
                          StepperConfig.atol)
    tails, errors = [], []
    for hist in histories:
        if hist(0.0) <= 0.0:
            raise ValueError("histories must be positive at t = 0")
        traj = integrate_scalar_sdtd(rhs, hist, cfg, delay.tau_m, delay.tau_M)
        ts = _tail_grid(traj)
        tail = float(np.mean(traj.sample(ts)[:, 0]))
        tails.append(tail)
        if viable:
            errors.append(abs(tail - vtilde) / vtilde)
        else:
            errors.append(abs(tail))
    result = ScalarLimitResult(vtilde, viable, tuple(tails), tuple(errors))
    if viable and any(e > _SCALAR_LIMIT_TOL for e in errors):
        raise ScalarLimitMismatch(
            f"tail estimates {tails} disagree with fixed point {vtilde:.8g} "
            f"beyond {_SCALAR_LIMIT_TOL:g} relative")
    return result


# --------------------------------------------------------------------------
# monotone over/under bracketing of the coexistence point


@dataclass(frozen=True)
class BracketSequences:
    """Nested over/under estimates squeezing (x*, y*).

    x_over is nonincreasing, x_under nondecreasing (likewise for y), each
    under-value stays below its over-value, and the equilibrium lies inside
    every bracket.  ``limits`` holds the converged (x_over, x_under, y_over,
    y_under) tuple; its width is O(epsilon).
    """

    x_over: np.ndarray
    x_under: np.ndarray
    y_over: np.ndarray
    y_under: np.ndarray
    epsilon: float
    tau_hat: float
    limits: tuple[float, float, float, float]


def monotone_bounds(model: ModelSpec, eq: Equilibrium, epsilon: float,
                    tau_hat: str = "equilibrium") -> BracketSequences:
    """Iterate the over/under recursion for the Beddington-DeAngelis system.

    With e = exp(-dj tau_hat) and starting from y_under = 0:

        x_over  <- K (1 - b y_under / (r (1 + k2 y_under))) + eps
        y_over  <- (n b e x_over - d (1 + k1 x_over)) / (k2 d) + eps
        x_under <- K (1 - b y_over / (r (1 + k2 y_over))) - eps
        y_under <- (n b e x_under - d (1 + k1 x_under)) / (k2 d) - eps

    ``tau_hat`` selects the delay frozen in the survival factor: the
    equilibrium delay tau(y*) (default) or the zero-state delay tau(0); the
    two coincide for constant delay.  Monotone nesting, positivity of the
    under-estimates, and containment of (x*, y*) are asserted at every index,
    raising :class:`BracketNestingError` with the first bad index otherwise.
    """
    if model.response.kind != ResponseKind.BEDDINGTON_DEANGELIS:
        raise ValueError("monotone bracketing is specific to the "
                         "Beddington-DeAngelis response")
    if tau_hat not in ("equilibrium", "zero"):
        raise ValueError("tau_hat must be 'equilibrium' or 'zero'")
    cond = check_global_conditions(model, eq)
    if not cond.overall:
        raise AnalysisError(
            "attraction conditions fail; the bracketing recursion is not "
            f"guaranteed to contract (margins: {cond.margins})")
    p = model.params
    c = model.response.coefficients
    b, k1, k2 = c["b"], c["k1"], c["k2"]
    th = model.delay.tau(eq.y_star) if tau_hat == "equilibrium" else model.delay.tau(0.0)
    e = model.survival(th)

    def x_map(y_lo: float, sign: float) -> float:
        return p.K * (1.0 - b * y_lo / (p.r * (1.0 + k2 * y_lo))) + sign * epsilon

    def y_map(x: float, sign: float) -> float:
        return (p.n * b * e * x - p.d * (1.0 + k1 * x)) / (k2 * p.d) + sign * epsilon

    xs_o, xs_u, ys_o, ys_u = [], [], [], []
    y_under = 0.0
    for i in range(_BRACKET_ITERS):
        x_over = x_map(y_under, +1.0)
        y_over = y_map(x_over, +1.0)
        x_under = x_map(y_over, -1.0)
        y_under = y_map(x_under, -1.0)
        xs_o.append(x_over)
        xs_u.append(x_under)
        ys_o.append(y_over)
        ys_u.append(y_under)

        def bad(msg: str):
            raise BracketNestingError(
                f"bracketing failed at index {i}: {msg} "
                f"(epsilon may be too large)", i)

        if not (x_under > 0.0 and y_under > 0.0):
            bad(f"under-estimates not positive ({x_under:.6g}, {y_under:.6g})")
        if not (x_under <= x_over and y_under <= y_over):
            bad("under exceeded over")
        if i > 0:
            slack = 1e-12 * max(1.0, p.K)
            if x_over > xs_o[i - 1] + slack or y_over > ys_o[i - 1] + slack:
                bad("over-estimates increased")
            if x_under < xs_u[i - 1] - slack or y_under < ys_u[i - 1] - slack:
                bad("under-estimates decreased")
        slack = 1e-12 * max(1.0, p.K)
        if not (x_under - slack <= eq.x_star <= x_over + slack
                and y_under - slack <= eq.y_star <= y_over + slack):
            bad(f"equilibrium escaped the bracket "
                f"([{x_under:.8g},{x_over:.8g}] x [{y_under:.8g},{y_over:.8g}])")
        if i > 0 and (abs(xs_o[i] - xs_o[i - 1]) < 1e-15 * max(1.0, xs_o[i])
                      and abs(xs_u[i] - xs_u[i - 1]) < 1e-15 * max(1.0, xs_u[i])):
            break

    return BracketSequences(
        x_over=np.array(xs_o), x_under=np.array(xs_u),
        y_over=np.array(ys_o), y_under=np.array(ys_u),
        epsilon=epsilon, tau_hat=th,
        limits=(xs_o[-1], xs_u[-1], ys_o[-1], ys_u[-1]))


def extrapolated_limits(model: ModelSpec, eq: Equilibrium
                        ) -> tuple[float, float, float, float]:
    """Polynomial extrapolation of the bracket limits to epsilon -> 0.

    Each of the four limits is linear in epsilon to leading order, so a
    quadratic through epsilon = 1e-2, 1e-3 and 1e-4 evaluated at 0 recovers
    (x*, x*, y*, y*).
    """
    eps = np.asarray(_BRACKET_EPSILONS, dtype=float)
    lims = np.array([monotone_bounds(model, eq, float(e)).limits for e in eps])
    out = []
    for j in range(4):
        coeffs = np.polyfit(eps, lims[:, j], deg=len(eps) - 1)
        out.append(float(np.polyval(coeffs, 0.0)))
    return tuple(out)


# --------------------------------------------------------------------------
# global attraction probe


@dataclass(frozen=True)
class AttractionRecord:
    label: str
    err_x: float
    err_y: float
    err_yj: float
    converged: bool
    t_decided: float        # where the run stopped: settled, or the horizon


@dataclass(frozen=True)
class ConvergenceReport:
    all_converged: bool
    records: tuple[AttractionRecord, ...]
    worst: AttractionRecord


def global_attraction_probe(model: ModelSpec, eq: Equilibrium,
                            n_histories: int = 10, horizon: float | None = None,
                            seed: int = 42) -> ConvergenceReport:
    """Drive ``n_histories`` (one or more) random histories to (x*, y*).

    Terminal (x, y) must land within 1e-4 relative of (x*, y*) and yj within
    1e-3 of yj*; divergence is reported (with the worst offender), not
    raised.  The attraction conditions must hold, else the probe raises
    :class:`AnalysisError`.
    Once a run has taken 200 capped steps, the histories after it run side
    by side on the usable CPUs, with the records of a serial run.
    ``horizon`` is a cap, as in :func:`permanence_probe`: a run
    stops at the first pause where it has converged and the envelope of
    max(|x/x* - 1|, |y/y* - 1|) falls at the rate that the abscissa at
    (x*, y*) sets.
    """
    if n_histories < 1:
        raise ValueError("need at least one history")
    if not check_global_conditions(model, eq).overall:
        raise AnalysisError("attraction conditions fail for this model")
    if horizon is None:
        horizon = 500.0 / model.params.d
    cfg = default_stepper(model, horizon)
    histories = spread_histories(model, n=n_histories, seed=seed,
                                 x_ref=eq.x_star, y_ref=eq.y_star,
                                 lo=0.05, hi=5.0)

    def errors(x: float, y: float, yj: float) -> tuple[float, float, float]:
        return (abs(x - eq.x_star) / abs(eq.x_star),
                abs(y - eq.y_star) / abs(eq.y_star),
                abs(yj - eq.yj_star) / abs(eq.yj_star))

    def converged(err_x: float, err_y: float, err_yj: float) -> bool:
        return (max(err_x, err_y) <= _ATTRACTION_TOL_XY
                and err_yj <= _ATTRACTION_TOL_YJ)

    settling = _settling(model, eq, _relative_envelope(eq),
                         near=lambda *u: converged(*errors(*u)))

    def probe(hist: HistoryFunction) -> AttractionRecord:
        def record(traj: Trajectory) -> tuple[AttractionRecord, bool]:
            errs = errors(*traj.lookup(traj.t_end))
            ok = converged(*errs)
            return AttractionRecord(hist.label, *errs, ok, traj.t_end), ok

        return _settled_run(model, hist, cfg, settling, record)

    records = _map_histories(probe, histories, cfg)
    worst = max(records, key=lambda r: max(r.err_x, r.err_y, r.err_yj))
    return ConvergenceReport(all(r.converged for r in records),
                             tuple(records), worst)
