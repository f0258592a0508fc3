"""Trajectory-level verification probes.

Each probe turns one of the model's qualitative statements into a numerical
experiment: eventual boundedness of V = n x + y + yj, the permanence /
extinction dichotomy at reproduction number one, order preservation for the
scalar delayed equation, convergence of the scalar recruitment-saturation
equation to its fixed point, and the monotone over/under bracketing scheme
that pins the coexistence equilibrium.

The two probes that run many histories of one model, :func:`permanence_probe`
and :func:`global_attraction_probe`, deal them round-robin to ``os.fork()``
children on POSIX when more than one CPU is usable, through
:func:`preydelay._forkmap.fork_map`.  Their records, warnings and exceptions
are those of a serial run; restricting the CPU affinity to one CPU (for
example ``taskset -c 0``) forces the serial path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delays import DelayFunction
from .engine import (StepperConfig, Trajectory, _capped_stepper,
                     default_stepper, integrate, integrate_scalar_sdtd)
from .equilibria import Equilibrium, _bracketed_root
from .model import (HistoryFunction, ModelSpec, _dissipation,
                    consistent_history, reproduction_number)
from .responses import ResponseKind
from .stability import check_global_conditions

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


def _tail_grid(traj: Trajectory, tail_fraction: float, min_points: int = 512):
    t_lo = traj.t_end * (1.0 - tail_fraction)
    grid = np.linspace(t_lo, traj.t_end, min_points)
    nodes = traj.ts[(traj.ts >= t_lo) & (traj.ts <= traj.t_end)]
    # np.unique would import numpy.ma on every verify call
    ts = np.sort(np.concatenate([grid, nodes]))
    return ts[np.concatenate([[True], ts[1:] != ts[:-1]])]


# --------------------------------------------------------------------------
# histories side by side

# A history whose step cap alone asks for fewer steps than this runs serially.
# On a 2-core x86-64 VM a fork, the child's exit and the pickled records cost
# 2-9 ms.  A 5-history probe split 3 + 2 took 0.8-1.7x its serial time at 50
# capped steps per history, 0.7-0.8x at 100, and 0.65-0.72x from 200 on.
_FORK_MIN_STEPS = 200


def _map_histories(fn, histories: list, cfg: StepperConfig) -> list:
    """``[fn(h) for h in histories]``: the same records or exception.

    The histories go through :func:`preydelay._forkmap.fork_map` only when
    ``cfg`` asks each of them for at least ``_FORK_MIN_STEPS`` steps.
    """
    if cfg.t_end / cfg.h_max < _FORK_MIN_STEPS:
        return [fn(h) for h in histories]
    from ._forkmap import fork_map

    return list(fork_map(fn, histories))


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
    tolerance: float

    @property
    def v_within_limit(self) -> bool:
        return self.observed_V_sup <= self.V_limit * (1.0 + self.tolerance)

    def x_within_capacity(self, K: float) -> bool:
        return self.observed_x_sup <= K * (1.0 + self.tolerance)


def boundedness_certificate(model: ModelSpec, traj: Trajectory,
                            tail_fraction: float = 0.25,
                            tolerance: float = 0.01) -> BoundednessCertificate:
    """Check the dissipativity bound on the trajectory tail.

    V' <= -min(dj, d) V + M along solutions, where M maximizes the concave
    quadratic n (min(dj,d)+r) x - n r x^2 / K, so the tail supremum of V must
    not exceed M / min(dj, d) beyond the stated tolerance.  Requires a tail
    window of at least ten maximum delays.
    """
    p = model.params
    if traj.t_end * tail_fraction < 10.0 * traj.tau_M:
        raise HorizonError(
            f"tail window {traj.t_end * tail_fraction:.3g} shorter than "
            f"10 tau_M = {10.0 * traj.tau_M:.3g}")
    m, M_bound = _dissipation(model)
    ts = _tail_grid(traj, tail_fraction)
    vals = traj.sample(ts)
    V = p.n * vals[:, 0] + vals[:, 1] + vals[:, 2]
    return BoundednessCertificate(
        M_bound=M_bound, V_limit=M_bound / m,
        observed_V_sup=float(np.max(V)),
        observed_x_sup=float(np.max(vals[:, 0])),
        tail_start=float(ts[0]), tolerance=tolerance)


# --------------------------------------------------------------------------
# permanence / extinction dichotomy


@dataclass(frozen=True)
class HistoryRecord:
    label: str
    liminf_xy: float
    terminal_error: float
    ok: bool


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
                     horizon: float, tail_fraction: float = 0.25,
                     eps_floor: float = 1e-6, extinction_tol: float = 1e-3,
                     cfg: StepperConfig | None = None) -> DichotomyVerdict:
    """Decide permanence (R > 1) or extinction (R <= 1) from long runs.

    Permanent branch: the tail infimum of min(x, y) must exceed ``eps_floor``
    for every history.  Extinction branch: the terminal state must lie within
    ``extinction_tol`` (scaled by max(1, K)) of (K, 0, 0).  Mixed outcomes
    raise :class:`InconclusiveError` with the per-history data.  The
    histories run side by side on the usable CPUs, with the records of a
    serial run.
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

    def probe(hist: HistoryFunction) -> HistoryRecord:
        traj = integrate(model, hist, cfg)
        ts = _tail_grid(traj, tail_fraction)
        vals = traj.sample(ts)
        liminf_xy = float(np.min(np.minimum(vals[:, 0], vals[:, 1])))
        terminal = traj.lookup(traj.t_end)
        term_err = max(abs(terminal[0] - p.K), abs(terminal[1]),
                       abs(terminal[2])) / max(1.0, p.K)
        ok = (liminf_xy > eps_floor) if expect_permanent else (
            term_err <= extinction_tol)
        return HistoryRecord(hist.label, liminf_xy, term_err, ok)

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
                     pairs, horizon: float, tol: float = 1e-6,
                     slack=None, rtol: float = 1e-8,
                     atol: float = 1e-10) -> ComparisonReport:
    """Order-preservation experiment for the scalar delayed equation.

    The reference solution solves v' = (1 - tau'(v) v') e^{-dj tau(v)}
    F(t - tau(v)) - d v; the comparison function solves the same equation
    minus a nonnegative slack (defaults to zero, i.e. ordered initial data
    under equal dynamics).  Each pair is (hi_history, lo_history) with
    lo <= hi on the history window.  The report records whether
    lo(t) <= hi(t) + tol held throughout; this is an experiment, not an
    assertion, because order preservation is not guaranteed for genuinely
    state-dependent delays.
    """
    slack = slack or (lambda t: 0.0)

    def make_rhs(use_slack: bool):
        def rhs(t, v, lookup):
            vc = v if v > 0.0 else 0.0
            tau = delay.tau(vc)
            G = math.exp(-dj * tau) * forcing(t - tau)
            s = slack(t) if use_slack else 0.0
            return (G - d * v - s) / (1.0 + delay.tau_prime(vc) * G)
        return rhs

    cfg = _capped_stepper(delay.tau_m, horizon, rtol, atol,
                          positivity_guard=False)
    outcomes = []
    for i, (hist_hi, hist_lo) in enumerate(pairs):
        traj_hi = integrate_scalar_sdtd(make_rhs(False), hist_hi, cfg,
                                        delay.tau_m, delay.tau_M)
        traj_lo = integrate_scalar_sdtd(make_rhs(True), hist_lo, cfg,
                                        delay.tau_m, delay.tau_M)
        ts = np.union1d(traj_hi.ts, traj_lo.ts)
        hi = traj_hi.sample(ts)[:, 0]
        lo = traj_lo.sample(ts)[:, 0]
        gap = lo - hi
        worst = float(np.max(gap))
        if worst > tol:
            first = float(ts[int(np.argmax(gap > tol))])
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
                 delay: DelayFunction, histories, horizon: float,
                 tail_fraction: float = 0.25, rel_tol: float = 1e-4,
                 rtol: float = 1e-8, atol: float = 1e-10) -> ScalarLimitResult:
    """Long-run limit of v' = (1 - tau'(v) v') a1 e^{-dj tau(v)} v_lag / (1 + a2 v_lag) - a3 v.

    Integrates from each nonnegative history (v(0) > 0), estimates the limit
    as the tail average, and checks it against :func:`scalar_fixed_point` to
    ``rel_tol`` relative, raising :class:`ScalarLimitMismatch` on
    disagreement.  In the extinction regime the fixed point is 0 and no
    agreement is asserted.
    """
    vtilde, viable = scalar_fixed_point(a1, a2, a3, dj, delay)

    def rhs(t, v, lookup):
        vc = v if v > 0.0 else 0.0
        tau = delay.tau(vc)
        vlag = lookup(t - tau)
        if vlag < 0.0:
            vlag = 0.0
        G = a1 * math.exp(-dj * tau) * vlag / (1.0 + a2 * vlag)
        return (G - a3 * v) / (1.0 + delay.tau_prime(vc) * G)

    cfg = _capped_stepper(delay.tau_m, horizon, rtol, atol)
    tails, errors = [], []
    for hist in histories:
        if hist(0.0) <= 0.0:
            raise ValueError("histories must be positive at t = 0")
        traj = integrate_scalar_sdtd(rhs, hist, cfg, delay.tau_m, delay.tau_M)
        ts = _tail_grid(traj, tail_fraction)
        tail = float(np.mean(traj.sample(ts)[:, 0]))
        tails.append(tail)
        if viable:
            errors.append(abs(tail - vtilde) / vtilde)
        else:
            errors.append(abs(tail))
    result = ScalarLimitResult(vtilde, viable, tuple(tails), tuple(errors))
    if viable and any(e > rel_tol for e in errors):
        raise ScalarLimitMismatch(
            f"tail estimates {tails} disagree with fixed point {vtilde:.8g} "
            f"beyond {rel_tol:g} relative")
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
                    n_iter: int = 400,
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
    for i in range(n_iter):
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


def extrapolated_limits(model: ModelSpec, eq: Equilibrium,
                        epsilons=(1e-2, 1e-3, 1e-4), n_iter: int = 400,
                        tau_hat: str = "equilibrium") -> tuple[float, float, float, float]:
    """Polynomial extrapolation of the bracket limits to epsilon -> 0.

    Each of the four limits is linear in epsilon to leading order, so a
    degree len(epsilons)-1 fit evaluated at 0 recovers (x*, x*, y*, y*).
    """
    eps = np.asarray(epsilons, dtype=float)
    lims = np.array([monotone_bounds(model, eq, float(e), n_iter, tau_hat).limits
                     for e in eps])
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


@dataclass(frozen=True)
class ConvergenceReport:
    all_converged: bool
    records: tuple[AttractionRecord, ...]
    worst: AttractionRecord | None


def global_attraction_probe(model: ModelSpec, eq: Equilibrium,
                            n_histories: int = 10, horizon: float | None = None,
                            seed: int = 42, rel_tol_xy: float = 1e-4,
                            rel_tol_yj: float = 1e-3,
                            cfg: StepperConfig | None = None,
                            histories: list[HistoryFunction] | None = None,
                            require_conditions: bool = True) -> ConvergenceReport:
    """Drive random positive histories to the coexistence point.

    Terminal (x, y) must land within ``rel_tol_xy`` relative of (x*, y*) and
    yj within ``rel_tol_yj`` of yj*; divergence is reported (with the worst
    offender), not raised.  By default the attraction conditions must hold;
    pass ``require_conditions=False`` for exploratory runs on models where
    they fail, in which case the report is data with no expectation attached.
    The histories run side by side on the usable CPUs, with the records of a
    serial run.
    """
    cond = check_global_conditions(model, eq)
    if require_conditions and not cond.overall:
        raise AnalysisError("attraction conditions fail for this model")
    if horizon is None:
        horizon = 500.0 / model.params.d
    cfg = cfg or default_stepper(model, horizon)
    if histories is None:
        histories = spread_histories(model, n=n_histories, seed=seed,
                                     x_ref=eq.x_star, y_ref=eq.y_star,
                                     lo=0.05, hi=5.0)

    def probe(hist: HistoryFunction) -> AttractionRecord:
        traj = integrate(model, hist, cfg)
        x, y, yj = traj.lookup(traj.t_end)
        err_x = abs(x - eq.x_star) / abs(eq.x_star)
        err_y = abs(y - eq.y_star) / abs(eq.y_star)
        err_yj = abs(yj - eq.yj_star) / abs(eq.yj_star)
        return AttractionRecord(
            hist.label, err_x, err_y, err_yj,
            converged=(max(err_x, err_y) <= rel_tol_xy
                       and err_yj <= rel_tol_yj))

    records = _map_histories(probe, histories, cfg)
    worst = max(records, key=lambda r: max(r.err_x, r.err_y, r.err_yj),
                default=None)
    return ConvergenceReport(all(r.converged for r in records),
                             tuple(records), worst)
