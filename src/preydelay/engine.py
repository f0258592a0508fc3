"""Method-of-steps integrator with dense output for the delayed system.

The right-hand side is explicit despite the delayed-derivative term: writing
N for the lagged recruitment rate, the mature-predator equation

    y' = (1 - tau'(y) y') N - d y        becomes        y' = (N - d y) / (1 + tau'(y) N),

and the juvenile equation reuses the same resolution through the positive
correction factor (1 + tau'(y) d y) / (1 + tau'(y) N).  Steps are taken with
the Dormand-Prince 5(4) embedded pair (FSAL); dense output is the cubic
Hermite interpolant on accepted (value, derivative) nodes, which also serves
every lagged lookup.  Keeping the step below tau(0) guarantees lags land in
already-accepted segments; with a vanishing minimum delay the stage lookups
are fixed-point iterated against a provisional segment instead.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (GL_NODES, GL_WEIGHTS, HistoryFunction, ModelSpec,
                    warn_if_inconsistent)

__all__ = [
    "State",
    "StepperConfig",
    "Trajectory",
    "IntegrationError",
    "StepSizeUnderflow",
    "PositivityViolation",
    "LagDomainError",
    "rhs",
    "integrate",
    "integrate_scalar_sdtd",
    "lagged_lookup",
    "yj_integral",
    "export_csv",
    "default_stepper",
]


class IntegrationError(RuntimeError):
    """Integration could not reach the requested horizon.

    ``trajectory`` carries the partial solution up to the last accepted step.
    """

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


class StepSizeUnderflow(IntegrationError):
    pass


class PositivityViolation(IntegrationError):
    pass


class LagDomainError(ValueError):
    """A lagged evaluation fell outside the covered interval."""


@dataclass(frozen=True)
class State:
    """Instantaneous state: prey x, mature predator y, juvenile predator yj."""

    t: float
    x: float
    y: float
    yj: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.yj)


@dataclass(frozen=True)
class StepperConfig:
    """Adaptive stepper settings.

    The step cap must stay below tau(0) whenever tau(0) > 0 so the lag never
    lands inside the step being computed; :func:`default_stepper` picks a
    compliant cap automatically.  ``atol`` may be a per-component tuple: the
    prey and mature-predator channels are multiplicative (errors scale with
    the value, so a near-zero absolute floor keeps deep crashes faithful),
    while the juvenile channel is a flux difference that needs a genuine
    absolute floor.
    """

    t_end: float
    rtol: float = 1e-8
    atol: float | tuple[float, ...] = 1e-10
    h_init: float = 0.01
    h_max: float = math.inf
    positivity_guard: bool = True
    max_steps: int = 5_000_000

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        atols = self.atol if isinstance(self.atol, tuple) else (self.atol,)
        if not (self.rtol > 0.0 and all(a > 0.0 for a in atols)):
            raise ValueError("rtol and atol must be positive")
        if not 0.0 < self.h_init <= self.h_max:
            raise ValueError("need 0 < h_init <= h_max")

    def atol_vector(self, dim: int) -> tuple[float, ...]:
        if isinstance(self.atol, tuple):
            if len(self.atol) != dim:
                raise ValueError(f"atol tuple must have {dim} entries")
            return self.atol
        return (self.atol,) * dim


def default_stepper(model: ModelSpec, t_end: float, rtol: float = 1e-8,
                    atol: float = 1e-10, **kwargs) -> StepperConfig:
    """Config with a step cap compatible with the model's minimum delay."""
    tau_m = model.delay.tau_m
    h_max = 0.45 * tau_m if tau_m > 0.0 else min(0.05, t_end / 200.0)
    return StepperConfig(t_end=t_end, rtol=rtol, atol=atol,
                         h_init=min(h_max, 0.01), h_max=h_max, **kwargs)


# --------------------------------------------------------------------------
# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next step's first)

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# fifth-order minus fourth-order weights, for the local error estimate
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_MAX_OVERLAP_ITERS = 5
_OVERLAP_TOL = 1e-10


def _hermite(t0: float, u0, f0, t1: float, u1, f1, s: float):
    """Cubic Hermite value at s on [t0, t1] (tuple-valued)."""
    h = t1 - t0
    th = (s - t0) / h
    th2 = th * th
    th3 = th2 * th
    a = 2.0 * th3 - 3.0 * th2 + 1.0
    b = (th3 - 2.0 * th2 + th) * h
    c = -2.0 * th3 + 3.0 * th2
    e = (th3 - th2) * h
    return tuple(a * u0[i] + b * f0[i] + c * u1[i] + e * f1[i]
                 for i in range(len(u0)))


class _SolutionStore:
    """Accepted nodes plus the initial history; serves lagged lookups."""

    __slots__ = ("history", "tau_M", "ts", "us", "fs")

    def __init__(self, history: Callable[[float], tuple], tau_M: float):
        self.history = history
        self.tau_M = tau_M
        self.ts: list[float] = []
        self.us: list[tuple] = []
        self.fs: list[tuple] = []

    def append(self, t: float, u: tuple, f: tuple) -> None:
        self.ts.append(t)
        self.us.append(u)
        self.fs.append(f)

    def eval_past(self, s: float) -> tuple:
        if s <= 0.0:
            if s < -self.tau_M - 1e-9 * max(1.0, self.tau_M):
                raise LagDomainError(
                    f"lagged time {s:.6g} precedes the history interval "
                    f"[-{self.tau_M:.6g}, 0]")
            return self.history(s if s >= -self.tau_M else -self.tau_M)
        ts = self.ts
        i = bisect_right(ts, s) - 1
        if i >= len(ts) - 1:
            i = len(ts) - 2
        return _hermite(ts[i], self.us[i], self.fs[i],
                        ts[i + 1], self.us[i + 1], self.fs[i + 1], s)


class Trajectory:
    """Dense piecewise-cubic solution record over [-tau_M, t_end].

    Values and derivatives at accepted nodes define one cubic Hermite segment
    per step; lookups at s <= 0 fall through to the initial history.  The
    record is immutable once built and safe for concurrent reads.
    """

    def __init__(self, ts: Sequence[float], us: Sequence[tuple],
                 fs: Sequence[tuple], history: Callable[[float], tuple],
                 tau_M: float, names: tuple[str, ...]):
        self.ts = np.asarray(ts, dtype=float)
        self.us = np.asarray(us, dtype=float)
        self.fs = np.asarray(fs, dtype=float)
        self._history = history
        self.tau_M = float(tau_M)
        self.names = names

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def dim(self) -> int:
        return self.us.shape[1]

    @property
    def n_steps(self) -> int:
        return len(self.ts) - 1

    def lookup(self, s: float) -> tuple:
        """Solution value at any s in [-tau_M, t_end]."""
        if s <= 0.0:
            if s < -self.tau_M - 1e-9 * max(1.0, self.tau_M):
                raise LagDomainError(
                    f"time {s:.6g} precedes the history interval")
            return tuple(float(v) for v in
                         self._history(max(s, -self.tau_M)))
        if s > self.t_end + 1e-9 * max(1.0, self.t_end):
            raise LagDomainError(
                f"time {s:.6g} exceeds the integrated horizon {self.t_end:.6g}")
        ts = self.ts
        i = int(np.searchsorted(ts, s, side="right")) - 1
        if i >= len(ts) - 1:
            i = len(ts) - 2
        return _hermite(ts[i], self.us[i], self.fs[i],
                        ts[i + 1], self.us[i + 1], self.fs[i + 1],
                        min(s, self.t_end))

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """Vectorized lookup; returns an array of shape (len(times), dim)."""
        times = np.asarray(times, dtype=float)
        out = np.empty((times.size, self.dim))
        for i, s in enumerate(times.ravel()):
            out[i] = self.lookup(float(s))
        return out

    def state_at(self, t: float) -> State:
        if self.dim != 3:
            raise ValueError("state_at is defined for 3-component trajectories")
        x, y, yj = self.lookup(t)
        return State(t=float(t), x=x, y=y, yj=yj)


# --------------------------------------------------------------------------
# right-hand side


def _make_rhs(model: ModelSpec):
    p = model.params
    r, K, n, dj, d = p.r, p.K, p.n, p.dj, p.d
    f = model.response.f
    tau = model.delay.tau
    tau_prime = model.delay.tau_prime
    exp = math.exp

    def rhs_core(t: float, u: tuple, lookup) -> tuple:
        x, y, yj = u
        # stages may overshoot slightly negative; clamp for the rate laws,
        # which are only defined on nonnegative densities
        xc = x if x > 0.0 else 0.0
        yc = y if y > 0.0 else 0.0
        tv = tau(yc)
        lag = lookup(t - tv)
        x_lag = lag[0] if lag[0] > 0.0 else 0.0
        y_lag = lag[1] if lag[1] > 0.0 else 0.0
        N = n * exp(-dj * tv) * f(x_lag, y_lag) * y_lag
        tp = tau_prime(yc)
        denom = 1.0 + tp * N
        fxy = f(xc, yc)
        xp = r * x * (1.0 - x / K) - fxy * y
        yp = (N - d * y) / denom
        yjp = n * fxy * y - dj * yj - (1.0 + tp * d * yc) / denom * N
        return (xp, yp, yjp)

    return rhs_core


def rhs(model: ModelSpec, now: State,
        lookup: Callable[[float], tuple[float, float]]) -> tuple[float, float, float]:
    """Time derivatives (x', y', yj') at ``now``.

    ``lookup`` must resolve the pair (x, y) at the lagged time t - tau(y).
    The delayed-derivative term is already resolved, so the returned
    derivatives are explicit.
    """
    core = _make_rhs(model)

    def full_lookup(s: float) -> tuple:
        xl, yl = lookup(s)
        return (xl, yl, 0.0)

    return core(now.t, now.as_tuple(), full_lookup)


# --------------------------------------------------------------------------
# generic adaptive method-of-steps core


def _integrate_core(rhs_core, history_eval, u0: tuple, cfg: StepperConfig,
                    tau_m: float, tau_M: float, names: tuple[str, ...]) -> Trajectory:
    dim = len(u0)
    store = _SolutionStore(history_eval, tau_M)
    t_end = cfg.t_end
    atols, rtol = cfg.atol_vector(dim), cfg.rtol
    allow_overlap = tau_m <= 0.0

    f0 = rhs_core(0.0, u0, store.eval_past)
    store.append(0.0, u0, f0)

    t, u, f = 0.0, u0, f0
    h = min(cfg.h_init, cfg.h_max, t_end)
    nsteps = 0
    last_reject_positivity = False

    def fail(exc_cls, message):
        traj = Trajectory(store.ts, store.us, store.fs, history_eval, tau_M, names)
        raise exc_cls(message, trajectory=traj)

    while t_end - t > 1e-13 * max(1.0, t_end):
        h = min(h, t_end - t)
        if h < 1e-12 * max(1.0, t_end):
            if last_reject_positivity:
                fail(PositivityViolation,
                     f"positivity guard kept rejecting steps near t={t:.6g}")
            fail(StepSizeUnderflow, f"step size underflow at t={t:.6g}")
        nsteps += 1
        if nsteps > cfg.max_steps:
            fail(IntegrationError, f"exceeded {cfg.max_steps} steps")

        u1, f1, err = _attempt_step(rhs_core, store, t, u, f, h, dim,
                                    allow_overlap)

        # weighted rms local-error norm
        acc = 0.0
        finite = True
        for i in range(dim):
            if not (math.isfinite(u1[i]) and math.isfinite(err[i])):
                finite = False
                break
            sc = atols[i] + rtol * max(abs(u[i]), abs(u1[i]))
            acc += (err[i] / sc) ** 2
        enorm = math.sqrt(acc / dim) if finite else math.inf

        if enorm <= 1.0:
            if cfg.positivity_guard and min(u1) < 0.0:
                if any(u1[i] < -atols[i] for i in range(dim)):
                    last_reject_positivity = True
                    h *= 0.5
                    continue
                u1 = tuple(v if v >= 0.0 else 0.0 for v in u1)
            last_reject_positivity = False
            t1 = t + h
            if t_end - t1 <= 1e-13 * max(1.0, t_end):
                t1 = t_end
            store.append(t1, u1, f1)
            t, u, f = t1, u1, f1
            factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
            h = min(h * factor, cfg.h_max)
        else:
            last_reject_positivity = False
            h *= max(0.1, min(0.5, 0.9 * enorm ** -0.2))

    return Trajectory(store.ts, store.us, store.fs, history_eval, tau_M, names)


def _attempt_step(rhs_core, store: _SolutionStore, t0: float, u0: tuple,
                  f0: tuple, h: float, dim: int, allow_overlap: bool):
    """One trial Dormand-Prince step; returns (u1, f1, error_estimate).

    When the lag can land inside the current step (vanishing minimum delay),
    lookups beyond t0 are served by a provisional Hermite segment that is
    fixed-point iterated until the step result stabilizes.
    """
    prov: tuple | None = None
    u1 = f1 = None
    for _ in range(_MAX_OVERLAP_ITERS if allow_overlap else 1):
        overlapped = [False]

        def lookup(s, _prov=prov):
            if s <= t0:
                return store.eval_past(s)
            overlapped[0] = True
            if _prov is None:
                return tuple(u0[i] + (s - t0) * f0[i] for i in range(dim))
            return _hermite(t0, u0, f0, t0 + h, _prov[0], _prov[1], s)

        k = [f0]
        u1 = None
        for i in range(1, 7):
            acc = list(u0)
            for j, a in enumerate(_DP_A[i]):
                if a != 0.0:
                    ha = h * a
                    kj = k[j]
                    for m in range(dim):
                        acc[m] += ha * kj[m]
            if i == 6:
                u1 = tuple(acc)
                k.append(rhs_core(t0 + h, u1, lookup))
            else:
                k.append(rhs_core(t0 + _DP_C[i] * h, tuple(acc), lookup))
        f1 = k[6]

        if not overlapped[0]:
            break
        if prov is not None:
            delta = max(abs(u1[i] - prov[0][i]) / max(1.0, abs(u1[i]))
                        for i in range(dim))
            prov = (u1, f1)
            if delta <= _OVERLAP_TOL:
                break
        else:
            prov = (u1, f1)

    err = tuple(h * sum(_DP_E[j] * k[j][m] for j in range(7)) for m in range(dim))
    return u1, f1, err


# --------------------------------------------------------------------------
# public integrators


def integrate(model: ModelSpec, history: HistoryFunction,
              cfg: StepperConfig) -> Trajectory:
    """Integrate the three-component system from its history up to cfg.t_end.

    Requires cfg.h_max < tau(0) whenever tau(0) > 0 (see the module note).
    Raises :class:`StepSizeUnderflow` / :class:`PositivityViolation` with the
    partial trajectory attached if the stepper cannot proceed.
    """
    tau_m, tau_M = model.delay.tau_m, model.delay.tau_M
    if tau_m > 0.0 and not cfg.h_max < tau_m:
        raise ValueError(
            f"h_max={cfg.h_max:g} must be below tau(0)={tau_m:g}; "
            f"use default_stepper() for a compliant config")
    history.check_nonnegative(tau_M)
    warn_if_inconsistent(model, history)

    phi1, phi2, phi3 = history.phi1, history.phi2, history.phi3

    def history_eval(s: float) -> tuple:
        return (float(phi1(s)), float(phi3(s)), float(phi2(s)))

    u0 = history.state0()
    rhs_core = _make_rhs(model)
    return _integrate_core(rhs_core, history_eval, u0, cfg, tau_m, tau_M,
                           names=("x", "y", "yj"))


def integrate_scalar_sdtd(rhs_scalar, history_fn, cfg: StepperConfig,
                          tau_m: float, tau_M: float) -> Trajectory:
    """Integrate a scalar equation v'(t) = rhs(t, v, lookup) with lagged lookups.

    ``rhs_scalar(t, v, lookup)`` receives a scalar lookup s -> v(s).  Used by
    the analysis probes for single-population delay equations.
    """

    def rhs_core(t, u, lookup):
        return (rhs_scalar(t, u[0], lambda s: lookup(s)[0]),)

    def history_eval(s: float) -> tuple:
        return (float(history_fn(s)),)

    v0 = float(history_fn(0.0))
    return _integrate_core(rhs_core, history_eval, (v0,), cfg, tau_m, tau_M,
                           names=("v",))


# --------------------------------------------------------------------------
# trajectory-derived quantities


def lagged_lookup(model: ModelSpec, traj: Trajectory, t: float,
                  y_now: float) -> tuple[float, float]:
    """(x, y) at the lagged time t - tau(y_now)."""
    s = t - model.delay.tau(y_now)
    vals = traj.lookup(s)
    return (vals[0], vals[1])


def yj_integral(model: ModelSpec, traj: Trajectory, t: float) -> float:
    """Juvenile stock at t recomputed from the mature/prey channels alone.

    Evaluates the survival-discounted recruitment integral

        int_{t - tau(y(t))}^{t}  n f(x(s), y(s)) y(s) exp(-dj (t - s)) ds

    by composite Gauss-Legendre quadrature over the dense output, splitting at
    segment joins.  Serves as an independent consistency check of the juvenile
    ODE channel.
    """
    if t < 0.0 or t > traj.t_end + 1e-9 * max(1.0, traj.t_end):
        raise LagDomainError(f"t={t:.6g} outside the integrated interval")
    p = model.params
    y_t = traj.lookup(t)[1]
    tau_t = model.delay.tau(max(y_t, 0.0))
    s_lo = t - tau_t
    if s_lo < -traj.tau_M - 1e-9 * max(1.0, traj.tau_M):
        raise LagDomainError(
            f"integration window starts at {s_lo:.6g}, before the history")
    if s_lo >= t:
        return 0.0

    cuts = [s_lo]
    for tn in traj.ts:
        if s_lo < tn < t:
            cuts.append(float(tn))
    cuts.append(t)
    w_max = min(0.25, max(traj.tau_M, 1e-3) / 8.0)

    total = 0.0
    f = model.response.f
    for a, b in zip(cuts[:-1], cuts[1:]):
        npan = max(1, int(math.ceil((b - a) / w_max)))
        edges = np.linspace(a, b, npan + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            for xi, wi in zip(GL_NODES, GL_WEIGHTS):
                s = mid + half * xi
                xs, ys = traj.lookup(s)[:2]
                if ys < 0.0:
                    ys = 0.0
                if xs < 0.0:
                    xs = 0.0
                total += wi * half * (p.n * f(xs, ys) * ys
                                      * math.exp(-p.dj * (t - s)))
    return total


def lag_times(model: ModelSpec, traj: Trajectory) -> np.ndarray:
    """s(t) = t - tau(y(t)) at every accepted node (strictly increasing)."""
    y = np.clip(traj.us[:, 1], 0.0, None)
    taus = np.array([model.delay.tau(v) for v in y])
    return traj.ts - taus


def export_csv(model: ModelSpec, traj: Trajectory, path, stride: float) -> None:
    """Write t,x,y,yj,tau,lag_s,correction at the given output stride.

    Floats are written in full round-trip precision so identical runs produce
    byte-identical files.
    """
    if stride <= 0.0:
        raise ValueError("stride must be positive")
    p = model.params
    n_rows = int(math.floor(traj.t_end / stride + 1e-9)) + 1
    times = [i * stride for i in range(n_rows)]
    if times[-1] < traj.t_end - 1e-9 * max(1.0, traj.t_end):
        times.append(traj.t_end)
    lines = ["t,x,y,yj,tau,lag_s,correction"]
    for t in times:
        x, y, yj = traj.lookup(t)
        yc = max(y, 0.0)
        tau_t = model.delay.tau(yc)
        s = t - tau_t
        x_lag, y_lag = traj.lookup(s)[:2]
        N = (p.n * math.exp(-p.dj * tau_t)
             * model.response.f(max(x_lag, 0.0), max(y_lag, 0.0)) * max(y_lag, 0.0))
        tp = model.delay.tau_prime(yc)
        corr = (1.0 + tp * p.d * yc) / (1.0 + tp * N)
        lines.append(",".join(repr(float(v)) for v in (t, x, y, yj, tau_t, s, corr)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
