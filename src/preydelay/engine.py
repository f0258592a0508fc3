"""Method-of-steps integrator with dense output for the delayed system.

The right-hand side is explicit despite the delayed-derivative term: writing
N for the lagged recruitment rate, the mature-predator equation

    y' = (1 - tau'(y) y') N - d y        becomes        y' = (N - d y) / (1 + tau'(y) N),

and the juvenile equation reuses the same resolution through the positive
correction factor (1 + tau'(y) d y) / (1 + tau'(y) N).  Steps are taken with
the Dormand-Prince 5(4) embedded pair (FSAL); dense output is its own
fourth-order continuous extension, which costs no extra RHS call and serves
every lagged lookup as well as every read of the finished trajectory.  A
dense output of order q gives a delay method of order min(5, q + 1), so the
lags no longer cost the step its fifth order, as a cubic Hermite did.
Keeping the step below tau(0) guarantees lags land in already-accepted
segments: :func:`default_stepper` caps it at 0.6 tau(0), which bounds the
juvenile-conservation error of the lag reads with margin (the cap, not the
tolerance, sets most probe steps).  The stages then read their lags straight
from the solution store, and a lag past the last accepted node (a delay law
that falls below tau(0)) raises :class:`LagDomainError`.  With a vanishing
minimum delay the stage lookups are fixed-point iterated against a
provisional segment instead.

:func:`export_csv` builds a long file's blocks on every usable CPU, in
``os.fork()`` children (see :mod:`preydelay._forkmap`), and writes the bytes
of a serial run.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from contextlib import closing
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

from .model import (GL_NODES, GL_WEIGHTS, HistoryFunction, ModelSpec,
                    correction_factor, warn_if_inconsistent)

__all__ = [
    "StepperConfig",
    "Trajectory",
    "IntegrationError",
    "StepSizeUnderflow",
    "PositivityViolation",
    "LagDomainError",
    "integrate",
    "integrate_scalar_sdtd",
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
    return _capped_stepper(model.delay.tau_m, t_end, rtol, atol, **kwargs)


def _capped_stepper(tau_m: float, t_end: float, rtol: float,
                    atol: float | tuple[float, ...], **kwargs) -> StepperConfig:
    """Config whose step cap stays below a minimum delay tau_m (if positive)."""
    h_max = 0.6 * tau_m if tau_m > 0.0 else min(0.05, t_end / 200.0)
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

# the same coefficients unpacked (Butcher numbering: stage i reads k_j through
# a_ij) for the straight-line step; a_72 and e_2 are zero and never used
_, _C2, _C3, _C4, _C5, _, _ = _DP_C
((), (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), (_A71, _, _A73, _A74, _A75, _A76)) = _DP_A
_E1, _, _E3, _E4, _E5, _E6, _E7 = _DP_E

# DOPRI5's continuous extension: the step's dense output is the cubic Hermite
# on (u0, h f0, u1, h f1) plus theta^2 (1 - theta)^2 d with d = h sum D_i k_i
# (Hairer, Norsett & Wanner, Solving ODEs I, section II.6); D_2 is zero
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)

_MAX_OVERLAP_ITERS = 5
_OVERLAP_TOL = 1e-10


def _segment(t0: float, h: float, u0, f0, u1, f1, d) -> tuple:
    """(t0, h, c0..c4 of x, c0..c4 of y): the lagged pair's quartic in theta.

    The value at s is c0 + theta (c1 + theta (c2 + theta (c3 + theta c4)))
    with theta = (s - t0) / h; :meth:`Trajectory.sample` does the same
    arithmetic on arrays.
    """
    seg = [t0, h]
    for m in (0, 1):
        a, b, du, dm = h * f0[m], h * f1[m], u1[m] - u0[m], d[m]
        seg += (u0[m], a, 3.0 * du - 2.0 * a - b + dm,
                a + b - 2.0 * du - 2.0 * dm, dm)
    return tuple(seg)


_START = itemgetter(0)  # a segment tuple's start time


def _quartic(seg: tuple, s: float) -> tuple:
    """(x, y) at s off a :func:`_segment` tuple."""
    t0, h, x0, x1, x2, x3, x4, y0, y1, y2, y3, y4 = seg
    th = (s - t0) / h
    return (x0 + th * (x1 + th * (x2 + th * (x3 + th * x4))),
            y0 + th * (y1 + th * (y2 + th * (y3 + th * y4))))


class _SolutionStore:
    """Accepted nodes plus the initial history; serves the stepper's lagged lookups.

    ``ts``, ``us``, ``fs`` and ``ds`` keep every step for the trajectory as
    flat ``array('d')`` buffers: one float a node in ``ts``, three in ``us``
    and ``fs``, three a step in ``ds`` (each step's d), 80 bytes a step in
    all.  ``t_last``, ``u_last`` and ``f_last`` are the last node's t, u
    and f.  The lagged pair's quartic coefficients are kept only for the
    segments a lag can still reach, those ending after t - tau_M, and are
    read through a forward cursor that falls back to a bisection.
    """

    __slots__ = ("history", "tau_M", "ts", "us", "fs", "ds", "t_last",
                 "u_last", "f_last", "_segs", "_cur", "_trim_at")

    def __init__(self, history: Callable[[float], tuple], tau_M: float):
        self.history = history
        self.tau_M = tau_M
        self.ts = array("d")
        self.us = array("d")
        self.fs = array("d")
        self.ds = array("d")
        self.t_last = 0.0
        self.u_last: tuple = ()
        self.f_last: tuple = ()
        self._segs: list[tuple] = []
        self._cur = 0
        self._trim_at = 64

    def append(self, t: float, u: tuple, f: tuple, d: tuple | None = None) -> None:
        """Add the node (t, u, f); d is the step's d (None for the first node)."""
        if d is not None:
            t0 = self.t_last
            self._segs.append(_segment(t0, t - t0, self.u_last, self.f_last,
                                       u, f, d))
            self.ds.extend(d)
            if len(self._segs) >= self._trim_at:
                self._trim(t)
        self.ts.append(t)
        self.us.extend(u)
        self.fs.extend(f)
        self.t_last, self.u_last, self.f_last = t, u, f

    def _trim(self, t: float) -> None:
        # drop the segments that end before t - tau_M, keeping one spare for
        # a delay that rounds above tau_M; amortized O(1) per append
        k = bisect_right(self._segs, t - self.tau_M, key=_START) - 2
        if k > 0:
            del self._segs[:k]
            self._cur = max(self._cur - k, 0)
        self._trim_at = max(64, 2 * len(self._segs))

    def eval_past(self, s: float) -> tuple:
        """(x, y) at an already-covered time s (the history for s <= 0).

        A lag past the last node raises :class:`LagDomainError`: with steps
        below tau(0) only a delay law that falls below tau(0) reaches there.
        """
        if s <= 0.0:
            if s < -self.tau_M - 1e-9 * max(1.0, self.tau_M):
                raise LagDomainError(
                    f"lagged time {s:.6g} precedes the history interval "
                    f"[-{self.tau_M:.6g}, 0]")
            return self.history(s if s >= -self.tau_M else -self.tau_M)
        if s >= self.t_last:
            if s > self.t_last:
                raise LagDomainError(
                    f"lagged time {s:.6g} lies past the last accepted node "
                    f"{self.t_last:.6g}; is tau(y) below tau(0)?")
            return self.u_last[:2]
        segs = self._segs
        i = self._cur
        if s < segs[i][0]:
            i = bisect_right(segs, s, key=_START) - 1
            if i < 0:
                raise LagDomainError(
                    f"lagged time {s:.6g} precedes the retained window")
        else:
            last = len(segs) - 1
            while i < last and s >= segs[i + 1][0]:
                i += 1
        self._cur = i
        # _quartic's arithmetic, inline: one call less per lag read
        t0, h, x0, x1, x2, x3, x4, y0, y1, y2, y3, y4 = segs[i]
        th = (s - t0) / h
        return (x0 + th * (x1 + th * (x2 + th * (x3 + th * x4))),
                y0 + th * (y1 + th * (y2 + th * (y3 + th * y4))))


class Trajectory:
    """Dense piecewise-quartic solution record over [-tau_M, t_end].

    Values and derivatives at accepted nodes, and each step's d, define the
    step's DOPRI5 continuous extension (see :func:`_segment`); reads at
    s <= 0 fall through to the initial history.  The record is immutable
    once built and safe for concurrent reads.
    """

    def __init__(self, ts: Sequence[float], us: Sequence[tuple],
                 fs: Sequence[tuple], ds: Sequence[tuple],
                 history: Callable[[float], tuple], tau_M: float):
        import numpy as np

        self.ts = np.asarray(ts, dtype=float)
        self.us = np.asarray(us, dtype=float)
        self.fs = np.asarray(fs, dtype=float)
        self.ds = np.asarray(ds, dtype=float)
        self._history = history
        self.tau_M = float(tau_M)

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
        return tuple(self.sample((s,))[0].tolist())

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """Solution values at ``times``, an array of shape (len(times), dim).

        Every time must lie in [-tau_M, t_end] (up to a relative 1e-9), or
        :class:`LagDomainError` is raised.  Times s <= 0 read the history;
        the others are read off the quartic segment that contains them, all
        at once, and node times return the node values exactly.
        """
        import numpy as np

        s = np.asarray(times, dtype=float).ravel()
        ts, t_end, tau_M = self.ts, self.t_end, self.tau_M
        below = s < -tau_M - 1e-9 * max(1.0, tau_M)
        above = s > t_end + 1e-9 * max(1.0, t_end)
        bad = np.flatnonzero(below | above)
        if bad.size:
            v = s[bad[0]]
            if below[bad[0]]:
                raise LagDomainError(f"time {v:.6g} precedes the history interval")
            raise LagDomainError(
                f"time {v:.6g} exceeds the integrated horizon {t_end:.6g}")
        out = np.empty((s.size, self.dim))
        past = s <= 0.0
        for k in np.flatnonzero(past):
            out[k] = self._history(max(float(s[k]), -tau_M))
        end = s >= t_end
        out[end & ~past] = self.us[-1]
        k = np.flatnonzero(~(past | end))
        if k.size:
            sk = s[k]
            i = np.searchsorted(ts, sk, side="right") - 1
            t0 = ts[i]
            h = ts[i + 1] - t0
            th = (sk - t0) / h
            us, fs, ds = self.us, self.fs, self.ds
            for m in range(self.dim):
                u0, d = us[i, m], ds[i, m]
                a, b, du = h * fs[i, m], h * fs[i + 1, m], us[i + 1, m] - u0
                c2 = 3.0 * du - 2.0 * a - b + d
                c3 = a + b - 2.0 * du - 2.0 * d
                out[k, m] = u0 + th * (a + th * (c2 + th * (c3 + th * d)))
        return out


# --------------------------------------------------------------------------
# right-hand side


def _make_rhs(model: ModelSpec):
    p = model.params
    r, K, n, dj, d = p.r, p.K, p.n, p.dj, p.d
    f = model.response.f
    tau = model.delay.tau
    tau_prime = model.delay.tau_prime
    exp = math.exp

    # N is ModelSpec.maturation_gain(tv, x_lag, y_lag) * y_lag and yjp's
    # terms are birth_flux and correction_factor, written inline: calling
    # them costs about 5% of integrate.  A test pins the two to equality.
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


# --------------------------------------------------------------------------
# adaptive method-of-steps core (three components; scalar equations are padded)


def _integrate_core(rhs_core, history_eval, u0: tuple, cfg: StepperConfig,
                    tau_m: float, tau_M: float, live: int) -> Trajectory:
    """Integrate a three-component state whose first ``live`` components are live.

    Padded components must stay exactly zero; they take no part in the
    error norm or the positivity guard, and the returned trajectory holds
    the live components only.
    """
    store = _SolutionStore(history_eval, tau_M)
    t_end, h_max, max_steps = cfg.t_end, cfg.h_max, cfg.max_steps
    guard = cfg.positivity_guard
    # a padded component's error and value are exactly 0, so its term in
    # the norm is exactly 0 whatever its atol
    ax, ay, az = cfg.atol_vector(live) + (1.0,) * (3 - live)
    rtol = cfg.rtol
    allow_overlap = tau_m <= 0.0
    isfinite, sqrt, inf = math.isfinite, math.sqrt, math.inf
    t_tol, h_min = 1e-13 * max(1.0, t_end), 1e-12 * max(1.0, t_end)
    append = store.append

    f0 = rhs_core(0.0, u0, store.eval_past)
    append(0.0, u0, f0)

    t, u, f = 0.0, u0, f0
    h = min(cfg.h_init, h_max, t_end)
    nsteps = 0
    last_reject_positivity = False

    def trajectory():
        import numpy as np

        # views on the store's buffers, which nothing appends to afterwards
        def nodes(buf):
            return np.frombuffer(buf).reshape(-1, 3)[:, :live]

        return Trajectory(np.frombuffer(store.ts), nodes(store.us),
                          nodes(store.fs), nodes(store.ds), history_eval,
                          tau_M)

    def fail(exc_cls, message):
        raise exc_cls(message, trajectory=trajectory())

    while t_end - t > t_tol:
        h = min(h, t_end - t)
        if h < h_min:
            if last_reject_positivity:
                fail(PositivityViolation,
                     f"positivity guard kept rejecting steps near t={t:.6g}")
            fail(StepSizeUnderflow, f"step size underflow at t={t:.6g}")
        nsteps += 1
        if nsteps > max_steps:
            fail(IntegrationError, f"exceeded {max_steps} steps")

        # looked up through the module so that callers can wrap it
        u1, f1, err, d = _attempt_step(rhs_core, store, t, u, f, h,
                                       allow_overlap)

        # weighted rms local-error norm over the live components; a
        # non-finite value or error estimate reads inf
        x0, y0, z0 = u
        x1, y1, z1 = u1
        ex, ey, ez = err
        if (isfinite(x1) and isfinite(y1) and isfinite(z1)
                and isfinite(ex) and isfinite(ey) and isfinite(ez)):
            ax0, ax1, ay0, ay1, az0, az1 = (abs(x0), abs(x1), abs(y0),
                                            abs(y1), abs(z0), abs(z1))
            enorm = sqrt(((ex / (ax + rtol * (ax0 if ax0 >= ax1 else ax1))) ** 2
                          + (ey / (ay + rtol * (ay0 if ay0 >= ay1 else ay1))) ** 2
                          + (ez / (az + rtol * (az0 if az0 >= az1 else az1))) ** 2)
                         / live)
        else:
            enorm = inf

        if enorm <= 1.0:
            # the exact x and y stay strictly positive from positive data, so
            # a step that takes either to 0 or below is halved, not clamped:
            # x = 0 (or y = 0) is invariant and a clamp there would absorb a
            # deep crash.  Every other negative component is clamped to 0:
            # x' and y' never read yj, and the exact yj is nonnegative, so
            # the clamp moves yj toward it.  (The padded components of a
            # scalar state are exactly 0, so only v is held positive there.)
            if guard and min(u1) <= 0.0:
                if x0 > 0.0 >= x1 or y0 > 0.0 >= y1:
                    last_reject_positivity = True
                    h *= 0.5
                    continue
                u1 = tuple(v if v >= 0.0 else 0.0 for v in u1)
            last_reject_positivity = False
            t1 = t + h
            if t_end - t1 <= t_tol:
                t1 = t_end
            append(t1, u1, f1, d)
            t, u, f = t1, u1, f1
            factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
            h = min(h * factor, h_max)
        else:
            last_reject_positivity = False
            h *= max(0.1, min(0.5, 0.9 * enorm ** -0.2))

    return trajectory()


def _attempt_step(rhs_core, store: _SolutionStore, t0: float, u0: tuple,
                  f0: tuple, h: float, allow_overlap: bool):
    """One trial Dormand-Prince step; returns (u1, f1, error_estimate, d).

    d is the step's dense-output correction (see :func:`_segment`).
    Straight-line code for the three-component state.  When the lag can land
    inside the current step (vanishing minimum delay), lookups beyond t0 are
    served by a provisional segment (the Euler line, then the quartic
    segment of the previous iterate) that is fixed-point iterated until the
    step result stabilizes.
    """
    x0, y0, z0 = u0
    k1x, k1y, k1z = f0
    t1 = t0 + h
    b21 = h * _A21
    b31, b32 = h * _A31, h * _A32
    b41, b42, b43 = h * _A41, h * _A42, h * _A43
    b51, b52, b53, b54 = h * _A51, h * _A52, h * _A53, h * _A54
    b61, b62, b63, b64, b65 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    b71, b73, b74, b75, b76 = h * _A71, h * _A73, h * _A74, h * _A75, h * _A76
    eval_past = store.eval_past
    prov = None
    overlapped = False

    def overlap_lookup(s):
        nonlocal overlapped
        if s <= t0:
            return eval_past(s)
        overlapped = True
        if prov is None:
            return (x0 + (s - t0) * k1x, y0 + (s - t0) * k1y)
        return _quartic(prov, s)

    # with h < tau(0) <= tau(y) every lag lands at or before t0
    lookup = overlap_lookup if allow_overlap else eval_past
    for _ in range(_MAX_OVERLAP_ITERS if allow_overlap else 1):
        overlapped = False
        k2x, k2y, k2z = rhs_core(
            t0 + _C2 * h,
            (x0 + b21 * k1x, y0 + b21 * k1y, z0 + b21 * k1z), lookup)
        k3x, k3y, k3z = rhs_core(
            t0 + _C3 * h,
            (x0 + b31 * k1x + b32 * k2x,
             y0 + b31 * k1y + b32 * k2y,
             z0 + b31 * k1z + b32 * k2z), lookup)
        k4x, k4y, k4z = rhs_core(
            t0 + _C4 * h,
            (x0 + b41 * k1x + b42 * k2x + b43 * k3x,
             y0 + b41 * k1y + b42 * k2y + b43 * k3y,
             z0 + b41 * k1z + b42 * k2z + b43 * k3z), lookup)
        k5x, k5y, k5z = rhs_core(
            t0 + _C5 * h,
            (x0 + b51 * k1x + b52 * k2x + b53 * k3x + b54 * k4x,
             y0 + b51 * k1y + b52 * k2y + b53 * k3y + b54 * k4y,
             z0 + b51 * k1z + b52 * k2z + b53 * k3z + b54 * k4z), lookup)
        k6x, k6y, k6z = rhs_core(
            t1,
            (x0 + b61 * k1x + b62 * k2x + b63 * k3x + b64 * k4x + b65 * k5x,
             y0 + b61 * k1y + b62 * k2y + b63 * k3y + b64 * k4y + b65 * k5y,
             z0 + b61 * k1z + b62 * k2z + b63 * k3z + b64 * k4z + b65 * k5z),
            lookup)
        u1 = (x0 + b71 * k1x + b73 * k3x + b74 * k4x + b75 * k5x + b76 * k6x,
              y0 + b71 * k1y + b73 * k3y + b74 * k4y + b75 * k5y + b76 * k6y,
              z0 + b71 * k1z + b73 * k3z + b74 * k4z + b75 * k5z + b76 * k6z)
        f1 = rhs_core(t1, u1, lookup)
        k7x, k7y, k7z = f1
        d = (h * (_D1 * k1x + _D3 * k3x + _D4 * k4x + _D5 * k5x + _D6 * k6x
                  + _D7 * k7x),
             h * (_D1 * k1y + _D3 * k3y + _D4 * k4y + _D5 * k5y + _D6 * k6y
                  + _D7 * k7y),
             h * (_D1 * k1z + _D3 * k3z + _D4 * k4z + _D5 * k5z + _D6 * k6z
                  + _D7 * k7z))

        if not overlapped:
            break
        if prov is not None and max(abs(v - w) / max(1.0, abs(v))
                                    for v, w in zip(u1, prev)) <= _OVERLAP_TOL:
            break
        prev, prov = u1, _segment(t0, h, u0, f0, u1, f1, d)

    err = (h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x
                + _E7 * k7x),
           h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y
                + _E7 * k7y),
           h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z
                + _E7 * k7z))
    return u1, f1, err, d


# --------------------------------------------------------------------------
# public integrators


def _check_step_cap(cfg: StepperConfig, tau_m: float) -> None:
    # a step that reaches tau_m would read its own lags off the Euler line
    if tau_m > 0.0 and not cfg.h_max < tau_m:
        raise ValueError(
            f"h_max={cfg.h_max:g} must be below tau(0)={tau_m:g}; "
            f"use default_stepper() for a compliant config")


def integrate(model: ModelSpec, history: HistoryFunction,
              cfg: StepperConfig) -> Trajectory:
    """Integrate the three-component system from its history up to cfg.t_end.

    Requires cfg.h_max < tau(0) whenever tau(0) > 0 (see the module note).
    Raises :class:`StepSizeUnderflow` / :class:`PositivityViolation` with the
    partial trajectory attached if the stepper cannot proceed.
    """
    tau_m, tau_M = model.delay.tau_m, model.delay.tau_M
    _check_step_cap(cfg, tau_m)
    history.check_nonnegative(tau_M)
    warn_if_inconsistent(model, history)

    phi1, phi2, phi3 = history.phi1, history.phi2, history.phi3

    def history_eval(s: float) -> tuple:
        return (float(phi1(s)), float(phi3(s)), float(phi2(s)))

    u0 = history.state0()
    rhs_core = _make_rhs(model)
    return _integrate_core(rhs_core, history_eval, u0, cfg, tau_m, tau_M,
                           live=3)


def integrate_scalar_sdtd(rhs_scalar, history_fn, cfg: StepperConfig,
                          tau_m: float, tau_M: float) -> Trajectory:
    """Integrate a scalar equation v'(t) = rhs(t, v, lookup) with lagged lookups.

    ``rhs_scalar(t, v, lookup)`` receives a scalar lookup s -> v(s).  Used by
    the analysis probes for single-population delay equations.  The stepper
    carries v as the state (v, 0, 0); the zero components never mix into v.
    Requires cfg.h_max < tau_m whenever tau_m > 0, as :func:`integrate` does.
    """
    _check_step_cap(cfg, tau_m)

    def rhs_core(t, u, lookup):
        return (rhs_scalar(t, u[0], lambda s: lookup(s)[0]), 0.0, 0.0)

    def history_eval(s: float) -> tuple:
        return (float(history_fn(s)),)

    v0 = float(history_fn(0.0))
    return _integrate_core(rhs_core, history_eval, (v0, 0.0, 0.0), cfg, tau_m,
                           tau_M, live=1)


# --------------------------------------------------------------------------
# trajectory-derived quantities


def yj_integral(model: ModelSpec, traj: Trajectory, t: float) -> float:
    """Juvenile stock at t recomputed from the mature/prey channels alone.

    Evaluates the survival-discounted recruitment integral

        int_{t - tau(y(t))}^{t}  birth_flux(x(s), y(s)) survival(t - s) ds

    by composite Gauss-Legendre quadrature over the dense output, splitting at
    segment joins.  Serves as an independent consistency check of the juvenile
    ODE channel.
    """
    import numpy as np

    if t < 0.0 or t > traj.t_end + 1e-9 * max(1.0, traj.t_end):
        raise LagDomainError(f"t={t:.6g} outside the integrated interval")
    y_t = traj.lookup(t)[1]
    tau_t = model.delay.tau(max(y_t, 0.0))
    s_lo = t - tau_t
    if s_lo < -traj.tau_M - 1e-9 * max(1.0, traj.tau_M):
        raise LagDomainError(
            f"integration window starts at {s_lo:.6g}, before the history")
    if s_lo >= t:
        return 0.0

    # segment joins strictly inside the window
    ts = traj.ts
    cuts = [s_lo, *ts[np.searchsorted(ts, s_lo, side="right"):
                     np.searchsorted(ts, t, side="left")].tolist(), t]
    w_max = min(0.25, max(traj.tau_M, 1e-3) / 8.0)
    gl_nodes, gl_weights = np.array(GL_NODES), np.array(GL_WEIGHTS)

    nodes, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        npan = max(1, int(math.ceil((b - a) / w_max)))
        edges = np.linspace(a, b, npan + 1)
        half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
        mid = (0.5 * (edges[1:] + edges[:-1]))[:, None]
        nodes.append((mid + half * gl_nodes).ravel())
        weights.append((gl_weights * half).ravel())
    nodes = np.concatenate(nodes)
    vals = traj.sample(nodes)

    # summed node by node, in window order, like the panel-by-panel rule
    total = 0.0
    birth_flux, survival = model.birth_flux, model.survival
    for w, s, xs, ys in zip(np.concatenate(weights).tolist(), nodes.tolist(),
                            vals[:, 0].tolist(), vals[:, 1].tolist()):
        if ys < 0.0:
            ys = 0.0
        if xs < 0.0:
            xs = 0.0
        total += w * (birth_flux(xs, ys) * survival(t - s))
    return total


def lag_times(model: ModelSpec, traj: Trajectory) -> np.ndarray:
    """s(t) = t - tau(y(t)) at every accepted node (strictly increasing)."""
    import numpy as np

    y = np.clip(traj.us[:, 1], 0.0, None)
    taus = np.array([model.delay.tau(v) for v in y])
    return traj.ts - taus


# rows that export_csv builds and writes at a time
_CSV_BLOCK = 1024
# export_csv shares its blocks with fork() children from this many blocks on.
# On a 2-core x86-64 VM, exporting a 14.8k-step trajectory forked took
# 0.81-1.13x its serial time at 2 blocks, 0.77-0.87x at 3, 0.60-0.72x at 4-10.
_CSV_FORK_MIN_BLOCKS = 3


def export_csv(model: ModelSpec, traj: Trajectory, path, stride: float) -> None:
    """Write t,x,y,yj,tau,lag_s,correction at the given output stride.

    Floats are written in full round-trip precision so identical runs produce
    byte-identical files.  Rows are built in blocks of ``_CSV_BLOCK`` and
    written in order, so the memory used does not grow with the horizon.
    From ``_CSV_FORK_MIN_BLOCKS`` blocks on, the blocks are built on every
    usable CPU through :func:`preydelay._forkmap.fork_map`; the bytes are
    the same.
    """
    if stride <= 0.0:
        raise ValueError("stride must be positive")
    n_rows = int(math.floor(traj.t_end / stride + 1e-9)) + 1
    # the last row falls short of t_end: add a row at t_end itself
    short = (n_rows - 1) * stride < traj.t_end - 1e-9 * max(1.0, traj.t_end)
    tau = model.delay.tau

    def block(start: int) -> str:
        stop = min(start + _CSV_BLOCK, n_rows)
        times = [i * stride for i in range(start, stop)]
        if short and stop == n_rows:
            times.append(traj.t_end)
        now = traj.sample(times).tolist()
        taus = [tau(max(y, 0.0)) for _, y, _ in now]
        lags = [t - tau_t for t, tau_t in zip(times, taus)]
        lagged = traj.sample(lags)[:, :2].tolist()
        lines = []
        for t, (x, y, yj), tau_t, s, (x_lag, y_lag) in zip(
                times, now, taus, lags, lagged):
            y_lag = max(y_lag, 0.0)
            N = model.maturation_gain(tau_t, max(x_lag, 0.0), y_lag) * y_lag
            corr = correction_factor(model, max(y, 0.0), N)
            lines.append(",".join(map(repr, (t, x, y, yj, tau_t, s, corr))))
        return "\n".join(lines) + "\n"

    starts = range(0, n_rows, _CSV_BLOCK)
    with open(path, "w") as fh:
        fh.write("t,x,y,yj,tau,lag_s,correction\n")
        if len(starts) < _CSV_FORK_MIN_BLOCKS:
            fh.writelines(map(block, starts))
        else:
            from ._forkmap import fork_map

            # closed, so that a failed write stops the children at once
            with closing(fork_map(block, starts)) as blocks:
                fh.writelines(blocks)
