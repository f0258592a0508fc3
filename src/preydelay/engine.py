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
segments: :func:`default_stepper` caps it at 0.6 tau(0) up to rtol 1e-8 and
lets the cap grow as rtol^(1/5) above that, to 0.95 tau(0) from rtol of
about 1e-7 on.  That holds the lag reads' share of the juvenile-conservation
error, which the step's error estimate does not see, at one multiple of rtol;
the cap, not the tolerance, sets many of the probes' steps.  The stages then
read their lags straight from the solution store, and a lag past the last
accepted node (a delay law that falls below tau(0)) raises
:class:`LagDomainError`.  The store's flat buffers of nodes, slopes and d
are the run's only record: the trajectory reads them, and a lag is read off
the quartic segment built from them for the step it falls in.  With a
vanishing minimum delay :func:`_overlap_step` instead repeats the step, its
lookups fixed-point iterated against a provisional segment.

The whole accept/reject loop is generated, once per set of laws, from one
template (``_LOOP``): the seven stages (``_STAGES``), the error norm, the
positivity guard, the step-size update and the store update, with every
intermediate a plain local.  Each stage evaluation is a slot.  For a model,
the slot holds the right-hand side itself (``_RHS``), with the model's
parameters and its law constants bound as closure cells.  Where f, tau or
tau' carries an expression text (every catalog law does, see
:mod:`preydelay._law`), that text is written in place of the call; any other
law, a user :class:`DelayFunction` or a callable swapped in by
``dataclasses.replace``, is called.  The loop reads each lag off one segment
cached in its locals, builds the next one from the buffers when the lag
leaves it, and goes to the store's lookup only for the history, the last
node and the errors.  A loop without a model
(:func:`integrate_scalar_sdtd`) calls its ``rhs_core`` in every slot.  When
tau(0) = 0 the loop's attempt is a call of :func:`_overlap_step` with the
same stages as a step function (``_STEP``), generated only then.  The
generated loops are cached by their law texts, so a process compiles each
combination once (a few milliseconds) and a subcommand that does not
integrate compiles none.  The loop counts its attempts, which
:attr:`Trajectory.n_attempts` reports, and returns a failure for
:func:`integrate` to raise with the partial trajectory.  It also takes a soft
stop: a :class:`Run` advanced window by window (the probes' runs, see
:func:`start_run`) pauses at the first node past each window's end and
resumes with the steps and bits of a run that never paused; a plain run's
soft stop is its end.

:func:`export_csv` builds a long file's blocks on every usable CPU, in
``os.fork()`` children (see :mod:`preydelay._forkmap`), and writes the bytes
of a serial run.
"""
from __future__ import annotations

import ast
import math
import re
import textwrap
from array import array
from bisect import bisect_right
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from struct import Struct
from typing import Callable, Sequence

from ._law import LawText
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
    absolute floor.  ``max_steps`` caps the step attempts, rejected ones
    included (:attr:`Trajectory.n_attempts`).
    """

    t_end: float
    rtol: float = 1e-8
    atol: float | tuple[float, ...] = 1e-10
    h_init: float = 0.01
    h_max: float = math.inf
    positivity_guard: bool = True
    max_steps: int = 5_000_000

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(
                f"t_end must be positive and finite, got {self.t_end!r}")
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


def default_stepper(model: ModelSpec, t_end: float, rtol=StepperConfig.rtol,
                    atol=StepperConfig.atol, **kwargs) -> StepperConfig:
    """Config with a step cap compatible with the model's minimum delay.

    The cap is 0.6 tau(0) up to rtol 1e-8, grows as rtol^(1/5) above it and
    stops at 0.95 tau(0) (from rtol of about 1e-7 on); the first step is the
    smaller of the cap and 0.01.  A caller's ``h_init`` or ``h_max`` replaces
    the capped value; an ``h_max`` at or above tau(0) passes here and is
    refused by :func:`integrate`.
    """
    return _capped_stepper(model.delay.tau_m, t_end, rtol, atol, **kwargs)


def _capped_stepper(tau_m: float, t_end: float, rtol: float,
                    atol: float | tuple[float, ...], *,
                    h_max: float | None = None, h_init: float | None = None,
                    **kwargs) -> StepperConfig:
    """Config whose step cap stays below a minimum delay tau_m (if positive).

    The lag reads' error that the cap sets grows as (h / tau_m)^5, so a cap
    growing as rtol^(1/5) holds it at the multiple of rtol that 0.6 tau_m
    gives at rtol 1e-8 (the juvenile-conservation measure reads 290-355 rtol
    along the rule); 0.95 tau_m keeps every lag behind the step.
    """
    if h_max is None:
        h_max = (min(0.95, 0.6 * max(1.0, rtol / 1e-8) ** 0.2) * tau_m
                 if tau_m > 0.0 else min(0.05, t_end / 200.0))
    if h_init is None:
        h_init = min(h_max, 0.01)
    return StepperConfig(t_end=t_end, rtol=rtol, atol=atol, h_init=h_init,
                         h_max=h_max, **kwargs)


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


def _segment_text(names: str) -> str:
    """The quartic in theta over one step, written once: lines that bind a
    segment tuple (t0, dt, c0..c4 of each component named in ``names``) off
    the step's start t0 and length dt and, for a component v, its start v0,
    slope k1v, end v at t0 + dt, end slope k7v and d dv.  The value at s is
    c0 + theta (c1 + theta (c2 + theta (c3 + theta c4))) with
    theta = (s - t0) / dt; Trajectory.sample does the same arithmetic on
    arrays."""
    return "".join(
        f"h{v}, h{v}1, du{v} = dt * k1{v}, dt * k7{v}, {v} - {v}0\n"
        for v in names) + "seg = (t0, dt, " + ",\n       ".join(
        f"{v}0, h{v}, 3.0 * du{v} - 2.0 * h{v} - h{v}1 + d{v},\n"
        f"       h{v} + h{v}1 - 2.0 * du{v} - 2.0 * d{v}, d{v}"
        for v in names) + ")\n"


# The lagged pair's segment: (t0, dt, c0..c4 of x, c0..c4 of y).  _seg_at is
# this text reading a step of the store's buffers, _segment the same text
# over tuples (the overlap iteration's provisional segment); _read extends it
# to the third component.
_SEGMENT = _segment_text("xy")


def _exec(source: str, name: str):
    """The object ``source`` binds to ``name``, compiled in this module."""
    namespace: dict = {}
    exec(compile(source, f"<preydelay {name}>", "exec"), globals(), namespace)
    return namespace[name]


def _place(source: str, marker: str, block: str) -> str:
    """``source`` with the line ``marker`` replaced by ``block``, indented alike."""
    return re.sub(rf"^( *){marker}\n",
                  lambda line: textwrap.indent(block.lstrip("\n"), line[1]),
                  source, flags=re.M)


_segment = _exec(
    "def _segment(t0, dt, u0, f0, u1, f1, d):\n"
    "    x0, y0, _ = u0\n    k1x, k1y, _ = f0\n    x, y, _ = u1\n"
    "    k7x, k7y, _ = f1\n    dx, dy, _ = d\n"
    + textwrap.indent(_SEGMENT, "    ") + "    return seg\n", "_segment")

# floats off the store's buffers at a byte offset: two (a step's t0 and t1,
# or its d for x and y), three (its d), five (x, y of a node's u or f, then
# the next's) or six (all of a node's u or f, then the next's)
_TWO = Struct("2d").unpack_from
_THREE = Struct("3d").unpack_from
_FIVE = Struct("5d").unpack_from
_SIX = Struct("6d").unpack_from

# (i, t1, seg) for the step of the buffers ts, us, fs, ds that starts at the
# last node at or before s, 0 < s < ts[-1]: step i if s lies in it, else the
# one bisect_right finds; t1 is the step's end node
_seg_at = _exec(
    "def _seg_at(ts, us, fs, ds, s, i):\n"
    "    if not ts[i] <= s < ts[i + 1]:\n"
    "        i = bisect_right(ts, s) - 1\n"
    "    t0, t1 = _TWO(ts, 8 * i)\n    dt, j = t1 - t0, 24 * i\n"
    "    x0, y0, _, x, y = _FIVE(us, j)\n"
    "    k1x, k1y, _, k7x, k7y = _FIVE(fs, j)\n"
    "    dx, dy = _TWO(ds, j)\n"
    + textwrap.indent(_SEGMENT, "    ") + "    return i, t1, seg\n", "_seg_at")


def _quartic(seg: tuple, s: float) -> tuple:
    """(x, y) at s off a :func:`_segment` tuple."""
    t0, h, x0, x1, x2, x3, x4, y0, y1, y2, y3, y4 = seg
    th = (s - t0) / h
    return (x0 + th * (x1 + th * (x2 + th * (x3 + th * x4))),
            y0 + th * (y1 + th * (y2 + th * (y3 + th * y4))))


# what a read of a trajectory outside [-tau_M, t_end] raises, in both readers
_BEFORE = "time {:.6g} precedes the history interval"
_PAST = "time {:.6g} exceeds the integrated horizon {:.6g}"

# Trajectory's reader without NumPy: the rows (x, y, yj) at ``times`` of the
# first n nodes of the buffers ts, us, fs, ds, bit for bit Trajectory.sample's
# rows.  A time strictly inside the last segment built is read off it; another
# inside the record off the segment of the step that starts at the last node
# at or before it (the next step tried first, as _seg_at does).  Times at or
# before 0 read the history, and times at or past the last node that node.
_read = _exec(_place("""
def _read(ts, us, fs, ds, n, history, tau_M, times):
    t_end = ts[n - 1]
    lo, hi = -tau_M - 1e-9 * max(1.0, tau_M), t_end + 1e-9 * max(1.0, t_end)
    last = tuple(us[3 * n - 3:3 * n])
    rows, i, t0, t1 = [], -1, 0.0, 0.0
    for s in times:
        if not t0 < s < t1:
            if not 0.0 < s < t_end:
                if s < lo:
                    raise LagDomainError(_BEFORE.format(s))
                if s > hi:
                    raise LagDomainError(_PAST.format(s, t_end))
                rows.append(last if s > 0.0
                            else history(s if s >= -tau_M else -tau_M))
                continue
            i += 1
            if not ts[i] <= s < ts[i + 1]:
                i = bisect_right(ts, s, 0, n) - 1
            t0, t1 = _TWO(ts, 8 * i)
            dt, j = t1 - t0, 24 * i
            x0, y0, z0, x, y, z = _SIX(us, j)
            k1x, k1y, k1z, k7x, k7y, k7z = _SIX(fs, j)
            dx, dy, dz = _THREE(ds, j)
            SEGMENT
            (_, _, cx0, cx1, cx2, cx3, cx4, cy0, cy1, cy2, cy3, cy4,
             cz0, cz1, cz2, cz3, cz4) = seg
        th = (s - t0) / dt
        rows.append((cx0 + th * (cx1 + th * (cx2 + th * (cx3 + th * cx4))),
                     cy0 + th * (cy1 + th * (cy2 + th * (cy3 + th * cy4))),
                     cz0 + th * (cz1 + th * (cz2 + th * (cz3 + th * cz4)))))
    return rows
""", "SEGMENT", _segment_text("xyz")), "_read")


class _SolutionStore:
    """Accepted nodes plus the initial history; serves the stepper's lagged lookups.

    ``ts``, ``us``, ``fs`` and ``ds`` are the only record of the run, flat
    ``array('d')`` buffers: one float a node in ``ts``, three in ``us`` and
    ``fs``, three a step in ``ds`` (each step's d), 80 bytes a step in all.
    The stepping loop appends its accepted steps to them; the trajectory
    reads them.  A lag 0 < s < ``ts[-1]`` is read off the quartic segment
    that :func:`_seg_at` builds from the buffers, and the last one built is
    kept for the next read.
    """

    __slots__ = ("history", "tau_M", "ts", "us", "fs", "ds", "_i", "_sb",
                 "_seg")

    def __init__(self, history: Callable[[float], tuple], tau_M: float):
        self.history = history
        self.tau_M = tau_M
        self.ts = array("d")
        self.us = array("d")
        self.fs = array("d")
        self.ds = array("d")
        # the last segment built, its step and the step's end node; none yet,
        # so that the first read inside the record builds step 0
        self._i, self._sb, self._seg = -1, 0.0, (math.inf,)

    def eval_past(self, s: float) -> tuple:
        """(x, y) at an already-covered time s (the history for s <= 0).

        A time 0 < s < ``ts[-1]`` is read off the segment of the step whose
        start is the last node at or before s.

        A lag past the last node raises :class:`LagDomainError`: with steps
        below tau(0) only a delay law that falls below tau(0) reaches there.
        """
        if s <= 0.0:
            if s < -self.tau_M - 1e-9 * max(1.0, self.tau_M):
                raise LagDomainError(
                    f"lagged time {s:.6g} precedes the history interval "
                    f"[-{self.tau_M:.6g}, 0]")
            return self.history(s if s >= -self.tau_M else -self.tau_M)[:2]
        seg = self._seg
        if not seg[0] <= s < self._sb:
            ts = self.ts
            t_last = ts[-1]
            if s >= t_last:
                if s > t_last:
                    raise LagDomainError(
                        f"lagged time {s:.6g} lies past the last accepted "
                        f"node {t_last:.6g}; is tau(y) below tau(0)?")
                return self.us[-3], self.us[-2]
            self._i, self._sb, seg = _seg_at(ts, self.us, self.fs, self.ds, s,
                                             self._i + 1)
            self._seg = seg
        # _quartic's arithmetic, inline: one call less per lag read
        t0, h, x0, x1, x2, x3, x4, y0, y1, y2, y3, y4 = seg
        th = (s - t0) / h
        return (x0 + th * (x1 + th * (x2 + th * (x3 + th * x4))),
                y0 + th * (y1 + th * (y2 + th * (y3 + th * y4))))


class Trajectory:
    """Dense piecewise-quartic solution record over [-tau_M, t_end].

    Values and derivatives at accepted nodes, and each step's d, define the
    step's DOPRI5 continuous extension (see :func:`_segment`); reads at
    s <= 0 fall through to the initial history.  The record is the first
    ``n`` nodes of a run's flat ``array('d')`` buffers (three floats a node
    in ``us`` and ``fs``, three a step in ``ds``), of which it reads the
    first ``live`` components.  :meth:`lookup` reads them in Python; the
    NumPy views ``ts``, ``us``, ``fs`` and ``ds`` (and so :meth:`sample`)
    are built on first use.  The record is immutable once built and safe
    for concurrent reads.  ``n_attempts`` counts the trial steps the stepper
    took, accepted and rejected.
    """

    def __init__(self, ts: array, us: array, fs: array, ds: array, n: int,
                 live: int, history: Callable[[float], tuple], tau_M: float,
                 n_attempts: int):
        self._buffers = (ts, us, fs, ds)
        self._n, self._live = n, live
        self._history = history
        self.tau_M = float(tau_M)
        self._n_attempts = n_attempts

    def _nodes(self, buf: array, count: int) -> np.ndarray:
        import numpy as np

        return np.frombuffer(buf, count=3 * count).reshape(-1, 3)[:, :self._live]

    @cached_property
    def ts(self) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self._buffers[0], count=self._n)

    @cached_property
    def us(self) -> np.ndarray:
        return self._nodes(self._buffers[1], self._n)

    @cached_property
    def fs(self) -> np.ndarray:
        return self._nodes(self._buffers[2], self._n)

    @cached_property
    def ds(self) -> np.ndarray:
        return self._nodes(self._buffers[3], self._n - 1)

    @property
    def t_end(self) -> float:
        return self._buffers[0][self._n - 1]

    @property
    def dim(self) -> int:
        return self._live

    @property
    def n_steps(self) -> int:
        return self._n - 1

    @property
    def n_attempts(self) -> int:
        return self._n_attempts

    def lookup(self, s: float) -> tuple:
        """Solution value at any s in [-tau_M, t_end]."""
        return self._rows((float(s),))[0]

    def _rows(self, times: Sequence[float]) -> list[tuple]:
        """:meth:`sample`'s rows as tuples, read in Python (see :func:`_read`)
        without NumPy: about 2.5 us a time on a 2-core x86-64 VM, where the
        NumPy import that :meth:`sample` needs takes about 0.085 s."""
        rows = _read(*self._buffers, self._n, self._history, self.tau_M, times)
        live = self._live
        return rows if live == 3 else [row[:live] for row in rows]

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
                raise LagDomainError(_BEFORE.format(v))
            raise LagDomainError(_PAST.format(v, t_end))
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
# right-hand side and the generated stepping loop

# The right-hand side, written once: the rates (xp, yp, yjp) at (t, x, y, yj)
# of a model with laws f, tau, tau_prime and parameters r, K, n, dj, d, its
# lag read through lookup.  Stages may overshoot slightly negative; the rate
# laws, defined on nonnegative densities, read the clamped xc and yc.  N is
# ModelSpec.maturation_gain(tv, x_lag, y_lag) * y_lag and yjp's terms are
# birth_flux and correction_factor, written out: calling them costs about 5%
# of integrate.  A test pins the two to equality.
_RHS = """
xc = x if x > 0.0 else 0.0
yc = y if y > 0.0 else 0.0
tv = tau(yc)
lx, ly = lookup(t - tv)
x_lag = lx if lx > 0.0 else 0.0
y_lag = ly if ly > 0.0 else 0.0
N = n * exp(-dj * tv) * f(x_lag, y_lag) * y_lag
tp = tau_prime(yc)
denom = 1.0 + tp * N
fxy = f(xc, yc)
xp = r * x * (1.0 - x / K) - fxy * y
yp = (N - d * y) / denom
yjp = n * fxy * y - dj * yj - (1.0 + tp * d * yc) / denom * N
"""
_PARAMS = ("r", "K", "n", "dj", "d")
# each law's name in _RHS and the prefix that renames its constants apart
# from the loop's locals (Holling II's h, say, from the step size h)
_LAW_PREFIXES = (("f", "f_"), ("tau", "tau_"), ("tau_prime", "dtau_"))

# The stepping loop's lag read, in place of _RHS's lookup line.  The loop
# keeps one segment in its locals: the start sa, length sh and quartic of
# step ia of the store's buffers, and sb, the step's end node.  A lag
# strictly inside (sa, sb) is read off it.  Another lag inside the record
# is read off the segment that _seg_at builds from the buffers (step ia + 1
# tried first), which the loop then keeps.  A lag at or before 0, or at or
# past the last node, goes to the store's eval_past: the history, the last
# node or a LagDomainError.  Every read does eval_past's and
# Trajectory.sample's arithmetic on the same segment, so the bits do not
# depend on the path.  (The quartic's lines are repeated so that a lag read
# off the kept segment tests one interval: testing it twice cost 2% of
# integrate.)
_LAG_READ = """
s = t - tv
if sa < s < sb:
    th = (s - sa) / sh
    lx = cx0 + th * (cx1 + th * (cx2 + th * (cx3 + th * cx4)))
    ly = cy0 + th * (cy1 + th * (cy2 + th * (cy3 + th * cy4)))
elif 0.0 < s < t0:
    ia, sb, (sa, sh, cx0, cx1, cx2, cx3, cx4, cy0, cy1, cy2, cy3,
             cy4) = _seg_at(ts, us, fs, ds, s, ia + 1)
    th = (s - sa) / sh
    lx = cx0 + th * (cx1 + th * (cx2 + th * (cx3 + th * cx4)))
    ly = cy0 + th * (cy1 + th * (cy2 + th * (cy3 + th * cy4)))
else:
    lx, ly = lookup(s)
"""

# The seven Dormand-Prince stages of a trial step of size h from
# (t0, x0, y0, z0) with slopes k1: its end (x, y, yj) at t1, the end slopes
# k7, the error estimate e and the dense-output correction d (see _SEGMENT).
# Each ``kx, ky, kz = RHS(t, x, y, yj)`` line is a slot.  For a model it
# becomes _RHS with its rates written to kx, ky, kz, the model's parameters
# and law constants renamed to the maker's arguments and each law that has a
# text written in place of its call (through the ast, see _Writer).  For an
# equation without a model it becomes the call rhs_core(t, (x, y, yj),
# lookup).
_STAGES = """
t1 = t0 + h
b21 = h * _A21
b31, b32 = h * _A31, h * _A32
b41, b42, b43 = h * _A41, h * _A42, h * _A43
b51, b52, b53, b54 = h * _A51, h * _A52, h * _A53, h * _A54
b61, b62, b63, b64, b65 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
b71, b73, b74, b75, b76 = h * _A71, h * _A73, h * _A74, h * _A75, h * _A76
t = t0 + _C2 * h
x = x0 + b21 * k1x
y = y0 + b21 * k1y
yj = z0 + b21 * k1z
k2x, k2y, k2z = RHS(t, x, y, yj)
t = t0 + _C3 * h
x = x0 + b31 * k1x + b32 * k2x
y = y0 + b31 * k1y + b32 * k2y
yj = z0 + b31 * k1z + b32 * k2z
k3x, k3y, k3z = RHS(t, x, y, yj)
t = t0 + _C4 * h
x = x0 + b41 * k1x + b42 * k2x + b43 * k3x
y = y0 + b41 * k1y + b42 * k2y + b43 * k3y
yj = z0 + b41 * k1z + b42 * k2z + b43 * k3z
k4x, k4y, k4z = RHS(t, x, y, yj)
t = t0 + _C5 * h
x = x0 + b51 * k1x + b52 * k2x + b53 * k3x + b54 * k4x
y = y0 + b51 * k1y + b52 * k2y + b53 * k3y + b54 * k4y
yj = z0 + b51 * k1z + b52 * k2z + b53 * k3z + b54 * k4z
k5x, k5y, k5z = RHS(t, x, y, yj)
t = t1
x = x0 + b61 * k1x + b62 * k2x + b63 * k3x + b64 * k4x + b65 * k5x
y = y0 + b61 * k1y + b62 * k2y + b63 * k3y + b64 * k4y + b65 * k5y
yj = z0 + b61 * k1z + b62 * k2z + b63 * k3z + b64 * k4z + b65 * k5z
k6x, k6y, k6z = RHS(t, x, y, yj)
x = x0 + b71 * k1x + b73 * k3x + b74 * k4x + b75 * k5x + b76 * k6x
y = y0 + b71 * k1y + b73 * k3y + b74 * k4y + b75 * k5y + b76 * k6y
yj = z0 + b71 * k1z + b73 * k3z + b74 * k4z + b75 * k5z + b76 * k6z
k7x, k7y, k7z = RHS(t, x, y, yj)
dx = h * (_D1 * k1x + _D3 * k3x + _D4 * k4x + _D5 * k5x + _D6 * k6x
          + _D7 * k7x)
dy = h * (_D1 * k1y + _D3 * k3y + _D4 * k4y + _D5 * k5y + _D6 * k6y
          + _D7 * k7y)
dz = h * (_D1 * k1z + _D3 * k3z + _D4 * k4z + _D5 * k5z + _D6 * k6z
          + _D7 * k7z)
ex = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x
          + _E7 * k7x)
ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y
          + _E7 * k7y)
ez = h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z
          + _E7 * k7z)
"""
_SLOT = re.compile(r"^( *)(\w+), (\w+), (\w+) = RHS\(t, x, y, yj\)$", re.M)

# The model's rhs_core, for the first node's slopes, and the trial step as a
# function, for _overlap_step.
_RHS_CORE = """
def rhs_core(t, u, lookup):
    x, y, yj = u
    xp, yp, yjp = RHS(t, x, y, yj)
    return (xp, yp, yjp)
"""
_STEP = ("def step(lookup, t0, u0, f0, h):\n"
         "    x0, y0, z0 = u0\n    k1x, k1y, k1z = f0\n"
         + textwrap.indent(_STAGES, "    ")
         + "    return (x, y, yj), (k7x, k7y, k7z), (ex, ey, ez), (dx, dy, dz)\n")
# the attempt of a loop whose lags can land inside the step (tau(0) = 0)
_OVERLAP_ATTEMPT = """
(x, y, yj), (k7x, k7y, k7z), (ex, ey, ez), (dx, dy, dz) = _overlap_step(
    step, lookup, t0, (x0, y0, z0), (k1x, k1y, k1z), h)
t1 = t0 + h
"""

# The adaptive stepping loop over a three-component state whose first
# ``live`` components are live, from the store's last node to the soft stop
# t_stop <= cfg.t_end, with the step size h and the attempt count it carries
# in.  Padded components stay exactly zero: their error and value are
# exactly 0, so their term in the error norm is exactly 0 whatever their
# atol (ax, ay, az), and they never fail the positivity guard.  The stages of
# an attempt (_STAGES, or _OVERLAP_ATTEMPT) take the ATTEMPT line's place.
# Accepted steps go straight into the store's buffers, the only ones it
# reads.  The step is clipped against cfg.t_end, never against t_stop: the
# loop returns at the first accepted node within t_tol of t_stop or past it,
# and a call from there on the same store with the h and attempts it
# returned takes the steps of a run that never stopped (a lag read that
# leaves the cached segment gives the same bits, see _LAG_READ).  A plain
# run passes t_stop = cfg.t_end.  It returns (t, attempts, failure, h), with
# failure None or the IntegrationError class to raise with the partial
# trajectory.
_LOOP = """
def loop(store, cfg, ax, ay, az, live, t_stop, h, attempts):
    t_end, h_max, max_steps = cfg.t_end, cfg.h_max, cfg.max_steps
    rtol, guard = cfg.rtol, cfg.positivity_guard
    t_tol, h_min = 1e-13 * max(1.0, t_end), 1e-12 * max(1.0, t_end)
    isfinite, sqrt, inf = math.isfinite, math.sqrt, math.inf
    lookup, ts, us, fs, ds = (store.eval_past, store.ts, store.us, store.fs,
                              store.ds)
    ts_append, us_extend, fs_extend, ds_extend = (
        ts.append, us.extend, fs.extend, ds.extend)
    t0 = ts[-1]
    x0, y0, z0 = us[-3:]
    k1x, k1y, k1z = fs[-3:]
    ia, sa, sb = -1, 0.0, 0.0
    last_reject_positivity = False
    while t_stop - t0 > t_tol:
        if h > t_end - t0:
            h = t_end - t0
        if h < h_min:
            if last_reject_positivity:
                return t0, attempts, PositivityViolation, h
            return t0, attempts, StepSizeUnderflow, h
        if attempts == max_steps:
            return t0, attempts, IntegrationError, h
        attempts += 1
        ATTEMPT
        # weighted rms local-error norm over the live components; a
        # non-finite value or error estimate reads inf
        if (isfinite(x) and isfinite(y) and isfinite(yj)
                and isfinite(ex) and isfinite(ey) and isfinite(ez)):
            ax0, ax1, ay0, ay1, az0, az1 = (abs(x0), abs(x), abs(y0),
                                            abs(y), abs(z0), abs(yj))
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
            if guard and (x <= 0.0 or y <= 0.0 or yj <= 0.0):
                if x0 > 0.0 >= x or y0 > 0.0 >= y:
                    last_reject_positivity = True
                    h *= 0.5
                    continue
                if x < 0.0:
                    x = 0.0
                if y < 0.0:
                    y = 0.0
                if yj < 0.0:
                    yj = 0.0
            last_reject_positivity = False
            if t_end - t1 <= t_tol:
                t1 = t_end
            ts_append(t1)
            us_extend((x, y, yj))
            fs_extend((k7x, k7y, k7z))
            ds_extend((dx, dy, dz))
            t0, x0, y0, z0, k1x, k1y, k1z = t1, x, y, yj, k7x, k7y, k7z
            if enorm == 0.0:
                h *= 5.0
            else:
                factor = 0.9 * enorm ** -0.2
                h *= 0.2 if factor < 0.2 else 5.0 if factor > 5.0 else factor
            if h > h_max:
                h = h_max
        else:
            last_reject_positivity = False
            h *= max(0.1, min(0.5, 0.9 * enorm ** -0.2))
    return t0, attempts, None, h
"""

# the message of each failure the loop returns
_FAILURES = {
    PositivityViolation: "positivity guard kept rejecting steps near t={t:.6g}",
    StepSizeUnderflow: "step size underflow at t={t:.6g}",
    IntegrationError: "exceeded {max_steps} attempts, rejected steps included, "
                      "at t={t:.6g}",
}


def _overlap_step(step, eval_past, t0: float, u0: tuple, f0: tuple,
                  h: float):
    """``step`` for a lag that can land inside the step itself (tau(0) = 0).

    A lag at or before t0 is read from the store; a later one, off the Euler
    line from (t0, x0, y0) on the first pass and off the quartic segment of
    the previous pass after that.  The step is repeated until its result
    stabilizes, at most ``_MAX_OVERLAP_ITERS`` times.  The loop calls it once
    an attempt, so the stages of a run without overlap keep their lag reads
    in the loop's locals.
    """
    x0, y0 = u0[0], u0[1]
    k1x, k1y = f0[0], f0[1]
    seg = None
    overlapped = False

    def lookup(s: float) -> tuple:
        nonlocal overlapped
        if s <= t0:
            return eval_past(s)
        overlapped = True
        if seg is None:
            return (x0 + (s - t0) * k1x, y0 + (s - t0) * k1y)
        return _quartic(seg, s)

    for _ in range(_MAX_OVERLAP_ITERS):
        u1, f1, err, d = step(lookup, t0, u0, f0, h)
        if not overlapped:
            break
        if seg is not None and max(abs(v - w) / max(1.0, abs(v))
                                   for v, w in zip(u1, prev)) <= _OVERLAP_TOL:
            break
        prev = u1
        seg = _segment(t0, h, u0, f0, u1, f1, d)
        overlapped = False
    return u1, f1, err, d


# generated makers by law texts (None: an equation without a model) and
# whether the run's lags can land inside the step
_KERNELS: dict = {}


class _Writer(ast.NodeTransformer):
    """Renames names and writes each law that has a text in place of its call.

    ``names`` maps old names to new; ``laws`` maps a called name to its
    :class:`~preydelay._law.LawText` and the prefix of its constants.
    """

    def __init__(self, names: dict, laws: dict | None = None):
        self.names, self.laws = names, laws or {}

    def visit_Name(self, node):
        node.id = self.names.get(node.id, node.id)
        return node

    def visit_Call(self, node):
        self.generic_visit(node)
        if not (isinstance(node.func, ast.Name) and node.func.id in self.laws):
            return node
        law, prefix = self.laws[node.func.id]
        names = {c: prefix + c for c in law.constants}
        names.update((a, v.id) for a, v in zip(law.args, node.args))
        return _Writer(names).visit(ast.parse(law.text, mode="eval").body)


def _fill(source: str, stage) -> str:
    """``source`` with each slot replaced by the lines ``stage(kx, ky, kz)``."""
    def sub(slot):
        indent, *ks = slot.groups()
        return "\n".join(indent + line for line in stage(*ks))
    return _SLOT.sub(sub, source)


def _kernel(laws, overlap: bool):
    """The compiled maker for ``laws``, cached by their texts and ``overlap``.

    ``laws`` holds the :class:`~preydelay._law.LawText` of f, tau and
    tau_prime (None for a law without one); the maker takes the three laws,
    the model parameters and the law constants and returns rhs_core with its
    stepping loop attached as ``rhs_core.loop``.  With ``laws`` None, the
    maker takes rhs_core and returns the loop, which calls it in every slot.
    With ``overlap`` (tau(0) = 0), the loop calls :func:`_overlap_step` with
    the generated step once an attempt; otherwise the stages are in the loop.
    """
    key = (laws and tuple(law and (law.args, law.text, tuple(law.constants))
                          for law in laws), overlap)
    kernel = _KERNELS.get(key)
    if kernel is not None:
        return kernel
    loop = _place(_LOOP, "ATTEMPT", _OVERLAP_ATTEMPT if overlap else _STAGES)
    step = _STEP if overlap else ""
    if laws is None:
        params, result = ["rhs_core"], "loop"

        def call(*ks):
            return [f"{', '.join(ks)} = rhs_core(t, (x, y, yj), lookup)"]
        source = _fill(step + loop, call)
    else:
        names = {p: "m_" + p for p in _PARAMS}
        texts = {}
        params = ["f", "tau", "tau_prime", *names.values()]
        for (called, prefix), law in zip(_LAW_PREFIXES, laws):
            if law is not None:
                texts[called] = (law, prefix)
                params += [prefix + c for c in law.constants]
        writer = _Writer(names, texts)
        *head, xp, yp, yjp = [writer.visit(s) for s in ast.parse(_RHS).body]
        head = [ast.unparse(s) for s in head]
        rates = [ast.unparse(s.value) for s in (xp, yp, yjp)]
        lag = head.index("lx, ly = lookup(t - tv)")
        cached = [*head[:lag], *_LAG_READ.strip().splitlines(), *head[lag + 1:]]

        def rhs(lines):
            return lambda *ks: [*lines, *(f"{k} = {rate}"
                                          for k, rate in zip(ks, rates))]
        source = (_fill(_RHS_CORE + step, rhs(head)) + _fill(loop, rhs(cached))
                  + "rhs_core.loop = loop\n")
        result = "rhs_core"

    source = (f"def maker({', '.join(params)}):\n    exp = math.exp\n"
              + "".join(f"    {line}\n" if line else "\n"
                        for line in source.splitlines())
              + f"    return {result}\n")
    kernel = _KERNELS[key] = _exec(source, "maker")
    return kernel


def _law_text(fn) -> LawText | None:
    """The text of a law built by :func:`preydelay._law.law`, else None.

    A wrapper that copied the law's attributes (``functools.wraps``) has code
    of its own and is called, not written in.
    """
    text = getattr(fn, "law", None)
    if isinstance(text, LawText) and getattr(fn, "__code__", None) is text.code:
        return text
    return None


def _make_rhs(model: ModelSpec):
    """The model's rhs_core(t, u, lookup), its stepping loop attached."""
    p = model.params
    laws = (model.response.f, model.delay.tau, model.delay.tau_prime)
    texts = tuple(map(_law_text, laws))
    constants = [v for text in texts if text for v in text.constants.values()]
    maker = _kernel(texts, model.delay.tau_m <= 0.0)
    return maker(*laws, p.r, p.K, p.n, p.dj, p.d, *constants)


class Run:
    """One integration on one solution store, advanced a window at a time.

    ``advance(t)`` steps on to the first accepted node at or past t (or to
    cfg.t_end), and a run advanced to cfg.t_end in any number of windows
    takes the same steps, with the same bits and attempt count, as one
    advanced there at once; ``max_steps`` counts across windows.  Between
    windows a caller reads the run off the store's flat buffers
    (``store.ts``, ``store.us``, three floats a node) and must hold no view
    on them, which would stop them from growing.  ``trajectory()`` reads the
    buffers once the run is over (its NumPy views, once built, are such
    views); ``trajectory(copy=True)`` reads copies of them, so that the run
    can go on.  The trajectory holds the first ``live`` components only.
    """

    __slots__ = ("rhs_core", "store", "cfg", "atol", "live", "h", "attempts")

    def __init__(self, rhs_core, history_eval, u0: tuple, cfg: StepperConfig,
                 tau_M: float, live: int):
        store = _SolutionStore(history_eval, tau_M)
        f0 = rhs_core(0.0, u0, store.eval_past)
        store.ts.append(0.0)
        store.us.extend(u0)
        store.fs.extend(f0)
        self.rhs_core, self.store, self.cfg, self.live = rhs_core, store, cfg, live
        self.atol = cfg.atol_vector(live) + (1.0,) * (3 - live)
        self.h = min(cfg.h_init, cfg.h_max, cfg.t_end)
        self.attempts = 0

    def advance(self, t_stop: float) -> bool:
        """Step on to t_stop (at most cfg.t_end); True once the run is over.

        Raises the loop's :class:`IntegrationError`, with the partial
        trajectory attached, if the stepper cannot proceed.
        """
        cfg = self.cfg
        t, self.attempts, failure, self.h = self.rhs_core.loop(
            self.store, cfg, *self.atol, self.live, min(t_stop, cfg.t_end),
            self.h, self.attempts)
        if failure is not None:
            raise failure(_FAILURES[failure].format(t=t, max_steps=cfg.max_steps),
                          trajectory=self.trajectory())
        return t == cfg.t_end

    def trajectory(self, copy: bool = False) -> Trajectory:
        """The run so far: on the store's buffers, or on copies of them."""
        store = self.store
        buffers = (store.ts, store.us, store.fs, store.ds)
        if copy:
            buffers = [buf[:] for buf in buffers]
        return Trajectory(*buffers, len(store.ts), self.live, store.history,
                          store.tau_M, self.attempts)


# --------------------------------------------------------------------------
# public integrators


def _check_step_cap(cfg: StepperConfig, tau_m: float) -> None:
    # a step that reaches tau_m would read its own lags off the Euler line
    if tau_m > 0.0 and not cfg.h_max < tau_m:
        raise ValueError(
            f"h_max={cfg.h_max:g} must be below tau(0)={tau_m:g}; "
            f"use default_stepper() for a compliant config")


def start_run(model: ModelSpec, history: HistoryFunction,
              cfg: StepperConfig) -> Run:
    """The :class:`Run` that :func:`integrate` advances to cfg.t_end, with
    the same checks and warnings, not yet advanced."""
    _check_step_cap(cfg, model.delay.tau_m)
    history.check_nonnegative(model.delay.tau_M)
    warn_if_inconsistent(model, history)
    return _model_run(model, history, cfg)


def integrate(model: ModelSpec, history: HistoryFunction,
              cfg: StepperConfig) -> Trajectory:
    """Integrate the three-component system from its history up to cfg.t_end.

    Requires cfg.h_max < tau(0) whenever tau(0) > 0 (see the module note).
    Raises :class:`StepSizeUnderflow` / :class:`PositivityViolation` with the
    partial trajectory attached if the stepper cannot proceed.
    """
    # start_run's checks, here so that the warning names this one's caller
    _check_step_cap(cfg, model.delay.tau_m)
    history.check_nonnegative(model.delay.tau_M)
    warn_if_inconsistent(model, history)
    run = _model_run(model, history, cfg)
    run.advance(cfg.t_end)
    return run.trajectory()


def _model_run(model: ModelSpec, history: HistoryFunction,
               cfg: StepperConfig) -> Run:
    phi1, phi2, phi3 = history.phi1, history.phi2, history.phi3

    def history_eval(s: float) -> tuple:
        return (float(phi1(s)), float(phi3(s)), float(phi2(s)))

    return Run(_make_rhs(model), history_eval, history.state0(), cfg,
               model.delay.tau_M, live=3)


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

    rhs_core.loop = _kernel(None, tau_m <= 0.0)(rhs_core)

    def history_eval(s: float) -> tuple:
        return (float(history_fn(s)),)

    run = Run(rhs_core, history_eval, (float(history_fn(0.0)), 0.0, 0.0), cfg,
              tau_M, live=1)
    run.advance(cfg.t_end)
    return run.trajectory()


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
    A file of one block reads the trajectory in Python (``Trajectory._rows``,
    no NumPy); a longer one reads it through :meth:`Trajectory.sample`, and
    from ``_CSV_FORK_MIN_BLOCKS`` blocks on builds the blocks on every usable
    CPU through :func:`preydelay._forkmap.fork_map`.  The bytes are the same.
    """
    if stride <= 0.0:
        raise ValueError("stride must be positive")
    n_rows = int(math.floor(traj.t_end / stride + 1e-9)) + 1
    # the last row falls short of t_end: add a row at t_end itself
    short = (n_rows - 1) * stride < traj.t_end - 1e-9 * max(1.0, traj.t_end)
    tau = model.delay.tau
    if n_rows <= _CSV_BLOCK:
        read = traj._rows
    else:
        def read(times):
            return traj.sample(times).tolist()

    def block(start: int) -> str:
        stop = min(start + _CSV_BLOCK, n_rows)
        times = [i * stride for i in range(start, stop)]
        if short and stop == n_rows:
            times.append(traj.t_end)
        now = read(times)
        taus = [tau(max(y, 0.0)) for _, y, _ in now]
        lags = [t - tau_t for t, tau_t in zip(times, taus)]
        lagged = read(lags)
        lines = []
        for t, (x, y, yj), tau_t, s, (x_lag, y_lag, _) in zip(
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
