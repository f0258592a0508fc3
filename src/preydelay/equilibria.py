"""Steady states: extinction equilibria and the coexistence point.

The coexistence equilibrium solves

    r (1 - x*/K) = f(x*, y*) y* / x*          (prey balance)
    n exp(-dj tau(y*)) f(x*, y*) = d          (predator balance)

with the delay entering transcendentally through tau(y*).  One algorithm
serves every response and delay law: the predator balance is inverted for x
along the nullcline x(y), which leaves the prey balance a scalar function of
y; its first sign change on a scan is bracketed and solved, and the point is
polished by a Newton solve of the full system and checked against the
residuals.  Existence is equivalent to the reproduction number exceeding one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .model import ModelSpec, boundedness_limit, reproduction_number

__all__ = [
    "Equilibrium",
    "EquilibriumKind",
    "NoConvergenceError",
    "WindingError",
    "boundary_equilibria",
    "solve_coexistence",
    "yj_star",
    "steady_state_residual",
]

_RESIDUAL_TOL = 1e-10


class EquilibriumKind:
    TRIVIAL = "trivial"
    PREDATOR_EXTINCTION = "predator_extinction"
    COEXISTENCE = "coexistence"


class NoConvergenceError(RuntimeError):
    """A steady-state solve stalled, or its point is too inexact to use.

    Carries the last iterate (x, y) and its residual.
    """

    def __init__(self, message: str, last_iterate: tuple[float, float],
                 residual: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class WindingError(RuntimeError):
    """The contour count stayed unstable after repeated perturbations.

    Raised by :func:`preydelay.stability.rightmost_abscissa`; it lives here,
    next to :class:`NoConvergenceError`, so that callers can catch it without
    importing the stability module.
    """


@dataclass(frozen=True)
class Equilibrium:
    kind: str
    x_star: float
    y_star: float
    yj_star: float
    tau_star: float
    residual: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x_star, self.y_star, self.yj_star)


def _balances(model: ModelSpec, x: float, y: float) -> tuple[float, float]:
    """(prey balance, predator balance) at x > 0, y >= 0; zero at a steady state."""
    p = model.params
    f = model.response.f(x, y)
    return (p.r * (1.0 - x / p.K) - f * y / x,
            model.maturation_gain(model.delay.tau(y), x, y) - p.d)


def _balance_jacobian(model: ModelSpec, x: float, y: float):
    """Analytic Jacobian of :func:`_balances` with respect to (x, y), row by row."""
    p = model.params
    resp = model.response
    f, fx, fy = resp.f(x, y), resp.f_x(x, y), resp.f_y(x, y)
    ne = p.n * model.survival(model.delay.tau(y))
    return ((-p.r / p.K - (fx * y / x - f * y / (x * x)), -(fy * y + f) / x),
            (ne * fx, ne * (fy - p.dj * model.delay.tau_prime(y) * f)))


def steady_state_residual(model: ModelSpec, x: float, y: float) -> float:
    """Max absolute residual of the two steady-state equations at (x, y)."""
    if x <= 0.0:
        return 0.0 if y == 0.0 else math.inf
    r1, r2 = _balances(model, x, y)
    if y == 0.0:
        r2 = 0.0  # predator equation holds trivially on the boundary
    return max(abs(r1), abs(r2))


def _bracketed_root(g: Callable[[float], float], lo: float, hi: float,
                    xtol: float, rtol: float) -> float:
    """Root of g in [lo, hi] by Brent's method; g(lo) and g(hi) must differ in sign.

    Inverse quadratic or secant steps are taken while they shrink the
    bracket fast enough, bisection otherwise (Brent 1973, ch. 4), so the
    bracket always contains a sign change and the iteration stops once it is
    narrower than xtol + rtol |root|.  Infinite values of g are tolerated;
    they force bisection steps.
    """
    a, b = lo, hi
    fa, fb = g(a), g(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise ValueError(f"g has the same sign at both ends of [{lo:.6g}, {hi:.6g}]")
    c, fc = a, fa           # contrapoint: g(b) and g(c) differ in sign
    step = prev_step = b - a
    for _ in range(400):
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):   # keep b the best estimate
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * (xtol + rtol * abs(b))
        half = 0.5 * (c - b)
        if fb == 0.0 or abs(half) < tol:
            return b
        bisect = True
        if abs(prev_step) > tol and abs(fb) < abs(fa):
            if a == c:          # secant
                trial = -fb * (b - a) / (fb - fa)
            else:               # inverse quadratic interpolation
                da, dc = (fa - fb) / (a - b), (fc - fb) / (c - b)
                trial = -fb * (fc * dc - fa * da) / (da * dc * (fc - fa))
            if 2.0 * abs(trial) < min(abs(prev_step), 3.0 * abs(half) - tol):
                prev_step, step = step, trial
                bisect = False
        if bisect:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = g(b)
    raise NoConvergenceError(
        f"bracketed root search stalled at {b!r} after 400 steps",
        (math.nan, math.nan), abs(fb))


def boundary_equilibria(model: ModelSpec) -> list[Equilibrium]:
    """The two predator-free steady states: the origin and (K, 0, 0)."""
    tau0 = model.delay.tau(0.0)
    return [
        Equilibrium(EquilibriumKind.TRIVIAL, 0.0, 0.0, 0.0, tau0, 0.0),
        Equilibrium(EquilibriumKind.PREDATOR_EXTINCTION, model.params.K, 0.0,
                    0.0, tau0, 0.0),
    ]


def yj_star(model: ModelSpec, x_star: float, y_star: float) -> float:
    """Juvenile stock at a coexistence point, in closed form.

    Equals the survival-discounted recruitment integral over one maturation
    period at the frozen state: n f(x*, y*) y* (1 - exp(-dj tau*)) / dj,
    with the dj -> 0 limit n f y* tau*.
    """
    p = model.params
    tau = model.delay.tau(y_star)
    recruit = model.birth_flux(x_star, y_star)
    a = p.dj * tau
    if a < 1e-12:
        return recruit * tau
    return recruit * (-math.expm1(-a)) / p.dj


def _newton_polish(model: ModelSpec, x: float, y: float) -> tuple[float, float]:
    """Newton iteration on the full system (delay dependence included).

    Stops when a step no longer lowers the steady-state residual or leaves
    the positive quadrant, and returns the best positive iterate: the
    starting point unless the polish improves on it.
    """
    best = (steady_state_residual(model, x, y), x, y)
    for _ in range(20):
        (a, b), (c, d) = _balance_jacobian(model, x, y)
        r1, r2 = _balances(model, x, y)
        det = a * d - b * c
        if det == 0.0:
            break
        dx, dy = (r1 * d - b * r2) / det, (a * r2 - c * r1) / det
        x, y = x - dx, y - dy
        if not (x > 0.0 and y > 0.0):
            break
        res = steady_state_residual(model, x, y)
        if not res <= best[0]:
            break
        best = (res, x, y)
        if abs(dx) <= 1e-15 * x and abs(dy) <= 1e-15 * y:
            break
    return best[1], best[2]


def _plateau_point(model: ModelSpec, lo: float, hi: float,
                   x_big: float) -> tuple[float, float] | None:
    """Candidate coexistence point where the predator nullcline ends in (lo, hi].

    The nullcline ends at the y_p where the predator balance's target meets
    f(x_big, y_p), the most f(., y_p) can give.  If f is flat at that level
    for large x (Holling I: f = a b for x >= b), each such x balances the
    predator, and the prey balance r x (1 - x/K) = f y_p fixes x at the
    larger root of that quadratic; it lies on the plateau when the prey
    balance is still positive where the plateau starts.  None when the
    quadratic has no real root.  The caller's residual check rejects the
    candidate when f has no plateau there.
    """
    p = model.params
    y = _bracketed_root(
        lambda yv: model.maturation_gain(model.delay.tau(yv), x_big, yv) - p.d,
        lo, hi, xtol=1e-15, rtol=8.9e-16)
    disc = 1.0 - 4.0 * model.response.f(x_big, y) * y / (p.r * p.K)
    if disc < 0.0:
        return None
    return 0.5 * p.K * (1.0 + math.sqrt(disc)), y


def _scan_points(y_top: float) -> list[float]:
    """The 64 nonzero points of a uniform 65-point grid on [0, y_top]: the
    values of ``numpy.linspace(0, y_top, 65)[1:]``, without numpy."""
    return [i * (y_top / 64) for i in range(1, 64)] + [y_top]


def solve_coexistence(model: ModelSpec) -> Equilibrium | None:
    """Coexistence equilibrium, or None when the reproduction number is <= 1.

    For each y, the predator balance maturation_gain(tau(y), x, y) = d is
    inverted for x, which traces the nullcline x(y).  Along it the prey
    balance P(y) = r x (1 - x/K) - f(x, y) y is a function of y alone, and
    -inf where the nullcline ends.  R > 1 makes P(0) > 0.  At a root,
    f = d / (n exp(-dj tau(y))) is at least its value at y = 0, so
    y <= r K / (4 f) bounds the scan.  The first sign change of P on 65
    points of [0, y_top] is bracketed and solved, and a Newton solve of the
    full system polishes the point.  When that point misses the residual
    bound because the nullcline ends inside the bracket with P still
    positive, the point on the plateau of f where it ends is taken instead
    (see :func:`_plateau_point`).

    Raises :class:`NoConvergenceError` when P(0) <= 0 or the scan finds no
    sign change (only for a response or delay outside the model's
    hypotheses), or when the polished residual exceeds 1e-10.
    """
    R = reproduction_number(model)
    if R <= 1.0:
        return None
    p = model.params
    x_big = 1e9 * p.K

    def nullcline(y: float) -> float | None:
        tau = model.delay.tau(y)
        g = lambda x: model.maturation_gain(tau, x, y) - p.d
        if g(x_big) <= 0.0:
            return None
        return _bracketed_root(g, 0.0, x_big, xtol=1e-15, rtol=8.9e-16)

    def prey_balance(y: float) -> float:
        x = nullcline(y)
        if x is None:
            return -math.inf
        return p.r * x * (1.0 - x / p.K) - model.response.f(x, y) * y

    f_min = p.d / (p.n * model.survival(model.delay.tau(0.0)))
    y_top = max(boundedness_limit(model), p.r * p.K / (4.0 * f_min) + 1.0)
    lo, hi = 0.0, None
    if prey_balance(0.0) > 0.0:
        for yv in _scan_points(y_top):
            if prey_balance(yv) <= 0.0:
                hi = yv
                break
            lo = yv
    if hi is None:
        raise NoConvergenceError(
            f"prey balance along the predator nullcline has no sign change on "
            f"[0, {y_top:.6g}] (R = {R:.6g})", (math.nan, lo), math.inf)
    y = _bracketed_root(prey_balance, lo, hi, xtol=1e-15, rtol=1e-15)
    x, y = _newton_polish(model, nullcline(y), y)
    residual = steady_state_residual(model, x, y)
    if residual > _RESIDUAL_TOL and nullcline(hi) is None:
        plateau = _plateau_point(model, lo, hi, x_big)
        if plateau is not None:
            x, y = _newton_polish(model, *plateau)
            residual = steady_state_residual(model, x, y)
    if residual > _RESIDUAL_TOL:
        raise NoConvergenceError(
            f"coexistence residual {residual:.3g} above {_RESIDUAL_TOL:g}",
            (x, y), residual)
    return Equilibrium(EquilibriumKind.COEXISTENCE, x, y,
                       yj_star(model, x, y), model.delay.tau(y), residual)
