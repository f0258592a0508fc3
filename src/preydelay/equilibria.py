"""Steady states: extinction equilibria and the coexistence point.

The coexistence equilibrium solves

    r (1 - x*/K) = f(x*, y*) y* / x*          (prey balance)
    n exp(-dj tau(y*)) f(x*, y*) = d          (predator balance)

with the delay entering transcendentally through tau(y*).  For the
Beddington-DeAngelis response the frozen-delay problem reduces to a quadratic
in x*, used as a candidate generator; every returned equilibrium is verified
against the residuals and polished by a Newton solve of the full system.
Existence is equivalent to the reproduction number exceeding one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModelSpec, boundedness_limit, reproduction_number
from .responses import ResponseKind

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


def _bd_candidate(model: ModelSpec, tau: float) -> tuple[float, float] | None:
    """Frozen-delay closed form for the Beddington-DeAngelis response.

    Eliminating y* turns the prey balance into x^2 + alpha x - beta = 0 with

        alpha = K (n b e - d k1) / (r n e k2) - K,   beta = K d / (n r k2 e),

    e = exp(-dj tau).  Returns None when no admissible root exists (k2 = 0
    falls back to the general solver).
    """
    p = model.params
    c = model.response.coefficients
    b, k1, k2 = c["b"], c["k1"], c["k2"]
    if k2 <= 0.0:
        return None
    e = model.survival(tau)
    denom = p.r * p.n * e * k2
    alpha = p.K * (p.n * b * e - p.d * k1) / denom - p.K
    beta = p.K * p.d / denom
    x = 0.5 * (-alpha + math.sqrt(alpha * alpha + 4.0 * beta))
    y = ((p.n * b * e - p.d * k1) * x - p.d) / (p.d * k2)
    if not (0.0 < x < p.K and y > 0.0):
        return None
    return (x, y)


def _frozen_solve(model: ModelSpec, tau: float, y_hi: float) -> tuple[float, float] | None:
    """Solve the steady-state pair with the delay frozen at tau.

    BD uses the quadratic candidate; other responses root-find on y, inverting
    the predator balance for x at each y (f is increasing in x and
    nonincreasing in y, so the inversion is monotone).
    """
    if model.response.kind == ResponseKind.BEDDINGTON_DEANGELIS:
        cand = _bd_candidate(model, tau)
        if cand is not None:
            return cand
    p = model.params
    f = model.response.f
    target = p.d / (p.n * model.survival(tau))
    if f(p.K, 0.0) <= target:
        return None

    x_big = 1e9 * p.K

    def x_of_y(y: float) -> float | None:
        g = lambda x: f(x, y) - target
        if g(x_big) <= 0.0:
            return None
        if g(0.0) >= 0.0:
            return 0.0
        return _bracketed_root(g, 0.0, x_big, xtol=1e-15, rtol=8.9e-16)

    def prey_balance(y: float) -> float:
        x = x_of_y(y)
        if x is None:
            return -math.inf  # predation cannot balance: treat as overshoot
        return p.r * x * (1.0 - x / p.K) - target * y

    # prey production caps at r K / 4, so y <= r K / (4 target) at any root
    y_top = max(y_hi, p.r * p.K / (4.0 * target) + 1.0)
    lo, hi = 0.0, None
    if prey_balance(0.0) <= 0.0:
        return None
    # expand/scan for a sign change
    ys = np.linspace(0.0, y_top, 65)
    for yv in ys[1:]:
        if prey_balance(float(yv)) <= 0.0:
            hi = float(yv)
            break
        lo = float(yv)
    if hi is None:
        return None
    y = _bracketed_root(prey_balance, lo, hi, xtol=1e-15, rtol=1e-15)
    x = x_of_y(y)
    if x is None or x <= 0.0:
        return None
    return (x, y)


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


def solve_coexistence(model: ModelSpec, max_outer: int = 200) -> Equilibrium | None:
    """Coexistence equilibrium, or None when the reproduction number is <= 1.

    Outer damped fixed-point iteration on y* (the delay argument) around the
    frozen-delay solve, with a bracketed-root fallback, then a Newton polish
    of the full system.  Raises :class:`NoConvergenceError` if the iteration
    stalls.
    """
    R = reproduction_number(model)
    if R <= 1.0:
        return None
    y_cap = boundedness_limit(model)

    def frozen(y: float) -> tuple[float, float] | None:
        return _frozen_solve(model, model.delay.tau(max(y, 0.0)), y_cap)

    sol = frozen(0.0)
    if sol is None:
        # R > 1 guarantees the frozen problem at tau(0) is solvable; reaching
        # here means numerical failure of the inner solve
        raise NoConvergenceError("inner frozen-delay solve failed at tau(0)",
                                 (math.nan, math.nan), math.inf)
    y = sol[1]
    converged = False
    if model.delay.is_constant:
        x, y = sol
        converged = True
    else:
        for _ in range(max_outer):
            nxt = frozen(y)
            if nxt is None:
                y *= 0.5
                continue
            x, y_new = nxt
            if abs(y_new - y) <= 1e-13 * max(1.0, abs(y_new)):
                y = y_new
                converged = True
                break
            y = 0.5 * y + 0.5 * y_new
        if not converged:
            # bracketed-root fallback on g(y) = y - Y(tau(y))
            def g(yv: float) -> float:
                s = frozen(yv)
                return yv - (s[1] if s is not None else 0.0)

            if g(0.0) < 0.0 <= g(y_cap):
                y = _bracketed_root(g, 0.0, y_cap, xtol=1e-15, rtol=8.9e-16)
                s = frozen(y)
                if s is not None:
                    x, y = s
                    converged = True
        if not converged:
            raise NoConvergenceError(
                f"outer iteration on y* did not converge within {max_outer} steps",
                (float("nan"), y), steady_state_residual(model, 0.0, y))

    x, y = _newton_polish(model, x, y)
    residual = steady_state_residual(model, x, y)
    if residual > _RESIDUAL_TOL:
        raise NoConvergenceError(
            f"coexistence residual {residual:.3g} above {_RESIDUAL_TOL:g}",
            (x, y), residual)
    return Equilibrium(EquilibriumKind.COEXISTENCE, x, y,
                       yj_star(model, x, y), model.delay.tau(y), residual)
