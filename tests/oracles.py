"""Independent oracles used by the test suite.

Everything here is deliberately written from scratch against the model's
defining equations, without touching the library's integrator, resolvent, or
solver internals, so agreement is meaningful.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import optimize
from scipy.integrate import quad


def implicit_rate_solution(tau_prime: float, d: float, y: float,
                           N: float) -> float:
    """Solve y' = (1 - tau_prime * y') * N - d * y for y' by scalar Newton.

    Independent route to the engine's closed-form resolution of the delayed
    derivative term; the equation is linear so Newton lands in one step, but
    the iteration is kept generic on purpose.
    """
    yp = N - d * y
    for _ in range(60):
        g = yp - (1.0 - tau_prime * yp) * N + d * y
        gp = 1.0 + tau_prime * N
        step = g / gp
        yp -= step
        if abs(step) <= 1e-15 * max(1.0, abs(yp)):
            break
    return yp


def quartic_has_positive_root(Q1: float, Q2: float, Q3: float,
                              Q4: float) -> bool:
    """Companion-matrix root oracle for v^4 + Q1 v^3 + Q2 v^2 + Q3 v + Q4."""
    roots = np.roots([1.0, Q1, Q2, Q3, Q4])
    return bool(any(abs(z.imag) <= 1e-8 * (1.0 + abs(z)) and z.real > 1e-9
                    for z in roots))


def coexistence_point(f, tau, r, K, n, dj, d, pieces=None):
    """Coexistence point of the full steady-state system, delay included.

    Solves r (1 - x/K) = f(x, y) y / x and n exp(-dj tau(y)) f(x, y) = d in
    the variables (log x, log y), which keep both densities positive, by
    scipy's hybrid Powell method from the best point of a grid scan.  The
    scan covers 0 < x < K and 0 < y <= r K n / (4 d): the predator balance
    forces f >= d / n, and the prey balance then caps y at (r K / 4) / f.

    A response with kinks in x, where Powell's finite-difference Jacobian
    does not converge, is passed as ``pieces``: (g, lo, hi) triples with g
    smooth and equal to f for lo <= x <= hi.  Each piece is solved with g in
    place of f, and the root that lies in its own piece is returned.
    """
    y_top = r * K * n / (4.0 * d)
    starts = [(math.log(x0), math.log(y0))
              for x0 in K * np.linspace(0.005, 0.999, 40)
              for y0 in np.geomspace(1e-6 * y_top, y_top, 40)]

    def balances(g):
        def eqs(v):
            x, y = math.exp(v[0]), math.exp(v[1])
            gv = g(x, y)
            return [r * (1.0 - x / K) - gv * y / x,
                    n * math.exp(-dj * tau(y)) * gv - d]
        return eqs

    def solve(g, lo, hi):
        # Powell from the best scan point inside the piece; None when it has
        # no scan point, or Powell leaves the range of the floats
        eqs = balances(g)
        inside = [v for v in starts if lo <= math.exp(v[0]) <= hi]
        if not inside:
            return None
        start = min(inside, key=lambda v: max(abs(e) / s for e, s in
                                              zip(eqs(v), (r, d))))
        try:
            return optimize.root(eqs, start, tol=1e-14).x
        except ArithmeticError:
            return None

    roots = []
    for g, lo, hi in pieces or [(f, 0.0, math.inf)]:
        v = solve(g, lo, hi)
        if v is not None and lo <= math.exp(v[0]) <= hi:
            roots.append(v)
    assert roots, "no piece holds its own root"
    eqs = balances(f)
    v = min(roots, key=lambda v: max(abs(e) for e in eqs(v)))
    resid = max(abs(e) for e in eqs(v))
    assert resid < 1e-12, f"oracle residual {resid}"
    return math.exp(v[0]), math.exp(v[1])


def steady_recruitment_integral(n, dj, f_star, y_star, tau):
    """Adaptive quadrature of the frozen-state recruitment integral."""
    val, _ = quad(lambda u: n * f_star * y_star * math.exp(-dj * u),
                  0.0, tau, epsabs=0.0, epsrel=1e-13)
    return val


class RK4StepsOracle:
    """Fixed-step classical RK4 method of steps for a delay tau(y).

    State and derivative are stored on the uniform grid; lagged values at
    t - tau(y(t)) are read back with cubic Hermite interpolation between grid
    nodes, whose error at h = 1e-3 is far below the comparison tolerance.
    The right-hand side is written out in full here, independent of the
    engine: the mature equation stays in the paper's implicit form
    y' = (1 - tau'(y) y') N - d y, solved per stage by
    :func:`implicit_rate_solution`, and the juvenile loss is the same
    (1 - tau'(y) y') N.  A number ``tau`` with no ``tau_prime`` is a constant
    delay, the tau' = 0 case.
    """

    def __init__(self, r, K, n, dj, d, f, tau, history, t_end, h,
                 tau_prime=None):
        if tau_prime is None:
            tau_c = float(tau)
            tau, tau_prime = (lambda y: tau_c), (lambda y: 0.0)
        self.h = h
        nsteps = int(round(t_end / h))
        self.t_end = nsteps * h
        us = np.empty((nsteps + 1, 3))
        fs = np.empty((nsteps + 1, 3))
        us[0] = history(0.0)
        front = 0.0  # the last completed node

        def lagged(s):
            if s <= 0.0:
                v = history(s)
                return v[0], v[1]
            assert s <= front, "stage lags must land in completed nodes"
            i = min(int(s / h), nsteps - 1)
            th = (s - i * h) / h
            th2, th3 = th * th, th * th * th
            a = 2 * th3 - 3 * th2 + 1
            bb = (th3 - 2 * th2 + th) * h
            c = -2 * th3 + 3 * th2
            e = (th3 - th2) * h
            u0, u1 = us[i].tolist(), us[i + 1].tolist()
            g0, g1 = fs[i].tolist(), fs[i + 1].tolist()
            return (a * u0[0] + bb * g0[0] + c * u1[0] + e * g1[0],
                    a * u0[1] + bb * g0[1] + c * u1[1] + e * g1[1])

        def rhs(t, u):
            x, y, yj = u.tolist()
            xc = max(x, 0.0)
            yc = max(y, 0.0)
            tv = tau(yc)
            xl, yl = lagged(t - tv)
            yl = max(yl, 0.0)
            N = n * math.exp(-dj * tv) * f(max(xl, 0.0), yl) * yl
            tp = tau_prime(yc)
            yp = implicit_rate_solution(tp, d, y, N)
            fxy = f(xc, yc)
            return np.array([r * x * (1.0 - x / K) - fxy * y,
                             yp,
                             n * fxy * y - dj * yj - (1.0 - tp * yp) * N])

        fs[0] = rhs(0.0, us[0])
        for i in range(nsteps):
            t = i * h
            front = t
            u = us[i]
            k1 = rhs(t, u)
            k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2)
            k4 = rhs(t + h, u + h * k3)
            us[i + 1] = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            fs[i + 1] = rhs(t + h, us[i + 1])
        self.us = us
        self.fs = fs

    def at(self, t: float) -> np.ndarray:
        i = int(round(t / self.h))
        assert abs(i * self.h - t) < 1e-9, "query fixed-step oracle on its grid"
        return self.us[i]


def cheb_collocation_abscissa(A, B, C, D, eta, d, tau, n_nodes=48):
    """Rightmost eigenvalue of the linearized delayed system by Chebyshev
    collocation of the solution operator's generator on [-tau, 0].

    Independent cross-check of the winding-count root finder: the largest
    real part over :func:`cheb_collocation_eigenvalues`.
    """
    return float(np.max(cheb_collocation_eigenvalues(
        A, B, C, D, eta, d, tau, n_nodes).real))


def cheb_collocation_eigenvalues(A, B, C, D, eta, d, tau, n_nodes=48):
    """The pseudospectral eigenvalues of u'(t) = L0 u(t) + L1 u(t - tau)
    (accurate for the dominant roots)."""
    L0 = np.array([[A, -B], [0.0, eta - d]])
    L1 = np.array([[0.0, 0.0], [C, D]])
    m = 2
    Nn = n_nodes
    # Chebyshev points on [-tau, 0] and differentiation matrix
    k = np.arange(Nn + 1)
    xx = np.cos(np.pi * k / Nn)
    xx = tau * (xx - 1.0) / 2.0
    c = np.hstack([2.0, np.ones(Nn - 1), 2.0]) * (-1.0) ** k
    X = np.tile(xx, (Nn + 1, 1)).T
    dX = X - X.T
    Dm = np.outer(c, 1.0 / c) / (dX + np.eye(Nn + 1))
    Dm -= np.diag(Dm.sum(axis=1))
    # block operator: first block row applies L0 at 0 and L1 at -tau,
    # remaining rows enforce transport via differentiation
    An = np.kron(Dm, np.eye(m))
    An[:m, :] = 0.0
    An[:m, :m] = L0
    An[:m, -m:] = L1
    return np.linalg.eigvals(An)
