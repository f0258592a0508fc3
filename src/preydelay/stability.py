"""Linearized stability: characteristic quasi-polynomial and classifiers.

Freezing the delay at an equilibrium (x*, y*) gives the linear system

    x'(t) = A x(t) - B y(t)
    y'(t) = C x(t - tau*) + (eta - d) y(t) + D y(t - tau*)

whose spectrum solves G(lambda) = lambda^2 + H1 lambda + H2
+ (N1 lambda + N2) exp(-lambda tau*) = 0 with H1 = d - eta - A,
H2 = A (eta - d), N1 = -D, N2 = A D + B C.  A purely imaginary root
i omega needs omega^2 to be a positive root of a quadratic.  The rightmost
spectral abscissa is the larger of two real roots in closed form where the
linearization is triangular (C = eta = 0), and is located numerically
elsewhere, by argument-principle winding counts on subdivided rectangles
with Newton refinement.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .equilibria import (_RESIDUAL_TOL, CrossCheckError, Equilibrium,
                         EquilibriumKind, NoConvergenceError, WindingError,
                         _bracketed_root)
from .model import ModelSpec, reproduction_number
from .responses import ResponseKind

__all__ = [
    "LinearizationCoeffs",
    "QuasiPolynomial",
    "StabilityVerdict",
    "ConditionReport",
    "Verdict",
    "WindingError",
    "CrossCheckError",
    "linearize_at",
    "quasi_polynomial",
    "characteristic_eval",
    "rightmost_abscissa",
    "rightmost_abscissae",
    "imaginary_crossings",
    "spectral_abscissae",
    "classify_equilibrium",
    "check_global_conditions",
]


class Verdict:
    UNSTABLE = "unstable"
    NEUTRALLY_STABLE = "neutrally_stable"
    STABLE = "locally_asymptotically_stable"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class LinearizationCoeffs:
    """Coefficients of the frozen-delay linearization at an equilibrium."""

    A: float
    B: float
    C: float
    D: float
    eta: float
    tau_star: float


@dataclass(frozen=True)
class QuasiPolynomial:
    """G(lambda) = lambda^2 + H1 lambda + H2 + (N1 lambda + N2) e^(-lambda tau)."""

    H1: float
    H2: float
    N1: float
    N2: float
    tau: float


def linearize_at(model: ModelSpec, eq: Equilibrium) -> LinearizationCoeffs:
    """Linearization coefficients at a steady state with residual <= 1e-10.

    Raises :class:`NoConvergenceError` for a larger residual: the point was
    not solved accurately enough to linearize at.
    """
    if eq.residual > _RESIDUAL_TOL:
        raise NoConvergenceError(
            f"equilibrium residual {eq.residual:.3g} too large to linearize at",
            (eq.x_star, eq.y_star), eq.residual)
    p = model.params
    x, y = eq.x_star, eq.y_star
    f = model.response.f(x, y)
    fx = model.response.f_x(x, y)
    fy = model.response.f_y(x, y)
    tau = model.delay.tau(y)
    tp = model.delay.tau_prime(y)
    ne = p.n * model.survival(tau)
    return LinearizationCoeffs(
        A=p.r - 2.0 * p.r * x / p.K - fx * y,
        B=f + fy * y,
        C=ne * fx * y,
        D=ne * (f + fy * y),
        eta=ne * tp * f * y * (p.d - p.dj),
        tau_star=tau,
    )


def quasi_polynomial(model: ModelSpec, coeffs: LinearizationCoeffs) -> QuasiPolynomial:
    return _quasi_polynomial(model.params.d, coeffs)


def _quasi_polynomial(d: float, coeffs: LinearizationCoeffs) -> QuasiPolynomial:
    return QuasiPolynomial(
        H1=d - coeffs.eta - coeffs.A,
        H2=coeffs.A * (coeffs.eta - d),
        N1=-coeffs.D,
        N2=coeffs.A * coeffs.D + coeffs.B * coeffs.C,
        tau=coeffs.tau_star,
    )


def characteristic_eval(qp: QuasiPolynomial, lam: complex) -> complex:
    return (lam * lam + qp.H1 * lam + qp.H2
            + (qp.N1 * lam + qp.N2) * cmath.exp(-lam * qp.tau))


# --------------------------------------------------------------------------
# imaginary-axis crossings


def imaginary_crossings(qp: QuasiPolynomial) -> tuple[float, ...]:
    """Frequencies omega > 0, largest first, at which i omega can be a root.

    G(i omega) = 0 needs |P(i omega)| = |Q(i omega)| for P(lambda) =
    lambda^2 + H1 lambda + H2 and Q(lambda) = N1 lambda + N2, that is
    v^2 + B1 v + B2 = 0 in v = omega^2 with B1 = H1^2 - 2 H2 - N1^2 and
    B2 = H2^2 - N2^2.  The root of larger modulus is taken where its two
    terms do not cancel and the other as B2 over it; each positive root v
    gives omega = sqrt(v).  Both roots are positive only for B1 < 0, where
    the larger-modulus root is the larger one.
    """
    B1 = qp.H1 * qp.H1 - 2.0 * qp.H2 - qp.N1 * qp.N1
    B2 = qp.H2 * qp.H2 - qp.N2 * qp.N2
    disc = B1 * B1 - 4.0 * B2
    if disc < 0.0:
        return ()
    big = -0.5 * (B1 + math.copysign(math.sqrt(disc), B1))
    if big == 0.0:  # B1 = B2 = 0: the double root v = 0
        return ()
    return tuple(math.sqrt(v) for v in (big, B2 / big) if v > 0.0)


# --------------------------------------------------------------------------
# rightmost spectral abscissa by argument-principle winding


def _default_box(qp: QuasiPolynomial) -> tuple[float, float, float, float]:
    a0 = abs(qp.H1) + abs(qp.N1)
    b0 = abs(qp.H2) + abs(qp.N2)
    bound0 = 0.5 * (a0 + math.sqrt(a0 * a0 + 4.0 * b0))
    re_max = max(1.0, bound0)
    re_min = -(1.0 + a0 + math.sqrt(b0) + 1.0 / max(qp.tau, 0.1))
    if qp.tau > 0.0:
        # past e^709 the bound below overflows a float and the cap holds
        grow = math.exp(min(-re_min * qp.tau, 709.0))
        a = abs(qp.H1) + abs(qp.N1) * grow
        b = abs(qp.H2) + abs(qp.N2) * grow
        im_max = 0.5 * (a + math.sqrt(a * a + 4.0 * b)) + 1.0
        im_max = min(im_max, max(40.0, 12.0 * math.pi / qp.tau))
    else:
        im_max = bound0 + 1.0
    return (re_min, re_max, -1e-3, im_max)


# rectangles counted in one _windings call: the arrays of a call grow with
# its rectangles, so a round's frontier is counted in chunks of this many
_WINDING_CHUNK = 128


def _windings(qps, rects, n0: int) -> list[int | None]:
    """Winding number of G around each rectangle, None where it is unreliable.

    ``qps[i]`` is the quasi-polynomial for ``rects[i]``.  Each edge starts
    from max(n0, 8) equispaced samples; an interval whose phase increment
    exceeds one radian is bisected, round by round, so every increment that
    is summed lies within one radian.  That reads each interval's change of
    phase correctly only if the true change is below pi: the samples see
    G's values, not the path between them.  The rule does not rule out
    aliasing of full turns: where the phase turns by nearly 2 pi between two
    samples, as next to a close pair of roots near the contour, the increment
    reads as small, the interval is not bisected and the count can be off by
    whole turns.  A count is unreliable when G is non-finite or nearly zero
    on the contour, when an edge would need more than 40000 samples or 26
    rounds, or when the total is not near an integer.  Every round treats
    all edges of all rectangles as one array.
    """
    nr = len(rects)
    # H1, H2, N1, N2, tau of each edge's quasi-polynomial, one row per edge
    coef = np.repeat([(q.H1, q.H2, q.N1, q.N2, q.tau) for q in qps], 4, axis=0)
    origin, ends = [], []
    for re0, re1, im0, im1 in rects:
        c = (complex(re0, im0), complex(re1, im0),
             complex(re1, im1), complex(re0, im1))
        origin += c
        ends += c[1:] + c[:1]
    origin = np.array(origin)
    span = np.array(ends) - origin
    n = max(n0, 8)
    t = np.linspace(0.0, 1.0, n)

    vals = _eval_array(origin[:, None] + span[:, None] * t, *coef.T[:, :, None])
    finite = np.isfinite(vals)
    failed = ~finite.reshape(nr, -1).all(axis=1)
    if failed.any():
        vals = np.where(finite, vals, 1.0)
    least = np.abs(vals).reshape(nr, -1).min(axis=1)
    dph = np.angle(vals[:, 1:] / vals[:, :-1])
    jump = np.abs(dph) > 1.0
    total = np.where(jump, 0.0, dph).reshape(nr, -1).sum(axis=1)
    # Intervals still to bisect: edge e, ends ta < tb, values va, vb.  An
    # interval's halves depend on its end values only, so bisecting interval
    # by interval gives an edge the samples that refining the whole edge
    # round by round would, while evaluating only the new midpoints.
    e, k = np.nonzero(jump)
    ta, tb, va, vb = t[k], t[k + 1], vals[e, k], vals[e, k + 1]
    count = np.full(origin.size, n)  # samples per edge
    for _ in range(25):
        keep = ~failed[e // 4]
        keep[keep] = count[e[keep]] <= 40000
        failed[e[~keep] // 4] = True
        e, ta, tb, va, vb = e[keep], ta[keep], tb[keep], va[keep], vb[keep]
        if e.size == 0:
            break
        count += np.bincount(e, minlength=origin.size)
        tm = 0.5 * (ta + tb)
        vm = _eval_array(origin[e] + span[e] * tm, *coef[e].T)
        finite = np.isfinite(vm)
        if not finite.all():
            failed[e[~finite] // 4] = True
            vm = np.where(finite, vm, 1.0)
        np.minimum.at(least, e // 4, np.abs(vm))
        left = np.angle(vm / va)
        right = np.angle(vb / vm)
        jl = np.abs(left) > 1.0
        jr = np.abs(right) > 1.0
        total += np.bincount(e // 4, weights=(np.where(jl, 0.0, left)
                                              + np.where(jr, 0.0, right)),
                             minlength=nr)
        e = np.concatenate([e[jl], e[jr]])
        ta, tb = np.concatenate([ta[jl], tm[jr]]), np.concatenate([tm[jl], tb[jr]])
        va, vb = np.concatenate([va[jl], vm[jr]]), np.concatenate([vm[jl], vb[jr]])
    failed[e // 4] = True

    floor = 1e-9 * (1.0 + np.abs(coef[::4, 1]) + np.abs(coef[::4, 3]))
    out: list[int | None] = []
    for bad, turns, m, lo in zip(failed, total / (2.0 * math.pi), least, floor):
        wi = None if bad or m < lo else round(float(turns))
        out.append(None if wi is None or abs(turns - wi) > 0.25 else wi)
    return out


def _eval_array(zs: np.ndarray, H1, H2, N1, N2, tau) -> np.ndarray:
    """G at the points ``zs``; the coefficients broadcast against them.

    In place, but with the operations of ``characteristic_eval`` in its
    order, so each value is the same to the last bit.
    """
    g = zs * zs
    g += H1 * zs
    g += H2
    lag = -tau * zs
    np.exp(lag, out=lag)
    delayed = N1 * zs
    delayed += N2
    delayed *= lag
    g += delayed
    return g


def _newton_root(qp: QuasiPolynomial, z0: complex) -> complex | None:
    # G (as characteristic_eval) and its derivative G', sharing one exp
    H1, H2, N1, N2, tau = qp.H1, qp.H2, qp.N1, qp.N2, qp.tau
    z = z0
    for _ in range(80):
        try:
            e = cmath.exp(-z * tau)
        except OverflowError:  # an iterate far into the left half plane
            return None
        g = z * z + H1 * z + H2 + (N1 * z + N2) * e
        gp = 2.0 * z + H1 + (N1 - tau * (N1 * z + N2)) * e
        if gp == 0.0:
            return None
        step = g / gp
        z -= step
        if abs(step) <= 1e-12 * max(1.0, abs(z)):
            return z
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return None
    return None


def _newton_roots(qp: QuasiPolynomial, rect, w: int) -> list[complex]:
    """Roots that Newton reaches from the centre of ``rect``, and for w > 1
    from four points 0.3 of its width or height off the centre."""
    width = rect[1] - rect[0]
    height = rect[3] - rect[2]
    centre = complex(0.5 * (rect[0] + rect[1]), 0.5 * (rect[2] + rect[3]))
    starts = [centre]
    if w > 1:
        starts += [centre + complex(0.3 * width, 0.0),
                   centre - complex(0.3 * width, 0.0),
                   centre + complex(0.0, 0.3 * height),
                   centre - complex(0.0, 0.3 * height)]
    tol = 1e-8 * (1.0 + abs(qp.H2) + abs(qp.N2))
    roots = []
    for s in starts:
        z = _newton_root(qp, s)
        if z is None or abs(characteristic_eval(qp, z)) > tol:
            continue
        roots.append(z)
    return roots


def rightmost_abscissa(qp: QuasiPolynomial,
                       box: tuple[float, float, float, float] | None = None
                       ) -> tuple[float, list[complex]]:
    """Largest real part over characteristic roots inside the search box.

    Roots are isolated by winding counts on recursively subdivided rectangles
    and polished by Newton iteration to ~1e-12 relative.  The default box
    exploits conjugate symmetry (lower edge just below the real axis) and an
    a-priori modulus bound for roots with real part above the left edge.
    Returns (-inf, []) when the box contains no root.
    """
    (result,) = rightmost_abscissae([qp], [box])
    if isinstance(result, WindingError):
        raise result
    return result


def rightmost_abscissae(qps, boxes=None) -> list:
    """:func:`rightmost_abscissa` of many quasi-polynomials at once.

    ``boxes`` holds one search box (or None for the default) per
    quasi-polynomial.  Entry i of the result is what
    ``rightmost_abscissa(qps[i], boxes[i])`` returns, or the
    :class:`WindingError` it would raise.

    One loop runs every search, level by level: each round counts the
    pending rectangles of all searches, ``_WINDING_CHUNK`` to a batch.  An
    unreliable count nudges its contour outward, at most five times before
    the search fails; a rectangle with no root is dropped; one with one
    root, or a small one, gets Newton starts and is done once they capture
    its count; the rest are halved across their longer side.  Each rectangle
    carries a path key, the halves taken from its box (0 for the upper or
    right one), so sorted keys give the depth-first order; roots are
    deduplicated in that order, and every result equals the one-at-a-time
    depth-first search's, bit for bit.
    """
    qps = list(qps)
    boxes = [None] * len(qps) if boxes is None else list(boxes)
    boxes = [tuple(float(v) for v in (_default_box(qp) if box is None else box))
             for qp, box in zip(qps, boxes)]
    scales = [max(1.0, abs(b[0]), abs(b[1]), abs(b[3])) for b in boxes]
    found: list[list] = [[] for _ in qps]  # (path key, root) per search
    results: list = [None] * len(qps)  # a WindingError once a search fails
    # pending rectangles: (search, path key, rectangle, nudges so far)
    frontier = [(i, (), box, 0) for i, box in enumerate(boxes)]
    while frontier:
        counts = []
        for k in range(0, len(frontier), _WINDING_CHUNK):
            chunk = frontier[k:k + _WINDING_CHUNK]
            counts += _windings([qps[i] for i, _, _, _ in chunk],
                                [rect for _, _, rect, _ in chunk], 64)
        pending = []
        for (i, key, rect, nudges), w in zip(frontier, counts):
            re0, re1, im0, im1 = rect
            if w is None:
                if nudges < 5:
                    pad = 1e-6 * (1.0 + nudges) * max(re1 - re0, im1 - im0, 1.0)
                    pending.append((i, key, (re0 - pad, re1 + pad, im0 - pad,
                                             im1 + pad), nudges + 1))
                elif results[i] is None:
                    results[i] = WindingError(
                        f"winding count unstable on "
                        f"[{re0:.4g},{re1:.4g}]x[{im0:.4g},{im1:.4g}]")
                continue
            if w == 0:
                continue
            scale = scales[i]
            size = max(re1 - re0, im1 - im0)
            if w == 1 or size <= 2e-2 * scale:
                roots = _newton_roots(qps[i], rect, w)
                found[i] += [(key, z) for z in roots]
                pad = 1e-5 * scale
                captured = sum(re0 - pad <= z.real <= re1 + pad
                               and im0 - pad <= z.imag <= im1 + pad
                               for z in roots)
                if captured >= w or size <= 1e-8 * scale:
                    continue
                # not every enclosed root captured: keep subdividing
            if re1 - re0 >= im1 - im0:
                mid = 0.5 * (re0 + re1)
                low, high = (re0, mid, im0, im1), (mid, re1, im0, im1)
            else:
                mid = 0.5 * (im0 + im1)
                low, high = (re0, re1, im0, mid), (re0, re1, mid, im1)
            pending += [(i, key + (1,), low, 0), (i, key + (0,), high, 0)]
        frontier = [e for e in pending if results[e[0]] is None]

    for i, (box, scale, hits) in enumerate(zip(boxes, scales, found)):
        if results[i] is not None:
            continue
        re0, re1, im0, im1 = box
        roots: list[complex] = []
        for _, z in sorted(hits, key=lambda hit: hit[0]):
            if (all(abs(r - z) > 1e-7 * scale for r in roots)
                    and re0 - 1e-6 * scale <= z.real <= re1 + 1e-6 * scale
                    and im0 - 1e-6 * scale <= z.imag <= im1 + 1e-6 * scale):
                roots.append(z)
        roots.sort(key=lambda z: -z.real)
        results[i] = (roots[0].real, roots) if roots else (-math.inf, [])
    return results


# --------------------------------------------------------------------------
# equilibrium classification


def _classification_box(d: float, coeffs: LinearizationCoeffs):
    """Model-aware search rectangle for the spectral cross-check.

    Real part spans [-(d + |A| + |D| + 1), 1 + |A| + |D|]; the imaginary
    window covers ten delay-frequencies (conjugate symmetry makes the lower
    half redundant, so the bottom edge sits just below the axis).
    """
    re_min = -(d + abs(coeffs.A) + abs(coeffs.D) + 1.0)
    re_max = 1.0 + abs(coeffs.A) + abs(coeffs.D)
    im_max = (10.0 * 2.0 * math.pi / coeffs.tau_star
              if coeffs.tau_star > 0.0 else 40.0)
    return (re_min, re_max, -1e-3, im_max)


def _predator_free_abscissa(d: float, coeffs: LinearizationCoeffs
                            ) -> tuple[float, complex]:
    """(abscissa, rightmost root) at a triangular linearization.

    Where C = eta = 0, as at the origin and the predator-free state
    (K, 0, 0), G(lambda) = (lambda - A) h(lambda) with
    h(lambda) = lambda + d - D e^(-lambda tau*).  For D >= 0, h is strictly
    increasing on the reals and its real root lambda* is its rightmost root:
    Re lambda >= lambda* gives |lambda + d| >= lambda* + d
    = D e^(-lambda* tau*) >= |D e^(-lambda tau*)|, with equality only on the
    real axis.  For D = 0, lambda* = -d.  Otherwise lambda* lies in
    [-d, max(0, D - d)], where h changes sign; it is bracketed there and
    polished by two Newton steps on h.  While D <= 2 d, h is evaluated as
    lambda + (d - D) - D expm1(-lambda tau*), whose terms do not cancel as
    lambda* nears 0; where the exponential overflows, h is read as -inf.
    The rightmost root is the larger of A and lambda*.
    """
    A, D, tau = coeffs.A, coeffs.D, coeffs.tau_star
    if D == 0.0:
        lam = -d
    else:
        gap, small = d - D, D <= 2.0 * d

        def h(lam: float) -> float:
            try:
                if small:
                    return lam + gap - D * math.expm1(-lam * tau)
                return lam + d - D * math.exp(-lam * tau)
            except OverflowError:  # lam * tau far below zero
                return -math.inf

        lam = _bracketed_root(h, -d, max(0.0, D - d), xtol=1e-15, rtol=8.9e-16)
        for _ in range(2):
            lam -= h(lam) / (1.0 + tau * D * math.exp(-lam * tau))
    rm = max(A, lam)
    return rm, complex(rm, 0.0)


def spectral_abscissae(points) -> list:
    """(abscissa, rightmost root or None) of each linearization, or the
    :class:`WindingError` its search raised, in its place.

    ``points`` holds (d, coefficients) pairs.  A triangular linearization
    (C = eta = 0 and D >= 0: the origin and the predator-free state) takes
    the closed form of :func:`_predator_free_abscissa`.  The others are
    searched in one :func:`rightmost_abscissae` batch on their
    :func:`_classification_box`.
    """
    results: list = []
    slots, qps, boxes = [], [], []
    for d, coeffs in points:
        if coeffs.C == 0.0 and coeffs.eta == 0.0 and coeffs.D >= 0.0:
            results.append(_predator_free_abscissa(d, coeffs))
        else:
            slots.append(len(results))
            results.append(None)
            qps.append(_quasi_polynomial(d, coeffs))
            boxes.append(_classification_box(d, coeffs))
    if not qps:
        return results
    for i, result in zip(slots, rightmost_abscissae(qps, boxes)):
        results[i] = (result if isinstance(result, WindingError)
                      else (result[0], result[1][0] if result[1] else None))
    return results


@dataclass(frozen=True)
class ConditionReport:
    """Explicit stability/attraction inequalities with their margins.

    The "local" set asks for permanence, mature mortality not exceeding
    juvenile mortality, and interference k2 above a threshold depending on
    the zero-state delay; the "global" set asks for predator viability at
    prey capacity plus interference above the largest of three thresholds
    built from the equilibrium delay.
    """

    R: float
    permanent: bool
    death_ordering_ok: bool
    local_interference_required: float
    local_interference_ok: bool
    viability_lhs: float
    viability_ok: bool
    global_interference_required: float
    global_interference_ok: bool
    local_ok: bool
    global_ok: bool
    overall: bool
    margins: dict = field(default_factory=dict)


def check_global_conditions(model: ModelSpec, eq: Equilibrium) -> ConditionReport:
    """Evaluate the explicit interference conditions at a coexistence point.

    Only defined for the Beddington-DeAngelis response (the inequalities are
    formulated through its coefficients).
    """
    if model.response.kind != ResponseKind.BEDDINGTON_DEANGELIS:
        raise ValueError("global-attraction conditions are specific to the "
                         "Beddington-DeAngelis response")
    if eq.kind != EquilibriumKind.COEXISTENCE:
        raise ValueError("conditions are evaluated at a coexistence equilibrium")
    p = model.params
    c = model.response.coefficients
    b, k1, k2 = c["b"], c["k1"], c["k2"]
    e0 = model.survival(model.delay.tau(0.0))
    es = model.survival(model.delay.tau(eq.y_star))

    R = reproduction_number(model)
    permanent = R > 1.0
    death_ordering_ok = p.d <= p.dj

    local_req = 2.0 * (p.n * b * e0 - p.d * k1) / (p.n * p.r * e0)
    local_ok = k2 > local_req

    viability_lhs = p.n * b * es * p.K / (1.0 + k1 * p.K)
    viability_ok = viability_lhs > p.d

    g = p.n * b * es - p.d * k1
    t2 = b * p.K * g / (p.r * p.d)
    t3 = b / p.r
    if g * p.K - p.d > 0.0:
        t1 = b * p.K * g / (p.r * (g * p.K - p.d))
        global_req = max(t1, t2, t3)
    else:
        t1 = math.inf
        global_req = math.inf
    global_ok = k2 > global_req

    local_all = permanent and death_ordering_ok and local_ok
    global_all = viability_ok and global_ok
    margins = {
        "k2_minus_local_required": k2 - local_req,
        "dj_minus_d": p.dj - p.d,
        "R_minus_1": R - 1.0,
        "viability_lhs_minus_d": viability_lhs - p.d,
        "k2_minus_global_required": (k2 - global_req
                                     if math.isfinite(global_req) else -math.inf),
    }
    return ConditionReport(
        R=R, permanent=permanent, death_ordering_ok=death_ordering_ok,
        local_interference_required=local_req, local_interference_ok=local_ok,
        viability_lhs=viability_lhs, viability_ok=viability_ok,
        global_interference_required=global_req,
        global_interference_ok=global_ok,
        local_ok=local_all, global_ok=global_all,
        overall=local_all and global_all, margins=margins)


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str
    equilibrium: Equilibrium
    coeffs: LinearizationCoeffs
    reason: str
    qp: QuasiPolynomial | None = None
    crossings: tuple[float, ...] | None = None
    rightmost: float | None = None
    rightmost_root: complex | None = None
    conditions: ConditionReport | None = None


def classify_equilibrium(model: ModelSpec, eq: Equilibrium) -> StabilityVerdict:
    """Stability verdict for a steady state.

    The abscissa comes from :func:`spectral_abscissae`.  The origin is
    always unstable (the prey growth mode).  The predator-free state is
    classified by the sign of n e^{-dj tau(0)} f(K,0) - d, with the equality
    case reported as neutrally stable (a simple zero root, all other roots
    in the closed left half plane).  Both linearizations are triangular
    (C = eta = 0), so G(lambda) = (lambda - A)(lambda + d - D e^{-lambda
    tau(0)}), and the abscissa is max(A, lambda*), lambda* the unique real
    root of the second factor (see :func:`_predator_free_abscissa`); no
    contour search runs there.  A coexistence point is classified for the
    Beddington-DeAngelis response by the algebraic route (no zero root, no
    imaginary-axis crossing for any delay, delay-free quadratic stable) and
    cross-checked against the numerical spectral abscissa: an algebraic
    "stable" with an abscissa above 1e-8 raises :class:`CrossCheckError`.
    Other responses and the d > dj regime return an "unsupported" verdict
    carrying the numerical abscissa only.
    """
    p = model.params
    coeffs = linearize_at(model, eq)
    qp = quasi_polynomial(model, coeffs)
    (found,) = spectral_abscissae([(p.d, coeffs)])
    if isinstance(found, WindingError):
        raise found
    rm, root0 = found

    if eq.kind == EquilibriumKind.TRIVIAL:
        return StabilityVerdict(
            Verdict.UNSTABLE, eq, coeffs, qp=qp,
            reason=f"prey growth mode lambda = r = {p.r:g} > 0",
            rightmost=rm, rightmost_root=root0)

    if eq.kind == EquilibriumKind.PREDATOR_EXTINCTION:
        gain = model.maturation_gain(model.delay.tau(0.0), p.K, 0.0)
        tol = 1e-12 * max(gain, p.d)
        if gain > p.d + tol:
            verdict, reason = Verdict.UNSTABLE, (
                f"recruitment gain {gain:.6g} exceeds mortality {p.d:.6g}")
        elif gain < p.d - tol:
            verdict, reason = Verdict.STABLE, (
                f"recruitment gain {gain:.6g} below mortality {p.d:.6g}")
        else:
            verdict, reason = Verdict.NEUTRALLY_STABLE, (
                "recruitment gain equals mortality: simple zero root")
        return StabilityVerdict(verdict, eq, coeffs, reason, qp=qp,
                                rightmost=rm, rightmost_root=root0)

    # coexistence
    if model.response.kind != ResponseKind.BEDDINGTON_DEANGELIS:
        return StabilityVerdict(
            Verdict.UNSUPPORTED, eq, coeffs, qp=qp,
            reason="algebraic classification is only established for the "
                   "Beddington-DeAngelis response; numerical abscissa attached",
            rightmost=rm, rightmost_root=root0)

    conditions = check_global_conditions(model, eq)
    if p.d > p.dj:
        return StabilityVerdict(
            Verdict.UNSUPPORTED, eq, coeffs, qp=qp,
            reason="d > dj regime not covered by the algebraic route; "
                   "numerical abscissa attached",
            rightmost=rm, rightmost_root=root0, conditions=conditions)

    crossings = imaginary_crossings(qp)
    zero_excluded = qp.H2 + qp.N2 > 0.0
    delay_free_stable = (qp.H1 + qp.N1 > 0.0) and zero_excluded
    if not crossings and delay_free_stable:
        if rm > 1e-8:
            raise CrossCheckError(
                f"the algebraic route finds {eq.kind} point ({eq.x_star:.6g}, "
                f"{eq.y_star:.6g}) stable, but the numerical spectral "
                f"abscissa is {rm:.3g} > 0")
        verdict = Verdict.STABLE
        reason = ("no imaginary-axis crossing for any delay, zero is not a "
                  "root, and the delay-free quadratic is stable")
    elif rm > 1e-8:
        verdict = Verdict.UNSTABLE
        reason = f"numerical spectral abscissa {rm:.3g} > 0"
    elif rm < -1e-8:
        verdict = Verdict.STABLE
        reason = (f"numerical spectral abscissa {rm:.3g} < 0 (algebraic "
                  "route inconclusive)")
    else:
        verdict = Verdict.NEUTRALLY_STABLE
        reason = f"numerical spectral abscissa {rm:.3g} within 1e-8 of zero"
    return StabilityVerdict(verdict, eq, coeffs, reason, qp=qp,
                            crossings=crossings, rightmost=rm,
                            rightmost_root=root0, conditions=conditions)
