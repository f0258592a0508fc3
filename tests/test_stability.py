import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest

from preydelay import (ModelParams, ModelSpec, NoConvergenceError,
                       QuasiPolynomial, Verdict, WindingError,
                       beddington_deangelis, boundary_equilibria,
                       characteristic_eval, check_global_conditions,
                       classify_equilibrium, constant_delay, exp_delay,
                       holling2, imaginary_crossings, linearize_at,
                       quasi_polynomial, reproduction_number,
                       rightmost_abscissa, saturating_delay,
                       solve_coexistence, stability)
from preydelay.stability import (CrossCheckError, _windings,
                                 rightmost_abscissae, spectral_abscissae)

from conftest import ALL_FORMS
from oracles import cheb_collocation_abscissa, quartic_has_positive_root


def scalar_factor_qp(r, d, c, tau):
    """(lambda + r)(lambda + d - c e^{-lambda tau}) in the quadratic form."""
    return QuasiPolynomial(H1=d + r, H2=r * d, N1=-c, N2=-c * r, tau=tau)


# --------------------------------------------------------------------------
# linearization coefficients


def test_linearization_at_origin(bd_model):
    e0 = boundary_equilibria(bd_model)[0]
    co = linearize_at(bd_model, e0)
    assert (co.A, co.B, co.C, co.D, co.eta) == (bd_model.params.r, 0, 0, 0, 0)


def test_linearization_at_predator_extinction(bd_model):
    e1 = boundary_equilibria(bd_model)[1]
    co = linearize_at(bd_model, e1)
    p = bd_model.params
    fK0 = bd_model.response.f(p.K, 0.0)
    assert co.A == -p.r
    assert co.B == pytest.approx(fK0, rel=1e-15)
    assert co.C == 0.0 and co.eta == 0.0
    assert co.D == pytest.approx(
        p.n * math.exp(-p.dj * bd_model.delay.tau(0.0)) * fK0, rel=1e-15)


def test_inexact_equilibrium_is_a_numerical_failure(bd_model):
    eq = dataclasses.replace(solve_coexistence(bd_model), residual=1e-6)
    with pytest.raises(NoConvergenceError, match="residual") as exc_info:
        classify_equilibrium(bd_model, eq)
    assert exc_info.value.residual == 1e-6
    assert exc_info.value.last_iterate == (eq.x_star, eq.y_star)


def test_constant_delay_coexistence_has_zero_eta():
    m = ModelSpec(ModelParams(1.0, 10.0, 1.0, 0.1, 0.5), constant_delay(1.0),
                  beddington_deangelis(b=1.0, k1=0.1, k2=1.0))
    eq = solve_coexistence(m)
    co = linearize_at(m, eq)
    assert co.eta == 0.0
    assert co.A < 0.0 and co.B > 0.0 and co.C > 0.0 and 0.0 < co.D <= m.params.d


# --------------------------------------------------------------------------
# characteristic function


def test_characteristic_at_zero_is_constant_term():
    qp = QuasiPolynomial(H1=1.5, H2=2.0, N1=-0.5, N2=0.75, tau=1.0)
    assert characteristic_eval(qp, 0.0) == pytest.approx(2.75, abs=0)


def test_zero_root_exactly_at_threshold():
    # gain equal to mortality: lambda = 0 solves the predator factor
    r, d, tau = 1.0, 0.8, 1.0
    qp = scalar_factor_qp(r, d, c=d, tau=tau)
    assert characteristic_eval(qp, 0.0) == 0.0
    # simple root: derivative 1 + tau d e^0 > 0 in the scalar factor
    eps = 1e-8
    g = characteristic_eval(qp, eps) / (eps * r)  # divide the (lambda+r) part
    assert g.real > 0.0


def test_lag_free_reduction_matches_quadratic_roots():
    qp = QuasiPolynomial(H1=0.4, H2=-1.2, N1=0.3, N2=0.9, tau=0.0)
    poly_roots = np.roots([1.0, qp.H1 + qp.N1, qp.H2 + qp.N2])
    for z in poly_roots:
        assert abs(characteristic_eval(qp, complex(z))) < 1e-12


# --------------------------------------------------------------------------
# imaginary-axis crossings


def crossing_qp(B1, B2):
    """A quasi-polynomial whose crossing quadratic is v^2 + B1 v + B2, up to
    rounding: H2^2 = |B2| >= B2 leaves N2^2 = H2^2 - B2 to fit B2, and
    H1^2 - N1^2 = B1 + 2 H2 fits B1."""
    H2 = math.sqrt(abs(B2))
    rest = B1 + 2.0 * H2
    return QuasiPolynomial(H1=math.sqrt(max(rest, 0.0)), H2=H2,
                           N1=math.sqrt(max(-rest, 0.0)),
                           N2=math.sqrt(max(H2 * H2 - B2, 0.0)), tau=1.0)


def test_quartic_negative_constant_clause():
    # B2 < 0: one positive root v, so one crossing
    (omega,) = imaginary_crossings(crossing_qp(0.0, -1.0))
    assert omega == pytest.approx(1.0, rel=1e-15)


def test_quartic_all_positive_terms():
    assert imaginary_crossings(crossing_qp(1.0, 1.0)) == ()


def test_quartic_double_well():
    # (v - 1)^2 - 0.01: v = 1.1 and 0.9, largest first
    omegas = imaginary_crossings(crossing_qp(-2.0, 0.99))
    assert omegas == pytest.approx((math.sqrt(1.1), math.sqrt(0.9)), rel=1e-14)


def test_crossings_balance_the_two_parts():
    # each omega solves |P(i omega)| = |Q(i omega)|, P(lambda) = lambda^2 +
    # H1 lambda + H2 and Q(lambda) = N1 lambda + N2: for some delay,
    # e^(-i omega tau) = -P/Q and i omega is a root.  Coefficients of
    # unlike size make crossings far slower than the coefficients, as the
    # first one, where v^2 + 1e4 v - 1e-6 loses v = 1e-10 to cancellation
    # unless it is taken as B2 over the larger root
    rng = np.random.default_rng(17)
    qps = [QuasiPolynomial(H1=100.0, H2=0.0, N1=0.0, N2=1e-3, tau=1.0)]
    qps += [QuasiPolynomial(*(rng.uniform(-3.0, 3.0, 4)
                              * 10.0 ** rng.uniform(-1.0, 1.0, 4)), tau=1.0)
            for _ in range(2000)]
    crossing = 0
    for qp in qps:
        omegas = imaginary_crossings(qp)
        assert list(omegas) == sorted(omegas, reverse=True)
        for w in omegas:
            z = complex(0.0, w)
            p, q = z * z + qp.H1 * z + qp.H2, qp.N1 * z + qp.N2
            assert abs(abs(p) - abs(q)) <= 1e-12 * abs(q), (qp, w)
            tau = -cmath.phase(-p / q) / w % (2.0 * math.pi / w)
            delayed = dataclasses.replace(qp, tau=tau)
            assert abs(characteristic_eval(delayed, z)) <= 1e-12 * (
                1.0 + abs(p)), (qp, w)
        crossing += bool(omegas)
    assert 0 < crossing < len(qps)


def test_quartic_against_companion_oracle():
    # the number of crossings is the number of positive roots of the
    # biquadratic omega^4 + B1 omega^2 + B2, away from its double roots
    rng = np.random.default_rng(29)
    tested = 0
    for _ in range(300):
        qp = QuasiPolynomial(*rng.uniform(-3.0, 3.0, 4), tau=1.0)
        B1 = qp.H1 ** 2 - 2.0 * qp.H2 - qp.N1 ** 2
        B2 = qp.H2 ** 2 - qp.N2 ** 2
        if min(abs(B2), abs(B1 * B1 - 4.0 * B2)) < 1e-9:
            continue
        tested += 1
        roots = np.roots([1.0, 0.0, B1, 0.0, B2])
        positive = sum(abs(z.imag) <= 1e-8 * (1.0 + abs(z)) and z.real > 1e-9
                       for z in roots)
        assert len(imaginary_crossings(qp)) == positive, (B1, B2)
    assert tested >= 295


def test_quartic_biquadratic_matches_direct_analysis():
    rng = np.random.default_rng(31)
    for _ in range(300):
        B1, B2 = rng.uniform(-4.0, 4.0, 2)
        crossings = imaginary_crossings(crossing_qp(B1, B2))
        # u^2 + B1 u + B2 = 0 needs a positive real root u = v^2
        disc = B1 * B1 - 4.0 * B2
        if abs(disc) < 1e-9 or abs(B2) < 1e-9:
            continue
        if disc < 0.0:
            direct = False
        else:
            u1 = (-B1 + math.sqrt(disc)) / 2.0
            u2 = (-B1 - math.sqrt(disc)) / 2.0
            direct = u1 > 0.0 or u2 > 0.0
        assert bool(crossings) == direct, (B1, B2)


# --------------------------------------------------------------------------
# rightmost abscissa


def test_scalar_factor_neutral_threshold():
    qp = scalar_factor_qp(1.0, 0.8, c=0.8, tau=1.0)
    ab, roots = rightmost_abscissa(qp)
    assert abs(ab) <= 1e-10
    assert any(abs(z) <= 1e-9 for z in roots)


def test_scalar_factor_subcritical_is_stable():
    qp = scalar_factor_qp(1.0, 0.8, c=0.72, tau=1.0)
    ab, _ = rightmost_abscissa(qp)
    assert ab < 0.0


def test_scalar_factor_supercritical_positive_real_root():
    d, c, tau = 0.8, 0.88, 1.0
    qp = scalar_factor_qp(1.0, d, c=c, tau=tau)
    ab, _ = rightmost_abscissa(qp)
    # independent bisection on g(v) = v + d - c e^{-v tau} over [0, c]
    lo, hi = 0.0, c
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + d - c * math.exp(-mid * tau) < 0.0:
            lo = mid
        else:
            hi = mid
    assert ab == pytest.approx(0.5 * (lo + hi), abs=1e-8)
    assert ab > 0.0


def test_found_roots_satisfy_characteristic_equation(bd_model):
    eq = solve_coexistence(bd_model)
    qp = quasi_polynomial(bd_model, linearize_at(bd_model, eq))
    ab, roots = rightmost_abscissa(qp)
    assert roots, "expected roots inside the default box"
    for z in roots:
        assert abs(characteristic_eval(qp, z)) < 1e-8


def test_rightmost_matches_chebyshev_collocation(bd_model):
    eq = solve_coexistence(bd_model)
    co = linearize_at(bd_model, eq)
    qp = quasi_polynomial(bd_model, co)
    ab, _ = rightmost_abscissa(qp)
    want = cheb_collocation_abscissa(co.A, co.B, co.C, co.D, co.eta,
                                     bd_model.params.d, co.tau_star)
    assert ab == pytest.approx(want, abs=1e-6)


def test_rightmost_matches_chebyshev_at_extinction_point(const_delay_model):
    e1 = boundary_equilibria(const_delay_model)[1]
    co = linearize_at(const_delay_model, e1)
    qp = quasi_polynomial(const_delay_model, co)
    ab, _ = rightmost_abscissa(qp)
    want = cheb_collocation_abscissa(co.A, co.B, co.C, co.D, co.eta,
                                     const_delay_model.params.d, co.tau_star)
    assert ab == pytest.approx(want, abs=1e-6)


def test_winding_counts_roots_of_a_quadratic():
    # tau = 0 and N = 0 leave lambda^2 + 2 lambda + 5, roots -1 +- 2i
    qp = QuasiPolynomial(H1=2.0, H2=5.0, N1=0.0, N2=0.0, tau=0.0)
    rects = [(-2.0, 0.0, 1.0, 3.0), (-2.0, 0.0, -3.0, 3.0),
             (0.5, 2.0, -3.0, 3.0), (-1.0, 0.0, 1.0, 3.0)]
    # the last rectangle's left edge passes through -1 + 2i, a sample point
    with np.errstate(divide="ignore", invalid="ignore"):
        assert _windings([qp] * 4, rects, 64) == [1, 2, 0, None]


def edge_by_edge_winding(qp, rect, n0=64):
    """Reference count: each edge refined on its own, None where unreliable."""
    re0, re1, im0, im1 = rect
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1),
               complex(re0, im1), complex(re0, im0)]
    total, least = 0.0, math.inf
    for z0, z1 in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0.0, 1.0, max(n0, 8))
        for _ in range(26):
            zs = z0 + (z1 - z0) * ts
            vals = (zs * zs + qp.H1 * zs + qp.H2
                    + (qp.N1 * zs + qp.N2) * np.exp(-qp.tau * zs))
            if not np.all(np.isfinite(vals)):
                return None
            dph = np.angle(vals[1:] / vals[:-1])
            bad = np.nonzero(np.abs(dph) > 1.0)[0]
            if bad.size == 0:
                break
            if ts.size > 40000:
                return None
            ts = np.sort(np.concatenate([ts, 0.5 * (ts[bad] + ts[bad + 1])]))
        else:
            return None
        total += float(np.sum(dph))
        least = min(least, float(np.min(np.abs(vals))))
    if least < 1e-9 * (1.0 + abs(qp.H2) + abs(qp.N2)):
        return None
    w = total / (2.0 * math.pi)
    return None if abs(w - round(w)) > 0.25 else round(w)


def test_windings_match_the_edge_by_edge_reference():
    rng = np.random.default_rng(5)
    qps, rects = [], []
    for tau in (0.0, 0.5, 2.0, 6.0):
        for _ in range(15):
            qps.append(QuasiPolynomial(*rng.uniform(-3.0, 3.0, 4), tau=tau))
            re0, im0 = rng.uniform(-6.0, 1.0), rng.uniform(-1.0, 20.0)
            rects.append((re0, re0 + rng.uniform(0.1, 6.0),
                          im0, im0 + rng.uniform(0.1, 30.0)))
    want = [edge_by_edge_winding(qp, rect) for qp, rect in zip(qps, rects)]
    assert _windings(qps, rects, 64) == want
    assert any(w and w > 1 for w in want)


def test_rightmost_abscissae_equal_one_search_at_a_time():
    rng = np.random.default_rng(11)
    qps = [QuasiPolynomial(*rng.uniform(-3.0, 3.0, 4), tau=tau)
           for tau in (0.0, 0.3, 1.0, 2.5, 4.0) for _ in range(4)]
    boxes = [None, (-4.0, 2.0, -1e-3, 30.0)] * 10
    singles = [rightmost_abscissa(qp, box=box) for qp, box in zip(qps, boxes)]
    assert repr(rightmost_abscissae(qps, boxes)) == repr(singles)


def test_rightmost_abscissae_return_a_winding_error_in_its_place():
    # exp(-tau z) overflows on the left edge of every nudged contour
    bad = QuasiPolynomial(H1=1.0, H2=1.0, N1=0.5, N2=0.3, tau=10.0)
    good = scalar_factor_qp(1.0, 0.8, c=0.72, tau=1.0)
    box = (-100.0, 1.0, -1e-3, 5.0)
    with np.errstate(over="ignore", invalid="ignore"):
        first, second = rightmost_abscissae([bad, good], [box, None])
        with pytest.raises(WindingError):
            rightmost_abscissa(bad, box=box)
    assert isinstance(first, WindingError)
    assert repr(second) == repr(rightmost_abscissa(good))


def counted_contours(monkeypatch):
    """Record every rectangle the spectral search counts."""
    counted = []

    def spy(qps, rects, n0):
        counted.extend(rects)
        return _windings(qps, rects, n0)

    monkeypatch.setattr(stability, "_windings", spy)
    return counted


def test_nudge_past_a_root_on_the_box_edge(monkeypatch):
    # lambda^2 + 2 lambda + 5 has the roots -1 +- 2i; -1 + 2i is on the left edge
    qp = QuasiPolynomial(H1=2.0, H2=5.0, N1=0.0, N2=0.0, tau=0.0)
    box = (-1.0, 0.0, 1.0, 3.0)
    counted = counted_contours(monkeypatch)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert rightmost_abscissa(qp, box=box) == (-1.0, [complex(-1.0, 2.0)])
    nudged = counted[1]
    assert counted[0] == box
    assert nudged[0] < -1.0 and nudged[1] > 0.0 and nudged[2] < 1.0 < 3.0 < nudged[3]


def test_nudge_both_halves_past_a_root_on_the_split_line(monkeypatch):
    # the box is split at Im = 2, through the root -1 + 2i
    qp = QuasiPolynomial(H1=2.0, H2=5.0, N1=0.0, N2=0.0, tau=0.0)
    box = (-3.0, 1.0, -2.5, 6.5)
    counted = counted_contours(monkeypatch)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert rightmost_abscissa(qp, box=box) == (
            -1.0, [complex(-1.0, 2.0), complex(-1.0, -2.0)])
    assert counted[:3] == [box, (-3.0, 1.0, -2.5, 2.0), (-3.0, 1.0, 2.0, 6.5)]
    assert any(2.0 < r[3] < 2.001 for r in counted[3:])  # the lower half
    assert any(1.999 < r[2] < 2.0 for r in counted[3:])  # the upper half


def test_newton_start_that_overflows_is_a_failed_start():
    # from one of its starts, Newton runs far enough left for exp(-z tau) to
    # overflow
    qp = QuasiPolynomial(H1=-0.3663818731343875, H2=1.3180822268809624,
                         N1=1.6706811862089985, N2=-2.898069241798604, tau=3.0)
    ab, roots = rightmost_abscissa(qp)
    assert roots and ab == roots[0].real
    for z in roots:
        assert abs(characteristic_eval(qp, z)) <= 1e-8
    re0, re1, im0, im1 = stability._default_box(qp)
    assert _windings([qp], [(ab + 1e-6, re1, im0, im1)], 64) == [0]


@pytest.mark.xfail(strict=True, reason=(
    "rightmost_abscissa counts Newton starts that land in a rectangle, not "
    "distinct roots: all five starts in this winding-2 box converge to one "
    "root, so the rightmost real root is missed"))
def test_rightmost_finds_every_root_of_a_winding_two_box():
    # the coexistence point of the benchmark sweep's grid point
    # (k2=10, d=0.45, tau_m=0.25, tau_M=1.0)
    qp = QuasiPolynomial(H1=1.371367154288762, H2=0.41835039235976823,
                         N1=-0.05987312732033777, N2=-0.0494917424674335,
                         tau=0.5458919393321702)
    box = (-2.4231782667248574, 1.9731782667248572, -0.001, 115.09943368766848)
    ab, roots = rightmost_abscissa(qp, box=box)

    # independent bisection of the real G on [-0.6, -0.2], where it changes sign
    def g(v):
        return v * v + qp.H1 * v + qp.H2 + (qp.N1 * v + qp.N2) * math.exp(-v * qp.tau)

    lo, hi = -0.6, -0.2
    assert g(lo) < 0.0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    assert ab == pytest.approx(0.5 * (lo + hi), abs=1e-8)
    assert len(roots) == 2


# --------------------------------------------------------------------------
# closed form at the predator-free state


def predator_free_sample(rng, per_pair):
    """``per_pair`` random models for each catalog response and delay kind,
    with the parameter ranges of the random Beddington-DeAngelis sample."""
    models = []
    for _, draw in ALL_FORMS:
        for kind in ("constant", "saturating", "exp"):
            for _ in range(per_pair):
                params = ModelParams(
                    r=rng.uniform(0.3, 3.0), K=rng.uniform(1.0, 10.0),
                    n=rng.uniform(0.5, 3.0), dj=rng.uniform(0.05, 1.5),
                    d=rng.uniform(0.05, 1.5))
                tau_m = rng.uniform(0.05, 2.0)
                tau_M = tau_m * rng.uniform(1.0, 3.0)
                delay = (constant_delay(tau_m) if kind == "constant" else
                         saturating_delay(tau_m, tau_M, rng.uniform(0.1, 5.0))
                         if kind == "saturating" else
                         exp_delay(tau_m, tau_M, rng.uniform(0.1, 5.0)))
                models.append(ModelSpec(params, delay, draw(rng)))
    return models


def factored_abscissa(A, D, d, tau):
    """max(A, lambda*), lambda* the real root of lambda + d - D e^(-lambda tau),
    solved to 40 digits on its bracket [-d, max(0, D - d)]."""
    with mpmath.workdps(40):
        A, D, d, tau = map(mpmath.mpf, (A, D, d, tau))
        lam = mpmath.findroot(lambda v: v + d - D * mpmath.exp(-v * tau),
                              (-d, max(0, D - d)), solver="anderson")
        return max(A, lam)


def test_predator_free_abscissa_is_the_factored_root():
    models = predator_free_sample(np.random.default_rng(20261020), 8)
    assert len(models) == 216
    prey_mode = 0
    for m in models:
        v = classify_equilibrium(m, boundary_equilibria(m)[1])
        co = v.coeffs
        assert co.C == 0.0 and co.eta == 0.0
        assert v.rightmost_root == complex(v.rightmost, 0.0)
        want = cheb_collocation_abscissa(co.A, co.B, co.C, co.D, co.eta,
                                         m.params.d, co.tau_star, n_nodes=64)
        assert abs(v.rightmost - want) <= 1e-9, m
        exact = factored_abscissa(co.A, co.D, m.params.d, co.tau_star)
        ulps = abs(mpmath.mpf(v.rightmost) - exact) / math.ulp(float(exact))
        assert ulps <= 4.0, m
        prey_mode += v.rightmost == co.A
    # both factors supply the rightmost root somewhere in the sample
    assert 0 < prey_mode < len(models)


# the predator-free state of a dichotomy-benchmark draw whose contour search
# returned the prey mode -r and missed the predator mode at -0.58288
MISSED_PREDATOR_MODE = {
    "params": {"r": 0.7417819335834331, "K": 2.2591224468730573,
               "n": 0.9620914062575359, "dj": 0.3047767741415909,
               "d": 0.9294229573588755},
    "delay": {"kind": "saturating", "coefficients": {"theta": 0.8169347595678048},
              "tau_m": 0.4218006019535824, "tau_M": 0.5496928246210455},
    "response": {"kind": "Linear", "coefficients": {"b": 0.1417912883334469}}}


def test_predator_free_abscissa_finds_the_predator_mode():
    m = ModelSpec.from_dict(MISSED_PREDATOR_MODE)
    v = classify_equilibrium(m, boundary_equilibria(m)[1])
    co = v.coeffs
    want = cheb_collocation_abscissa(co.A, co.B, co.C, co.D, co.eta,
                                     m.params.d, co.tau_star, n_nodes=64)
    assert want == pytest.approx(-0.5828848006287, abs=1e-12)
    assert abs(v.rightmost - want) <= 1e-9
    assert v.verdict == Verdict.STABLE


def test_predator_free_state_runs_no_contour_search(monkeypatch, bd_model,
                                                    const_delay_model):
    models = (bd_model, const_delay_model,
              ModelSpec.from_dict(MISSED_PREDATOR_MODE))
    e1s = [boundary_equilibria(m)[1] for m in models]
    before = [classify_equilibrium(m, e1) for m, e1 in zip(models, e1s)]

    def search(*args, **kwargs):
        raise WindingError("contour search at the predator-free state")

    monkeypatch.setattr(stability, "rightmost_abscissa", search)
    monkeypatch.setattr(stability, "rightmost_abscissae", search)
    for m, e1, want in zip(models, e1s, before):
        assert classify_equilibrium(m, e1) == want


def test_predator_free_abscissa_past_the_exponent_range():
    # d tau(0) = 900 > log(DBL_MAX): e^(d tau) overflows at the bracket's
    # left end -d, where h is read as -inf
    m = ModelSpec(ModelParams(r=1.0, K=5.0, n=1.0, dj=0.001, d=0.45),
                  constant_delay(2000.0),
                  beddington_deangelis(b=1.0, k1=0.0, k2=10.0))
    e0, e1 = boundary_equilibria(m)
    v = classify_equilibrium(m, e1)
    with mpmath.workdps(40):
        D, d = mpmath.mpf(v.coeffs.D), mpmath.mpf(m.params.d)
        exact = mpmath.findroot(lambda lam: lam + d - D * mpmath.exp(-lam * 2000),
                                (-d, D - d), solver="bisect")
    assert exact == pytest.approx(2.0374647059329912754e-4, rel=1e-18)
    assert v.rightmost > v.coeffs.A
    assert abs(mpmath.mpf(v.rightmost) - exact) <= 2.0 * math.ulp(float(exact))
    assert v.verdict == Verdict.UNSTABLE
    # the origin's D = 0 needs no bracket: lambda* = -d
    assert stability._predator_free_abscissa(
        m.params.d, linearize_at(m, e0)) == (1.0, complex(1.0, 0.0))


def test_spectral_abscissae_search_only_what_is_not_triangular(monkeypatch,
                                                                bd_model):
    eqs = boundary_equilibria(bd_model) + [solve_coexistence(bd_model)]
    d = bd_model.params.d
    points = [(d, linearize_at(bd_model, eq)) for eq in eqs]
    search = stability.rightmost_abscissae
    batches = []

    def recorded(qps, boxes):
        batches.append(qps)
        return search(qps, boxes)

    monkeypatch.setattr(stability, "rightmost_abscissae", recorded)
    origin, e1, coex = spectral_abscissae(points)
    qp = quasi_polynomial(bd_model, points[2][1])
    assert batches == [[qp]]
    assert origin == (1.0, complex(1.0, 0.0))
    assert e1 == stability._predator_free_abscissa(d, points[1][1])
    (rm, roots), = search([qp], [stability._classification_box(d, points[2][1])])
    assert coex == (rm, roots[0])
    # no batch at all without a point to search
    assert spectral_abscissae(points[:2]) == [origin, e1]
    assert spectral_abscissae([]) == []
    assert len(batches) == 1


def test_spectral_abscissae_return_a_winding_error_in_its_place(monkeypatch,
                                                                bd_model):
    eqs = boundary_equilibria(bd_model) + [solve_coexistence(bd_model)]
    failure = WindingError("search failed")
    monkeypatch.setattr(stability, "rightmost_abscissae",
                        lambda qps, boxes: [failure] * len(qps))
    d = bd_model.params.d
    found = spectral_abscissae([(d, linearize_at(bd_model, eq)) for eq in eqs])
    assert found[2] is failure
    assert found[0] == (1.0, complex(1.0, 0.0))
    assert found[1][0] == classify_equilibrium(bd_model, eqs[1]).rightmost
    with pytest.raises(WindingError, match="search failed"):
        classify_equilibrium(bd_model, eqs[2])


# --------------------------------------------------------------------------
# classification


def test_origin_always_unstable(bd_model, const_delay_model):
    for m in (bd_model, const_delay_model):
        e0 = boundary_equilibria(m)[0]
        v = classify_equilibrium(m, e0)
        assert v.verdict == Verdict.UNSTABLE


def test_extinction_point_classification_by_threshold():
    base = dict(r=1.0, K=2.0, n=1.0, dj=0.5)
    gain = math.exp(-0.25) * 2.0  # n e^{-dj tau(0)} f(K, 0) with b = 1
    delay = saturating_delay(0.5, 1.0, 1.0)
    from preydelay import linear
    for d, expected in ((gain * 1.25, Verdict.STABLE),
                        (gain, Verdict.NEUTRALLY_STABLE),
                        (gain * 0.8, Verdict.UNSTABLE)):
        m = ModelSpec(ModelParams(**base, d=d), delay, linear(1.0))
        e1 = boundary_equilibria(m)[1]
        v = classify_equilibrium(m, e1)
        assert v.verdict == expected, (d, v.reason)
        if expected == Verdict.UNSTABLE:
            assert v.rightmost > 1e-8
        if expected == Verdict.STABLE:
            assert v.rightmost < -1e-8


def test_coexistence_classification_on_fixture(bd_model):
    eq = solve_coexistence(bd_model)
    v = classify_equilibrium(bd_model, eq)
    assert v.verdict == Verdict.STABLE
    assert v.rightmost < -1e-8
    assert v.crossings == ()
    assert v.conditions.local_ok and v.conditions.global_ok


@pytest.mark.parametrize("rm, raises", [(0.25, True), (2e-8, True),
                                        (5e-9, False)])
def test_algebraic_stable_against_a_right_abscissa_raises(bd_model,
                                                          monkeypatch, rm,
                                                          raises):
    # a spectral search that disagrees with the algebraic route, crafted
    eq = solve_coexistence(bd_model)
    monkeypatch.setattr(stability, "spectral_abscissae",
                        lambda points: [(rm, complex(rm, 1.0))] * len(points))
    if raises:
        with pytest.raises(CrossCheckError, match="algebraic route"):
            classify_equilibrium(bd_model, eq)
    else:
        assert classify_equilibrium(bd_model, eq).verdict == Verdict.STABLE


def test_non_bd_coexistence_is_unsupported_with_abscissa():
    m = ModelSpec(ModelParams(1.0, 2.0, 1.0, 0.2, 0.8), constant_delay(1.0),
                  holling2(b=2.0, h=0.5))
    eq = solve_coexistence(m)
    v = classify_equilibrium(m, eq)
    assert v.verdict == Verdict.UNSUPPORTED
    assert v.rightmost is not None


def test_mature_heavier_mortality_is_unsupported_with_abscissa():
    # d > dj at the coexistence point: numeric fallback only
    m = ModelSpec(ModelParams(1.0, 5.0, 1.0, 0.35, 0.45),
                  saturating_delay(0.5, 1.0, 1.0),
                  beddington_deangelis(b=1.0, k1=0.0, k2=10.0))
    eq = solve_coexistence(m)
    v = classify_equilibrium(m, eq)
    assert v.verdict == Verdict.UNSUPPORTED
    assert "d > dj" in v.reason
    assert v.rightmost is not None


# --------------------------------------------------------------------------
# coefficient identities


def test_constant_term_identity_and_sign(bd_model):
    eq = solve_coexistence(bd_model)
    co = linearize_at(bd_model, eq)
    qp = quasi_polynomial(bd_model, co)
    d = bd_model.params.d
    assert qp.H2 + qp.N2 == pytest.approx(
        co.A * (co.D - d + co.eta) + co.B * co.C, rel=1e-12)
    assert qp.H2 + qp.N2 > 0.0  # zero is never a characteristic root here


def test_b1_identity_for_constant_delay_permanent_specs():
    rng = np.random.default_rng(41)
    found = 0
    while found < 20:
        m = ModelSpec(
            ModelParams(r=rng.uniform(0.5, 2.0), K=rng.uniform(2.0, 12.0),
                        n=rng.uniform(0.5, 2.0), dj=rng.uniform(0.1, 1.0),
                        d=rng.uniform(0.1, 1.0)),
            constant_delay(rng.uniform(0.3, 1.5)),
            beddington_deangelis(b=rng.uniform(0.3, 2.0),
                                 k1=rng.uniform(0.0, 0.4),
                                 k2=rng.uniform(0.1, 2.0)))
        if reproduction_number(m) <= 1.01:
            continue
        eq = solve_coexistence(m)
        co = linearize_at(m, eq)
        qp = quasi_polynomial(m, co)
        B1 = qp.H1 ** 2 - 2.0 * qp.H2 - qp.N1 ** 2
        d = m.params.d
        assert B1 == pytest.approx(co.A ** 2 + (d + co.D) * (d - co.D),
                                   rel=1e-10)
        if co.D <= d:
            assert B1 > 0.0
        found += 1


# --------------------------------------------------------------------------
# explicit conditions


def test_conditions_fail_when_interference_below_b_over_r(bd_model):
    weak = ModelSpec(bd_model.params, bd_model.delay,
                     beddington_deangelis(b=1.0, k1=0.0, k2=0.5))
    eq = solve_coexistence(weak)
    cond = check_global_conditions(weak, eq)
    assert not cond.global_interference_ok
    assert cond.global_interference_required >= 1.0  # at least b / r


def test_conditions_all_pass_on_fixture(bd_model):
    eq = solve_coexistence(bd_model)
    cond = check_global_conditions(bd_model, eq)
    assert cond.overall
    assert all(v > 0.0 for v in cond.margins.values())


def test_spectral_verdict_consistency_random_specs():
    # threshold-classified extinction points: the numerical abscissa must
    # agree in sign with the algebraic verdict
    rng = np.random.default_rng(53)
    for _ in range(6):
        m = ModelSpec(
            ModelParams(r=rng.uniform(0.5, 2.0), K=rng.uniform(1.0, 8.0),
                        n=rng.uniform(0.5, 1.5), dj=rng.uniform(0.1, 0.8),
                        d=rng.uniform(0.3, 1.2)),
            saturating_delay(0.5, 1.0, 1.0),
            beddington_deangelis(b=rng.uniform(0.2, 1.5),
                                 k1=rng.uniform(0.0, 0.3),
                                 k2=rng.uniform(0.2, 1.5)))
        e1 = boundary_equilibria(m)[1]
        v = classify_equilibrium(m, e1)
        if v.verdict == Verdict.UNSTABLE:
            assert v.rightmost > 1e-8
        elif v.verdict == Verdict.STABLE:
            assert v.rightmost < -1e-8


def test_death_ordering_flag_raised_even_if_attraction_holds():
    m = ModelSpec(ModelParams(1.0, 5.0, 1.0, 0.35, 0.45),
                  saturating_delay(0.5, 1.0, 1.0),
                  beddington_deangelis(b=1.0, k1=0.0, k2=10.0))
    eq = solve_coexistence(m)
    cond = check_global_conditions(m, eq)
    assert not cond.death_ordering_ok
    assert not cond.local_ok
    assert cond.global_ok  # the attraction inequalities themselves hold
