import dataclasses
import math

import numpy as np
import pytest

from preydelay import (ModelParams, ModelSpec, NoConvergenceError,
                       QuasiPolynomial, Verdict,
                       beddington_deangelis, boundary_equilibria,
                       characteristic_eval, check_global_conditions,
                       classify_equilibrium, constant_delay, holling2,
                       linearize_at, quartic_classify, quasi_polynomial,
                       reproduction_number, rightmost_abscissa,
                       saturating_delay, solve_coexistence)
from preydelay.stability import imaginary_crossing_quartic

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
# quartic classifier


def test_quartic_negative_constant_clause():
    rep = quartic_classify(0.0, 0.0, 0.0, -1.0)
    assert rep.has_positive_root and rep.case == "negative_constant"


def test_quartic_all_positive_terms():
    rep = quartic_classify(0.0, 1.0, 0.0, 1.0)
    assert not rep.has_positive_root


def test_quartic_double_well():
    # (v^2 - 1)^2 - 0.01: roots near +-1.05, +-0.95
    rep = quartic_classify(0.0, -2.0, 0.0, 0.99)
    assert rep.has_positive_root


def test_quartic_critical_points_are_stationary():
    rng = np.random.default_rng(17)
    for _ in range(200):
        Q = rng.uniform(-3.0, 3.0, 4)
        rep = quartic_classify(*Q)
        hp = lambda v: 4 * v ** 3 + 3 * Q[0] * v ** 2 + 2 * Q[1] * v + Q[2]
        for v in (rep.v1, rep.v2, rep.v3):
            if abs(v.imag) <= 1e-9:
                assert abs(hp(v.real)) < 1e-7 * (1.0 + abs(v.real) ** 3)


def test_quartic_against_companion_oracle():
    rng = np.random.default_rng(29)
    tested = 0
    for _ in range(300):
        Q = rng.uniform(-3.0, 3.0, 4)
        rep = quartic_classify(*Q)
        if rep.boundary_distance() < 1e-9:
            continue
        tested += 1
        assert rep.has_positive_root == quartic_has_positive_root(*Q), Q
    assert tested >= 295


def test_quartic_biquadratic_matches_direct_analysis():
    rng = np.random.default_rng(31)
    for _ in range(300):
        B1, B2 = rng.uniform(-4.0, 4.0, 2)
        rep = quartic_classify(0.0, B1, 0.0, B2)
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
        assert rep.has_positive_root == direct, (B1, B2)


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


# --------------------------------------------------------------------------
# classification


def test_origin_always_unstable(bd_model, const_delay_model):
    for m in (bd_model, const_delay_model):
        e0 = boundary_equilibria(m)[0]
        v = classify_equilibrium(m, e0, compute_rightmost=False)
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
    assert not v.quartic.has_positive_root
    assert v.conditions.local_ok and v.conditions.global_ok


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
        B1, _ = imaginary_crossing_quartic(qp)
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
