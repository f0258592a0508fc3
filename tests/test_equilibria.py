import math

import numpy as np
import pytest
from scipy import optimize

from preydelay import (EquilibriumKind, ModelParams, ModelSpec,
                       NoConvergenceError, beddington_deangelis,
                       boundary_equilibria, constant_delay, exp_delay,
                       holling2, linear, make_delay, make_response,
                       reproduction_number, saturating_delay,
                       solve_coexistence, steady_state_residual, yj_star)
from preydelay.equilibria import (_balance_jacobian, _balances,
                                  _bracketed_root)
from preydelay.model import _linspace
from conftest import BD_TAUSTAR, BD_XSTAR, BD_YJSTAR, BD_YSTAR

from oracles import coexistence_point, steady_recruitment_integral

# frozen from the independent 2-D grid-scan + Newton oracle (residual < 1e-12)
EXAMPLE_XSTAR = 2.64318779748522
EXAMPLE_YSTAR = 3.51899166437285


def example_model():
    return ModelSpec(ModelParams(r=1.0, K=10.0, n=1.0, dj=0.1, d=0.5),
                     constant_delay(1.0),
                     beddington_deangelis(b=1.0, k1=0.1, k2=1.0))


def test_boundary_equilibria_are_exact():
    m = example_model()
    e0, e1 = boundary_equilibria(m)
    assert e0.kind == EquilibriumKind.TRIVIAL
    assert (e0.x_star, e0.y_star, e0.yj_star) == (0.0, 0.0, 0.0)
    assert e0.residual == 0.0
    assert e1.kind == EquilibriumKind.PREDATOR_EXTINCTION
    assert e1.x_star == 10.0 and e1.y_star == 0.0 and e1.yj_star == 0.0


def test_bd_constant_delay_matches_frozen_oracle():
    eq = solve_coexistence(example_model())
    assert eq is not None and eq.kind == EquilibriumKind.COEXISTENCE
    assert eq.x_star == pytest.approx(EXAMPLE_XSTAR, abs=1e-10)
    assert eq.y_star == pytest.approx(EXAMPLE_YSTAR, abs=1e-10)
    assert eq.residual <= 1e-10


def test_bd_state_dependent_matches_frozen_oracle(bd_model):
    eq = solve_coexistence(bd_model)
    assert eq.x_star == pytest.approx(BD_XSTAR, abs=1e-9)
    assert eq.y_star == pytest.approx(BD_YSTAR, abs=1e-9)
    assert eq.yj_star == pytest.approx(BD_YJSTAR, abs=1e-9)
    assert eq.tau_star == pytest.approx(BD_TAUSTAR, abs=1e-9)


def test_interference_keeps_prey_above_half_capacity(bd_model):
    # d <= dj with strong interference: the coexistence prey level stays
    # above K/2
    eq = solve_coexistence(bd_model)
    assert bd_model.params.d <= bd_model.params.dj
    assert eq.x_star > bd_model.params.K / 2.0


def test_subcritical_reproduction_returns_none():
    m = ModelSpec(ModelParams(1.0, 2.0, 1.0, 0.5, 1.0), constant_delay(0.5),
                  linear(0.3))
    assert reproduction_number(m) < 1.0
    assert solve_coexistence(m) is None


def test_general_response_solver_holling2():
    m = ModelSpec(ModelParams(1.0, 2.0, 1.0, 0.2, 0.8), constant_delay(1.0),
                  holling2(b=2.0, h=0.5))
    eq = solve_coexistence(m)
    assert eq is not None and eq.residual <= 1e-10
    # predator balance pins f(x*, y*) directly
    p = m.params
    assert m.response.f(eq.x_star, eq.y_star) == pytest.approx(
        p.d / (p.n * math.exp(-p.dj * 1.0)), rel=1e-12)


def test_general_solver_state_dependent_linear():
    m = ModelSpec(ModelParams(1.0, 2.0, 1.0, 0.5, 1.0),
                  saturating_delay(0.5, 1.5, 2.0), linear(1.5))
    eq = solve_coexistence(m)
    assert eq is not None and eq.residual <= 1e-10
    assert eq.tau_star == pytest.approx(m.delay.tau(eq.y_star), rel=1e-14)


@pytest.mark.parametrize("response", [holling2(b=2.0, h=0.5), linear(1.5)])
def test_bracketed_root_matches_brentq_on_prey_inversion(response):
    # the solver's nullcline: invert the predator balance f(x, y) = target
    # on [0, 1e9 K] with K = 2
    x_big = 2e9
    for target in (0.3, 0.9, 1.7):
        for y in (0.0, 0.4, 3.0):
            g = lambda x: response.f(x, y) - target
            if not g(0.0) < 0.0 < g(x_big):
                continue
            want = optimize.brentq(g, 0.0, x_big, xtol=1e-15, rtol=8.9e-16)
            got = _bracketed_root(g, 0.0, x_big, xtol=1e-15, rtol=8.9e-16)
            assert abs(got - want) <= 4e-15 * max(1.0, want), (target, y)


def test_bracketed_root_survives_infinite_values_and_checks_bracket():
    # -inf marks where the prey balance along the nullcline cannot be evaluated
    g = lambda v: 0.3 - v if v < 0.7 else -math.inf
    assert _bracketed_root(g, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16) == \
        pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        _bracketed_root(g, 0.0, 0.2, xtol=1e-15, rtol=8.9e-16)


def test_balance_jacobian_matches_central_differences(bd_model):
    linear_model = ModelSpec(ModelParams(1.0, 2.0, 1.0, 0.5, 1.0),
                             saturating_delay(0.5, 1.5, 2.0), linear(1.5))
    for m in (bd_model, linear_model):
        eq = solve_coexistence(m)
        x, y = eq.x_star, eq.y_star
        J = np.array(_balance_jacobian(m, x, y))
        for j, (hx, hy) in enumerate(((1e-6 * x, 0.0), (0.0, 1e-6 * y))):
            plus = np.array(_balances(m, x + hx, y + hy))
            minus = np.array(_balances(m, x - hx, y - hy))
            fd = (plus - minus) / (2.0 * (hx + hy))
            np.testing.assert_allclose(J[:, j], fd, rtol=1e-7, atol=1e-9)


def test_yj_star_small_dj_limit():
    m = ModelSpec(ModelParams(1.0, 2.0, 1.0, 1e-14, 1.0), constant_delay(0.7),
                  linear(1.0))
    v = yj_star(m, 1.0, 0.5)
    assert v == pytest.approx(1.0 * m.response.f(1.0, 0.5) * 0.5 * 0.7, rel=1e-9)


def test_yj_star_zero_recruitment():
    m = example_model()
    assert yj_star(m, 0.0, 0.0) == 0.0


def test_yj_star_matches_quadrature(bd_model):
    eq = solve_coexistence(bd_model)
    f_star = bd_model.response.f(eq.x_star, eq.y_star)
    want = steady_recruitment_integral(bd_model.params.n, bd_model.params.dj,
                                       f_star, eq.y_star, eq.tau_star)
    assert eq.yj_star == pytest.approx(want, rel=1e-12)


def test_threshold_equivalence_random_bd_specs():
    # light version of the acceptance sweep: 40 random specs
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        kind = rng.choice(["constant", "saturating", "exp"])
        tau_m = rng.uniform(0.1, 1.2)
        tau_M = tau_m if kind == "constant" else tau_m + rng.uniform(0.05, 1.5)
        coef = ({} if kind == "constant"
                else {"theta": rng.uniform(0.5, 2.0)} if kind == "saturating"
                else {"lam": rng.uniform(0.3, 2.0)})
        m = ModelSpec(
            ModelParams(r=rng.uniform(0.3, 2.5), K=rng.uniform(1.0, 15.0),
                        n=rng.uniform(0.3, 2.5), dj=rng.uniform(0.05, 1.0),
                        d=rng.uniform(0.05, 1.5)),
            make_delay(kind, tau_m, tau_M, **coef),
            beddington_deangelis(b=rng.uniform(0.05, 2.5),
                                 k1=rng.uniform(0.0, 0.5),
                                 k2=rng.uniform(0.05, 2.0)))
        R = reproduction_number(m)
        if abs(R - 1.0) < 1e-3:
            continue
        checked += 1
        eq = solve_coexistence(m)
        assert (eq is not None) == (R > 1.0), (R, m.to_dict())
        if eq is not None:
            assert eq.residual <= 1e-10
            assert steady_state_residual(m, eq.x_star, eq.y_star) <= 1e-10
    assert checked >= 30


def test_scan_points_are_the_linspace_values():
    # the solver scans _linspace(0, y_top, 65)[1:] without numpy; they must
    # be linspace's values to the bit, or every solve's bracket and root
    # could move
    rng = np.random.default_rng(3)
    y_tops = [1.0, 3.0, 0.1, 7.3, 64.0, 1e-9, 123456.789, 2.0 ** 60 / 3.0,
              *rng.uniform(0.0, 50.0, 50), *np.exp(rng.uniform(-20, 20, 50))]
    for y_top in map(float, y_tops):
        assert [v.hex() for v in _linspace(0.0, y_top, 65)[1:]] == [
            v.hex() for v in np.linspace(0.0, y_top, 65)[1:].tolist()]


def oracle_pieces(kind, coefficients):
    """The smooth pieces of a response with a kink, for the oracle; else None."""
    if kind != "HollingI":
        return None
    a, b = coefficients["a"], coefficients["b"]
    return [(lambda x, y: a * x, 0.0, b), (lambda x, y: a * b, b, math.inf)]


# coefficient draws per catalog response
ORACLE_RESPONSES = {
    "Linear": lambda rng: {"b": rng.uniform(0.05, 2.5)},
    "HollingII": lambda rng: {"b": rng.uniform(0.05, 2.5),
                              "h": rng.uniform(0.05, 2.0)},
    "HollingIII": lambda rng: {"b": rng.uniform(0.05, 2.5),
                               "h": rng.uniform(0.05, 2.0)},
    "Saturation": lambda rng: {"b": rng.uniform(0.05, 2.5),
                               "h": rng.uniform(0.05, 2.0),
                               "k": rng.uniform(1.05, 3.0)},
    "Ivlev": lambda rng: {"b": rng.uniform(0.05, 2.5),
                          "c": rng.uniform(0.1, 2.0)},
    "PowerLaw": lambda rng: {"b": rng.uniform(0.05, 2.5),
                             "k": rng.uniform(1.05, 3.0)},
    "BeddingtonDeAngelis": lambda rng: {"b": rng.uniform(0.05, 2.5),
                                        "k1": rng.uniform(0.0, 0.5),
                                        "k2": rng.uniform(0.0, 2.0)},
    "CrowleyMartin": lambda rng: {"b": rng.uniform(0.05, 2.5),
                                  "k1": rng.uniform(0.0, 0.5),
                                  "k2": rng.uniform(0.0, 2.0)},
    # the oracle solves each piece of f = min(a x, a b) on its own: one of
    # the fifteen points lies just below the break (x* = 2.0254, b = 2.2145),
    # where Powell on f itself stalls at the kink; the plateau is covered by
    # test_holling1_plateau_equilibrium_is_found
    "HollingI": lambda rng: {"a": rng.uniform(0.05, 2.5),
                             "b": rng.uniform(0.2, 5.0)},
}


def test_coexistence_matches_full_system_oracle_across_catalog():
    # five R > 1 draws for every response and delay law: 135 specs, each
    # solved by the library and by the independent 2-D oracle
    rng = np.random.default_rng(20261018)
    for kind, coefficients in ORACLE_RESPONSES.items():
        for delay_kind in ("constant", "saturating", "exp"):
            found = 0
            while found < 5:
                tau_m = rng.uniform(0.1, 1.2)
                tau_M = (tau_m if delay_kind == "constant"
                         else tau_m + rng.uniform(0.05, 1.5))
                coef = ({} if delay_kind == "constant"
                        else {"theta": rng.uniform(0.3, 3.0)}
                        if delay_kind == "saturating"
                        else {"lam": rng.uniform(0.2, 3.0)})
                p = ModelParams(r=rng.uniform(0.3, 2.5), K=rng.uniform(1.0, 15.0),
                                n=rng.uniform(0.3, 2.5), dj=rng.uniform(0.05, 1.0),
                                d=rng.uniform(0.05, 1.5))
                drawn = coefficients(rng)
                m = ModelSpec(p, make_delay(delay_kind, tau_m, tau_M, **coef),
                              make_response(kind, **drawn))
                if reproduction_number(m) <= 1.0:
                    continue
                found += 1
                eq = solve_coexistence(m)
                x, y = coexistence_point(m.response.f, m.delay.tau,
                                         p.r, p.K, p.n, p.dj, p.d,
                                         oracle_pieces(kind, drawn))
                assert eq.x_star == pytest.approx(x, rel=1e-9), m.to_dict()
                assert eq.y_star == pytest.approx(y, rel=1e-9), m.to_dict()


# R = 1.64; the equilibrium (8.473966674361732, 0.4993573048078408), residual
# 1.4e-16, lies on the plateau f = a b, where f(., y) = target has no unique
# inverse, so the nullcline ends before the prey balance changes sign
HOLLING1_PLATEAU_MODEL = {
    "params": {"r": 0.8757792476175272, "K": 8.783068682786663,
               "n": 1.0041944526896878, "dj": 0.930725176148031,
               "d": 0.1729582148500795},
    "delay": {"kind": "exp", "coefficients": {"lam": 0.9780437176319199},
              "tau_m": 0.6618444104834585, "tau_M": 2.0376708960997134},
    "response": {"kind": "HollingI",
                 "coefficients": {"a": 0.5960989039810386,
                                  "b": 0.8774193728588086}}}


def test_holling1_plateau_equilibrium_is_found():
    m = ModelSpec.from_dict(HOLLING1_PLATEAU_MODEL)
    assert reproduction_number(m) == pytest.approx(1.64, abs=5e-3)
    assert steady_state_residual(m, 8.473966674361732, 0.4993573048078408) <= 1e-15
    eq = solve_coexistence(m)
    assert eq.x_star == pytest.approx(8.473966674361732, rel=1e-9)
    assert eq.y_star == pytest.approx(0.4993573048078408, rel=1e-9)
    p = m.params
    x, y = coexistence_point(m.response.f, m.delay.tau, p.r, p.K, p.n, p.dj,
                             p.d, oracle_pieces("HollingI",
                                                m.response.coefficients))
    assert (eq.x_star, eq.y_star) == pytest.approx((x, y), rel=1e-9)
