import math

import numpy as np
import pytest
from scipy import optimize

from preydelay import (EquilibriumKind, ModelParams, ModelSpec,
                       beddington_deangelis, boundary_equilibria,
                       constant_delay, exp_delay, holling2, linear,
                       make_delay, reproduction_number, saturating_delay,
                       solve_coexistence, steady_state_residual, yj_star)
from preydelay.equilibria import (_balance_jacobian, _balances,
                                  _bracketed_root)
from conftest import BD_TAUSTAR, BD_XSTAR, BD_YJSTAR, BD_YSTAR

from oracles import steady_recruitment_integral

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
    assert e0.as_tuple() == (0.0, 0.0, 0.0) and e0.residual == 0.0
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
    # the general solver's x_of_y: invert the predator balance f(x, y) = target
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
    # -inf marks where the general solver's prey balance cannot be evaluated
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
