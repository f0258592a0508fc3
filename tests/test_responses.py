import math

import numpy as np
import pytest

from preydelay import (beddington_deangelis, holling1, holling2,
                       make_response, power_law)

from conftest import ALL_FORMS


def test_holling2_point_value():
    # b=2, h=0.5, x=1: 2*1 / (1 + 2*0.5*1) = 1
    assert holling2(b=2.0, h=0.5).f(1.0, 0.0) == pytest.approx(1.0, abs=0)


def test_bd_degenerates_to_linear():
    resp = beddington_deangelis(b=1.0, k1=0.0, k2=0.0)
    assert resp.f(3.0, 7.0) == pytest.approx(3.0, abs=0)


@pytest.mark.parametrize("name,make", ALL_FORMS)
def test_vanishes_only_at_zero_prey(name, make):
    rng = np.random.default_rng(abs(hash(name)) % 2 ** 32)
    resp = make(rng)
    for y in (0.0, 0.5, 4.0):
        assert resp.f(0.0, y) == 0.0
    for x in (1e-6, 0.3, 5.0):
        assert resp.f(x, 1.0) > 0.0


@pytest.mark.parametrize("name,make", ALL_FORMS)
def test_monotone_in_both_arguments(name, make):
    # nondecreasing in x, nonincreasing in y on a 64x64 grid; equality is
    # allowed (y-monotonicity is vacuous for y-independent forms)
    rng = np.random.default_rng(123)
    for _ in range(3):
        resp = make(rng)
        xs = np.linspace(0.0, 8.0, 64)
        ys = np.linspace(0.0, 8.0, 64)
        F = np.array([[resp.f(x, y) for y in ys] for x in xs])
        assert np.all(np.diff(F, axis=0) >= -1e-12)
        assert np.all(np.diff(F, axis=1) <= 1e-12)


@pytest.mark.parametrize("name,make", ALL_FORMS)
def test_partials_match_central_differences(name, make):
    rng = np.random.default_rng(456)
    resp = make(rng)
    pts = rng.uniform(0.3, 6.0, size=(100, 2))
    h = 1e-6
    for x, y in pts:
        if resp.kind == "HollingI" and abs(x - resp.coefficients["b"]) < 2 * h:
            continue  # the break point is only piecewise differentiable
        fd_x = (resp.f(x + h, y) - resp.f(x - h, y)) / (2 * h)
        fd_y = (resp.f(x, y + h) - resp.f(x, y - h)) / (2 * h)
        assert resp.f_x(x, y) == pytest.approx(fd_x, rel=1e-6, abs=1e-9)
        assert resp.f_y(x, y) == pytest.approx(fd_y, rel=1e-6, abs=1e-9)


def test_holling1_break_uses_left_derivative():
    resp = holling1(a=1.5, b=2.0)
    assert resp.f_x(2.0, 0.0) == 1.5
    assert resp.f_x(2.0 + 1e-12, 0.0) == 0.0
    assert resp.f(5.0, 0.0) == pytest.approx(3.0, abs=0)


def test_finite_prey_derivative_at_origin():
    for name, make in ALL_FORMS:
        resp = make(np.random.default_rng(9))
        assert math.isfinite(resp.f_x(0.0, 0.0))


def test_power_law_exponent_constraint_flagged():
    resp = power_law(b=1.0, k=1.0)
    errs = resp.coefficient_errors()
    assert [name for name, _ in errs] == ["k"]
    assert power_law(b=1.0, k=1.5).coefficient_errors() == []


def test_make_response_registry():
    resp = make_response("HollingII", b=2.0, h=0.5)
    assert resp.kind == "HollingII"
    with pytest.raises(ValueError):
        make_response("NoSuchForm", b=1.0)
