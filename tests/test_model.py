import dataclasses
import inspect
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from preydelay import (DelayFunction, ModelParams, ModelSpec,
                       beddington_deangelis, boundedness_limit,
                       consistent_history, constant_delay, constant_history,
                       correction_factor, exp_delay, history_consistency_error,
                       holling2, linear, make_delay, make_response, power_law,
                       reproduction_number, saturating_delay,
                       tabulated_history, validate)
from preydelay.delays import DELAY_CATALOG
from preydelay.model import (GL_NODES, GL_WEIGHTS, HistoryConsistencyWarning,
                             _implied_juvenile_stock, _linspace,
                             warn_if_inconsistent)
from preydelay.responses import RESPONSE_CATALOG

from oracles import implicit_rate_solution


def model(r=1.0, K=2.0, n=1.0, dj=0.5, d=1.0, delay=None, response=None):
    return ModelSpec(ModelParams(r, K, n, dj, d),
                     delay or constant_delay(1.0),
                     response or linear(1.0))


# --------------------------------------------------------------------------
# parameters and delay laws


def test_params_must_be_positive():
    with pytest.raises(ValueError):
        ModelParams(r=0.0, K=1.0, n=1.0, dj=1.0, d=1.0)
    with pytest.raises(ValueError):
        ModelParams(r=1.0, K=1.0, n=1.0, dj=-0.1, d=1.0)


@pytest.mark.parametrize("delay", [
    constant_delay(0.7),
    saturating_delay(0.5, 1.5, 2.0),
    exp_delay(0.3, 1.2, 0.8),
])
def test_builtin_delays_respect_bounds(delay):
    ys = np.linspace(0.0, 50.0, 200)
    taus = np.array([delay.tau(y) for y in ys])
    assert delay.tau(0.0) == pytest.approx(delay.tau_m, rel=1e-12)
    assert np.all(taus >= delay.tau_m - 1e-12)
    assert np.all(taus <= delay.tau_M + 1e-12)
    assert np.all(np.diff(taus) >= -1e-12)
    for y in (0.0, 0.3, 2.0, 10.0):
        fd = (delay.tau(y + 1e-6) - delay.tau(max(y - 1e-6, 0.0))) / (
            1e-6 + min(y, 1e-6))
        assert delay.tau_prime(y) == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_make_delay_constant_requires_equal_bounds():
    with pytest.raises(ValueError):
        make_delay("constant", 0.5, 1.0)
    d = make_delay("saturating", 0.5, 1.0, theta=2.0)
    assert d.tau(1e9) == pytest.approx(1.0, rel=1e-6)


def test_catalog_coefficients_are_the_factory_parameters():
    # a delay factory takes tau_m and tau_M before its coefficients
    for catalog, skip in ((RESPONSE_CATALOG, 0), (DELAY_CATALOG, 2)):
        for kind, (factory, ranges) in catalog.items():
            params = list(inspect.signature(factory).parameters)[skip:]
            assert list(ranges) == params, kind


@pytest.mark.parametrize("make, args, coefficients, message", [
    (make_response, ("NoSuchForm",), {"b": 1.0},
     "unknown response kind 'NoSuchForm'; expected one of ('Linear', "
     "'PowerLaw', 'HollingI', 'HollingII', 'HollingIII', 'Saturation', "
     "'Ivlev', 'BeddingtonDeAngelis', 'CrowleyMartin')"),
    (make_delay, ("spline", 0.5, 1.0), {},
     "unknown delay kind 'spline'; expected one of ('constant', "
     "'saturating', 'exp')"),
    # a JSON list as the kind was an untyped TypeError (exit 1)
    (make_delay, (["exp"], 0.5, 1.0), {},
     "unknown delay kind ['exp']; expected one of ('constant', "
     "'saturating', 'exp')"),
    (make_response, ("HollingII",), {"b": 1.0, "c": 2.0},
     "HollingII: unknown 'c'; missing 'h'; expected coefficients 'b', 'h'"),
    (make_delay, ("saturating", 0.5, 1.0), {},
     "saturating delay: missing 'theta'; expected coefficients 'theta'"),
    (make_delay, ("constant", 1.0, 1.0), {"theta": 1.0},
     "constant delay: unknown 'theta'; expected coefficients none"),
], ids=["response kind", "delay kind", "list as kind",
        "response coefficients", "missing delay coefficient",
        "unknown delay coefficient"])
def test_catalog_lookup_messages(make, args, coefficients, message):
    with pytest.raises(ValueError) as info:
        make(*args, **coefficients)
    assert str(info.value) == message


# --------------------------------------------------------------------------
# validation


def test_validate_passes_for_holling2():
    report = validate(model(response=holling2(b=2.0, h=0.5)))
    assert report.passed, str(report)


def test_validate_flags_powerlaw_exponent_but_not_monotonicity():
    report = validate(model(response=power_law(b=1.0, k=1.0)))
    failed = {c.name for c in report.failures}
    assert any("coefficients" in name for name in failed)
    assert not any("nondecreasing in x" in name for name in failed)


def test_validate_catches_wrong_delay_bound_with_witness():
    # tau(y) = 1 - exp(-y) exceeds a claimed upper bound of 0.5
    bad = DelayFunction(tau=lambda y: 1.0 - math.exp(-y),
                        tau_prime=lambda y: math.exp(-y),
                        tau_m=0.0, tau_M=0.5)
    report = validate(model(delay=bad))
    fails = [c for c in report.failures if "bounds" in c.name]
    assert len(fails) == 1
    y_witness, tau_witness = fails[0].witness
    assert tau_witness > 0.5 and 1.0 - math.exp(-y_witness) > 0.5


def test_validate_cross_checks_supplied_derivative():
    lying = DelayFunction(tau=lambda y: 0.5 + 0.1 * y / (1 + y),
                          tau_prime=lambda y: 0.0,  # wrong on purpose
                          tau_m=0.5, tau_M=0.6)
    report = validate(model(delay=lying))
    assert any("finite differences" in c.name for c in report.failures)


def custom_delay(tau, tau_prime, tau_m=1.0, tau_M=1.0):
    return model(delay=DelayFunction(tau=tau, tau_prime=tau_prime,
                                     tau_m=tau_m, tau_M=tau_M))


def custom_response(f, f_x=None):
    # the Linear kind's coefficients, so only the law itself can fail
    base = linear(1.0)
    return model(response=dataclasses.replace(base, f=f, f_x=f_x or base.f_x))


# y_cap = 2.25 on the default model: the grid's y step is 2.25 / 63 and its
# x step 2 / 63, scanned x outer, y inner
@pytest.mark.parametrize("spec, failures", [
    (custom_delay(lambda y: 1.0, lambda y: -y), [
        ("delay.tau_prime >= 0", (0.03571428571428571, -0.03571428571428571),
         ""),
        ("delay.tau_prime matches finite differences",
         (0.03571428571428571, 0.0, -0.03571428571428571), "")]),
    (custom_delay(lambda y: 1.0 - math.exp(-y), lambda y: math.exp(-y),
                  tau_m=0.0, tau_M=0.5), [
        ("delay bounds tau_m <= tau(y) <= tau_M",
         (0.7142857142857142, 0.5104583404430468),
         "tau(0.714286) = 0.510458 outside [0, 0.5]")]),
    (custom_delay(lambda y: 1.0, lambda y: 0.0, tau_m=0.9),
     [("delay.tau(0) == tau_m", 1.0, "")]),
    (custom_delay(lambda y: 1.0 + 0.5 * (y - 1.0) ** 2,
                  lambda y: abs(y - 1.0), tau_m=1.5, tau_M=1.5), [
        ("delay bounds tau_m <= tau(y) <= tau_M",
         (0.03571428571428571, 1.464923469387755),
         "tau(0.0357143) = 1.46492 outside [1.5, 1.5]"),
        ("delay nondecreasing on grid", 0.0, ""),
        ("delay.tau_prime matches finite differences",
         (0.03571428571428571, -0.964285714290093, 0.9642857142857143), "")]),
    (custom_delay(lambda y: 0.5 + 0.1 * y / (1 + y), lambda y: 0.0,
                  tau_m=0.5, tau_M=0.6), [
        ("delay.tau_prime matches finite differences",
         (0.03571428571428571, 0.0932223543544571, 0.0), "")]),
    (model(response=power_law(b=1.0, k=1.0)), [
        ("response coefficients: PowerLaw: exponent 'k' must be > 1", None,
         "PowerLaw: exponent 'k' must be > 1")]),
    (custom_response(lambda x, y: 1.0 + x),
     [("response f(0, y) == 0", (0.0, 0.0, 1.0), "")]),
    (custom_response(lambda x, y: x * (1.0 - y)), [
        ("response f > 0 for x, y > 0", (0.031746031746031744, 1.0, 0.0), ""),
        ("response nondecreasing in x", (0.0, 1.0357142857142856), "")]),
    (custom_response(lambda x, y: x * math.exp(-x)),
     [("response nondecreasing in x", (1.0158730158730158, 0.0), "")]),
    (custom_response(lambda x, y: x * (1.0 + y)),
     [("response nonincreasing in y", (0.031746031746031744, 0.0), "")]),
    (custom_response(lambda x, y: x, lambda x, y: math.inf),
     [("response |f_x(0,0)| finite", math.inf, "")]),
], ids=["tau_prime<0", "bounds", "tau(0)!=tau_m", "decreasing",
        "finite differences", "coefficient range", "f(0,y)!=0", "f<=0",
        "decreasing in x", "increasing in y", "f_x(0,0) infinite"])
def test_validate_reports_the_first_failing_grid_point(spec, failures):
    report = validate(spec)
    assert [(c.name, c.witness, c.detail) for c in report.failures] == failures
    assert len(report.checks) == 11


# --------------------------------------------------------------------------
# reproduction number


def test_reproduction_number_exponent_vanishes():
    # dj -> 0: R = n f(K,0) / d = 2 with b=1, K=2, d=1
    m = model(dj=1e-12)
    assert reproduction_number(m) == pytest.approx(2.0, rel=1e-10)


def test_reproduction_number_half_survival():
    m = model(dj=1.0, delay=constant_delay(math.log(2.0)))
    assert reproduction_number(m) == pytest.approx(1.0, rel=1e-15)


def test_reproduction_number_bd_is_r_independent():
    from preydelay import beddington_deangelis
    resp = beddington_deangelis(b=1.0, k1=0.1, k2=3.0)
    vals = {reproduction_number(model(r=r_, K=10.0, response=resp))
            for r_ in (0.5, 1.0, 2.0)}
    assert len(vals) == 1
    (val,) = vals
    assert val == pytest.approx(
        1.0 * math.exp(-0.5) * (1.0 * 10.0 / (1.0 + 0.1 * 10.0)) / 1.0)


def test_reproduction_number_monotonicity_signs():
    base = dict(r=1.0, K=2.0, n=1.0, dj=0.5, d=1.0)
    R0 = reproduction_number(model(**base))
    assert reproduction_number(model(**{**base, "n": 1.1})) > R0
    assert reproduction_number(model(**{**base, "d": 1.1})) < R0
    assert reproduction_number(
        model(**base, delay=constant_delay(1.2))) < R0
    assert reproduction_number(model(**{**base, "K": 2.4})) > R0  # f(K,0) up


# --------------------------------------------------------------------------
# correction factor


def test_correction_factor_constant_delay_is_one():
    assert correction_factor(model(), 3.0, 5.0) == 1.0


def test_correction_factor_zero_recruitment_value():
    m = model(d=1.0, delay=saturating_delay(0.5, 1.5, 5.0))
    # tau'(2) = 1.0 * 5 / 49; pick theta so tau'(y)=0.1 at y=2 instead:
    delay = DelayFunction(tau=lambda y: 0.5 + 0.1 * y, tau_prime=lambda y: 0.1,
                          tau_m=0.5, tau_M=math.inf)
    m = model(d=1.0, delay=delay)
    assert correction_factor(m, 2.0, 0.0) == pytest.approx(1.2, abs=0)


def test_correction_factor_matches_implicit_solve():
    rng = np.random.default_rng(2)
    for _ in range(300):
        tp, d, y, N = rng.uniform(0.0, 2.0), rng.uniform(0.05, 2.0), \
            rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
        delay = DelayFunction(tau=lambda v, tp=tp: 0.5 + tp * v,
                              tau_prime=lambda v, tp=tp: tp,
                              tau_m=0.5, tau_M=math.inf)
        m = model(d=d, delay=delay)
        got = correction_factor(m, y, N)
        yp = implicit_rate_solution(tp, d, y, N)
        assert got == pytest.approx(1.0 - tp * yp, rel=1e-12, abs=1e-12)
        assert got > 0.0
        assert got <= 1.0 + tp * d * y + 1e-12


def test_correction_factor_rejects_negative_inputs():
    with pytest.raises(ValueError):
        correction_factor(model(), -1.0, 0.0)
    with pytest.raises(ValueError):
        correction_factor(model(), 1.0, -0.5)


# --------------------------------------------------------------------------
# histories


def test_history_consistency_identity():
    m = model(response=holling2(b=2.0, h=0.5))
    hist = consistent_history(m, x0=1.0, y0=0.6, amp=0.2, omega=2.0)
    assert history_consistency_error(m, hist) < 1e-9


@pytest.mark.parametrize("epsrel", [1e-8, 1e-10])
def test_recruitment_quadrature_matches_scipy_on_kinked_history(epsrel):
    # piecewise-linear histories with kinks inside the recruitment window:
    # a few far apart, and 160 samples, which exhaust the panel limit unless
    # the integral is split at the knots
    m = model(delay=saturating_delay(0.5, 1.5, 1.0),
              response=holling2(b=2.0, h=0.5))
    p = m.params
    zigzag = np.random.default_rng(3).uniform(0.5, 2.0, 160)
    for times, x, y in (
            ([-1.5, -1.1, -0.73, -0.4, -0.15, 0.0],
             [1.0, 2.5, 0.8, 1.7, 0.3, 1.2], [0.2, 0.9, 0.4, 1.4, 0.6, 0.8]),
            (np.linspace(-1.5, 0.0, 160), zigzag, zigzag[::-1])):
        hist = tabulated_history(times, x=x, y=y, yj=[0.5] * len(times))
        tau0 = m.delay.tau(hist.phi3(0.0))
        cuts = [-tau0, *(t for t in times if -tau0 < t < 0.0), 0.0]
        want = sum(quad(lambda s: (p.n * m.response.f(hist.phi1(s), hist.phi3(s))
                                   * hist.phi3(s) * math.exp(p.dj * s)),
                        a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(cuts[:-1], cuts[1:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _implied_juvenile_stock(m, hist, epsrel=epsrel)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_recruitment_quadrature_warns_when_panels_run_out():
    # a kink every 0.001 time units needs more than the 4 000-panel budget at
    # 1e-10 when the history does not declare its knots
    m = model(delay=saturating_delay(0.5, 1.5, 1.0),
              response=holling2(b=2.0, h=0.5))
    times = np.linspace(-1.5, 0.0, 1501)
    zigzag = 1.0 + 0.5 * (np.arange(1501) % 2)
    hist = dataclasses.replace(
        tabulated_history(times, x=zigzag, y=zigzag, yj=zigzag), knots=())
    with pytest.warns(RuntimeWarning, match="stopped at 4000 panels"):
        _implied_juvenile_stock(m, hist, epsrel=1e-10)


def test_recruitment_quadrature_reaches_a_long_window():
    # the demo BD model with dj = 0.001 and a delay of 2000: the sine history
    # needs 1 691 panels, past the 200 the quadrature once stopped at with a
    # 6.5e-4 relative error; a 40 000-panel composite rule gives the value
    m = ModelSpec(ModelParams(r=1.0, K=5.0, n=1.0, dj=0.001, d=0.45),
                  constant_delay(2000.0),
                  beddington_deangelis(b=1.0, k1=0.0, k2=10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = consistent_history(m, 2.0, 0.4, amp=0.2, omega=2.0)
    assert hist.phi2(0.0) == pytest.approx(138.438116734425, rel=1e-10)


def test_gauss_legendre_literals_match_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    for got, want in ((GL_NODES, nodes), (GL_WEIGHTS, weights)):
        assert isinstance(got, tuple) and all(type(v) is float for v in got)
        assert len(got) == len(want)
        assert np.all(np.abs(np.array(got) - want) <= np.spacing(np.abs(want)))


def test_inconsistent_history_warns():
    m = model()
    hist = constant_history(1.0, 0.5, 10.0)  # juvenile stock far too large
    with pytest.warns(HistoryConsistencyWarning):
        warn_if_inconsistent(m, hist)


def test_history_nonnegativity_enforced():
    bad = tabulated_history([-1.0, 0.0], x=[1.0, 1.0], y=[-0.2, 0.5],
                            yj=[0.1, 0.1])
    with pytest.raises(ValueError,
                       match=r"^history phi3 is negative at theta=-1: -0\.2$"):
        bad.check_nonnegative(tau_M=1.0)


@pytest.mark.parametrize("start, stop, num", [
    (0.0, 1.0, 2), (-1.0, 0.0, 2), (-1.5, 0.0, 64), (0.0, 7.3, 64),
    (-2.0, 3.7, 161), (0.0, 80.0, 161), (0.0, 2560.0, 1260), (3.0, -0.1, 7)])
def test_linspace_helper_is_numpys_linspace(start, stop, num):
    got = _linspace(start, stop, num)
    assert [v.hex() for v in got] == [
        v.hex() for v in np.linspace(start, stop, num).tolist()]


def test_history_values_at_zero_are_labelled():
    # the values were printed unlabelled, in (x, yj, y) order
    hist = constant_history(1.0, 0.5, 0.0)
    with pytest.raises(ValueError, match=r"got x=1\.0, y=0\.5, yj=0\.0$"):
        hist.check_nonnegative(tau_M=1.0)


@pytest.mark.parametrize("series", ["x", "y", "yj"])
def test_tabulated_history_refuses_series_unlike_times(series):
    # refused when built, not when numpy first interpolates it
    values = {"x": [1.0, 1.0], "y": [0.5, 0.5], "yj": [0.1, 0.1]}
    values[series] = [0.1, 0.2, 0.3]
    with pytest.raises(ValueError, match=f"series {series} "):
        tabulated_history([-1.0, 0.0], **values)


def test_boundedness_limit_symmetric_rates():
    # dj = d: limit is n K (d + r)^2 / (4 r d)
    m = model(dj=1.0, d=1.0)
    assert boundedness_limit(m) == pytest.approx(2.0 * 4.0 / 4.0)


# --------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    m = ModelSpec(ModelParams(1.5, 10.0, 0.8, 0.3, 0.6),
                  saturating_delay(0.4, 1.1, 2.0),
                  holling2(b=2.0, h=0.5))
    doc = json.loads(json.dumps(m.to_dict()))
    m2 = ModelSpec.from_dict(doc)
    assert m2.params == m.params
    assert m2.delay.kind == "saturating"
    assert m2.response.coefficients == m.response.coefficients
    for y in (0.0, 1.0, 7.0):
        assert m2.delay.tau(y) == pytest.approx(m.delay.tau(y), rel=1e-15)


def test_json_unknown_key_is_rejected_with_path():
    m = model()
    doc = m.to_dict()
    doc["params"]["extra"] = 1.0
    with pytest.raises(ValueError, match="params.extra"):
        ModelSpec.from_dict(doc)


RESPONSE_COEFFICIENTS = {
    "Linear": ("b",), "PowerLaw": ("b", "k"), "HollingI": ("a", "b"),
    "HollingII": ("b", "h"), "HollingIII": ("b", "h"),
    "Saturation": ("b", "h", "k"), "Ivlev": ("b", "c"),
    "BeddingtonDeAngelis": ("b", "k1", "k2"),
    "CrowleyMartin": ("b", "k1", "k2"),
}
DELAY_COEFFICIENTS = {"constant": (), "saturating": ("theta",), "exp": ("lam",)}
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
# a config refuses the exponent k of PowerLaw and Saturation unless k > 1
above_one = st.floats(min_value=1.0, max_value=1e6, exclude_min=True)


@st.composite
def model_specs(draw):
    params = ModelParams(*(draw(positive) for _ in range(5)))
    delay_kind = draw(st.sampled_from(sorted(DELAY_COEFFICIENTS)))
    tau_m = draw(st.floats(min_value=0.0, max_value=10.0))
    tau_M = tau_m if delay_kind == "constant" else tau_m + draw(positive)
    delay = make_delay(delay_kind, tau_m, tau_M,
                       **{c: draw(positive) for c in DELAY_COEFFICIENTS[delay_kind]})
    response_kind = draw(st.sampled_from(sorted(RESPONSE_COEFFICIENTS)))
    response = make_response(
        response_kind,
        **{c: draw(above_one if c == "k" else positive)
           for c in RESPONSE_COEFFICIENTS[response_kind]})
    return ModelSpec(params, delay, response)


def test_round_trip_strategy_covers_every_kind():
    assert set(RESPONSE_COEFFICIENTS) == set(RESPONSE_CATALOG)
    assert set(DELAY_COEFFICIENTS) == set(DELAY_CATALOG)


@given(model_specs())
def test_json_round_trip_property(m):
    doc = m.to_dict()
    assert ModelSpec.from_dict(json.loads(json.dumps(doc))).to_dict() == doc
