"""The simulation checks the spectrum: a run started next to the coexistence
point E* leaves it at the rate of the spectral abscissa sigma.

By the linearized stability principle for state-dependent delays (Hartung,
Krisztin, Walther & Wu, Handbook of Differential Equations: ODEs vol. 3,
2006), the deviation from a hyperbolic E* decays as e^(sigma t).  This ties
``linearize_at``'s coefficients, the eta term that tau'(y) brings in
included, to the model that the integrator solves.

The rule for what the fit cannot resolve, fixed before any result was read:
skip a point where |sigma| < 0.02, or where the collocation spectrum has a
root other than the rightmost pair within 2% of |sigma| of its real part.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from preydelay import (ModelParams, ModelSpec, beddington_deangelis,
                       classify_equilibrium, consistent_history,
                       default_stepper, integrate, saturating_delay,
                       solve_coexistence)

from oracles import RK4StepsOracle, cheb_collocation_eigenvalues

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"
RATE_RTOL = 0.02
WINDOWS = 20
SAMPLES = 4001


def _steep_delay_model(n, dj, d):
    return ModelSpec(ModelParams(r=1.0, K=5.0, n=n, dj=dj, d=d),
                     saturating_delay(0.3, 2.0, 0.3),
                     beddington_deangelis(b=1.0, k1=0.0, k2=2.0))


def _sweep_row_model(k2, d, tau_m, tau_M):
    doc = json.loads(DEMO_CONFIG.read_text())["model"]
    doc["params"]["d"] = d
    doc["response"]["coefficients"]["k2"] = k2
    doc["delay"]["tau_m"], doc["delay"]["tau_M"] = tau_m, tau_M
    return ModelSpec.from_dict(doc)


def fitted_rate(ts, us, eq) -> float:
    """The slope of log(envelope) against time: the largest relative
    deviation of (x, y, yj) from ``eq`` at each time, its maximum over each
    of WINDOWS equal windows, and a least-squares line through (time of the
    window's maximum, log of that maximum)."""
    star = np.array([eq.x_star, eq.y_star, eq.yj_star])
    dev = np.max(np.abs(us / star - 1.0), axis=1)
    edges = np.linspace(0, len(ts), WINDOWS + 1).astype(int)
    peaks = [a + int(np.argmax(dev[a:b])) for a, b in zip(edges[:-1], edges[1:])]
    return float(np.polyfit(ts[peaks], np.log(dev[peaks]), 1)[0])


def _skip_unresolvable(sigma, coeffs, d):
    if abs(sigma) < 0.02:
        pytest.skip(f"|sigma| = {abs(sigma):.3g} is below 0.02")
    eigs = cheb_collocation_eigenvalues(coeffs.A, coeffs.B, coeffs.C, coeffs.D,
                                        coeffs.eta, d, coeffs.tau_star,
                                        n_nodes=64)
    upper = sorted((z for z in eigs if z.imag >= 0.0), key=lambda z: -z.real)
    if abs(upper[1].real - upper[0].real) < RATE_RTOL * abs(sigma):
        pytest.skip("a second root lies within 2% of sigma")


def _start(model):
    eq = solve_coexistence(model)
    verdict = classify_equilibrium(model, eq)
    sigma = verdict.rightmost
    _skip_unresolvable(sigma, verdict.coeffs, model.params.d)
    hist = consistent_history(model, eq.x_star * (1.0 + 1e-4),
                              eq.y_star * (1.0 - 1e-4))
    return eq, sigma, hist, 15.0 / abs(sigma)


def _engine_rate(model):
    eq, sigma, hist, T = _start(model)
    traj = integrate(model, hist, default_stepper(model, T, rtol=1e-11,
                                                  atol=1e-16))
    ts = np.linspace(0.3 * T, T, SAMPLES)
    return fitted_rate(ts, traj.sample(ts), eq), sigma


@pytest.mark.parametrize("model", [
    pytest.param(ModelSpec(ModelParams(r=1.0, K=5.0, n=1.0, dj=0.55, d=0.45),
                           saturating_delay(0.5, 1.0, 1.0),
                           beddington_deangelis(b=1.0, k1=0.0, k2=10.0)),
                 id="bd_model"),
    pytest.param(_steep_delay_model(n=3.0, dj=0.9, d=0.1),
                 id="steep_delay_d_below_dj"),
    pytest.param(_sweep_row_model(10.0, 0.45, 0.25, 1.0),
                 id="sweep_row_10_0.45_0.25_1",
                 marks=pytest.mark.xfail(
                     strict=True, raises=AssertionError, reason=(
                         "the contour search misses the rightmost root here "
                         "and reads -0.8975, where the run decays at about "
                         "-0.40"))),
])
def test_simulated_decay_rate_is_the_spectral_abscissa(model):
    rate, sigma = _engine_rate(model)
    assert rate == pytest.approx(sigma, rel=RATE_RTOL)


def test_steep_delay_decay_rate_without_the_engine():
    # d = 0.9 > dj = 0.1 makes eta large: the rate that a linearization
    # without eta gives lies 8% away
    model = _steep_delay_model(n=2.0, dj=0.1, d=0.9)
    eq, sigma, hist, T = _start(model)

    def history(s):
        return np.array([hist.phi1(s), hist.phi3(s), hist.phi2(s)])

    p = model.params
    h = 0.005
    run = RK4StepsOracle(p.r, p.K, p.n, p.dj, p.d, model.response.f,
                         model.delay.tau, history, T, h,
                         tau_prime=model.delay.tau_prime)
    i0 = int(math.ceil(0.3 * T / h))
    ts = np.arange(i0, len(run.us)) * h
    rate = fitted_rate(ts, run.us[i0:], eq)
    assert rate == pytest.approx(sigma, rel=RATE_RTOL)
