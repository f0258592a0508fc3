import dataclasses
import math
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from preydelay import (ModelParams, ModelSpec, beddington_deangelis,
                       consistent_history, constant_delay, crowley_martin,
                       default_stepper, holling1, holling2, holling3,
                       integrate, ivlev, linear, power_law, saturating_delay,
                       saturation)

# Pinned acceptance model: Beddington-DeAngelis with pure predator
# interference (k1 = 0) and a saturating delay.  Independently solved
# coexistence point (2-D Newton oracle, residual < 1e-12):
BD_XSTAR = 4.57180289946735
BD_YSTAR = 0.59635070966373
BD_YJSTAR = 0.223943145096475
BD_TAUSTAR = 0.68678561861552


@pytest.fixture
def forks(monkeypatch):
    """Make every fork map and probe fork as on two CPUs; count the forks."""
    from preydelay import _forkmap, analysis

    count = [0]
    fork = os.fork

    def counting_fork():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(analysis, "_FORK_MIN_STEPS", 0)
    monkeypatch.setattr(_forkmap, "_usable_cpus", lambda: 2)
    return count


@pytest.fixture(scope="session")
def bd_model():
    return ModelSpec(ModelParams(r=1.0, K=5.0, n=1.0, dj=0.55, d=0.45),
                     saturating_delay(0.5, 1.0, 1.0),
                     beddington_deangelis(b=1.0, k1=0.0, k2=10.0))


@pytest.fixture(scope="session")
def bd_traj(bd_model):
    hist = consistent_history(bd_model, 2.0, 0.5, amp=0.2)
    return integrate(bd_model, hist, default_stepper(bd_model, 60.0))


@pytest.fixture(scope="session")
def bd_k1_model():
    # same shape with prey handling (k1 > 0); used by the solver tests
    return ModelSpec(ModelParams(r=1.0, K=5.0, n=1.0, dj=0.55, d=0.45),
                     saturating_delay(0.5, 1.0, 1.0),
                     beddington_deangelis(b=1.0, k1=0.1, k2=8.0))


@pytest.fixture(scope="session")
def const_delay_model():
    # constant delay, linear response; R = exp(-0.2) * 2 / 0.8 ~ 2.05
    return ModelSpec(ModelParams(r=1.0, K=2.0, n=1.0, dj=0.2, d=0.8),
                     constant_delay(1.0), linear(1.0))


def opaque(model: ModelSpec) -> ModelSpec:
    """The model with f, tau and tau' behind lambdas that carry no text."""
    f, tau, tau_prime = (model.response.f, model.delay.tau,
                         model.delay.tau_prime)
    return dataclasses.replace(
        model,
        response=dataclasses.replace(model.response,
                                     f=lambda x, y: f(x, y)),
        delay=dataclasses.replace(model.delay, tau=lambda y: tau(y),
                                  tau_prime=lambda y: tau_prime(y)))


def linear_family_model(R_target: float) -> ModelSpec:
    """Linear-response model tuned so the reproduction number equals R_target."""
    r, K, n, dj, d = 1.0, 2.0, 1.0, 0.5, 1.0
    tau_m = 0.5
    b = R_target * d / (n * math.exp(-dj * tau_m) * K)
    return ModelSpec(ModelParams(r, K, n, dj, d),
                     saturating_delay(tau_m, 1.0, 1.0), linear(b))


# (name, draw) for each response of the catalog: draw(rng) builds one with
# random coefficients inside its hypotheses
ALL_FORMS = [
    ("Linear", lambda rng: linear(b=rng.uniform(0.2, 3.0))),
    ("PowerLaw", lambda rng: power_law(b=rng.uniform(0.2, 2.0),
                                       k=rng.uniform(1.1, 2.5))),
    ("HollingI", lambda rng: holling1(a=rng.uniform(0.2, 2.0),
                                      b=rng.uniform(0.5, 3.0))),
    ("HollingII", lambda rng: holling2(b=rng.uniform(0.2, 3.0),
                                       h=rng.uniform(0.1, 1.5))),
    ("HollingIII", lambda rng: holling3(b=rng.uniform(0.2, 3.0),
                                        h=rng.uniform(0.1, 1.5))),
    ("Saturation", lambda rng: saturation(b=rng.uniform(0.2, 2.0),
                                          h=rng.uniform(0.1, 1.0),
                                          k=rng.uniform(1.2, 2.0))),
    ("Ivlev", lambda rng: ivlev(b=rng.uniform(0.2, 3.0),
                                c=rng.uniform(0.2, 2.0))),
    ("BeddingtonDeAngelis", lambda rng: beddington_deangelis(
        b=rng.uniform(0.2, 3.0), k1=rng.uniform(0.0, 1.0),
        k2=rng.uniform(0.0, 1.5))),
    ("CrowleyMartin", lambda rng: crowley_martin(
        b=rng.uniform(0.2, 3.0), k1=rng.uniform(0.0, 1.0),
        k2=rng.uniform(0.0, 1.5))),
]


# An R > 1 draw (linear response, R = 12.46) whose largest probe history
# (spread_histories(n=5, seed=DEFECT_HISTORY_SEED, lo=0.1, hi=3.0)[-1])
# drives the prey down to about 5e-41 before it recovers.  A positivity clamp
# that set the crashed prey to exactly 0 made its extinction permanent.
DEFECT_MODEL = {
    "params": {"r": 1.0364350927391828, "K": 3.4359253239092973,
               "n": 1.1185953810840852, "dj": 0.3348125184798465,
               "d": 0.507241017052369},
    "delay": {"kind": "saturating", "coefficients": {"theta": 0.908203577540972},
              "tau_m": 0.500848797884172, "tau_M": 0.6302702267258389},
    "response": {"kind": "Linear", "coefficients": {"b": 1.9448246476596909}}}
DEFECT_HISTORY_SEED = 1385176604
# the probe settings under which the clamp absorbed that crash
DEFECT_ATOL = (1e-30, 1e-30, 1e-8)
