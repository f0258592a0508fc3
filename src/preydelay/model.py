"""Model definition: parameters, composite spec, histories, and validation.

The model couples a logistic prey x with a stage-structured predator whose
maturation time is a bounded nondecreasing function tau(y) of the mature
stock y.  Newly matured predators arrive at rate

    (1 - tau'(y) y'(t)) * n * exp(-d_j tau(y)) * f(x_lag, y_lag) * y_lag,

the leading factor accounting for the moving maturation boundary.  Because
y'(t) appears on both sides, the system is resolved in closed form here
(see :func:`correction_factor` and the integration engine).
"""
from __future__ import annotations

import heapq
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ._law import NONNEGATIVE, POSITIVE, Bound, range_errors
from .delays import DELAY_CATALOG, DelayFunction, make_delay
from .responses import RESPONSE_CATALOG, FunctionalResponse, make_response

__all__ = [
    "ModelParams",
    "ModelSpec",
    "HistoryFunction",
    "ValidationReport",
    "CheckResult",
    "HistoryConsistencyWarning",
    "validate",
    "reproduction_number",
    "correction_factor",
    "boundedness_limit",
    "constant_history",
    "constant_plus_sine_history",
    "tabulated_history",
    "consistent_history",
    "history_consistency_error",
]


@dataclass(frozen=True)
class ModelParams:
    """Demographic constants, all strictly positive.

    r     prey intrinsic growth rate
    K     prey carrying capacity
    n     predator birth-rate conversion
    dj    juvenile predator death rate
    d     mature predator death rate
    """

    r: float
    K: float
    n: float
    dj: float
    d: float

    def __post_init__(self):
        for name, requirement in range_errors(vars(self), _PARAM_RANGES):
            raise ValueError(f"parameter {name} = {getattr(self, name)!r} "
                             f"is out of range ({requirement})")


# ranges besides the laws' coefficients' (and tau_M >= tau_m, in from_dict)
_PARAM_RANGES = dict.fromkeys(("r", "K", "n", "dj", "d"), POSITIVE)
_DELAY_RANGES = {"tau_m": NONNEGATIVE}


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one model instance."""

    params: ModelParams
    delay: DelayFunction
    response: FunctionalResponse

    # -- the maturation law -----------------------------------------------
    # Every caller goes through these methods and correction_factor, except
    # engine's rhs_core, which writes them out for speed; a test pins the two
    # to equality.

    def survival(self, tau: float) -> float:
        """Probability of surviving the juvenile stage of length tau."""
        return math.exp(-self.params.dj * tau)

    def maturation_gain(self, tau: float, x: float, y: float) -> float:
        """n exp(-dj tau) f(x, y): per mature predator, the rate at which
        juveniles born at prey x and predator y mature after a stage of tau."""
        return self.params.n * self.survival(tau) * self.response.f(x, y)

    def birth_flux(self, x: float, y: float) -> float:
        """n f(x, y) y: the rate at which juveniles are born."""
        return self.params.n * self.response.f(x, y) * y

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        p = self.params
        return {
            "params": {"r": p.r, "K": p.K, "n": p.n, "dj": p.dj, "d": p.d},
            "delay": {
                "kind": self.delay.kind,
                "coefficients": dict(self.delay.coefficients),
                "tau_m": self.delay.tau_m,
                "tau_M": self.delay.tau_M,
            },
            "response": {
                "kind": self.response.kind,
                "coefficients": dict(self.response.coefficients),
            },
        }

    @staticmethod
    def from_dict(doc: Mapping) -> "ModelSpec":
        """The model of a config document.

        A number outside the paper's hypotheses is a :class:`ConfigError`
        naming its dotted key.  The law factories take any value, so
        :func:`validate` can report a bad model built in code.
        """
        check_keys(doc, "model", {"params", "delay", "response"})
        pdoc = doc["params"]
        check_keys(pdoc, "model.params", set(_PARAM_RANGES))
        params = {k: _real(pdoc[k], f"model.params.{k}") for k in _PARAM_RANGES}
        ddoc = doc["delay"]
        check_keys(ddoc, "model.delay", {"kind", "coefficients", "tau_m", "tau_M"})
        delay = make_delay(ddoc["kind"], _real(ddoc["tau_m"], "model.delay.tau_m"),
                           _real(ddoc["tau_M"], "model.delay.tau_M"),
                           **_coefficients(ddoc, "model.delay"))
        rdoc = doc["response"]
        check_keys(rdoc, "model.response", {"kind", "coefficients"})
        response = make_response(rdoc["kind"],
                                 **_coefficients(rdoc, "model.response"))
        tau_M = Bound(">=", delay.tau_m, of="model.delay.tau_m")
        for path, values, ranges in (
                ("model.params", params, _PARAM_RANGES),
                ("model.delay", {"tau_m": delay.tau_m, "tau_M": delay.tau_M},
                 {**_DELAY_RANGES, "tau_M": tau_M}),
                ("model.delay.coefficients", delay.coefficients,
                 DELAY_CATALOG[delay.kind][1]),
                ("model.response.coefficients", response.coefficients,
                 RESPONSE_CATALOG[response.kind][1])):
            for key, requirement in range_errors(values, ranges):
                raise _out_of_range(f"{path}.{key}", values[key], requirement)
        return ModelSpec(ModelParams(**params), delay, response)


class ConfigError(ValueError):
    """A configuration document has an unknown or missing key or a bad value."""


def check_keys(doc: Mapping, path: str, required: set,
               optional: set = frozenset()) -> None:
    """Reject a config object with a key outside required | optional, or one missing.

    ``path`` is the object's dotted location in the document, named in the
    message ("" for the top level).
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{path or 'config'} must be an object")
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {prefix}{key}")
    for key in sorted(required):
        if key not in doc:
            raise ConfigError(f"missing key {prefix}{key}")


def _real(value, name: str, bound: Bound | None = None) -> float:
    """A config value that must be a finite JSON number, in ``bound`` if
    given, as a float; ``name`` is its dotted location, named in the message."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if bound is not None and not bound.admits(value):
        raise _out_of_range(name, float(value), bound)
    return float(value)


def _reals(value, name: str, bound: Bound | None = None) -> list[float]:
    """A config list of numbers, each read by :func:`_real` as ``name[i]``."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list")
    return [_real(v, f"{name}[{i}]", bound) for i, v in enumerate(value)]


def _out_of_range(name: str, value: float, requirement: str) -> ConfigError:
    return ConfigError(f"{name} = {value!r} is out of range ({requirement})")


def _coefficients(doc: Mapping, path: str) -> dict:
    """``doc["coefficients"]``, each read by :func:`_real`."""
    coeffs = doc["coefficients"]
    if not isinstance(coeffs, Mapping):
        raise ConfigError(f"{path}.coefficients must be an object")
    return {k: _real(v, f"{path}.coefficients.{k}") for k, v in coeffs.items()}


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """The values of ``numpy.linspace(start, stop, num)``, num >= 2, as
    Python floats: i * step + start, with stop itself as the last."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


# --------------------------------------------------------------------------
# scalar operations


def reproduction_number(model: ModelSpec) -> float:
    """Predator net reproduction number R = n exp(-dj tau(0)) f(K, 0) / d.

    One newborn predator placed in a prey-saturated, predator-free environment
    leaves R offspring.  R > 1 is equivalent to permanence of the system and
    to existence of the coexistence equilibrium.
    """
    p = model.params
    return model.maturation_gain(model.delay.tau(0.0), p.K, 0.0) / p.d


def correction_factor(model: ModelSpec, y: float, lagged_recruitment: float) -> float:
    """The maturation-flux factor 1 - tau'(y) y'(t), resolved in closed form.

    With N = maturation_gain(tau(y), x_lag, y_lag) y_lag the lagged
    recruitment rate, substituting y' = (N - d y) / (1 + tau'(y) N) gives

        1 - tau'(y) y' = (1 + tau'(y) d y) / (1 + tau'(y) N),

    which is positive for every y >= 0, N >= 0 and bounded by 1 + tau'(y) d y.
    """
    if y < 0.0:
        raise ValueError(f"density must be nonnegative, got y={y}")
    if lagged_recruitment < 0.0:
        raise ValueError(
            f"lagged recruitment must be nonnegative, got {lagged_recruitment}")
    tp = model.delay.tau_prime(y)
    return (1.0 + tp * model.params.d * y) / (1.0 + tp * lagged_recruitment)


def _dissipation(model: ModelSpec) -> tuple[float, float]:
    """(m, M) with V' <= -m V + M along solutions, for V = n x + y + yj.

    m = min(dj, d), and M is the maximum of the concave quadratic
    n (m + r) x - (n r / K) x^2.
    """
    p = model.params
    m = min(p.dj, p.d)
    return m, p.n * p.K * (m + p.r) ** 2 / (4.0 * p.r)


def boundedness_limit(model: ModelSpec) -> float:
    """Eventual upper bound M / m for V = n x + y + yj (see :func:`_dissipation`)."""
    m, M = _dissipation(model)
    return M / m


# --------------------------------------------------------------------------
# histories


@dataclass(frozen=True)
class HistoryFunction:
    """Initial data on [-tau_M, 0]: prey phi1, juvenile phi2, mature phi3.

    All three must be nonnegative with positive values at 0.  phi2 influences
    only the juvenile channel's starting value phi2(0); for that value to be
    dynamically consistent it should equal the survival-discounted integral of
    past recruitment (see :func:`history_consistency_error`).  ``knots``
    lists the times where the functions may have a kink (a tabulated
    history's sample times); quadratures over the history split there.
    """

    phi1: Callable[[float], float] = field(repr=False)
    phi2: Callable[[float], float] = field(repr=False)
    phi3: Callable[[float], float] = field(repr=False)
    label: str = ""
    knots: tuple[float, ...] = field(default=(), repr=False)

    def state0(self) -> tuple[float, float, float]:
        """(x, y, yj) at t = 0."""
        return (float(self.phi1(0.0)), float(self.phi3(0.0)), float(self.phi2(0.0)))

    def check_nonnegative(self, tau_M: float) -> None:
        thetas = _linspace(-tau_M, 0.0, 64)
        for name, fn in (("phi1", self.phi1), ("phi2", self.phi2), ("phi3", self.phi3)):
            vals = [float(fn(t)) for t in thetas]
            low = min(vals)
            if low < 0.0:
                theta = thetas[vals.index(low)]
                raise ValueError(
                    f"history {name} is negative at theta={theta:.6g}: {low:.6g}")
        x0, y0, yj0 = self.state0()
        if not (x0 > 0.0 and y0 > 0.0 and yj0 > 0.0):
            raise ValueError(f"history values at 0 must be positive, got "
                             f"x={x0}, y={y0}, yj={yj0}")


# 7-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree 13:
# the values of numpy.polynomial.legendre.leggauss(7), written out as floats so
# that the rule needs no numpy import
GL_NODES = (-0.9491079123427586, -0.7415311855993945, -0.4058451513773972,
            0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427586)
GL_WEIGHTS = (0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
              0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
              0.12948496616886973)


def _plain_sum(terms) -> float:
    """Left-to-right sum, unlike ``sum()``, which compensates exact floats
    from Python 3.12 on; rules and panels add their terms in this order."""
    total = 0.0
    for v in terms:
        total += v
    return total


def _gauss_legendre(fn: Callable[[float], float], a: float, b: float) -> float:
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    return half * _plain_sum(w * fn(mid + half * x)
                             for x, w in zip(GL_NODES, GL_WEIGHTS))


# A sine history over a constant delay of 2000 needs 1 691 panels.
_MAX_PANELS = 4000
_EPS = math.ulp(1.0)


def _adaptive_gauss_legendre(fn: Callable[[float], float], a: float,
                             b: float, epsrel: float) -> float:
    """Integral of fn over [a, b] to relative accuracy epsrel.

    Each panel's error is estimated as the difference between its 7-point
    rule and the sum of the rules on its two halves.  The panel with the
    largest estimate is halved until the estimates sum to at most epsrel
    times the integral; at ``_MAX_PANELS`` panels it stops with a
    RuntimeWarning.  Adaptivity (rather than a fixed composite rule) matters
    for piecewise-linear histories, whose kinks only the panels around them
    need resolve.

    The sums are kept running and re-summed left to right in heap order
    only where the running ones come within their rounding of the stop or
    the budget is reached.  The stop is decided on the re-sums, so the
    panels and the result do not depend on the running sums' rounding.
    """
    def panel(lo: float, hi: float, whole: float) -> tuple:
        mid = 0.5 * (lo + hi)
        left, right = _gauss_legendre(fn, lo, mid), _gauss_legendre(fn, mid, hi)
        return (-abs(left + right - whole), lo, hi, left, right)

    heap = [panel(a, b, _gauss_legendre(fn, a, b))]
    # running sums of the error estimates, the integrals and their sizes;
    # drift bounds their rounding since the last re-sum, and the heap-order
    # re-sum rounds by at most len(heap) eps times the sizes
    error, total = -heap[0][0], heap[0][3] + heap[0][4]
    size, drift = abs(total), 0.0
    while True:
        slack = drift + 2.0 * len(heap) * _EPS * (error + epsrel * size)
        if error - epsrel * abs(total) <= slack or len(heap) >= _MAX_PANELS:
            error = total = 0.0
            for pn in heap:  # both left to right, in heap order
                error -= pn[0]
                total += pn[3] + pn[4]
            if error <= epsrel * abs(total):
                return total
            if len(heap) >= _MAX_PANELS:
                warnings.warn(
                    f"quadrature stopped at {_MAX_PANELS} panels with "
                    f"estimated error {error:.2g} on an integral of "
                    f"{total:.6g} (epsrel={epsrel:g})",
                    RuntimeWarning, stacklevel=2)
                return total
            drift = 0.0
        popped = heapq.heappop(heap)
        _, lo, hi, left, right = popped
        mid = 0.5 * (lo + hi)
        halves = panel(lo, mid, left), panel(mid, hi, right)
        for sign, pn in ((-1.0, popped), (1.0, halves[0]), (1.0, halves[1])):
            part = pn[3] + pn[4]
            error -= sign * pn[0]
            total += sign * part
            size += sign * abs(part)
            drift += _EPS * (error + epsrel * size)
        for pn in halves:
            heapq.heappush(heap, pn)


def _implied_juvenile_stock(model: ModelSpec, history: HistoryFunction,
                            epsrel: float) -> float:
    """Survival-discounted past recruitment implied by a history:

        int_{-tau(phi3(0))}^{0} n f(phi1(s), phi3(s)) phi3(s) exp(dj s) ds,

    split at the history's knots inside the window, each piece to epsrel.
    """
    def integrand(s: float) -> float:
        y = history.phi3(s)
        return model.birth_flux(history.phi1(s), y) * model.survival(-s)

    tau0 = model.delay.tau(history.phi3(0.0))
    cuts = [-tau0, *(k for k in history.knots if -tau0 < k < 0.0), 0.0]
    return _plain_sum(_adaptive_gauss_legendre(integrand, a, b, epsrel)
                      for a, b in zip(cuts[:-1], cuts[1:]))


class HistoryConsistencyWarning(UserWarning):
    """phi2(0) does not match the survival-discounted recruitment integral."""


def history_consistency_error(model: ModelSpec, history: HistoryFunction) -> float:
    """Relative mismatch between phi2(0) and the juvenile stock implied by history.

    The implied stock is the recruitment integral of :func:`_implied_juvenile_stock`.
    """
    implied = _implied_juvenile_stock(model, history, epsrel=1e-8)
    scale = max(abs(implied), abs(history.phi2(0.0)), 1e-300)
    return abs(history.phi2(0.0) - implied) / scale


def warn_if_inconsistent(model: ModelSpec, history: HistoryFunction) -> float:
    """Warn when the history's juvenile stock is off by over 1e-6 relative.

    ``engine.integrate`` checks on its caller's behalf, so the warning names
    the line that called ``integrate`` (two frames up), not the library.
    """
    err = history_consistency_error(model, history)
    if err > 1e-6:
        warnings.warn(
            f"history phi2(0) deviates from the implied juvenile stock by a "
            f"relative {err:.3g}; the juvenile channel will start inconsistently",
            HistoryConsistencyWarning, stacklevel=3)
    return err


def constant_history(x0: float, y0: float, yj0: float, label: str = "") -> HistoryFunction:
    """Constant history (x0, y0 mature, yj0 juvenile)."""
    return HistoryFunction(
        phi1=lambda t: x0, phi2=lambda t: yj0, phi3=lambda t: y0,
        label=label or f"const({x0:g},{y0:g},{yj0:g})")


def constant_plus_sine_history(x0: float, y0: float, yj0: float,
                               amp: float = 0.2, omega: float = 2.0,
                               phase: float = 0.0, label: str = "") -> HistoryFunction:
    """Positive constants modulated by a common sine, exercising the whole lag window."""
    if not 0.0 <= amp < 1.0:
        raise ValueError("relative amplitude must lie in [0, 1)")

    def mod(t: float) -> float:
        return 1.0 + amp * math.sin(omega * t + phase)

    return HistoryFunction(
        phi1=lambda t: x0 * mod(t), phi2=lambda t: yj0 * mod(t),
        phi3=lambda t: y0 * mod(t),
        label=label or f"sine({x0:g},{y0:g},{yj0:g};a={amp:g})")


def tabulated_history(times: Sequence[float], x: Sequence[float],
                      y: Sequence[float], yj: Sequence[float],
                      label: str = "tabulated") -> HistoryFunction:
    """Piecewise-linear history through sample points (times must cover [-tau_M, 0])."""
    import numpy as np

    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing with at least 2 points")
    xa, ya, yja = (np.asarray(v, dtype=float) for v in (x, y, yj))
    for name, vals in (("x", xa), ("y", ya), ("yj", yja)):
        if vals.shape != t.shape:
            raise ValueError(f"series {name} has shape {vals.shape}, "
                             f"times {t.shape}")

    def interp(vals):
        return lambda s: float(np.interp(s, t, vals))

    return HistoryFunction(phi1=interp(xa), phi2=interp(yja), phi3=interp(ya),
                           label=label, knots=tuple(t.tolist()))


def consistent_history(model: ModelSpec, x0: float, y0: float,
                       amp: float = 0.0, omega: float = 2.0, phase: float = 0.0,
                       label: str = "") -> HistoryFunction:
    """History with phi2(0) computed from the recruitment integral.

    Prey and mature-predator histories are constants (optionally sine
    modulated); the juvenile history is the constant that makes the initial
    juvenile stock exactly consistent with the past recruitment they imply.
    """
    if amp == 0.0:
        base = constant_history(x0, y0, 1.0)
    else:
        base = constant_plus_sine_history(x0, y0, 1.0, amp=amp, omega=omega, phase=phase)
    yj0 = _implied_juvenile_stock(model, base, epsrel=1e-10)
    return HistoryFunction(
        phi1=base.phi1, phi2=lambda t: yj0, phi3=base.phi3,
        label=label or f"consistent({x0:g},{y0:g};a={amp:g})")


# --------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: object = None
    detail: str = ""

    def __str__(self):
        mark = "pass" if self.passed else "FAIL"
        extra = f" [{self.detail}]" if self.detail and not self.passed else ""
        return f"{mark}  {self.name}{extra}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def _scan(name: str, points: Iterable[tuple], fails: Callable[..., bool],
          witness: Callable = lambda *point: point,
          detail: Callable = lambda *point: "") -> CheckResult:
    """The check ``name``: failed at the first of ``points`` where
    ``fails(*point)`` holds, with witness and detail read off that point."""
    bad = next((point for point in points if fails(*point)), None)
    if bad is None:
        return CheckResult(name, True)
    return CheckResult(name, False, witness(*bad), detail(*bad))


def validate(model: ModelSpec) -> ValidationReport:
    """Check the model hypotheses on a sampled grid; a failed hypothesis is
    a report row, not an exception.

    Delay monotonicity/bounds and the consistency of the supplied tau' with
    finite differences of tau, response sign/monotonicity structure, and
    kind-specific coefficient constraints are each reported with a witness
    for any failure: the first failing grid point, x outer and y inner.  The
    grid has 64 points per axis and runs y up to the eventual bound for
    V = n x + y + yj, so that it covers the reachable region.  The laws are
    called on Python floats, so one that overflows or divides by zero on the
    grid raises.  The positive demographic constants need no check:
    :class:`ModelParams` refuses others.
    """
    p, delay, resp = model.params, model.delay, model.response
    y_cap = boundedness_limit(model)
    ys, xs = (_linspace(0.0, top, 64) for top in (y_cap, p.K))

    # (A2) delay structure
    taus = [(y, delay.tau(y), delay.tau_prime(y)) for y in ys]
    lo, hi = delay.tau_m - 1e-12, delay.tau_M + 1e-12
    tau0 = delay.tau(0.0)
    h = max(y_cap, 1.0) * 1e-6  # step of the central differences of tau
    checks = [
        _scan("delay.tau_prime >= 0", taus, lambda y, tau, tp: tp < 0.0,
              lambda y, tau, tp: (y, tp)),
        _scan("delay bounds tau_m <= tau(y) <= tau_M", taus,
              lambda y, tau, tp: tau < lo or tau > hi,
              lambda y, tau, tp: (y, tau),
              lambda y, tau, tp: f"tau({y:.6g}) = {tau:.6g} outside "
                                 f"[{delay.tau_m:.6g}, {delay.tau_M:.6g}]"),
        CheckResult("delay.tau(0) == tau_m",
                    abs(tau0 - delay.tau_m) <= 1e-9 * max(1.0, abs(delay.tau_m)),
                    witness=tau0),
        _scan("delay nondecreasing on grid",
              ((y, b - a) for (y, a, _), (_, b, _) in zip(taus, taus[1:])),
              lambda y, step: step < -1e-12, lambda y, step: y),
        _scan("delay.tau_prime matches finite differences",
              ((y, (delay.tau(y + h) - delay.tau(y - h)) / (2.0 * h), tp)
               for y, _, tp in taus[1:-1]),
              lambda y, fd, tp: abs(fd - tp) > 1e-5 * max(1.0, abs(fd)))]

    # (A3) response structure
    checks += [CheckResult(f"response coefficients: {err}", False, detail=err)
               for _, err in resp.coefficient_errors()
               ] or [CheckResult("response coefficient constraints", True)]
    checks.append(_scan("response f(0, y) == 0",
                        ((0.0, y, resp.f(0.0, y)) for y in ys),
                        lambda x, y, f: f != 0.0))
    F = [[resp.f(x, y) for y in ys] for x in xs]
    fx00 = resp.f_x(0.0, 0.0)
    checks += [
        _scan("response f > 0 for x, y > 0",
              ((x, y, f) for x, row in zip(xs[1:], F[1:]) for y, f in zip(ys, row)),
              lambda x, y, f: f <= 0.0),
        _scan("response nondecreasing in x",
              ((x, y, b - a) for x, row, next_row in zip(xs, F, F[1:])
               for y, a, b in zip(ys, row, next_row)),
              lambda x, y, step: step < -1e-12, lambda x, y, step: (x, y)),
        _scan("response nonincreasing in y",
              ((x, y, b - a) for x, row in zip(xs, F)
               for y, a, b in zip(ys, row, row[1:])),
              lambda x, y, step: step > 1e-12, lambda x, y, step: (x, y)),
        CheckResult("response |f_x(0,0)| finite", math.isfinite(fx00),
                    witness=fx00)]
    return ValidationReport(tuple(checks))
