"""Catalog of predator functional responses f(x, y).

Every entry maps (prey density x, mature predator density y) to a per-capita
consumption rate, together with analytic partial derivatives used by the
linearization machinery.  All forms vanish exactly at x = 0, are nondecreasing
in x and nonincreasing in y, and have a finite prey-derivative at the origin.

Each of f, f_x and f_y is written once, as one expression text through
:func:`preydelay._law.law`: the callable is built from that text, and the
integration engine writes the text of f into its step in place of a call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ._law import check_coefficients, law

__all__ = [
    "FunctionalResponse",
    "ResponseKind",
    "make_response",
    "linear",
    "power_law",
    "holling1",
    "holling2",
    "holling3",
    "saturation",
    "ivlev",
    "beddington_deangelis",
    "crowley_martin",
    "RESPONSE_KINDS",
]


class ResponseKind:
    LINEAR = "Linear"
    POWER_LAW = "PowerLaw"
    HOLLING_I = "HollingI"
    HOLLING_II = "HollingII"
    HOLLING_III = "HollingIII"
    SATURATION = "Saturation"
    IVLEV = "Ivlev"
    BEDDINGTON_DEANGELIS = "BeddingtonDeAngelis"
    CROWLEY_MARTIN = "CrowleyMartin"


@dataclass(frozen=True)
class FunctionalResponse:
    """A consumption-rate law with its partial derivatives.

    ``f``, ``f_x`` and ``f_y`` are scalar callables of (x, y).  ``coefficients``
    records the named constants so the response can be serialized and its
    kind-specific constraints re-checked.
    """

    kind: str
    coefficients: Mapping[str, float]
    f: Callable[[float, float], float] = field(repr=False)
    f_x: Callable[[float, float], float] = field(repr=False)
    f_y: Callable[[float, float], float] = field(repr=False)

    def coefficient_errors(self) -> list[str]:
        """Kind-specific constraint violations (empty when consistent)."""
        c = self.coefficients
        errs = []

        def positive(*names):
            for nm in names:
                if not c.get(nm, 0.0) > 0.0:
                    errs.append(f"{self.kind}: coefficient {nm!r} must be > 0")

        def nonnegative(*names):
            for nm in names:
                if c.get(nm, 0.0) < 0.0:
                    errs.append(f"{self.kind}: coefficient {nm!r} must be >= 0")

        k = self.kind
        if k == ResponseKind.LINEAR:
            positive("b")
        elif k == ResponseKind.POWER_LAW:
            positive("b")
            if not c.get("k", 0.0) > 1.0:
                errs.append("PowerLaw: exponent 'k' must be > 1")
        elif k == ResponseKind.HOLLING_I:
            positive("a", "b")
        elif k in (ResponseKind.HOLLING_II, ResponseKind.HOLLING_III):
            positive("b", "h")
        elif k == ResponseKind.SATURATION:
            positive("b", "h")
            if not c.get("k", 0.0) > 1.0:
                errs.append("Saturation: exponent 'k' must be > 1")
        elif k == ResponseKind.IVLEV:
            positive("b", "c")
        elif k in (ResponseKind.BEDDINGTON_DEANGELIS, ResponseKind.CROWLEY_MARTIN):
            positive("b")
            nonnegative("k1", "k2")
        else:
            errs.append(f"unknown response kind {k!r}")
        return errs


def _check_domain(x: float, y: float) -> None:
    if x < 0.0 or y < 0.0:
        raise ValueError(f"response arguments must be nonnegative, got x={x}, y={y}")


def eval_response(resp: FunctionalResponse, x: float, y: float) -> float:
    """Evaluate f(x, y), rejecting negative densities."""
    _check_domain(x, y)
    return resp.f(x, y)


def linear(b: float) -> FunctionalResponse:
    """f = b x."""
    return FunctionalResponse(
        ResponseKind.LINEAR, {"b": b},
        f=law("x, y", "b * x", b=b),
        f_x=law("x, y", "b", b=b),
        f_y=law("x, y", "0.0"),
    )


def power_law(b: float, k: float) -> FunctionalResponse:
    """f = b x**k with k > 1."""
    return FunctionalResponse(
        ResponseKind.POWER_LAW, {"b": b, "k": k},
        f=law("x, y", "b * x ** k", b=b, k=k),
        f_x=law("x, y", "b * k * x ** (k - 1.0) if x > 0.0 else 0.0", b=b, k=k),
        f_y=law("x, y", "0.0"),
    )


def holling1(a: float, b: float) -> FunctionalResponse:
    """Blackman form: f = a x below the break x = b, constant a b above.

    The derivative at the break uses the left value a (the form is only
    piecewise differentiable there).
    """
    return FunctionalResponse(
        ResponseKind.HOLLING_I, {"a": a, "b": b},
        f=law("x, y", "a * x if x <= b else a * b", a=a, b=b),
        f_x=law("x, y", "a if x <= b else 0.0", a=a, b=b),
        f_y=law("x, y", "0.0"),
    )


def holling2(b: float, h: float) -> FunctionalResponse:
    """Michaelis-Menten form: f = b x / (1 + b h x)."""
    return FunctionalResponse(
        ResponseKind.HOLLING_II, {"b": b, "h": h},
        f=law("x, y", "b * x / (1.0 + b * h * x)", b=b, h=h),
        f_x=law("x, y", "b / (1.0 + b * h * x) ** 2", b=b, h=h),
        f_y=law("x, y", "0.0"),
    )


def holling3(b: float, h: float) -> FunctionalResponse:
    """Sigmoidal form: f = b x^2 / (1 + b h x^2)."""
    return FunctionalResponse(
        ResponseKind.HOLLING_III, {"b": b, "h": h},
        f=law("x, y", "b * x * x / (1.0 + b * h * x * x)", b=b, h=h),
        f_x=law("x, y", "2.0 * b * x / (1.0 + b * h * x * x) ** 2", b=b, h=h),
        f_y=law("x, y", "0.0"),
    )


def saturation(b: float, h: float, k: float) -> FunctionalResponse:
    """f = b x^k / (1 + b h x^k) with k > 1."""
    return FunctionalResponse(
        ResponseKind.SATURATION, {"b": b, "h": h, "k": k},
        f=law("x, y", "b * x ** k / (1.0 + b * h * x ** k)", b=b, h=h, k=k),
        f_x=law("x, y", "b * k * x ** (k - 1.0) / (1.0 + b * h * x ** k) ** 2"
                " if x > 0.0 else 0.0", b=b, h=h, k=k),
        f_y=law("x, y", "0.0"),
    )


def ivlev(b: float, c: float) -> FunctionalResponse:
    """f = b (1 - exp(-c x))."""
    return FunctionalResponse(
        ResponseKind.IVLEV, {"b": b, "c": c},
        f=law("x, y", "b * -math.expm1(-c * x)", b=b, c=c),
        f_x=law("x, y", "b * c * math.exp(-c * x)", b=b, c=c),
        f_y=law("x, y", "0.0"),
    )


def beddington_deangelis(b: float, k1: float, k2: float) -> FunctionalResponse:
    """f = b x / (1 + k1 x + k2 y); k2 is the predator-interference strength."""
    return FunctionalResponse(
        ResponseKind.BEDDINGTON_DEANGELIS, {"b": b, "k1": k1, "k2": k2},
        f=law("x, y", "b * x / (1.0 + k1 * x + k2 * y)", b=b, k1=k1, k2=k2),
        f_x=law("x, y", "b * (1.0 + k2 * y) / (1.0 + k1 * x + k2 * y) ** 2",
                b=b, k1=k1, k2=k2),
        f_y=law("x, y", "-b * k2 * x / (1.0 + k1 * x + k2 * y) ** 2",
                b=b, k1=k1, k2=k2),
    )


def crowley_martin(b: float, k1: float, k2: float) -> FunctionalResponse:
    """f = b x / ((1 + k1 x)(1 + k2 y))."""
    return FunctionalResponse(
        ResponseKind.CROWLEY_MARTIN, {"b": b, "k1": k1, "k2": k2},
        f=law("x, y", "b * x / ((1.0 + k1 * x) * (1.0 + k2 * y))",
              b=b, k1=k1, k2=k2),
        f_x=law("x, y", "b / ((1.0 + k1 * x) ** 2 * (1.0 + k2 * y))",
                b=b, k1=k1, k2=k2),
        f_y=law("x, y", "-b * k2 * x / ((1.0 + k1 * x) * (1.0 + k2 * y) ** 2)",
                b=b, k1=k1, k2=k2),
    )


_FACTORIES: dict[str, Callable[..., FunctionalResponse]] = {
    ResponseKind.LINEAR: linear,
    ResponseKind.POWER_LAW: power_law,
    ResponseKind.HOLLING_I: holling1,
    ResponseKind.HOLLING_II: holling2,
    ResponseKind.HOLLING_III: holling3,
    ResponseKind.SATURATION: saturation,
    ResponseKind.IVLEV: ivlev,
    ResponseKind.BEDDINGTON_DEANGELIS: beddington_deangelis,
    ResponseKind.CROWLEY_MARTIN: crowley_martin,
}

RESPONSE_KINDS = tuple(_FACTORIES)


def make_response(kind: str, /, **coefficients: float) -> FunctionalResponse:
    """Build a catalog response by kind name, e.g. make_response("HollingII", b=2, h=0.5).

    A missing or unknown coefficient raises ValueError.
    """
    try:
        factory = _FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown response kind {kind!r}; expected one of {RESPONSE_KINDS}"
        ) from None
    check_coefficients(kind, factory, coefficients)
    return factory(**coefficients)
