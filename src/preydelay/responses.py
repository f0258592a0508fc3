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

from ._law import NONNEGATIVE, POSITIVE, Bound, law, make, range_errors

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
    "RESPONSE_CATALOG",
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

    ``f``, ``f_x`` and ``f_y`` are scalar callables of (x, y); ``f_y`` is 0
    unless given, as for every form of x alone.  ``coefficients`` records the
    named constants so the response can be serialized and its kind-specific
    constraints re-checked.
    """

    kind: str
    coefficients: Mapping[str, float]
    f: Callable[[float, float], float] = field(repr=False)
    f_x: Callable[[float, float], float] = field(repr=False)
    f_y: Callable[[float, float], float] = field(default=law("x, y", "0.0"),
                                                 repr=False)

    def coefficient_errors(self) -> list[tuple[str, str]]:
        """Kind-specific constraint violations as (coefficient, message)
        pairs (empty when consistent)."""
        if self.kind not in RESPONSE_CATALOG:
            return [("kind", f"unknown response kind {self.kind!r}")]
        return range_errors(self.coefficients, RESPONSE_CATALOG[self.kind][1])


def linear(b: float) -> FunctionalResponse:
    """f = b x."""
    return FunctionalResponse(
        ResponseKind.LINEAR, {"b": b},
        f=law("x, y", "b * x", b=b),
        f_x=law("x, y", "b", b=b),
    )


def power_law(b: float, k: float) -> FunctionalResponse:
    """f = b x**k with k > 1."""
    return FunctionalResponse(
        ResponseKind.POWER_LAW, {"b": b, "k": k},
        f=law("x, y", "b * x ** k", b=b, k=k),
        f_x=law("x, y", "b * k * x ** (k - 1.0) if x > 0.0 else 0.0", b=b, k=k),
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
    )


def holling2(b: float, h: float) -> FunctionalResponse:
    """Michaelis-Menten form: f = b x / (1 + b h x)."""
    return FunctionalResponse(
        ResponseKind.HOLLING_II, {"b": b, "h": h},
        f=law("x, y", "b * x / (1.0 + b * h * x)", b=b, h=h),
        f_x=law("x, y", "b / (1.0 + b * h * x) ** 2", b=b, h=h),
    )


def holling3(b: float, h: float) -> FunctionalResponse:
    """Sigmoidal form: f = b x^2 / (1 + b h x^2)."""
    return FunctionalResponse(
        ResponseKind.HOLLING_III, {"b": b, "h": h},
        f=law("x, y", "b * x * x / (1.0 + b * h * x * x)", b=b, h=h),
        f_x=law("x, y", "2.0 * b * x / (1.0 + b * h * x * x) ** 2", b=b, h=h),
    )


def saturation(b: float, h: float, k: float) -> FunctionalResponse:
    """f = b x^k / (1 + b h x^k) with k > 1."""
    return FunctionalResponse(
        ResponseKind.SATURATION, {"b": b, "h": h, "k": k},
        f=law("x, y", "b * x ** k / (1.0 + b * h * x ** k)", b=b, h=h, k=k),
        f_x=law("x, y", "b * k * x ** (k - 1.0) / (1.0 + b * h * x ** k) ** 2"
                " if x > 0.0 else 0.0", b=b, h=h, k=k),
    )


def ivlev(b: float, c: float) -> FunctionalResponse:
    """f = b (1 - exp(-c x))."""
    return FunctionalResponse(
        ResponseKind.IVLEV, {"b": b, "c": c},
        f=law("x, y", "b * -math.expm1(-c * x)", b=b, c=c),
        f_x=law("x, y", "b * c * math.exp(-c * x)", b=b, c=c),
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


_EXPONENT = Bound(">", 1.0, subject="exponent")

# kind -> (factory, {coefficient: admissible range})
RESPONSE_CATALOG: dict[str, tuple[Callable[..., FunctionalResponse],
                                  dict[str, Bound]]] = {
    ResponseKind.LINEAR: (linear, {"b": POSITIVE}),
    ResponseKind.POWER_LAW: (power_law, {"b": POSITIVE, "k": _EXPONENT}),
    ResponseKind.HOLLING_I: (holling1, {"a": POSITIVE, "b": POSITIVE}),
    ResponseKind.HOLLING_II: (holling2, {"b": POSITIVE, "h": POSITIVE}),
    ResponseKind.HOLLING_III: (holling3, {"b": POSITIVE, "h": POSITIVE}),
    ResponseKind.SATURATION: (saturation, {"b": POSITIVE, "h": POSITIVE,
                                           "k": _EXPONENT}),
    ResponseKind.IVLEV: (ivlev, {"b": POSITIVE, "c": POSITIVE}),
    ResponseKind.BEDDINGTON_DEANGELIS: (beddington_deangelis, {
        "b": POSITIVE, "k1": NONNEGATIVE, "k2": NONNEGATIVE}),
    ResponseKind.CROWLEY_MARTIN: (crowley_martin, {
        "b": POSITIVE, "k1": NONNEGATIVE, "k2": NONNEGATIVE}),
}
# each requirement names its kind and coefficient: "Ivlev: coefficient 'c' ..."
RESPONSE_CATALOG = {kind: (factory, {name: bound._replace(
    subject=f"{kind}: {bound.subject or 'coefficient'} {name!r}")
    for name, bound in ranges.items()})
    for kind, (factory, ranges) in RESPONSE_CATALOG.items()}


def make_response(kind: str, /, **coefficients: float) -> FunctionalResponse:
    """Build a catalog response by kind name, e.g. make_response("HollingII", b=2, h=0.5).

    A missing or unknown coefficient raises ValueError.
    """
    return make(RESPONSE_CATALOG, "response", kind, kind, **coefficients)
