"""Maturation-delay laws tau(y).

The delay is a nondecreasing, continuously differentiable, bounded function of
the mature predator density, supplied as a (tau, tau') pair plus its bounds
tau_m = tau(0) and tau_M = tau(+inf).  Three built-in shapes cover the common
cases; arbitrary user pairs are accepted as well.

Each built-in tau and tau' is written once, as one expression text through
:func:`preydelay._law.law`: the callable is built from that text, and the
integration engine writes the text into its step in place of a call.  A user
pair carries no text and is called.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ._law import POSITIVE, Bound, law, make

__all__ = [
    "DelayFunction",
    "constant_delay",
    "saturating_delay",
    "exp_delay",
    "make_delay",
    "DELAY_CATALOG",
]


@dataclass(frozen=True)
class DelayFunction:
    """State-dependent maturation delay with derivative and bounds.

    Invariants (checked by model validation, not at construction):
    tau'(y) >= 0, 0 <= tau_m <= tau(y) <= tau_M < inf, tau(0) = tau_m.
    """

    tau: Callable[[float], float] = field(repr=False)
    tau_prime: Callable[[float], float] = field(repr=False)
    tau_m: float
    tau_M: float
    kind: str = "custom"
    coefficients: Mapping[str, float] = field(default_factory=dict)


def constant_delay(value: float) -> DelayFunction:
    """tau(y) = value for all y."""
    return DelayFunction(
        tau=law("y", "value", value=value),
        tau_prime=law("y", "0.0"),
        tau_m=value,
        tau_M=value,
        kind="constant",
    )


def saturating_delay(tau_m: float, tau_M: float, theta: float) -> DelayFunction:
    """tau(y) = tau_m + (tau_M - tau_m) * y / (y + theta), half-saturation theta > 0."""
    span = tau_M - tau_m
    return DelayFunction(
        tau=law("y", "tau_m + span * y / (y + theta)",
                tau_m=tau_m, span=span, theta=theta),
        tau_prime=law("y", "span * theta / (y + theta) ** 2",
                      span=span, theta=theta),
        tau_m=tau_m,
        tau_M=tau_M,
        kind="saturating",
        coefficients={"theta": theta},
    )


def exp_delay(tau_m: float, tau_M: float, lam: float) -> DelayFunction:
    """tau(y) = tau_M - (tau_M - tau_m) * exp(-lam * y), rate lam > 0."""
    span = tau_M - tau_m
    return DelayFunction(
        tau=law("y", "tau_M - span * math.exp(-lam * y)",
                tau_M=tau_M, span=span, lam=lam),
        tau_prime=law("y", "span * lam * math.exp(-lam * y)",
                      span=span, lam=lam),
        tau_m=tau_m,
        tau_M=tau_M,
        kind="exp",
        coefficients={"lam": lam},
    )


def _constant(tau_m: float, tau_M: float) -> DelayFunction:
    if tau_m != tau_M:
        raise ValueError("constant delay requires tau_m == tau_M")
    return constant_delay(tau_m)


# kind -> (factory of tau_m, tau_M, coefficients; {coefficient: admissible range})
DELAY_CATALOG: dict[str, tuple[Callable, dict[str, Bound]]] = {
    "constant": (_constant, {}),
    "saturating": (saturating_delay, {"theta": POSITIVE}),
    "exp": (exp_delay, {"lam": POSITIVE}),
}


def make_delay(kind: str, tau_m: float, tau_M: float, /,
               **coefficients: float) -> DelayFunction:
    """Build a built-in delay law by kind name, with the coefficients of its
    :data:`DELAY_CATALOG` entry; "constant" requires tau_m == tau_M.  A
    missing or unknown coefficient raises ValueError."""
    return make(DELAY_CATALOG, "delay", f"{kind} delay", kind, tau_m, tau_M,
                **coefficients)
