"""One way to write a catalog law: an expression text.

``law("x, y", "b * x / (1.0 + b * h * x)", b=b, h=h)`` returns a plain
function of ``x, y`` that closes over the named constants, exactly like the
lambda written out by hand, so a call costs what that lambda costs.  The text
and constants ride along as the function's ``law`` attribute (a
:class:`LawText`); the integration engine reads it to write the law into its
generated stepping loop instead of calling it (see :mod:`preydelay.engine`).
The compiled maker is cached by its text, so only the first law of a kind
compiles anything.  A catalog is one table, kind -> (factory, {coefficient:
:class:`Bound`}), that :func:`make` builds laws from.
"""
from __future__ import annotations

import ast
import math
from typing import Callable, Mapping, NamedTuple

__all__ = ["LawText", "law", "Bound", "POSITIVE", "NONNEGATIVE", "make",
           "range_errors"]


class LawText(NamedTuple):
    """A law's arguments, its expression over them and its named constants.

    The expression may read the arguments, the constants and ``math``.
    ``code`` is the law function's code, which tells the function apart from
    a wrapper that copied its attributes.
    """

    args: tuple[str, ...]
    text: str
    constants: dict[str, float]
    code: object


# (args, text, constant names) -> the compiled maker of the law's function
_MAKERS: dict[tuple, Callable] = {}


def law(args: str, text: str, **constants: float) -> Callable:
    """The function ``lambda <args>: <text>`` over ``constants``, text attached."""
    names = tuple(a.strip() for a in args.split(","))
    key = (names, text, tuple(constants))
    maker = _MAKERS.get(key)
    if maker is None:
        maker = _MAKERS[key] = _compile_maker(names, text, tuple(constants))
    fn = maker(*constants.values())
    fn.law = LawText(names, text, constants, fn.__code__)
    return fn


def _compile_maker(args: tuple[str, ...], text: str,
                   constants: tuple[str, ...]) -> Callable:
    free = {node.id for node in ast.walk(ast.parse(text, mode="eval"))
            if isinstance(node, ast.Name)}
    unknown = free - set(args) - set(constants) - {"math"}
    if unknown:
        raise ValueError(f"law {text!r} reads unknown names {sorted(unknown)}")
    source = (f"def maker({', '.join(constants)}):\n"
              f"    return lambda {', '.join(args)}: {text}\n")
    namespace = {"math": math}
    exec(compile(source, f"<law {text}>", "exec"), namespace)
    return namespace["maker"]


class Bound(NamedTuple):
    """The admissible range ``x op value``, ``op`` ">" or ">=".  Its text is
    the requirement a message states, "must be > 0"; ``of`` names the key
    whose value ``value`` is and ``subject`` what must lie in the range."""

    op: str
    value: float
    of: str = ""
    subject: str = ""

    def admits(self, x: float) -> bool:
        return x > self.value if self.op == ">" else x >= self.value

    def __str__(self) -> str:
        value = f"{self.of} = {self.value!r}" if self.of else f"{self.value:g}"
        return f"{self.subject} must be {self.op} {value}".lstrip()


POSITIVE = Bound(">", 0.0)
NONNEGATIVE = Bound(">=", 0.0)


def range_errors(values: Mapping[str, float],
                 ranges: Mapping[str, Bound]) -> list[tuple[str, str]]:
    """(name, requirement) of each of ``values`` outside its range, in the
    order of ``ranges``; a name that ``values`` lacks reads as 0."""
    return [(name, str(bound)) for name, bound in ranges.items()
            if not bound.admits(values.get(name, 0.0))]


def make(catalog: Mapping, what: str, label: str, kind: str, /, *args,
         **coefficients: float):
    """``catalog[kind]``'s factory on ``args`` and ``coefficients``, which
    must be the kind's; ``what`` and ``label`` name the catalog and kind."""
    try:
        factory, ranges = catalog[kind]
    except (KeyError, TypeError):  # TypeError: a JSON list or object
        raise ValueError(f"unknown {what} kind {kind!r}; expected one of "
                         f"{tuple(catalog)}") from None
    found = [("unknown", [c for c in coefficients if c not in ranges]),
             ("missing", [c for c in ranges if c not in coefficients])]
    problems = "; ".join(f"{word} {', '.join(map(repr, names))}"
                         for word, names in found if names)
    if problems:
        raise ValueError(f"{label}: {problems}; expected coefficients "
                         f"{', '.join(map(repr, ranges)) or 'none'}")
    return factory(*args, **coefficients)
