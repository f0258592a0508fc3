"""One way to write a catalog law: an expression text.

``law("x, y", "b * x / (1.0 + b * h * x)", b=b, h=h)`` returns a plain
function of ``x, y`` that closes over the named constants, exactly like the
lambda written out by hand, so a call costs what that lambda costs.  The text
and constants ride along as the function's ``law`` attribute (a
:class:`LawText`); the integration engine reads it to write the law into its
generated stepping loop instead of calling it (see :mod:`preydelay.engine`).
The compiled maker is cached by its text, so only the first law of a kind
compiles anything.  :func:`check_coefficients` checks the coefficient names
handed to a catalog factory by kind.
"""
from __future__ import annotations

import ast
import math
from typing import Callable, NamedTuple

__all__ = ["LawText", "law", "check_coefficients"]


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


def check_coefficients(kind: str, factory: Callable, given, skip: int = 0) -> None:
    """Raise ValueError unless ``given`` names exactly ``factory``'s coefficients.

    The coefficients are the factory's parameters after its first ``skip``,
    read off its code.
    """
    code = factory.__code__
    expected = code.co_varnames[skip:code.co_argcount]
    found = [("unknown", [c for c in given if c not in expected]),
             ("missing", [c for c in expected if c not in given])]
    problems = "; ".join(f"{label} {', '.join(map(repr, names))}"
                         for label, names in found if names)
    if problems:
        raise ValueError(f"{kind}: {problems}; expected coefficients "
                         f"{', '.join(map(repr, expected)) or 'none'}")
