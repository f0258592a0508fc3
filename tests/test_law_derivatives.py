"""The catalog's derivative texts against sympy's derivatives of its law texts.

Each catalog law is one expression text (see ``preydelay._law``).  Here the
text of every response f and delay tau is parsed with ``ast``, turned into a
sympy expression with every name a positive symbol and every float an exact
rational, and differentiated; the result must equal the text of f_x, f_y or
tau' exactly.  ``a if c else b`` becomes a ``Piecewise``; where a break
``x <= c`` (Holling I's) survives in the difference, the difference is
taken on both sides of c, off the break, where the law is differentiable.
Names are positive, so a guard ``x > 0.0`` holds.  The finite-difference
tests in ``test_responses.py`` and ``test_model.py`` stay beside these.
"""
import ast
import operator

import pytest
import sympy

from preydelay import (beddington_deangelis, constant_delay, crowley_martin,
                       exp_delay, holling1, holling2, holling3, ivlev, linear,
                       power_law, saturating_delay, saturation)
from preydelay.delays import DELAY_CATALOG
from preydelay.responses import RESPONSE_CATALOG

RESPONSES = [linear(0.8), power_law(0.6, 1.5), holling1(1.0, 1.2),
             holling2(1.5, 0.5), holling3(1.5, 0.5), saturation(1.5, 0.5, 1.5),
             ivlev(1.2, 0.8), beddington_deangelis(1.0, 0.5, 2.0),
             crowley_martin(1.0, 0.5, 2.0)]
DELAYS = [constant_delay(0.6), saturating_delay(0.5, 1.0, 1.0),
          exp_delay(0.5, 1.0, 1.5)]

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}
_COMPARE = {ast.Lt: sympy.Lt, ast.LtE: sympy.Le, ast.Gt: sympy.Gt,
            ast.GtE: sympy.Ge}
_MATH = {"exp": sympy.exp, "expm1": lambda z: sympy.exp(z) - 1}


def to_sympy(node):
    """The sympy expression of a law text's ast node."""
    if isinstance(node, ast.Expression):
        return to_sympy(node.body)
    if isinstance(node, ast.Constant):
        return sympy.Rational(repr(node.value))
    if isinstance(node, ast.Name):
        return sympy.Symbol(node.id, positive=True)
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](to_sympy(node.left), to_sympy(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -to_sympy(node.operand)
    if isinstance(node, ast.Call) and node.func.value.id == "math":
        return _MATH[node.func.attr](*map(to_sympy, node.args))
    if isinstance(node, ast.IfExp):
        return sympy.Piecewise((to_sympy(node.body), to_sympy(node.test)),
                               (to_sympy(node.orelse), True))
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        return _COMPARE[type(node.ops[0])](to_sympy(node.left),
                                           to_sympy(node.comparators[0]))
    raise NotImplementedError(ast.dump(node))


def assert_exact_derivative(text, derivative_text, arg):
    var = sympy.Symbol(arg, positive=True)
    difference = (sympy.diff(to_sympy(ast.parse(text, mode="eval")), var)
                  - to_sympy(ast.parse(derivative_text, mode="eval")))
    breaks = {rel.rhs for rel in difference.atoms(sympy.Rel) if rel.lhs == var}
    points = [difference.subs(var, p) for c in breaks for p in (c / 2, 2 * c)]
    for d in points or [difference]:
        assert sympy.simplify(d) == 0, (text, derivative_text, d)


def test_the_cases_cover_the_catalog():
    assert [r.kind for r in RESPONSES] == list(RESPONSE_CATALOG)
    assert [d.kind for d in DELAYS] == list(DELAY_CATALOG)


@pytest.mark.parametrize("response", RESPONSES, ids=list(RESPONSE_CATALOG))
def test_response_partials_are_exact(response):
    assert response.f.law.args == ("x", "y")
    assert_exact_derivative(response.f.law.text, response.f_x.law.text, "x")
    assert_exact_derivative(response.f.law.text, response.f_y.law.text, "y")


@pytest.mark.parametrize("delay", DELAYS, ids=list(DELAY_CATALOG))
def test_delay_derivative_is_exact(delay):
    assert delay.tau.law.args == ("y",)
    assert_exact_derivative(delay.tau.law.text, delay.tau_prime.law.text, "y")


def test_a_wrong_derivative_is_caught():
    # Holling II's f_x with its square dropped, and Holling I's with the
    # plateau's slope set to a: both sides of a break are checked
    for response, wrong in ((holling2(1.5, 0.5), "b / (1.0 + b * h * x)"),
                            (holling1(1.0, 1.2), "a")):
        with pytest.raises(AssertionError):
            assert_exact_derivative(response.f.law.text, wrong, "x")
