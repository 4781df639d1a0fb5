"""The whitelisted expression subset used by config files."""

import ast

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from efos.exprs import ExpressionError, compile_expression, evaluate


def test_arithmetic_and_functions():
    tree = compile_expression("0.5*sin(2*pi*x1) + cos(x2)/2 - 1", ["x1", "x2"])
    x1, x2 = 0.25, 0.0
    got = evaluate(tree, {"x1": x1, "x2": x2})
    assert got == pytest.approx(0.5 * np.sin(2 * np.pi * x1) + 0.5 - 1)


def test_vectorized_evaluation():
    tree = compile_expression("tanh(q11) + exp(-x1)", ["x1", "q11"])
    x1 = np.linspace(0, 1, 8)
    q11 = np.linspace(-1, 1, 8)
    got = evaluate(tree, {"x1": x1, "q11": q11})
    np.testing.assert_allclose(got, np.tanh(q11) + np.exp(-x1), atol=1e-14)


def test_unary_minus_and_precedence():
    tree = compile_expression("-x1 + 2*x1*x1", ["x1"])
    assert evaluate(tree, {"x1": 3.0}) == pytest.approx(15.0)


def test_unknown_name_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("x1 + y", ["x1"])


def test_unsafe_constructs_rejected():
    for text in (
        "__import__('os')",
        "x1 ** 2",
        "lambda: 1",
        "[1, 2]",
        "x1 if x1 else 0",
        "sin(x1, x1)",
        "getattr(x1, 'real')",
        "'abc'",
    ):
        with pytest.raises(ExpressionError):
            compile_expression(text, ["x1"])


def test_syntax_error_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("x1 +", ["x1"])


@pytest.mark.parametrize("literal", ["1" * 400, "1e400", "2e308"])
def test_non_finite_literal_rejected(literal):
    with pytest.raises(ExpressionError) as info:
        compile_expression(f"x1 + 2 * {literal}", ["x1"])
    message = str(info.value)
    assert message.startswith(f"literal {literal[:20]}") and message.endswith(" is not a finite number")
    assert len(message) < 60


# The closure compiler that the tree replaced, kept as the reference: each
# node became a lambda over the environment, unary + the identity.
_REF_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide}
_REF_UNARY = {ast.UAdd: lambda v: v, ast.USub: np.negative}
_REF_FUNCS = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp}


def _closure(node):
    if isinstance(node, ast.Constant):
        value = float(node.value)
        return lambda env: value
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return lambda env: np.pi
        key = node.id
        return lambda env: env[key]
    if isinstance(node, ast.BinOp):
        op, left, right = _REF_BINOPS[type(node.op)], _closure(node.left), _closure(node.right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        op, operand = _REF_UNARY[type(node.op)], _closure(node.operand)
        return lambda env: op(operand(env))
    fn, arg = _REF_FUNCS[node.func.id], _closure(node.args[0])
    return lambda env: fn(arg(env))


NAMES = ("x1", "x2", "q11")
_LITERALS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0.0, 1e3).map(repr),
    st.builds("{}e{}".format, st.integers(0, 999), st.integers(-30, 30)),
)
_EXPRESSIONS = st.recursive(
    st.one_of(_LITERALS, st.just("pi"), st.sampled_from(NAMES)),
    lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}{}".format, st.sampled_from("+-"), inner),
        st.builds("{}({})".format, st.sampled_from(sorted(_REF_FUNCS)), inner),
    ),
    max_leaves=12,
)
# zeros make the divisions divide by zero; the shapes broadcast together to (3, 4)
_ENTRIES = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0, np.inf, np.nan]))
_VALUES = st.one_of(_ENTRIES, *(hnp.arrays(np.float64, shape, elements=_ENTRIES) for shape in [(4,), (3, 1), (3, 4)]))
_ENVIRONMENTS = st.fixed_dictionaries({name: _VALUES for name in NAMES})


@given(_EXPRESSIONS, _ENVIRONMENTS)
@settings(derandomize=True, max_examples=400, deadline=None)
def test_tree_matches_the_closure_compiler_bit_for_bit(text, env):
    with np.errstate(all="ignore"):
        got = evaluate(compile_expression(text, NAMES), env)
        want = _closure(ast.parse(text, mode="eval").body)(env)
    assert type(got) is type(want), text
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), text
