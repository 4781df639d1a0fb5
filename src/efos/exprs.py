"""A restricted expression language for config-defined fields and operators.

Supported: numeric literals, the constant ``pi``, the binary operators
+ - * /, unary +/-, and calls to sin, cos, tanh, exp.  Names are ``x1``
.. ``xn`` for coordinates and ``q11`` .. ``qNn`` for gradient entries
(component first, variable second).  Everything else is rejected at
parse time, so config files cannot run arbitrary code, and so is a
literal whose float is not finite, such as ``1e400``.

An expression compiles to a tree of plain data: a leaf is a float (a
literal or ``pi``) or a name, and every other node is a tuple
``(numpy function, *operands)``.  ``evaluate`` computes its value.
"""

from __future__ import annotations

import ast

import numpy as np

__all__ = ["ExpressionError", "compile_expression", "evaluate", "names_read"]

_FUNCS = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide}


class ExpressionError(ValueError):
    """Raised when an expression uses anything outside the allowed subset."""


def _compile_node(node, names, text):
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):
            raise ExpressionError(f"literal {node.value!r} is not a number")
        try:
            value = float(node.value)
        except OverflowError:  # an integer literal beyond the float range
            value = np.inf
        if np.isfinite(value):
            return value
        source = ast.get_source_segment(text, node)
        raise ExpressionError(f"literal {source if len(source) <= 24 else source[:20] + '...'} is not a finite number")
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return np.pi
        if node.id in names:
            return node.id
        raise ExpressionError(f"unknown name {node.id!r}; allowed: pi, {', '.join(sorted(names))}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return (_BINOPS[type(node.op)], _compile_node(node.left, names, text), _compile_node(node.right, names, text))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _compile_node(node.operand, names, text)
        return operand if isinstance(node.op, ast.UAdd) else (np.negative, operand)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords:
            return (_FUNCS[node.func.id], _compile_node(node.args[0], names, text))
        raise ExpressionError("only single-argument sin/cos/tanh/exp calls are allowed")
    raise ExpressionError(f"disallowed syntax: {ast.dump(node)}")


def compile_expression(text: str, names):
    """Compile ``text`` to a tree over the variable names in ``names``."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from exc
    return _compile_node(tree.body, frozenset(names), text)


def evaluate(tree, env):
    """The value of a compiled expression with numpy broadcasting; ``env``
    maps each name the expression reads to an array or a scalar.  numpy's
    floating-point warnings are off: every reader of the value refuses a
    NaN or an infinity and names where it is."""
    with np.errstate(all="ignore"):
        return _value(tree, env)


def _value(tree, env):
    if isinstance(tree, tuple):
        fn, *operands = tree
        return fn(*(_value(operand, env) for operand in operands))
    return env[tree] if isinstance(tree, str) else tree


def names_read(tree) -> set:
    """The variable names that a compiled expression reads."""
    if isinstance(tree, tuple):
        return set().union(*(names_read(operand) for operand in tree[1:]))
    return {tree} if isinstance(tree, str) else set()
