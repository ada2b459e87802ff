"""Tiny arithmetic expression language for drivers and terminal conditions.

Python's expression syntax restricted to decimal numbers, the variables
allowed at the call site (t, x for terminal data; t, x, y, z for drivers),
unary minus, ``+ - * /``, ``^`` for power (Python's ``**``: right-associative
and above unary minus, so ``-2^2`` is -4) and calls of exp, cos, sin, sqrt,
abs and max(a, b); blanks, line breaks and leading zeros are allowed.
``_check`` refuses every other node of ``ast.parse``'s tree, nesting deeper
than ``MAX_DEPTH`` and a constant that is not finite (``1/0``, ``10^400``).
Everything evaluates vectorized in float64; no user text reaches eval().
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import VolterraError

_FUNCTIONS = {"exp": (np.exp, 1), "cos": (np.cos, 1), "sin": (np.sin, 1),
              "sqrt": (np.sqrt, 1), "abs": (np.abs, 1), "max": (np.maximum, 2)}
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: operator.pow}
MAX_DEPTH = 200  # where Python's own parser refuses nested parentheses

_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
# a character outside the grammar (from the blanks before it), '**' or ',)'
_BAD_CHARACTER = re.compile(r"\s*[^A-Za-z0-9_\s.+\-*/^(),]|\*\*|,\s*\)")
# a number's leading zeros, which Python refuses (007), but not an exponent's
_ZEROS = re.compile(r"(?<![\w.])(?<![eE][+-])0+(?=\d)")


class ExpressionError(VolterraError, ValueError):
    """Parse or evaluation failure; message carries the offending position."""


def _check(node, variables, where, depth=1):
    """``node`` with each constant subtree folded into one float64 Constant;
    ExpressionError for a node outside the grammar, nesting deeper than
    MAX_DEPTH or a non-finite constant.  ``where(node)``: text, position."""
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nests deeper than {MAX_DEPTH}")
    text, pos = where(node)
    if isinstance(node, ast.Name):
        if node.id in variables:
            return node
        raise ExpressionError(f"unknown variable {text!r} (allowed: {sorted(variables)})")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r} at position {pos}")
        if len(node.args) != _FUNCTIONS[name][1]:
            raise ExpressionError(f"{name} takes {_FUNCTIONS[name][1]} argument(s)")
        node.args = children = [_check(a, variables, where, depth + 1) for a in node.args]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node.operand = _check(node.operand, variables, where, depth + 1)
        children = [node.operand]
    elif isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        node.left = _check(node.left, variables, where, depth + 1)
        node.right = _check(node.right, variables, where, depth + 1)
        children = [node.left, node.right]
    elif isinstance(node, ast.Constant) and _NUMBER.fullmatch(text):
        node, children = ast.Constant(np.float64(float(text))), []
    else:
        raise ExpressionError(f"unexpected {text!r} at position {pos}")
    if not all(isinstance(c, ast.Constant) for c in children):
        return node
    with np.errstate(all="ignore"):
        value = _evaluate(node, {})
    if not np.isfinite(value):
        raise ExpressionError(f"constant {text!r} at position {pos} is not finite")
    return ast.Constant(value)


def _evaluate(node, env):
    """The value of a checked tree, its variables read from ``env``."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        return -_evaluate(node.operand, env)
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id][0](*[_evaluate(a, env) for a in node.args])
    return _OPS[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))


@dataclass(frozen=True)
class Expression:
    """A compiled expression.  A call takes the ``variables`` positionally,
    in declared order, or by name, and returns a new float array of their
    broadcast shape (0-d with no variables), constants filled out."""

    source: str
    node: ast.expr
    variables: tuple

    def __call__(self, *args, **named):
        if len(args) > len(self.variables):
            raise ExpressionError(
                f"{len(args)} arguments for variables {list(self.variables)}")
        named.update(zip(self.variables, args))
        missing = set(self.variables) - set(named)
        if missing:
            raise ExpressionError(f"missing variables {sorted(missing)}")
        env = {v: np.asarray(named[v], dtype=float) for v in self.variables}
        shape = np.broadcast_shapes(*(a.shape for a in env.values()))
        value = _evaluate(self.node, env)
        # an operation's own result is already new; a constant, a broadcast
        # or a bare variable (one of the inputs) is copied
        if (isinstance(value, np.ndarray) and value.shape == shape
                and not any(value is a for a in env.values())):
            return value
        return np.broadcast_to(value, shape).astype(float)


def compile_expression(src, variables):
    """Parse ``src`` against the allowed variable names; returns Expression."""
    if not src or not src.strip():
        raise ExpressionError("empty expression")
    bad = _BAD_CHARACTER.search(src)
    if bad:
        raise ExpressionError(f"bad character at position {bad.start()}: "
                              f"{src[bad.start():]!r}")
    # Python's text, and at[i] the position in src of its character i
    text = _ZEROS.sub(lambda m: " " * len(m[0]), re.sub(r"\s", " ", src))
    lead = len(text) - len(text.lstrip())  # ast.parse refuses an indent
    at = [i for i, ch in enumerate(text) if i >= lead
          for _ in range(1 + (ch == "^"))] + [len(src)]
    text = text[lead:].replace("^", "**")
    try:
        with warnings.catch_warnings():  # SyntaxWarning on '1if' and the like
            warnings.simplefilter("ignore")
            tree = ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        col = min((exc.offset or len(text) + 1) - 1, len(text))  # 0: at the end
        raise ExpressionError(f"{exc.msg} at position {at[col]}") from None
    except (RecursionError, MemoryError):
        raise ExpressionError(f"expression nests deeper than {MAX_DEPTH}") from None

    def where(node):
        start = at[node.col_offset]
        return src[start:at[node.end_col_offset - 1] + 1], start

    node = _check(tree, frozenset(variables), where)
    return Expression(source=src.strip(), node=node, variables=tuple(variables))
