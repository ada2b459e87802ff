"""Tiny arithmetic expression language for drivers and terminal conditions.

Grammar (whitespace insensitive):

    expr    := term  (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power             unary minus binds below power
    power   := primary ('^' factor)?          right-associative power
    primary := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Variables are restricted per call site (t, x for terminal data; t, x, y, z
for drivers).  Functions: exp, cos, sin, sqrt, max, abs.  Everything
evaluates vectorized over numpy arrays; there is no eval() anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import VolterraError

_FUNCTIONS = {
    "exp": (np.exp, 1),
    "cos": (np.cos, 1),
    "sin": (np.sin, 1),
    "sqrt": (np.sqrt, 1),
    "abs": (np.abs, 1),
    "max": (np.maximum, 2),
}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])|\Z)"
)


class ExpressionError(VolterraError, ValueError):
    """Parse or evaluation failure; message carries the offending position."""


def _tokenize(src):
    pos = 0
    out = []
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
            raise ExpressionError(f"bad character at position {pos}: {src[pos:]!r}")
        if m.lastgroup is not None:
            out.append((m.lastgroup, m.group(m.lastgroup), pos))
        pos = m.end()
    out.append(("end", "", pos))
    return out


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.k = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.k]
        if kind and tok[0] != kind or value is not None and tok[1] != value:
            raise ExpressionError(
                f"expected {value or kind} at position {tok[2]}, got {tok[1]!r}"
            )
        self.k += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"unexpected {tok[1]!r} at position {tok[2]}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            node = ("bin", op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[1] == "-":
            self.take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        node = self.primary()
        if self.peek()[1] == "^":
            self.take()
            node = ("bin", "^", node, self.factor())
        return node

    def primary(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return ("num", float(tok[1]))
        if tok[0] == "ident":
            self.take()
            name = tok[1]
            if self.peek()[1] == "(":
                if name not in _FUNCTIONS:
                    raise ExpressionError(
                        f"unknown function {name!r} at position {tok[2]}"
                    )
                self.take(value="(")
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.take()
                    args.append(self.expr())
                self.take(value=")")
                if len(args) != _FUNCTIONS[name][1]:
                    raise ExpressionError(
                        f"{name} takes {_FUNCTIONS[name][1]} argument(s)"
                    )
                return ("call", name, args)
            if name not in self.variables:
                raise ExpressionError(
                    f"unknown variable {name!r} (allowed: {sorted(self.variables)})"
                )
            return ("var", name)
        if tok[1] == "(":
            self.take()
            node = self.expr()
            self.take(value=")")
            return node
        raise ExpressionError(f"unexpected {tok[1]!r} at position {tok[2]}")


def _evaluate(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_evaluate(node[1], env)
    if kind == "call":
        fn, _ = _FUNCTIONS[node[1]]
        return fn(*[_evaluate(a, env) for a in node[2]])
    _, op, a, b = node
    va, vb = _evaluate(a, env), _evaluate(b, env)
    if op == "+":
        return va + vb
    if op == "-":
        return va - vb
    if op == "*":
        return va * vb
    if op == "/":
        return va / vb
    return va**vb


@dataclass(frozen=True)
class Expression:
    """A compiled expression.  A call takes the ``variables`` positionally,
    in declared order, or by name, and returns a new float array of their
    broadcast shape (0-d with no variables), constants filled out."""

    source: str
    node: tuple
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
        return np.broadcast_to(_evaluate(self.node, env), shape).astype(float)


def compile_expression(src, variables):
    """Parse ``src`` against the allowed variable names; returns Expression."""
    if not src or not src.strip():
        raise ExpressionError("empty expression")
    node = _Parser(_tokenize(src), frozenset(variables)).parse()
    return Expression(source=src.strip(), node=node, variables=tuple(variables))
