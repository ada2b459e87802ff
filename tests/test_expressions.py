"""Expression grammar used by config-driven drivers and terminal data."""

import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volterra_bsde.config import ExperimentConfig, build_kernel
from volterra_bsde.expressions import ExpressionError, _evaluate, compile_expression


def test_arithmetic_and_precedence():
    e = compile_expression("1 + 2*3 - 4/2", ())
    assert e() == 5.0
    assert compile_expression("2^3^2", ())() == 512.0  # right-associative
    assert compile_expression("-2^2", ())() == -4.0
    assert compile_expression("(1+2)*3", ())() == 9.0


def test_variables_vectorized():
    e = compile_expression("x^2 - t", ("t", "x"))
    x = np.linspace(-1, 1, 5)
    np.testing.assert_allclose(e(t=0.5, x=x), x**2 - 0.5)


def test_functions():
    assert compile_expression("exp(0)", ())() == 1.0
    assert compile_expression("max(3, 5)", ())() == 5.0
    assert compile_expression("abs(-2.5)", ())() == 2.5
    e = compile_expression("max(x, 0) + 0.05", ("x",))
    np.testing.assert_allclose(e(x=np.array([-1.0, 2.0])), [0.05, 2.05])
    assert compile_expression("sqrt(cos(0) + sin(0) + 3)", ())() == 2.0


def test_scientific_literals():
    assert compile_expression("1e-3 + 2.5E2", ())() == pytest.approx(250.001)


def test_whitespace_insensitive_at_both_ends():
    for src in ("x + 1 ", " x + 1", "\tx+1\n", "x + 1   "):
        e = compile_expression(src, ("x",))
        assert e(x=2.0) == 3.0 and e.source == src.strip()
    with pytest.raises(ExpressionError, match="bad character at position 1"):
        compile_expression("x $ ", ("x",))


def test_driver_style_expression():
    e = compile_expression("-y + 0.1*z - x*t", ("t", "x", "y", "z"))
    assert e(t=1.0, x=2.0, y=3.0, z=4.0) == -3.0 + 0.4 - 2.0


def test_unknown_variable_rejected():
    with pytest.raises(ExpressionError, match="unknown variable"):
        compile_expression("x + q", ("x",))


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError, match="unknown function"):
        compile_expression("tan(x)", ("x",))


def test_arity_checked():
    with pytest.raises(ExpressionError):
        compile_expression("max(1)", ())
    with pytest.raises(ExpressionError):
        compile_expression("exp(1, 2)", ())


def test_syntax_errors_report_position():
    with pytest.raises(ExpressionError, match="position"):
        compile_expression("1 + * 2", ())
    with pytest.raises(ExpressionError):
        compile_expression("(1 + 2", ())
    with pytest.raises(ExpressionError):
        compile_expression("", ("x",))
    with pytest.raises(ExpressionError, match="bad character"):
        compile_expression("x @ 2", ("x",))


def test_missing_variable_at_call():
    e = compile_expression("x + t", ("t", "x"))
    with pytest.raises(ExpressionError, match="missing"):
        e(x=1.0)


def test_positional_call_equals_named_call():
    e = compile_expression("-y + 0.5*sin(z) - x*t", ("t", "x", "y", "z"))
    x = np.linspace(-2.0, 2.0, 7)
    args = (0.25, x, np.cos(x), x[:, None])
    named = e(t=args[0], x=args[1], y=args[2], z=args[3])
    assert np.array_equal(e(*args), named)
    assert np.array_equal(e(0.25, x, z=args[3], y=args[2]), named)
    assert named.shape == (7, 7) and named.dtype == float
    with pytest.raises(ExpressionError, match="arguments"):
        e(1.0, 2.0, 3.0, 4.0, 5.0)


def test_constant_comes_back_as_a_new_array_of_the_input_shape():
    e = compile_expression("2", ("t", "x"))
    x = np.zeros((3, 4))
    a, b = e(0.5, x), e(0.5, x)
    assert a.shape == (3, 4) and a.dtype == float and np.all(a == 2.0)
    a[0, 0] = -1.0  # writable, and shared with nothing
    assert b[0, 0] == 2.0 and np.all(x == 0.0)
    assert e(1.0, 2.0).shape == () and compile_expression("1", ())().shape == ()
    # a variable passed through is copied, never aliased
    ident = compile_expression("x", ("x",))
    out = ident(x)
    out += 1.0
    assert np.all(x == 0.0)


def test_an_operation_result_is_returned_without_a_copy():
    # the compiled -y holds one array of y's size at its peak, as numpy's -y
    # does, and its values are numpy's bit for bit
    e = compile_expression("-y", ("y",))
    y = np.linspace(-1.0, 1.0, 2**20)
    e(y)  # warm the compiled call's own allocations
    tracemalloc.start()
    out = e(y)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1.5 * y.nbytes
    assert np.array_equal(out, -y) and out.flags.writeable


def test_a_bare_variable_or_a_constant_comes_back_fresh_and_writable():
    y = np.linspace(-1.0, 1.0, 7)
    before = y.copy()
    for src in ("y", "1"):
        out = compile_expression(src, ("y",))(y)
        assert out.shape == y.shape and out.flags.writeable
        assert not np.shares_memory(out, y)
        out[:] = -7.0
        assert np.array_equal(y, before)


def test_config_mbm_hurst_matches_the_broadcast_form():
    # the form a config-built mbm kernel used before it took the Expression
    # itself: the raw evaluation times ones_like(t)
    for src in ("0.6 + 0.2 * t", "0.7"):
        kernel = build_kernel(ExperimentConfig(values={
            ("kernel", "family"): "mbm", ("kernel", "hurst_expr"): src}))
        node = compile_expression(src, ("t",)).node
        for t in (0.3, np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 6)[:, None]):
            t = np.asarray(t, dtype=float)
            old = _evaluate(node, {"t": t}) * np.ones_like(t)
            assert np.array_equal(kernel.hurst_at(t), old)


# -- the grammar as a property: random trees, rendered with the fewest
# parentheses their precedence allows, against their numpy value

_NUMBERS = st.one_of(
    st.sampled_from(["0", "2", "3", "0.5", "007", "00.5", "1.e5", "1e05", ".25",
                     "1E-3", "10"]),
    st.floats(min_value=0.0, max_value=1e6).map(repr))
_LEAVES = st.one_of(st.sampled_from("txyz").map(lambda v: ("var", v)),
                    _NUMBERS.map(lambda s: ("num", s)))


def _extend(trees):
    return st.one_of(
        trees.map(lambda a: ("neg", a)),
        st.tuples(st.sampled_from("+-*/^"), trees, trees).map(lambda p: ("bin", *p)),
        st.tuples(st.sampled_from(["exp", "cos", "sin", "sqrt", "abs"]),
                  trees).map(lambda p: ("call", p[0], (p[1],))),
        st.tuples(trees, trees).map(lambda p: ("call", "max", p)))


_TREES = st.recursive(_LEAVES, _extend, max_leaves=10)
# binding strength: sums 1, products 2, unary minus 3, power 4, atoms 5
_STRENGTH = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": operator.pow}
_CALLS = {"exp": np.exp, "cos": np.cos, "sin": np.sin, "sqrt": np.sqrt,
          "abs": np.abs, "max": np.maximum}


def _render(tree):
    """(text, binding strength) of a tree, parenthesized only where needed."""
    def wrap(child, least):
        text, strength = _render(child)
        return text if strength >= least else f"({text})"

    kind = tree[0]
    if kind in ("var", "num"):
        return tree[1], 5
    if kind == "call":
        return f"{tree[1]}({', '.join(_render(a)[0] for a in tree[2])})", 5
    if kind == "neg":
        return "-" + wrap(tree[1], 3), 3
    _, op, a, b = tree
    left, right = (5, 3) if op == "^" else (_STRENGTH[op], _STRENGTH[op] + 1)
    return f"{wrap(a, left)} {op} {wrap(b, right)}", _STRENGTH[op]


def _value(tree, env):
    """(value, constant) of a tree in float64 over the sample arrays; a tree
    with a constant part that is not finite is not drawn."""
    kind = tree[0]
    if kind == "var":
        return env[tree[1]], False
    if kind == "num":
        return np.float64(float(tree[1])), True
    if kind == "neg":
        parts, fn = [tree[1]], operator.neg
    elif kind == "call":
        parts, fn = tree[2], _CALLS[tree[1]]
    else:
        parts, fn = tree[2:], _OPS[tree[1]]
    values = [_value(part, env) for part in parts]
    with np.errstate(all="ignore"):
        value = fn(*(v for v, _ in values))
    constant = all(c for _, c in values)
    assume(not constant or np.isfinite(value))
    return value, constant


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tree=_TREES)
def test_compiled_tree_equals_its_numpy_value_bit_for_bit(tree):
    env = {"t": np.linspace(0.0, 1.0, 9), "x": np.linspace(-3.0, 3.0, 9),
           "y": np.array([-2.0, -0.5, 0.0, 0.25, 1.0, 2.5, -1e3, 7.0, 1e-3]),
           "z": np.array([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -4.0, 1e5, -1e-5])}
    want, _ = _value(tree, env)
    text = _render(tree)[0]
    with np.errstate(all="ignore"):
        got = compile_expression(text, ("t", "x", "y", "z"))(**env)
    assert got.tobytes() == np.broadcast_to(want, (9,)).astype(float).tobytes(), text


@pytest.mark.parametrize("src", [
    "x**2", "+x", "0x1f", "1_0", "1j", "True", "max(1, 2,)", "exp(x,)", "x.real",
    "x < y", "not x", "max(x, y=1)", "(x,)", "x // y", "x if y else z", "max(*x, y)",
    "lambda: x", "1 e5"])
def test_python_syntax_outside_the_grammar_is_refused(src):
    with pytest.raises(ExpressionError):
        compile_expression(src, ("t", "x", "y", "z"))


@pytest.mark.parametrize("src,value", [
    ("007*x", 14.0), ("00.5", 0.5), ("1.e5", 1e5), ("1e05", 1e5),
    ("1e-05 * x", 2e-5), ("-y\n+ 0.5*sin(z)", -3.0 + 0.5 * np.sin(4.0)),
    (" -2^2 + x^-1", -3.5), ("2^3^2 - x", 510.0)])
def test_grammar_spellings_python_refuses_still_parse(src, value):
    assert compile_expression(src, ("t", "x", "y", "z"))(1.0, 2.0, 3.0, 4.0) == value


@pytest.mark.parametrize("src,position", [("x +", 3), ("  x ^", 5), ("x  y", 3),
                                          ("x)", 1), ("2^^3", 2)])
def test_syntax_error_names_a_position_in_the_source_text(src, position):
    with pytest.raises(ExpressionError, match=f"at position {position}$"):
        compile_expression(src, ("x", "y"))


@pytest.mark.parametrize("src", ["x + 1/0", "10^400", "-y + 0^-1", "y*10^400",
                                 "sqrt(-2) + x", "1e400", "x*(1/(1/0))"])
def test_a_constant_that_is_not_finite_is_refused(src):
    with pytest.raises(ExpressionError, match="is not finite"):
        compile_expression(src, ("t", "x", "y", "z"))


def test_nesting_deeper_than_the_limit_is_refused():
    ok = compile_expression("+".join(["x"] * 200), ("x",))
    assert ok(x=1.0) == 200.0
    for src in ("-" * 3000 + "x", "-" * 100000 + "x", "+".join(["x"] * 3000),
                "+".join(["x"] * 201),
                "-" * 200 + "x", "(" * 300 + "x" + ")" * 300):
        with pytest.raises(ExpressionError, match="nest"):
            compile_expression(src, ("x",))
