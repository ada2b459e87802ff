"""Expression grammar used by config-driven drivers and terminal data."""

import numpy as np
import pytest

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
