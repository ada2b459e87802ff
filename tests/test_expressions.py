"""Expression grammar used by config-driven drivers and terminal data."""

import numpy as np
import pytest

from volterra_bsde.expressions import ExpressionError, compile_expression


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
