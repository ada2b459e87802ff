"""Quadrature engine against closed-form Liouville-style integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from volterra_bsde.errors import QuadratureError
from volterra_bsde.quadrature import (
    DEFAULT_RULE,
    SingularQuadRule,
    _gauss01,
    _unit_rule,
    gauss_hermite_expectation,
    integrate_gap,
    integrate_gap_batch,
)


def _per_node_batch(f, lengths, alpha=1.0, rule=DEFAULT_RULE):
    """``integrate_gap_batch`` by the per-node substitution: the panels are
    built on [0, L**alpha] for each length and every node is mapped back to
    its gap d = v**(1/alpha) with the Jacobian d / (alpha v)."""
    lengths = np.asarray(lengths, dtype=float)
    out = np.zeros_like(lengths)
    live = lengths > 0
    L = lengths[live]
    per_length = isinstance(alpha, np.ndarray) and alpha.ndim > 0
    a = np.broadcast_to(alpha[live] if per_length else alpha, L.shape)[:, None]
    extract = per_length or alpha != 1.0
    upper = L[:, None] ** a if extract else L[:, None]
    x01, w01 = _gauss01(rule.n_nodes)

    def evaluate(n_panels):
        tau = np.linspace(0.0, 1.0, n_panels + 1) ** (2.0 if extract else 1.0)
        edges = upper * tau[None, :]
        lo, width = edges[:, :-1, None], np.diff(edges, axis=1)[:, :, None]
        nodes = (lo + width * x01).reshape(L.size, -1)
        weights = (width * w01).reshape(L.size, -1)
        if extract:
            gaps = nodes ** (1.0 / a)
            return np.sum(f(gaps) * gaps / (a * nodes) * weights, axis=1)
        return np.sum(f(nodes) * weights, axis=1)

    prev = evaluate(rule.n_panels)
    for level in range(1, rule.max_refinements + 1):
        cur = evaluate(rule.n_panels * 2**level)
        if np.all(np.abs(cur - prev)
                  <= np.maximum(rule.abs_tol, rule.rel_tol * np.abs(cur))):
            out[live] = cur
            return out
        prev = cur
    raise AssertionError("oracle did not converge")


_MIXED_LENGTHS = np.array([0.0, 1e-6, 0.3, 0.0, 1.0, 2.5])


@pytest.mark.parametrize("case", ["scalar", "smooth", "per_length"])
def test_unit_rule_matches_per_node_substitution(case):
    lengths = _MIXED_LENGTHS
    if case == "scalar":
        alpha = 0.35
    elif case == "smooth":
        alpha = 1.0
    else:
        alpha = np.array([0.2, 0.5, 0.35, 0.9, 1.0, 1.6])
    a = alpha[lengths > 0][:, None] if case == "per_length" else alpha

    def f(d):  # d**(alpha - 1) times a smooth factor
        return d ** (a - 1.0) * (np.cos(d) + np.exp(-d))

    fast = integrate_gap_batch(f, lengths, alpha=alpha)
    slow = _per_node_batch(f, lengths, alpha=alpha)
    assert np.all(fast[lengths == 0] == 0.0)
    assert np.all(slow[lengths > 0] != 0.0)
    np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(min_value=0.2, max_value=2.0),
       L=st.floats(min_value=1e-6, max_value=10.0))
def test_lower_incomplete_gamma(alpha, L):
    # int_0^L d^(alpha-1) e^(-d) dd = Gamma(alpha) P(alpha, L)
    val = integrate_gap(lambda d: d ** (alpha - 1.0) * np.exp(-d), L,
                        alpha=alpha)
    exact = math.gamma(alpha) * gammainc(alpha, L)
    assert abs(val - exact) <= max(DEFAULT_RULE.abs_tol,
                                   DEFAULT_RULE.rel_tol * abs(exact))


def test_unit_rule_is_read_only():
    for alpha in (1.0, 0.25):
        for arr in _unit_rule(8, 2.0, 12, alpha):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_power_integral_exact():
    # int_0^L d^(a-1) dd = L^a / a
    for alpha, L in [(0.25, 1.0), (0.25, 0.3), (0.4, 2.0), (0.49, 0.7)]:
        val = integrate_gap(lambda d: d ** (alpha - 1.0), L, alpha=alpha)
        assert val == pytest.approx(L**alpha / alpha, rel=1e-12)


def test_power_times_smooth():
    # int_0^1 d^(-3/4) cos(d) dd, oracle from scipy with endpoint handling
    from scipy.integrate import quad

    oracle, _ = quad(lambda d: d**-0.75 * np.cos(d), 0.0, 1.0, points=[0.0])
    val = integrate_gap(lambda d: d**-0.75 * np.cos(d), 1.0, alpha=0.25)
    assert val == pytest.approx(oracle, abs=1e-8)


def test_batch_matches_scalar():
    lengths = np.array([0.2, 0.5, 1.0, 1.7])
    vals = integrate_gap_batch(lambda d: d**-0.5 * (1.0 + d), lengths, alpha=0.5)
    for L, v in zip(lengths, vals):
        assert v == pytest.approx(2.0 * np.sqrt(L) + (2.0 / 3.0) * L**1.5, rel=1e-10)


def test_zero_length():
    assert integrate_gap(lambda d: d**-0.5, 0.0, alpha=0.5) == 0.0


def test_nonconvergence_raises_with_estimate():
    # an integrand rough enough that 1 refinement of 2 panels cannot settle
    rule = SingularQuadRule(n_panels=1, n_nodes=2, max_refinements=1,
                            abs_tol=1e-15, rel_tol=1e-15)
    with pytest.raises(QuadratureError) as err:
        integrate_gap(lambda d: np.cos(50.0 * d) / np.sqrt(d), 1.0, alpha=0.5,
                      rule=rule)
    assert np.isfinite(err.value.error_estimate)
    # the last change between refinements, which missed the 1e-15 tolerance
    assert err.value.error_estimate > 1e-15
    assert f"{err.value.error_estimate:.3e}" in str(err.value)


def test_integrate_gap_smooth_integrand():
    # alpha = 1 (no singularity): uniform panels in the original variable
    assert integrate_gap(np.cos, np.pi / 2.0, alpha=1.0) == pytest.approx(1.0, abs=1e-12)


def test_gauss_hermite_expectation():
    # E[cos Z] = exp(-v/2); E[Z^2] = v
    assert gauss_hermite_expectation(np.cos, 1.0) == pytest.approx(
        np.exp(-0.5), abs=1e-12
    )
    assert gauss_hermite_expectation(lambda x: x**2, 2.0) == pytest.approx(2.0, rel=1e-12)
    assert gauss_hermite_expectation(np.cos, 0.0) == 1.0
