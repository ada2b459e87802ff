"""Quadrature engine against closed-form Liouville-style integrals."""

import numpy as np
import pytest

from volterra_bsde.errors import QuadratureError
from volterra_bsde.quadrature import (
    SingularQuadRule,
    gauss_hermite_expectation,
    integrate_gap,
    integrate_gap_batch,
)


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
