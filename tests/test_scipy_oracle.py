"""The package's NumPy replacements for SciPy, pinned to SciPy as the oracle.

SciPy is a test dependency only: the package imports none of it.
"""

import math

import numpy as np
import pytest
import scipy.fft
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.linalg import solve_banded
from scipy.special import beta as scipy_beta

from volterra_bsde import (Volatility, fbm, graded_grid, kernels, liouville_fbm,
                           multifractional, pde, variance_curve)
from volterra_bsde.operators import _not_a_knot_slopes

SHIPPED_NX = (321, 641)  # n_space of every shipped config


def test_fft_size_is_scipy_next_fast_len():
    for m in range(3, 5001):
        assert pde._fft_size(m) == scipy.fft.next_fast_len(2 * m - 3, real=True), m


@pytest.mark.parametrize("m", SHIPPED_NX)
def test_rfft_round_trip_is_scipy_bit_for_bit(m):
    n = pde._fft_size(m)
    rows = np.random.default_rng(m).standard_normal((7, m - 2))
    for data in (rows, rows[3]):  # batched and a single row
        spec = np.fft.rfft(data, n, axis=-1)
        assert np.array_equal(spec, scipy.fft.rfft(data, n, axis=-1))
        assert np.array_equal(np.fft.irfft(spec, n, axis=-1),
                              scipy.fft.irfft(spec, n, axis=-1))


def test_beta_matches_scipy():
    # c_H takes B(2 - 2H, H - 1/2), H in (1/2, 1); phi's diagonal term
    # takes B(e, 1 - 2e), e in (0, 1/2)
    pairs = [(2.0 - 2.0 * h, h - 0.5) for h in np.linspace(0.501, 0.999, 50)]
    pairs += [(e, 1.0 - 2.0 * e) for e in np.linspace(0.001, 0.499, 50)]
    pairs += [(0.5, 0.5), (1.0, 1.0), (2.5, 3.5), (30.0, 40.0)]
    for a, b in pairs:
        assert math.isclose(kernels.beta(a, b), scipy_beta(a, b), rel_tol=1e-14), (a, b)


def _curves():
    sigma = Volatility.constant(1.0)
    grid = graded_grid(1.0, 128, power=2.0)
    mbm = multifractional(lambda t: 0.6 + 0.2 * t, 1.0)
    for kernel in (fbm(0.75, 1.0), liouville_fbm(0.75, 1.0), mbm):
        yield variance_curve(kernel, sigma, grid)


def _assert_rel_close(ours, ref, rtol=1e-12):
    assert np.max(np.abs(ours - ref)) <= rtol * np.max(np.abs(ref))


def test_variance_curve_interpolants_match_scipy():
    tq = np.linspace(0.0, 1.0, 5001)
    for curve in _curves():
        g = curve.grid
        _assert_rel_close(curve.rate, CubicSpline(g, curve.var).derivative()(g))
        rate_spline = CubicSpline(g, curve.rate)
        _assert_rel_close(curve.rate_at(tq), rate_spline(tq))
        _assert_rel_close(curve._rate_ip.integral_at_knots(),
                          rate_spline.antiderivative()(g))
        _assert_rel_close(curve.var_at(tq),
                          CubicHermiteSpline(g, curve.var, curve.rate)(tq))


@pytest.mark.parametrize("n", [3, 4, 9])
def test_not_a_knot_slopes_match_scipy_on_short_grids(n):
    x = np.sort(np.random.default_rng(n).uniform(0.0, 2.0, n))
    y = np.sin(3.0 * x)
    _assert_rel_close(_not_a_knot_slopes(x, y), CubicSpline(x, y).derivative()(x))


@pytest.mark.parametrize("a", [0.0, 1e-3, 0.3, 2.0, 50.0])
def test_dst_solve_matches_solve_banded(a):
    n = 639
    b = np.random.default_rng(11).standard_normal(n)
    band = np.zeros((3, n))
    band[0, 1:] = -a
    band[1, :] = 1.0 + 2.0 * a
    band[2, :-1] = -a
    ref = solve_banded((1, 1), band, b)
    ours = pde._tridiagonal_toeplitz_solver(n)(a, b)
    assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))
