"""PDE solvers against closed forms and each other."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from volterra_bsde import pde
from volterra_bsde.errors import (
    ConvergenceError,
    DomainError,
    GrowthViolationError,
    InstabilityError,
    PreconditionError,
)
from volterra_bsde.reporting import fmt, grid_csv


def terminal(fn, label):
    return pde.TerminalCondition(g_fn=fn, label=label)


G_X = terminal(lambda x: np.asarray(x, dtype=float), "x")
G_X2 = terminal(lambda x: np.asarray(x, dtype=float) ** 2, "x^2")
G_COS = terminal(np.cos, "cos")
G_ONE = terminal(lambda x: np.ones_like(np.asarray(x, dtype=float)), "1")

F_ZERO = pde.ZERO_DRIVER
F_ONE = pde.Driver(f_fn=lambda t, x, y, z: np.ones(np.broadcast(t, x, y, z).shape),
                   lipschitz_yz=0.0, label="1")
F_MINUS_Y = pde.Driver(f_fn=lambda t, x, y, z: -np.asarray(y, dtype=float)
                       * np.ones(np.broadcast(t, x, y, z).shape),
                       lipschitz_yz=1.0, label="-y")


@pytest.fixture(scope="module")
def tgrid():
    return np.linspace(0.05, 1.0, 201)


# -- heat convolution ------------------------------------------------------------


def test_heat_convolve_normalization(xgrid_wide):
    out = pde.heat_convolve(np.ones_like(xgrid_wide), 2.0, xgrid_wide)
    np.testing.assert_allclose(out, 1.0, atol=1e-14)


def test_heat_convolve_fixes_affine(xgrid_wide):
    h = 3.0 * xgrid_wide - 1.0
    out = pde.heat_convolve(h, 2.0, xgrid_wide)
    np.testing.assert_allclose(out, h, atol=1e-12)
    # the round-off curvature of an affine row is no wrap-around, even on a
    # grid far narrower than the step's standard deviation
    narrow = np.linspace(-0.05, 0.05, 11)
    h = 3.0 * narrow - 1.0
    assert np.array_equal(pde.heat_convolve(h, 2.0, narrow), h)


def test_heat_convolve_second_moment(xgrid_wide):
    out = pde.heat_convolve(xgrid_wide**2, 2.0, xgrid_wide)
    mid = np.argmin(np.abs(xgrid_wide))
    # oracle: the second moment; the lattice semigroup maps x^2 to x^2 + v
    # exactly (its second difference is the constant 2 dx^2)
    assert out[mid] == pytest.approx(2.0, abs=1e-10)


def test_heat_convolve_zero_variance(xgrid_wide):
    h = np.sin(xgrid_wide)
    out = pde.heat_convolve(h, 0.0, xgrid_wide)
    assert np.array_equal(out, h)


def test_heat_convolve_tiny_variance_stays_exact(xgrid_wide):
    # v far below dx^2 must not degrade: the spectrum's expm1 keeps its
    # relative accuracy as a = v / dx^2 goes to 0
    h = np.abs(xgrid_wide)
    out = pde.heat_convolve(h, 1e-8, xgrid_wide)
    np.testing.assert_allclose(out[10:-10], h[10:-10], atol=1e-4)


def test_heat_convolve_semigroup(xgrid_wide):
    # S_a S_b = S_{a+b} away from the truncation boundary (the linear tail
    # extension is applied at a different state in the two routes)
    h = np.cos(xgrid_wide)
    one_shot = pde.heat_convolve(h, 1.0, xgrid_wide)
    two_step = pde.heat_convolve(pde.heat_convolve(h, 0.4, xgrid_wide), 0.6,
                                 xgrid_wide)
    interior = np.abs(xgrid_wide) <= 6.0
    np.testing.assert_allclose(two_step[interior], one_shot[interior], atol=1e-8)


def test_heat_convolve_rejects_negative_variance(xgrid_wide):
    with pytest.raises(DomainError):
        pde.heat_convolve(np.ones_like(xgrid_wide), -1.0, xgrid_wide)


def test_heat_convolve_rejects_wrap_around():
    # 12 sqrt(16) = 48 exceeds the wrap distance (n - m + 2) dx = 20.06
    xgrid = np.linspace(-10.0, 10.0, 321)
    with pytest.raises(DomainError, match="wrap around"):
        pde.heat_convolve(np.cos(xgrid), 16.0, xgrid)


def _heat_convolve_direct(h, v, xgrid):
    """The O(m^2) direct route: second differences convolved with np.convolve
    against the ramp response R(k) = sum_l G(l) max(k - l, 0) of the lattice
    heat kernel G(l) = e^{-a} I_l(a), a = v / dx^2, summed term by term."""
    dx = xgrid[1] - xgrid[0]
    m = xgrid.size
    a = v / dx**2
    slopes = np.diff(h) / dx
    affine = h[0] + slopes[0] * (xgrid - xgrid[0])
    tail = m + int(40.0 * np.sqrt(a)) + 40
    lags = np.arange(-tail, m - 1)
    kernel = ive(np.abs(lags), a)
    offsets = np.arange(-(m - 2), m - 1)
    ramp = np.maximum(offsets[:, None] - lags[None, :], 0) @ kernel
    return affine + np.convolve(np.diff(h, 2), ramp)[m - 3 : 2 * m - 3]


@pytest.mark.parametrize("m", [9, 321, 641])
@pytest.mark.parametrize("v", [1e-8, 1e-3, 2.0])
def test_heat_convolve_matches_direct_convolution(m, v):
    xgrid = np.linspace(-10.0, 10.0, m)
    h = np.cos(xgrid) + 0.1 * xgrid + np.abs(xgrid - 1.0)
    out = pde.heat_convolve(h, v, xgrid)
    assert np.max(np.abs(out - _heat_convolve_direct(h, v, xgrid))) <= 1e-12


# -- linear solve ------------------------------------------------------------------


def test_solve_linear_rows_match_heat_convolve(varcurve_fbm, tgrid, xgrid_wide):
    sol = pde.solve_linear(G_COS, varcurve_fbm, tgrid, xgrid_wide)
    V = np.asarray(varcurve_fbm.var_at(tgrid))
    g_row = np.cos(xgrid_wide)
    rows = np.array([pde.heat_convolve(g_row, float(V[-1] - v), xgrid_wide)
                     for v in V])
    assert np.max(np.abs(sol.u - rows)) <= 1e-13


def test_solve_linear_affine_invariance(varcurve_fbm, tgrid, xgrid_wide):
    sol = pde.solve_linear(G_X, varcurve_fbm, tgrid, xgrid_wide)
    np.testing.assert_allclose(
        sol.u, np.broadcast_to(xgrid_wide, sol.u.shape), atol=1e-12
    )
    np.testing.assert_allclose(sol.ux, np.ones_like(sol.ux), atol=1e-10)


def test_solve_linear_square(varcurve_fbm, tgrid, xgrid_wide):
    sol = pde.solve_linear(G_X2, varcurve_fbm, tgrid, xgrid_wide)
    mid = np.argmin(np.abs(xgrid_wide))
    expect = 1.0 - np.asarray(varcurve_fbm.var_at(tgrid))
    np.testing.assert_allclose(sol.u[:, mid], expect, atol=1e-3)


def test_solve_linear_cos(varcurve_fbm, tgrid, xgrid_wide):
    sol = pde.solve_linear(G_COS, varcurve_fbm, tgrid, xgrid_wide)
    mid = np.argmin(np.abs(xgrid_wide))
    dv = varcurve_fbm.var_at(1.0) - np.asarray(varcurve_fbm.var_at(tgrid))
    np.testing.assert_allclose(sol.u[:, mid], np.exp(-dv / 2.0), atol=1e-3)


def test_growth_budget_enforced(varcurve_fbm, tgrid, xgrid_wide):
    # Var(N_1) = 1, so g must grow slower than exp(x^2 / 4)
    for fn, label in ((lambda x: np.exp(np.asarray(x) ** 2), "exp(x^2)"),
                      (lambda x: 8.0 * np.exp(0.3 * np.asarray(x) ** 2),
                       "8 exp(0.3 x^2)")):
        with pytest.raises(GrowthViolationError, match="grows like"):
            pde.solve_linear(terminal(fn, label), varcurve_fbm, tgrid, xgrid_wide)
    # bounded, linear and large constant data run
    for g in (G_COS, terminal(lambda x: 10.0 * np.asarray(x), "10x"),
              terminal(lambda x: np.full_like(np.asarray(x, dtype=float), 9.0), "9")):
        pde.solve_linear(g, varcurve_fbm, tgrid, xgrid_wide)
    with pytest.raises(GrowthViolationError, match="not finite at x = -10"):
        pde.solve_linear(terminal(np.sqrt, "sqrt(x)"), varcurve_fbm, tgrid,
                         xgrid_wide)


@pytest.mark.parametrize("c", [1.0, 1e3])
@pytest.mark.parametrize("lam", [0.05, 0.3])
def test_growth_rate_is_exact_for_gaussians(varcurve_fbm, c, lam):
    rate = pde.growth_rate(lambda x: c * np.exp(lam * x**2), varcurve_fbm)
    assert rate == pytest.approx(lam, rel=1e-9)


def test_growth_rate_of_bounded_polynomial_and_infinite_data(varcurve_fbm):
    a = pde.default_halfwidth(varcurve_fbm)
    unit = np.log(2.0) / (0.75 * a * a)  # x^k reads k of these
    zero = lambda x: np.zeros_like(x)
    for fn in (np.cos, lambda x: np.full_like(x, 9.0), zero):
        assert pde.growth_rate(fn, varcurve_fbm) <= 0.0
    for fn, k in ((lambda x: x, 1), (lambda x: 10.0 * x, 1), (lambda x: x**3, 3)):
        assert pde.growth_rate(fn, varcurve_fbm) <= k * unit * (1 + 1e-12)
    for fn in (lambda x: np.exp(x**4), np.sqrt):
        assert pde.growth_rate(fn, varcurve_fbm) == np.inf
    # a stack of rows reads its fastest row; reach widens the box
    rows = lambda x: np.vstack([np.cos(x), np.exp(0.1 * x**2)])
    assert pde.growth_rate(rows, varcurve_fbm) == pytest.approx(0.1, rel=1e-9)
    assert pde.growth_rate(lambda x: x, varcurve_fbm, reach=2 * a) == \
        pytest.approx(unit / 4)


@pytest.mark.parametrize("budget", [-1.0, np.nan, np.inf])
def test_driver_lipschitz_budget_must_be_finite_and_nonnegative(budget):
    with pytest.raises(DomainError, match="Lipschitz budget"):
        pde.Driver(f_fn=lambda t, x, y, z: 0.0 * y, lipschitz_yz=budget)


def test_zero_lipschitz_budget_is_enforced(varcurve_fbm, tgrid, xgrid_wide,
                                           sigma_one):
    minus_5y = pde.Driver(f_fn=lambda t, x, y, z: -5.0 * y, lipschitz_yz=0.0)
    with pytest.raises(PreconditionError, match="budget 0"):
        pde.solve_semilinear_picard(minus_5y, G_ONE, varcurve_fbm, tgrid,
                                    xgrid_wide, sigma=sigma_one)
    lin = pde.solve_linear(G_ONE, varcurve_fbm, tgrid, xgrid_wide)
    with pytest.raises(PreconditionError, match="budget 0"):
        pde.solve_semilinear_fd(minus_5y, lin, varcurve_fbm, sigma=sigma_one)


# -- Picard on the mild form -------------------------------------------------------


def test_picard_zero_driver_is_linear(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    lin = pde.solve_linear(G_COS, varcurve_fbm, tgrid, xgrid_wide)
    sol = pde.solve_semilinear_picard(F_ZERO, G_COS, varcurve_fbm, tgrid,
                                      xgrid_wide, sigma=sigma_one)
    assert sol.iterations == 1
    np.testing.assert_allclose(sol.u, lin.u, atol=1e-12)


def test_picard_constant_source(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    sol = pde.solve_semilinear_picard(F_ONE, G_X, varcurve_fbm, tgrid,
                                      xgrid_wide, sigma=sigma_one)
    expect = xgrid_wide[None, :] + (1.0 - tgrid)[:, None]
    np.testing.assert_allclose(sol.u, expect, atol=1e-4)


def test_picard_exponential_decay(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    sol = pde.solve_semilinear_picard(F_MINUS_Y, G_ONE, varcurve_fbm, tgrid,
                                      xgrid_wide, sigma=sigma_one)
    expect = np.exp(-(1.0 - tgrid))[:, None] * np.ones_like(xgrid_wide)[None, :]
    np.testing.assert_allclose(sol.u, expect, atol=1e-4)


def test_picard_contraction_history(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    sol = pde.solve_semilinear_picard(F_MINUS_Y, G_ONE, varcurve_fbm, tgrid,
                                      xgrid_wide, sigma=sigma_one)
    assert len(sol.change_history) == tgrid.size - 1
    assert max(sol.change_history) == sol.residual <= 1e-9
    # an unreachable tolerance exposes the first step's local iteration,
    # which for f = -y contracts by dt/2 per iteration
    with pytest.raises(ConvergenceError) as err:
        pde.solve_semilinear_picard(F_MINUS_Y, G_ONE, varcurve_fbm, tgrid,
                                    xgrid_wide, tol=1e-300, max_iter=3,
                                    sigma=sigma_one)
    hist = err.value.history
    factor = 0.5 * float(np.diff(tgrid)[-1])
    assert all(0 < b <= factor * a * (1 + 1e-6) for a, b in zip(hist, hist[1:]))


def test_picard_nonconvergence_carries_history(varcurve_fbm, tgrid, xgrid_wide,
                                               sigma_one):
    # the first step (index nt - 2) needs 3 local iterations to reach 1e-9
    with pytest.raises(ConvergenceError, match=f"step {tgrid.size - 2} ") as err:
        pde.solve_semilinear_picard(F_MINUS_Y, G_ONE, varcurve_fbm, tgrid,
                                    xgrid_wide, sigma=sigma_one, max_iter=2)
    assert len(err.value.history) == 2


def test_picard_stiff_driver_raises_naming_its_step(varcurve_fbm, sigma_one):
    # f = -500 y on 21 time points: dt L / 2 = 11.9 >= 1, so the local
    # iteration of the first step diverges
    stiff = pde.Driver(f_fn=lambda t, x, y, z: -500.0 * np.asarray(y, dtype=float)
                       * np.ones(np.broadcast(t, x, y, z).shape),
                       lipschitz_yz=500.0, label="-500y")
    xg = np.linspace(-10.0, 10.0, 201)
    tg = np.linspace(0.05, 1.0, 21)
    with pytest.raises(ConvergenceError, match=r"step 19 \(t = 0\.9525\)") as err:
        pde.solve_semilinear_picard(stiff, G_COS, varcurve_fbm, tg, xg,
                                    sigma=sigma_one)
    hist = err.value.history
    assert len(hist) == 60
    assert all(b > a for a, b in zip(hist, hist[1:]))


def test_picard_local_iteration_count_on_nonlinear_benchmark_grid(varcurve_fbm,
                                                                  sigma_one):
    # the 257 x 641 grid of the nonlinear solve-pde benchmark problem
    f = pde.Driver(f_fn=lambda t, x, y, z: -y + 0.5 * np.sin(z),
                   lipschitz_yz=1.5, label="-y + 0.5 sin(z)")
    tg = np.linspace(0.0, 1.0, 257)
    half = pde.default_halfwidth(varcurve_fbm)
    xg = np.linspace(-half, half, 641)
    sol = pde.solve_semilinear_picard(f, G_COS, varcurve_fbm, tg, xg,
                                      tol=1e-10, sigma=sigma_one)
    assert sol.iterations == 4
    assert sol.residual <= 1e-10


def _sweep_oracle(f, g, varcurve, tgrid, xgrid, tol, sigma, max_iter=60):
    """Global Picard sweeps on the discrete mild form, the solver the march
    replaced: every sweep rebuilds all rows from the previous iterate."""
    lin = pde.solve_linear(g, varcurve, tgrid, xgrid)
    tgrid, xgrid, dx, _, dV = pde._prepare_grids(varcurve, tgrid, xgrid)
    nt = tgrid.size
    dt = np.diff(tgrid)
    spectra = pde._duhamel_spectra(np.where(dV > 0, dV, 1.0), dx, xgrid.size)
    sig = np.asarray(sigma(tgrid))[:, None]
    u, ux = lin.u.copy(), lin.ux.copy()
    for _ in range(max_iter):
        w = f(tgrid[:, None], xgrid[None, :], u, -sig * ux)
        integral = np.zeros_like(u)
        for i in range(nt - 2, -1, -1):
            carried = integral[i + 1] + 0.5 * dt[i] * w[i + 1]
            if dV[i] > 0:
                carried = pde._apply_spectrum(carried, spectra[i])
            integral[i] = carried + 0.5 * dt[i] * w[i]
        u_new = lin.u + integral
        change = float(np.max(np.abs(u_new - u)))
        u = u_new
        ux = np.gradient(u, xgrid, axis=-1, edge_order=2)
        if change <= tol:
            return u
    raise AssertionError("sweep oracle did not converge")


@pytest.mark.parametrize("nt,nx", [(129, 321), (257, 641), (513, 1281)])
def test_picard_march_matches_sweep_oracle(nt, nx, varcurve_fbm, sigma_one):
    # the bench ladder's nonlinear problem and grids
    f = pde.Driver(f_fn=lambda t, x, y, z: -y + 0.5 * np.sin(z),
                   lipschitz_yz=1.5, label="-y + 0.5 sin(z)")
    tg = np.linspace(0.0, 1.0, nt)
    half = pde.default_halfwidth(varcurve_fbm)
    xg = np.linspace(-half, half, nx)
    sol = pde.solve_semilinear_picard(f, G_COS, varcurve_fbm, tg, xg,
                                      tol=1e-10, sigma=sigma_one)
    swept = _sweep_oracle(f, G_COS, varcurve_fbm, tg, xg, 1e-10, sigma_one)
    assert np.max(np.abs(sol.u - swept)) <= 1e-10


def test_picard_liouville_closed_form_does_not_drift_with_nt(varcurve_liou,
                                                             sigma_one):
    # bsde-liouville's problem: f = -y, g = cos, so
    # u = e^{-(T - t)} e^{-(V_T - V_t)/2} cos x.  The heat steps compose
    # exactly, so the spatial error is paid once and refining t does not
    # grow the error (a Gaussian step of the linear interpolant, which does
    # not compose, doubles it with every doubling of nt)
    half = pde.default_halfwidth(varcurve_liou)
    xg = np.linspace(-half, half, 321)
    inner = np.abs(xg) <= 4.0
    errs = {}
    for nt in (64, 256, 1024):
        tg = np.linspace(0.0, 1.0, nt + 1)
        sol = pde.solve_semilinear_picard(F_MINUS_Y, G_COS, varcurve_liou, tg, xg,
                                          tol=1e-10, sigma=sigma_one)
        V = np.asarray(varcurve_liou.var_at(tg))
        decay = np.exp(-(1.0 - tg) - 0.5 * (V[-1] - V))
        exact = decay[:, None] * np.cos(xg)[None, :]
        errs[nt] = float(np.max(np.abs(sol.u - exact)[:, inner]))
    assert errs[256] <= 1e-4
    assert errs[1024] <= 1.5 * errs[64], errs


def test_picard_terminal_row_exact(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    sol = pde.solve_semilinear_picard(F_MINUS_Y, G_COS, varcurve_fbm, tgrid,
                                      xgrid_wide, sigma=sigma_one)
    assert np.array_equal(sol.u[-1], np.cos(xgrid_wide))


def test_picard_lipschitz_precondition(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    lying = pde.Driver(f_fn=lambda t, x, y, z: -10.0 * np.asarray(y, dtype=float)
                       * np.ones(np.broadcast(t, x, y, z).shape),
                       lipschitz_yz=1.0, label="-10y")
    with pytest.raises(PreconditionError):
        pde.solve_semilinear_picard(lying, G_ONE, varcurve_fbm, tgrid,
                                    xgrid_wide, sigma=sigma_one)


# -- backward Euler scheme ---------------------------------------------------------


def test_fd_matches_linear_solution(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    lin = pde.solve_linear(G_X2, varcurve_fbm, tgrid, xgrid_wide)
    sol = pde.solve_semilinear_fd(F_ZERO, lin, varcurve_fbm, sigma=sigma_one)
    assert np.max(np.abs(sol.u - lin.u)) <= 5e-3


def test_fd_needs_a_linear_solution(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    mild = pde.solve_semilinear_picard(F_MINUS_Y, G_COS, varcurve_fbm, tgrid,
                                       xgrid_wide, sigma=sigma_one)
    with pytest.raises(DomainError, match="linear solution"):
        pde.solve_semilinear_fd(F_MINUS_Y, mild, varcurve_fbm, sigma=sigma_one)


def test_fd_exponential_decay_512(varcurve_fbm, xgrid_wide, sigma_one):
    tg = np.linspace(0.05, 1.0, 513)
    sol = pde.solve_semilinear_fd(
        F_MINUS_Y, pde.solve_linear(G_ONE, varcurve_fbm, tg, xgrid_wide),
        varcurve_fbm, sigma=sigma_one)
    expect = np.exp(-(1.0 - tg))[:, None]
    assert np.max(np.abs(sol.u - expect)) <= 1e-3


def test_fd_explicit_instability_guard(varcurve_fbm, sigma_one):
    # the lagged source is explicit: f = 500 y grows each step by about
    # 1 + 500 dt = 24.75 at dt = 0.0475, past the tenfold guard
    stiff = pde.Driver(f_fn=lambda t, x, y, z: 500.0 * np.asarray(y, dtype=float)
                       * np.ones(np.broadcast(t, x, y, z).shape),
                       lipschitz_yz=500.0, label="500y")
    xg = np.linspace(-10.0, 10.0, 201)
    tg = np.linspace(0.05, 1.0, 21)
    with pytest.raises(InstabilityError, match="500y"):
        pde.solve_semilinear_fd(stiff, pde.solve_linear(G_COS, varcurve_fbm, tg, xg),
                                varcurve_fbm, sigma=sigma_one)


# -- mutual oracle and comparison ---------------------------------------------------


@pytest.mark.parametrize("driver,g", [(F_ZERO, G_X), (F_ONE, G_X),
                                      (F_MINUS_Y, G_ONE), (F_ZERO, G_X2)])
def test_mild_fd_agreement(driver, g, varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    mild = pde.solve_semilinear_picard(driver, g, varcurve_fbm, tgrid,
                                       xgrid_wide, sigma=sigma_one)
    fd = pde.solve_semilinear_fd(driver, mild.linear, varcurve_fbm,
                                 sigma=sigma_one)
    dt = float(np.max(np.diff(tgrid)))
    dx = float(np.mean(np.diff(xgrid_wide)))
    tol = max(5e-3, 10.0 * (dt + dx**2))
    assert np.max(np.abs(mild.u - fd.u)) <= tol


def test_pde_level_comparison_monotonicity(varcurve_fbm, tgrid, xgrid_wide,
                                           sigma_one):
    g_hi = terminal(lambda x: np.asarray(x, dtype=float) + 0.1, "x+0.1")
    hi = pde.solve_semilinear_picard(F_MINUS_Y, g_hi, varcurve_fbm, tgrid,
                                     xgrid_wide, sigma=sigma_one)
    lo = pde.solve_semilinear_picard(F_MINUS_Y, G_X, varcurve_fbm, tgrid,
                                     xgrid_wide, sigma=sigma_one)
    assert np.all(hi.u >= lo.u - 1e-8)


# -- gradient ----------------------------------------------------------------------


def test_gradient_affine_and_quadratic(xgrid_wide):
    grad = pde._gradient_stencil(xgrid_wide)
    u = np.tile(xgrid_wide, (3, 1))
    np.testing.assert_allclose(grad(u), np.ones_like(u), atol=1e-12)
    u2 = np.tile(xgrid_wide**2, (3, 1))
    np.testing.assert_allclose(grad(u2),
                               np.broadcast_to(2.0 * xgrid_wide, u2.shape),
                               atol=1e-9)


def test_gradient_even_function_vanishes_at_origin(varcurve_fbm, tgrid, xgrid_wide):
    sol = pde.solve_linear(G_COS, varcurve_fbm, tgrid, xgrid_wide)
    mid = np.argmin(np.abs(xgrid_wide))
    np.testing.assert_allclose(sol.ux[:, mid], 0.0, atol=1e-10)


def test_ux_matches_central_differences(varcurve_fbm, tgrid, xgrid_wide):
    sol = pde.solve_linear(G_COS, varcurve_fbm, tgrid, xgrid_wide)
    dx = np.mean(np.diff(xgrid_wide))
    central = (sol.u[:, 2:] - sol.u[:, :-2]) / (2.0 * dx)
    assert np.max(np.abs(sol.ux[:, 1:-1] - central)) <= 10.0 * dx**2


# u_x is np.gradient with the one scalar spacing pde._uniform_spacing(xg)
# that the solvers use, also where the linspace spacings differ in their
# last bits.
@pytest.mark.parametrize("xg", [
    np.arange(9) * 0.25,             # exactly equal spacings
    np.linspace(-10.0, 10.0, 201),   # unequal in the last bits
    np.linspace(-9.6, 9.6, 641),
    np.linspace(0.3, 1.7, 3),
])
def test_gradient_stencil_is_np_gradient_bit_for_bit(xg):
    grad = pde._gradient_stencil(xg)
    h = pde._uniform_spacing(xg)
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((4, xg.size)) * np.exp(rng.uniform(-5, 5, (4, 1)))
    expect = np.gradient(rows, h, axis=-1, edge_order=2)
    assert np.array_equal(grad(rows), expect)
    assert np.array_equal(grad(rows[2]), np.gradient(rows[2], h, edge_order=2))


@pytest.mark.parametrize("xg", [
    np.arange(-40, 41) * 0.25,       # exactly equal spacings
    np.linspace(-10.0, 10.0, 201),   # unequal in the last bits
])
def test_solver_ux_is_np_gradient(xg, varcurve_fbm, tgrid, sigma_one):
    lin = pde.solve_linear(G_COS, varcurve_fbm, tgrid, xg)
    fd = pde.solve_semilinear_fd(F_MINUS_Y, lin, varcurve_fbm, sigma=sigma_one)
    h = pde._uniform_spacing(xg)
    for sol in (lin, fd):
        assert np.array_equal(sol.ux,
                              np.gradient(sol.u, h, axis=-1, edge_order=2))


# -- exports -----------------------------------------------------------------------


def test_solution_csv(varcurve_fbm, xgrid_wide):
    tg = np.linspace(0.05, 1.0, 5)
    xg = np.linspace(-2.0, 2.0, 9)
    sol = pde.solve_linear(G_X, varcurve_fbm, tg, xg)
    text = _csv_text_bulk(sol)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# method=linear")
    assert "t,x,u,ux" in lines
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 5 * 9


def _csv_text_bulk(sol):
    """pde_picard.csv as the CLI renders it."""
    header = [
        f"# method={sol.method}",
        f"# nt={sol.tgrid.size} nx={sol.xgrid.size}",
        f"# iterations={sol.iterations} residual={fmt(sol.residual)}",
        "t,x,u,ux",
    ]
    return b"".join(grid_csv(header, sol.tgrid, sol.xgrid, sol.u, sol.ux)).decode()


def _csv_text_per_cell(sol):
    """The per-cell f-string renderer that the bulk one replaced."""
    lines = [
        f"# method={sol.method}",
        f"# nt={sol.tgrid.size} nx={sol.xgrid.size}",
        f"# iterations={sol.iterations} residual={fmt(sol.residual)}",
        "t,x,u,ux",
    ]
    for i, t in enumerate(sol.tgrid):
        for j, x in enumerate(sol.xgrid):
            lines.append(f"{fmt(t)},{fmt(x)},{fmt(sol.u[i, j])},{fmt(sol.ux[i, j])}")
    return "\n".join(lines) + "\n"


def test_solution_csv_matches_per_cell_rendering():
    rng = np.random.default_rng(3)
    tg = np.linspace(0.0, 1.0, 7)
    xg = np.linspace(-3.0, 3.0, 11)
    u = rng.standard_normal((7, 11)) * 10.0 ** rng.integers(-300, 300, (7, 11))
    ux = rng.standard_normal((7, 11))
    u[0, :5] = [0.0, -0.0, np.inf, -np.inf, np.nan]
    ux[1, :3] = [5e-324, -5e-324, np.finfo(float).max]
    sol = pde.PdeSolution(tgrid=tg, xgrid=xg, u=u, ux=ux, method="m",
                          iterations=2, residual=1e-11)
    assert _csv_text_bulk(sol) == _csv_text_per_cell(sol)


# -- interpolation -----------------------------------------------------------------


def test_bilinear_interp_tuple_equals_single_calls():
    rng = np.random.default_rng(4)
    tg = np.linspace(0.0, 1.0, 9)
    xg = np.linspace(-2.0, 2.0, 17)
    a, b = rng.standard_normal((2, 9, 17))
    tq = np.linspace(0.0, 1.0, 13)
    xq = 2.5 * rng.standard_normal((50, 13))  # some queries leave the box
    fused = pde.bilinear_interp(tg, xg, (a, b), tq, xq)
    assert isinstance(fused, tuple) and len(fused) == 2
    assert np.array_equal(fused[0], pde.bilinear_interp(tg, xg, a, tq, xq))
    assert np.array_equal(fused[1], pde.bilinear_interp(tg, xg, b, tq, xq))


def _bilinear_interp_out_of_place(tgrid, xgrid, values, tq, xq):
    """The interpolation written with out-of-place temporaries (oracle)."""
    tq = np.atleast_1d(np.asarray(tq, dtype=float))
    xq = np.asarray(xq, dtype=float)
    it = np.clip(np.searchsorted(tgrid, tq, side="right") - 1, 0, tgrid.size - 2)
    wt = np.clip((tq - tgrid[it]) / (tgrid[it + 1] - tgrid[it]), 0.0, 1.0)
    xc = np.clip(xq, xgrid[0], xgrid[-1])
    ix = np.clip(np.searchsorted(xgrid, xc, side="right") - 1, 0, xgrid.size - 2)
    wx = (xc - xgrid[ix]) / (xgrid[ix + 1] - xgrid[ix])

    def interp(v):
        lo = v[it, ix] * (1.0 - wx) + v[it, ix + 1] * wx
        hi = v[it + 1, ix] * (1.0 - wx) + v[it + 1, ix + 1] * wx
        return lo * (1.0 - wt) + hi * wt

    if isinstance(values, tuple):
        return tuple(interp(v) for v in values)
    return interp(values)


def test_bilinear_interp_in_place_matches_out_of_place():
    # rows-first blending reorders the arithmetic: round-off agreement only
    rng = np.random.default_rng(11)
    tg = np.linspace(0.05, 1.0, 33)
    xg = np.linspace(-3.0, 3.0, 41)
    a, b = rng.standard_normal((2, 33, 41))
    tq = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 1.0, 20)), [1.0, 1.2]))
    xq = 4.0 * rng.standard_normal((300, tq.size))  # many queries clamped
    xq[:5] = xg[[0, -1, 0, -1, 20]][:, None]  # exactly on the box edges
    assert np.mean(np.abs(xq) > 3.0) > 0.2
    a0, xq0 = a.copy(), xq.copy()
    fused = pde.bilinear_interp(tg, xg, (a, b), tq, xq)
    oracle = _bilinear_interp_out_of_place(tg, xg, (a, b), tq, xq)
    assert isinstance(fused, tuple) and len(fused) == 2
    for got, want, v in zip(fused, oracle, (a, b)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(v))
    single = pde.bilinear_interp(tg, xg, a, tq[3:4], xq[:, 3:4])
    want = _bilinear_interp_out_of_place(tg, xg, a, tq[3:4], xq[:, 3:4])
    assert np.max(np.abs(single - want)) <= 1e-13 * np.max(np.abs(a))
    # the grid function and the queries are left untouched
    assert np.array_equal(a, a0) and np.array_equal(xq, xq0)


@settings(max_examples=40, deadline=None)
@given(
    coef=st.tuples(*[st.floats(min_value=-5.0, max_value=5.0)] * 4),
    nt=st.integers(min_value=2, max_value=12),
    nx=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bilinear_interp_reproduces_bilinear_functions(coef, nt, nx, seed):
    a, b, c, d = coef
    tg = np.linspace(0.1, 1.3, nt)
    xg = np.linspace(-2.0, 3.0, nx)
    T, X = np.meshgrid(tg, xg, indexing="ij")
    v = a + b * T + c * X + d * T * X
    rng = np.random.default_rng(seed)
    tq = np.sort(rng.uniform(tg[0], tg[-1], 7))
    xq = rng.uniform(xg[0], xg[-1], (9, 7))
    got = pde.bilinear_interp(tg, xg, v, tq, xq)
    want = a + b * tq + c * xq + d * tq * xq
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(v)))
    # queries beyond the box read the edge columns
    off = rng.uniform(0.01, 3.0, (9, 7))
    out = np.where(rng.uniform(size=(9, 7)) < 0.5, xg[0] - off, xg[-1] + off)
    edge = np.where(out < xg[0], xg[0], xg[-1])
    got = pde.bilinear_interp(tg, xg, v, tq, out)
    want = a + b * tq + c * edge + d * tq * edge
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(v)))


def _bilinear_interp_one_pass(tgrid, xgrid, values, tq, xq):
    """The interpolation as one function, blends and gathers together, in
    the arithmetic order of :func:`pde.time_rows` / :func:`pde.interp_rows`
    (oracle of the split, bit for bit)."""
    dx = float(np.mean(np.diff(xgrid)))
    m = xgrid.size
    tq = np.atleast_1d(np.asarray(tq, dtype=float))
    it = np.clip(np.searchsorted(tgrid, tq, side="right") - 1, 0, tgrid.size - 2)
    wt = (tq - tgrid[it]) / (tgrid[it + 1] - tgrid[it])
    wt = np.clip(wt, 0.0, 1.0)[:, None]
    wx = np.clip(np.asarray(xq, dtype=float), xgrid[0], xgrid[-1])
    wx -= xgrid[0]
    wx /= dx
    ix = wx.astype(np.intp)
    np.minimum(ix, m - 2, out=ix)
    wx -= ix
    ix += np.arange(tq.size) * m

    def interp(v):
        rows = (v[it] * (1.0 - wt) + v[it + 1] * wt).ravel()
        lo = rows.take(ix)
        hi = rows[1:].take(ix)
        hi -= lo
        hi *= wx
        lo += hi
        return lo

    return tuple(interp(v) for v in values)


def test_interp_rows_reused_over_query_blocks_is_bilinear_interp():
    rng = np.random.default_rng(26)
    tg = np.linspace(0.05, 1.0, 33)
    xg = np.linspace(-3.0, 3.0, 41)
    a, b = rng.standard_normal((2, 33, 41))
    # off-grid times, grid times and times beyond both ends of the grid
    tq = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 1.0, 20)),
                         tg[[0, 7, -1]], [1.2]))
    rows = pde.time_rows(tg, xg, (a, b), tq)
    tables = [t.copy() for t in rows.tables]
    shape = (64, tq.size)
    out = (np.full(shape, np.nan), np.full(shape, np.nan))
    work = (np.full(shape, np.nan), np.full(shape, -1, dtype=np.intp),
            np.full(shape, np.nan))
    for block in range(4):
        xq = 4.0 * rng.standard_normal(shape)  # many queries clamped
        xq[:6] = xg[[0, -1, 0, -1, 20, 40]][:, None]  # exactly on the edges
        xq[6, ::2] = np.nextafter(xg[0], -np.inf)  # just outside the box
        xq[6, 1::2] = np.nextafter(xg[-1], np.inf)
        assert np.mean(np.abs(xq) > 3.0) > 0.2
        xq0 = xq.copy()
        got = pde.interp_rows(rows, xq, out=out, work=work)
        assert got[0] is out[0] and got[1] is out[1]
        fresh = pde.bilinear_interp(tg, xg, (a, b), tq, xq)
        want = _bilinear_interp_one_pass(tg, xg, (a, b), tq, xq)
        for g, f, w in zip(got, fresh, want):
            assert np.array_equal(g, w) and np.array_equal(f, w)
        assert np.array_equal(xq, xq0)
    # the rows are unchanged by the calls, so one object serves every block
    assert all(np.array_equal(t, t0) for t, t0 in zip(rows.tables, tables))
    single = pde.bilinear_interp(tg, xg, a, tq, xq)
    assert np.array_equal(single, _bilinear_interp_one_pass(
        tg, xg, (a,), tq, xq)[0])


def test_bilinear_interp_rejects_nonuniform_x_grid():
    tg = np.linspace(0.0, 1.0, 5)
    xg = np.linspace(-1.0, 1.0, 9) ** 3
    with pytest.raises(DomainError, match="uniform"):
        pde.bilinear_interp(tg, xg, np.zeros((5, 9)), tg, np.zeros((3, 5)))

