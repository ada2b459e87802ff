"""Adjoint operator, phi, covariance and variance-curve contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import GammaKernel, SignChangeKernel
from volterra_bsde import kernels, operators
from volterra_bsde.errors import (
    CurveConsistencyError,
    DomainError,
    MonotonicityError,
)
from volterra_bsde.operators import Volatility
from volterra_bsde.quadrature import SingularQuadRule
from volterra_bsde.reporting import column_csv_rows, csv_chunks

PHI_FBM_1_HALF = 0.53033008588991064  # H(2H-1) |r-s|^(2H-2) at (1, 1/2), H=3/4


# -- K* ------------------------------------------------------------------------


def test_kstar_liouville_closed_form(kernel_liou, sigma_one):
    # sigma == 1: (K*_t 1)_u = K(t, u) = (t - u)^(H - 1/2)
    val = operators.kstar_apply(kernel_liou, sigma_one, 1.0, 0.5)
    assert val == pytest.approx(0.5**0.25, rel=1e-12)


def test_kstar_indicator_reproduces_kernel(kernel_liou, kernel_fbm, sigma_one):
    # sigma = 1_[0,r] acts as integrating dK up to r: equals K(r, u) for u < r
    for kernel in (kernel_liou, kernel_fbm):
        r = 0.8
        for u in (0.1, 0.37, 0.62):
            lhs = operators.kstar_apply(kernel, sigma_one, r, u)
            rhs = kernels.kernel_eval(kernel, r, u)
            assert lhs == pytest.approx(rhs, abs=1e-6)


def test_kstar_domain_error(kernel_liou, sigma_one):
    with pytest.raises(DomainError):
        operators.kstar_apply(kernel_liou, sigma_one, 0.5, 1.0)
    with pytest.raises(DomainError):
        operators.kstar_apply(kernel_liou, sigma_one, 0.5, 0.5)


def test_kstar_nonconstant_sigma(kernel_liou):
    # sigma(s) = s against the Liouville kernel: closed antiderivative
    #   int_u^t s (H-1/2)(s-u)^(H-3/2) ds
    #     = u [(t-u)^(H-1/2)] + (H-1/2)/(H+1/2) (t-u)^(H+1/2)
    sig = Volatility(lambda s: np.asarray(s, dtype=float))
    H, t, u = 0.75, 0.9, 0.3
    expect = u * (t - u) ** (H - 0.5) + (H - 0.5) / (H + 0.5) * (t - u) ** (H + 0.5)
    assert operators.kstar_apply(kernel_liou, sig, t, u) == pytest.approx(
        expect, rel=1e-10
    )


# -- phi -----------------------------------------------------------------------


def test_phi_fbm_closed_form(kernel_fbm):
    assert operators.phi_eval(kernel_fbm, 1.0, 0.5) == pytest.approx(
        PHI_FBM_1_HALF, rel=1e-10
    )


def test_phi_fbm_closed_form_random_pairs(kernel_fbm):
    rng = np.random.default_rng(3)
    H = 0.75
    for _ in range(20):
        r, s = rng.uniform(0.05, 1.0, size=2)
        if abs(r - s) < 1e-3:
            continue
        expect = H * (2 * H - 1) * abs(r - s) ** (2 * H - 2)
        assert operators.phi_eval(kernel_fbm, r, s) == pytest.approx(expect, rel=1e-4)


def test_phi_symmetry(kernel_liou, kernel_fbm):
    rng = np.random.default_rng(11)
    for kernel in (kernel_liou, kernel_fbm):
        for _ in range(10):
            r, s = rng.uniform(0.05, 1.0, size=2)
            if abs(r - s) < 1e-3:
                continue
            a = operators.phi_eval(kernel, r, s)
            b = operators.phi_eval(kernel, s, r)
            assert a == pytest.approx(b, rel=1e-10)


def test_phi_near_diagonal_finite_and_diagonal_rejected(kernel_liou):
    val = operators.phi_eval(kernel_liou, 0.5 + 1e-3, 0.5)
    assert np.isfinite(val)
    with pytest.raises(DomainError):
        operators.phi_eval(kernel_liou, 0.5, 0.5)
    with pytest.raises(DomainError):
        operators.phi_eval(kernel_liou, 0.0, 0.5)


@pytest.mark.parametrize("family", ["fbm", "liouville", "mbm", "liouville_0.9"])
def test_phi_near_diagonal_leading_term(family):
    # phi(m + g, m) ~ A**2 B(e, 1 - 2e) g**(2e - 1) as g -> 0.  Below
    # q = (2g/m)**e = PHI_ASYMPTOTE_Q the leading term replaces a quadrature
    # that cannot resolve the scale g; the two agree just above the switch.
    # At H = 0.9 the Liouville switch sits at g ~ 1e-5, where the O(1) term
    # -A**2 m**(2e - 1) / (1 - 2e) is 11% of phi, so it is part of the value.
    from scipy.special import beta

    kernel = {
        "fbm": kernels.fbm(0.75, 1.0),
        "liouville": kernels.liouville_fbm(0.6, 1.0),
        "mbm": kernels.multifractional(lambda t: 0.6 + 0.2 * np.asarray(t), 1.0,
                                       hurst_deriv=lambda t: 0.2 + 0.0 * np.asarray(t)),
        "liouville_0.9": kernels.liouville_fbm(0.9, 1.0),
    }[family]
    m = np.array([0.5])
    A, e = (float(v[0]) for v in kernel.diag_leading_term(m))

    def phi(g):
        return float(operators._phi_pairs(kernel, m + g, m, operators.DOUBLE_ROUTE_RULE,
                                          gap=np.array([g]))[0])

    def lead(g):
        val = beta(e, 1.0 - 2.0 * e) * g ** (2.0 * e - 1.0)
        if family == "liouville_0.9":
            val -= m[0] ** (2.0 * e - 1.0) / (1.0 - 2.0 * e)
        return A**2 * val

    g_switch = 0.5 * m[0] * operators.PHI_ASYMPTOTE_Q ** (1.0 / e)
    assert phi(1.5 * g_switch) == pytest.approx(lead(1.5 * g_switch), rel=1e-3)
    for g in (0.5 * g_switch, 1e-30, 1e-300):
        assert np.isfinite(phi(g)) and phi(g) == pytest.approx(lead(g), rel=1e-14)
    if family == "fbm":  # phi = H (2H - 1) |r - s|**(2H - 2) exactly
        assert lead(1e-20) == pytest.approx(0.375 * 1e-20 ** -0.5, rel=1e-12)


def test_phi_tilde(kernel_fbm, kernel_liou):
    # positive derivative families: phi_tilde == phi
    assert operators.phi_tilde_eval(kernel_fbm, 1.0, 0.5) == pytest.approx(
        PHI_FBM_1_HALF, rel=1e-10
    )
    rng = np.random.default_rng(5)
    done = 0
    while done < 50:
        r, s = rng.uniform(0.05, 1.0, size=2)
        if abs(r - s) < 1e-3:
            continue
        tilde = operators.phi_tilde_eval(kernel_liou, r, s)
        plain = operators.phi_eval(kernel_liou, r, s)
        assert tilde >= abs(plain) - 1e-12
        assert operators.phi_tilde_eval(kernel_liou, s, r) == pytest.approx(
            tilde, rel=1e-10
        )
        done += 1


def test_phi_tilde_differs_for_sign_changing_kernel():
    kernel = SignChangeKernel(1.0)
    plain = operators.phi_eval(kernel, 0.9, 0.6)
    tilde = operators.phi_tilde_eval(kernel, 0.9, 0.6)
    assert tilde > abs(plain) + 1e-6


# -- covariance ----------------------------------------------------------------


def test_covariance_fbm_closed_form(kernel_fbm):
    # R(t,s) = (t^2H + s^2H - |t-s|^2H) / 2
    assert operators.covariance_R(kernel_fbm, 1.0, 0.0) == 0.0
    assert operators.covariance_R(kernel_fbm, 1.0, 0.5) == pytest.approx(0.5, rel=1e-4)
    assert operators.covariance_R(kernel_fbm, 1.0, 1.0) == pytest.approx(1.0, rel=1e-4)
    assert operators.covariance_R(kernel_fbm, 0.6, 0.6) == pytest.approx(
        0.6**1.5, rel=1e-4
    )


def test_covariance_liouville_oracle(kernel_liou):
    # int_0^s [(t-u)(s-u)]^(H-1/2) du via scipy as the independent oracle
    from scipy.integrate import quad

    t, s, H = 0.9, 0.4, 0.75
    oracle, _ = quad(lambda u: ((t - u) * (s - u)) ** (H - 0.5), 0.0, s)
    assert operators.covariance_R(kernel_liou, t, s) == pytest.approx(oracle, rel=1e-8)
    assert operators.covariance_R(kernel_liou, s, t) == pytest.approx(oracle, rel=1e-8)


def test_covariance_sign_test_kernel_closed_form(sigma_one):
    # K = v cos(2 pi v), v = t - u: R(t, t) = int_0^t v^2 cos^2(2 pi v) dv,
    # 1/48 + 1/(32 pi^2) at t = 1/2 and 1/6 + 1/(16 pi^2) at t = 1; the
    # quadrature exponents come from diag_exponent, as for every family
    kernel = SignChangeKernel(1.0)
    half = 1.0 / 48.0 + 1.0 / (32.0 * np.pi**2)
    one = 1.0 / 6.0 + 1.0 / (16.0 * np.pi**2)
    assert operators.covariance_R(kernel, 0.5, 0.5) == pytest.approx(half, rel=1e-7)
    assert operators.variance_l2_value(kernel, sigma_one, 1.0) == pytest.approx(
        one, rel=1e-7)


# -- variance curve ------------------------------------------------------------


def test_variance_closed_forms(varcurve_fbm, varcurve_liou):
    assert varcurve_fbm.var[-1] == pytest.approx(1.0, rel=1e-3)
    assert varcurve_liou.var[-1] == pytest.approx(2.0 / 3.0, rel=1e-3)
    assert varcurve_fbm.var[0] == 0.0
    # fBm with sigma = 1: Var(N_t) = t^(2H) = t^1.5 at every grid point
    assert np.max(np.abs(varcurve_fbm.var - varcurve_fbm.grid**1.5)) <= 1e-9
    ts = np.array([0.2, 0.5, 0.8])
    np.testing.assert_allclose(varcurve_fbm.var_at(ts), ts**1.5, rtol=1e-6)
    np.testing.assert_allclose(varcurve_fbm.rate_at(ts), 1.5 * ts**0.5, rtol=1e-5)


def test_variance_rate_invariants(varcurve_fbm):
    assert np.all(np.diff(varcurve_fbm.var) >= 0.0)
    assert np.all(varcurve_fbm.rate[1:] > 0.0)
    recon = varcurve_fbm._rate_ip.integral_at_knots()
    assert np.max(np.abs(recon - varcurve_fbm.var)) <= 1e-6 * varcurve_fbm.var[-1]


def test_variance_routes_agree(kernel_fbm, kernel_liou, sigma_one,
                               varcurve_fbm, varcurve_liou):
    # two independent computations of the same quantity, per grid point
    for kernel, curve in ((kernel_fbm, varcurve_fbm), (kernel_liou, varcurve_liou)):
        tol = 1e-4 * curve.var[-1]
        for t in np.linspace(0.2, 1.0, 5):
            a = operators.variance_l2_value(kernel, sigma_one, float(t))
            b = operators.variance_double_route(kernel, sigma_one, float(t))
            assert abs(a - b) <= tol, (kernel, t, a, b)


@pytest.mark.parametrize("family", ["fbm", "liouville"])
def test_double_route_closed_form_near_half(family, sigma_one):
    # at H = 0.6 the outer nodes of the near-diagonal gap integral fall far
    # below ulp(r), so the phi route must not recompute that gap from r - d
    H = 0.6
    if family == "fbm":
        kernel, exact = kernels.fbm(H, 1.0), 1.0  # t^{2H} at t = 1
    else:
        kernel, exact = kernels.liouville_fbm(H, 1.0), 1.0 / (2.0 * H)
    val = operators.variance_double_route(kernel, sigma_one, 1.0)
    assert abs(val - exact) <= 1e-4 * exact


@pytest.mark.parametrize("hurst", [0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("family", ["fbm", "liouville"])
def test_double_route_closed_form(family, hurst, sigma_one):
    # the outer integral takes alpha = 1 + 2 e(0) and the inner-left one
    # alpha = 1 + e(0) + p.  Measured relative errors: fBm <= 9.8e-8 (at
    # H = 0.95), Liouville <= 1.6e-6 (at H = 0.99).  H -> 1/2 is left out:
    # at 0.52 the route misses by more (ROADMAP item 3).
    if family == "fbm":
        kernel, exact = kernels.fbm(hurst, 1.0), 1.0
        bound = 3e-7
    else:
        kernel, exact = kernels.liouville_fbm(hurst, 1.0), 1.0 / (2.0 * hurst)
        bound = 5e-6
    val = operators.variance_double_route(kernel, sigma_one, 1.0)
    assert abs(val - exact) <= bound * exact


def test_double_route_dt_gap_t_evaluations(monkeypatch, sigma_one):
    # every dt_gap_t value the fBm H = 0.75 route takes at t = 1, counted
    # over the broadcast (u, gap) shape: 1,179,648 (48 outer nodes x 96
    # inner pairs x 256 a phi pair on average).  With alpha = 1 on the outer
    # and inner-left integrals the outer mesh doubled to 16 panels: 5,898,240.
    seen = [0]
    dt_gap_t = kernels.dt_gap_t

    def counted(kernel, u, gap):
        seen[0] += np.broadcast(np.asarray(u), np.asarray(gap)).size
        return dt_gap_t(kernel, u, gap)

    monkeypatch.setattr(kernels, "dt_gap_t", counted)
    val = operators.variance_double_route(kernels.fbm(0.75, 1.0), sigma_one, 1.0)
    assert seen[0] <= 1_500_000
    assert abs(val - 1.0) <= 1e-9


@pytest.mark.parametrize("family", ["fbm", "liouville", "mbm", "sign_test"])
def test_double_route_exponents_match_log_log_slopes(family, sigma_one):
    # the exponents the phi route passes are read off KernelSpec, never
    # guessed: Var(N_t) ~ t**(1 + 2 e(0)) and phi(r, u) ~ u**(e(0) + p) at
    # 0.  Measured slopes: 1.5000, 1.5000, 1.1919, 2.9990 and 0.0004,
    # 0.2505, 0.0993, 1.0038.
    kernel = {"fbm": kernels.fbm(0.75, 1.0),
              "liouville": kernels.liouville_fbm(0.75, 1.0),
              "mbm": kernels.multifractional(
                  lambda t: 0.6 + 0.2 * np.asarray(t), 1.0,
                  hurst_deriv=lambda t: 0.2 + 0.0 * np.asarray(t)),
              "sign_test": SignChangeKernel(1.0)}[family]
    e0 = float(kernel.diag_exponent(0.0))
    p = kernel.second_arg_power()

    def slope(f, a, b):
        return np.log(f(b) / f(a)) / np.log(b / a)

    var = slope(lambda t: operators.variance_l2_value(kernel, sigma_one, t), 1e-3, 1e-2)
    phi = slope(lambda u: operators.phi_eval(kernel, 0.5, u), 1e-4, 1e-3)
    assert var == pytest.approx(1.0 + 2.0 * e0, abs=0.02)
    assert phi == pytest.approx(e0 + p, abs=0.02)


# Starting meshes twice as fine, with one doubling less (same finest mesh):
# oracles for the coarse start of DEFAULT_RULE and DOUBLE_ROUTE_RULE.
FINE_START_RULE = SingularQuadRule(n_panels=8, max_refinements=7, abs_tol=1e-8,
                                   rel_tol=1e-6)
FINE_START_DOUBLE_RULE = SingularQuadRule(
    n_nodes=8, n_panels=4, max_refinements=4, abs_tol=1e-7, rel_tol=1e-5
)


@pytest.mark.parametrize("family", ["fbm", "liouville", "mbm"])
def test_variance_curve_matches_fine_start_rule(family, kernel_fbm, kernel_liou,
                                                sigma_one, varcurve_fbm,
                                                varcurve_liou):
    # the oracle takes one fine-start L2 value per grid point, so the scaled
    # fbm / Liouville columns are checked at every point, not only at T
    if family == "mbm":
        kernel = kernels.multifractional(lambda t: 0.6 + 0.2 * np.asarray(t), 1.0)
        grid = operators.graded_grid(1.0, 256, 2.0)
        curve = operators.variance_curve(kernel, sigma_one, grid)
    else:
        kernel, curve = {"fbm": (kernel_fbm, varcurve_fbm),
                         "liouville": (kernel_liou, varcurve_liou)}[family]
    oracle = [operators.variance_l2_value(kernel, sigma_one, float(t),
                                          rule=FINE_START_RULE)
              for t in curve.grid[1:]]
    np.testing.assert_allclose(curve.var[1:], oracle, rtol=1e-6, atol=1e-8)


def _per_point_var(kernel, sigma, grid):
    """Var(N_t) on grid by one L2 value per point: the scaled column's oracle."""
    return np.array([0.0] + [operators.variance_l2_value(kernel, sigma, float(t))
                             for t in grid[1:]])


@pytest.mark.parametrize("T", [1.0, 2.0])
@pytest.mark.parametrize("value", [1.0, 1.7])
@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("family", [kernels.fbm, kernels.liouville_fbm])
def test_scaled_variance_column_matches_per_point_route(family, hurst, value, T):
    """Var(N_t) = (t / T)^{2H} Var(N_T) for a constant-H kernel and constant
    sigma, pinned to the per-point L2 route and to the closed forms."""
    kernel = family(hurst, T)
    sigma = Volatility.constant(value)
    grid = operators.graded_grid(T, 128)
    var = operators.variance_curve(kernel, sigma, grid).var
    oracle = _per_point_var(kernel, sigma, grid)
    exact = value**2 * grid**(2.0 * hurst)
    if family is kernels.liouville_fbm:
        exact /= 2.0 * hurst
    rel = np.abs(var[1:] - oracle[1:]) / oracle[1:]
    err, oracle_err = np.abs(var - exact), np.abs(oracle - exact)
    assert var[-1] == oracle[-1]
    if family is kernels.fbm and hurst == 0.6:
        # measured: the routes differ by 3.1e-7 relative; the per-point
        # route misses t^{2H} by 3.8e-7 relative at small t, the scaled
        # column by 6.5e-8 everywhere, its largest absolute miss the same
        assert np.max(rel) <= 5e-7
        assert np.max(err[1:] / exact[1:]) <= 1e-7
        assert np.max(err) <= np.max(oracle_err)
    else:
        # measured: <= 4.4e-16 relative apart; the closed forms are met to
        # 6.7e-10 (fBm) and 6.1e-16 (Liouville) relative on both routes
        assert np.max(rel) <= 2e-15
        assert np.max(err[1:] / exact[1:]) <= (1e-9 if family is kernels.fbm
                                               else 2e-15)


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
def test_gamma_kernel_defined_in_tests_takes_the_per_point_route(hurst, monkeypatch):
    """The gamma kernel g**(H-1/2) exp(-lam g), a family written only in the
    tests, through config.build_varcurve: Var(N_t) = int_0^t g**(2H-1)
    exp(-2 lam g) dg = (2 lam)**(-2H) Gamma(2H) P(2H, 2 lam t).  It is not
    self-similar, so the curve takes one L2 value per grid point (measured:
    within 8e-8 relative of the closed form)."""
    from scipy.special import gamma, gammainc

    from volterra_bsde.config import build_varcurve

    calls = []
    l2_value = operators.variance_l2_value

    def counted(kernel, sigma, t, rule=operators.DEFAULT_RULE):
        calls.append(t)
        return l2_value(kernel, sigma, t, rule=rule)

    monkeypatch.setattr(operators, "variance_l2_value", counted)
    lam = 2.0
    curve = build_varcurve(GammaKernel(T=1.0, hurst=hurst, lam=lam),
                           Volatility.constant(1.0))
    # one value per point on every graded grid build_varcurve tries, never
    # one value for a scaled column
    tried = [n for n in (128, 256, 512, 1024) if n < curve.grid.size]
    assert calls == [float(t) for n in tried for t in operators.graded_grid(1.0, n)[1:]]
    t = curve.grid[1:]
    exact = (2.0 * lam) ** (-2.0 * hurst) * gamma(2.0 * hurst) * \
        gammainc(2.0 * hurst, 2.0 * lam * t)
    np.testing.assert_allclose(curve.var[1:], exact, rtol=1e-6)


@pytest.mark.parametrize("kernel,sigma,calls", [
    (kernels.fbm(0.75, 1.0), Volatility.constant(1.0), 1),
    (kernels.liouville_fbm(0.75, 1.0), Volatility.constant(1.0), 1),
    (kernels.fbm(0.75, 1.0),
     Volatility(lambda t: np.interp(t, [0.0, 1.0], [1.5, 1.5]), 1.5), 1),
    (kernels.multifractional(lambda t: 0.6 + 0.2 * np.asarray(t), 1.0),
     Volatility.constant(1.0), 128),
    (kernels.liouville_fbm(0.75, 1.0),
     Volatility(lambda t: np.interp(t, [0.0, 1.0], [1.0, 2.0])), 128),
], ids=["fbm", "liouville", "fbm_flat_table", "mbm", "liouville_table"])
def test_variance_curve_l2_calls(kernel, sigma, calls, monkeypatch):
    # one L2 value for a constant-H kernel with constant sigma (a value
    # beside its function, as a flat table may declare), one per grid point
    # otherwise
    seen = []
    l2_value = operators.variance_l2_value

    def counted(*args, **kwargs):
        seen.append(args[2])
        return l2_value(*args, **kwargs)

    monkeypatch.setattr(operators, "variance_l2_value", counted)
    operators.variance_curve(kernel, sigma, operators.graded_grid(1.0, 128))
    assert len(seen) == calls
    assert seen[-1] == 1.0


@pytest.mark.parametrize("family", ["fbm", "liouville"])
def test_double_route_matches_fine_start_rule(family, kernel_fbm, kernel_liou,
                                              sigma_one):
    kernel = {"fbm": kernel_fbm, "liouville": kernel_liou}[family]
    val = operators.variance_double_route(kernel, sigma_one, 1.0)
    oracle = operators.variance_double_route(kernel, sigma_one, 1.0,
                                             rule=FINE_START_DOUBLE_RULE)
    assert abs(val - oracle) <= 1e-7


def test_variance_curve_nonconstant_sigma(kernel_liou):
    # sigma = 1_[0,1] scaled by 2: Var scales by 4
    sig2 = Volatility.constant(2.0)
    curve = operators.variance_curve(
        kernel_liou, sig2, operators.graded_grid(1.0, 64, 2.0)
    )
    assert curve.var[-1] == pytest.approx(4.0 * 2.0 / 3.0, rel=1e-6)


def test_variance_grid_validation(kernel_liou, sigma_one):
    with pytest.raises(DomainError):
        operators.variance_curve(kernel_liou, sigma_one, np.array([0.1, 0.5, 1.0]))
    with pytest.raises(DomainError):
        operators.variance_curve(kernel_liou, sigma_one, np.array([0.0, 0.5, 0.4]))


def test_variance_curve_rejects_uniform_fbm_grid(kernel_fbm, sigma_one):
    # the sqrt-kink of the rate at 0 needs a graded grid to meet the
    # reconstruction invariant at this resolution
    with pytest.raises(CurveConsistencyError):
        operators.variance_curve(kernel_fbm, sigma_one, np.linspace(0.0, 1.0, 257))


def test_variance_decreasing_data_rejected():
    with pytest.raises(MonotonicityError):
        operators.VarianceCurve(
            grid=np.array([0.0, 0.5, 1.0]),
            var=np.array([0.0, 0.6, 0.5]),
            rate=np.array([1.0, 1.0, 1.0]),
        )


def test_variance_cubic_that_may_decrease_is_rejected():
    # var = t^2 at 0, 0.5, 1 with the rate 4 at t = 0.5, four times 2t: on
    # [0, 0.5] the secant is 0.5, so alpha = 0, beta = 8 and
    # alpha^2 + beta^2 = 64 > 9, and the cubic dips below 0
    curve = dict(grid=np.array([0.0, 0.5, 1.0]), var=np.array([0.0, 0.25, 1.0]),
                 rate=np.array([0.0, 4.0, 2.0]))
    with pytest.raises(MonotonicityError, match=r"may decrease on \[0, 0.5\]"):
        operators.VarianceCurve(**curve)
    curve["rate"][1] = 1.0  # the rate 2t: alpha = 0, beta = 2 on [0, 0.5]
    assert operators.VarianceCurve(**curve).var_at(0.5) == 0.25


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.95])
@pytest.mark.parametrize("family", [kernels.fbm, kernels.liouville_fbm])
def test_var_at_is_the_cubic_of_the_rate(family, hurst):
    """Between the knots, Var(N_t) = Var(N_T) (t / T)^{2H} within 1e-8
    Var(N_T) on the 257-point uniform PDE grid.  The knots hold that
    scaled column exactly, so only the interpolant is measured (measured:
    <= 1.7e-9; PCHIP knot slopes miss by 4.2e-8 to 1.6e-7)."""
    kernel = family(hurst, 1.0)
    curve = operators.variance_curve(kernel, Volatility.constant(1.0),
                                     operators.graded_grid(1.0, 128))
    t = np.linspace(0.0, 1.0, 257)
    miss = np.abs(curve.var_at(t) - curve.var[-1] * t ** (2.0 * hurst))
    assert np.max(miss) <= 1e-8 * curve.var[-1]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(family=st.sampled_from([kernels.fbm, kernels.liouville_fbm]),
       hurst=st.floats(min_value=0.53, max_value=0.99))
def test_var_at_never_decreases(family, hurst):
    kernel = family(hurst, 1.0)
    curve = operators.variance_curve(kernel, Volatility.constant(1.0),
                                     operators.graded_grid(1.0, 128))
    assert np.all(np.diff(curve.var_at(np.linspace(0.0, 1.0, 4097))) >= 0.0)


def test_variance_curve_needs_three_points():
    with pytest.raises(DomainError, match="3 grid points"):
        operators.VarianceCurve(grid=np.array([0.0, 1.0]), var=np.array([0.0, 1.0]),
                                rate=np.array([1.0, 1.0]))


def _not_a_knot_slopes_dense(x, y):
    """The not-a-knot slope system as a dense n x n matrix and one LAPACK
    solve (oracle of the tridiagonal sweep)."""
    n = x.size
    h = np.diff(x)
    m = np.diff(y) / h
    A = np.zeros((n, n))
    b = np.empty(n)
    i = np.arange(1, n - 1)
    A[i, i - 1] = h[1:]
    A[i, i] = 2.0 * (h[:-1] + h[1:])
    A[i, i + 1] = h[:-1]
    b[1:-1] = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    if n == 3:
        A[0, :2] = A[-1, 1:] = 1.0
        b[0], b[-1] = 2.0 * m[0], 2.0 * m[1]
    else:
        d = x[2] - x[0]
        A[0, :2] = h[1], d
        b[0] = ((h[0] + 2.0 * d) * h[1] * m[0] + h[0] ** 2 * m[1]) / d
        d = x[-1] - x[-3]
        A[-1, -2:] = d, h[-2]
        b[-1] = (h[-1] ** 2 * m[-2] + (2.0 * d + h[-1]) * h[-2] * m[-1]) / d
    return np.linalg.solve(A, b)


@pytest.mark.parametrize("n", [3, 4, 9, 129, 1025])
def test_not_a_knot_slopes_match_a_dense_solve(n):
    # uniform, graded (the curve's own grids) and random knots; a smooth
    # column, one like the variance, and noise
    rng = np.random.default_rng(n)
    for x in (np.linspace(0.0, 1.0, n), operators.graded_grid(1.0, n - 1),
              np.sort(rng.uniform(0.0, 2.0, n))):
        for y in (np.sin(3.0 * x), x**1.5, rng.standard_normal(n)):
            ref = _not_a_knot_slopes_dense(x, y)
            got = operators._not_a_knot_slopes(x, y)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_variance_csv_export(varcurve_fbm):
    c = varcurve_fbm
    (chunk,) = csv_chunks("t,var,rate", column_csv_rows(c.grid, c.var, c.rate))
    text = chunk.decode()
    lines = text.strip().split("\n")
    assert lines[0] == "t,var,rate"
    assert len(lines) == varcurve_fbm.grid.size + 1
    t, v, q = map(float, lines[-1].split(","))
    assert (t, v) == (1.0, varcurve_fbm.var[-1])
    # 17 significant digits round-trip
    assert float(lines[-1].split(",")[1]) == varcurve_fbm.var[-1]


def test_var_at_domain(varcurve_fbm):
    with pytest.raises(DomainError):
        varcurve_fbm.var_at(1.5)
    with pytest.raises(DomainError):
        varcurve_fbm.rate_at(-0.2)


# -- transfer identity -----------------------------------------------------------


def test_transfer_identity_liouville(kernel_liou):
    report = operators.transfer_identity_check(
        kernel_liou, 1.0, np.linspace(0.0, 1.0, 100)
    )
    assert report.max_abs_deviation <= 1e-6


def test_transfer_identity_fbm(kernel_fbm):
    report = operators.transfer_identity_check(
        kernel_fbm, 0.8, np.linspace(0.0, 1.0, 65)
    )
    assert report.max_abs_deviation <= 1e-6


@pytest.mark.parametrize("H", [0.55, 0.75, 0.95])
def test_fbm_kernel_by_parts_matches_the_adjoint(H):
    kernel = kernels.fbm(H, 1.0)
    t = np.linspace(0.0, 1.0, 65)[1:52]  # 0 < t < r = 0.8
    by_parts = kernel.reference_eval(0.8, t)
    adjoint = operators.kstar_apply_batch(kernel, Volatility.constant(1.0), 0.8, t)
    np.testing.assert_allclose(by_parts, adjoint, rtol=5e-8)


def test_transfer_identity_fbm_sees_a_planted_kernel_defect(kernel_fbm,
                                                            monkeypatch):
    """The fBm right side shares no quadrature with K*: a dK/dt scaled by
    (1 + gap) moves the adjoint and not the by-parts kernel."""
    exact = kernels.dt_gap_t

    def planted(kernel, u, gap):
        return exact(kernel, u, gap) * (1.0 + np.asarray(gap))

    monkeypatch.setattr(kernels, "dt_gap_t", planted)
    report = operators.transfer_identity_check(
        kernel_fbm, 0.8, np.linspace(0.0, 1.0, 65)
    )
    assert report.max_abs_deviation > 1e-3


def test_transfer_identity_mbm():
    """Each adjoint integral must take the exponent H(u) - 1/2 of its own
    singular point u: the batch's smallest H leaves a deviation ~1e-7."""
    kernel = kernels.multifractional(lambda t: 0.6 + 0.2 * np.asarray(t), 1.0)
    report = operators.transfer_identity_check(
        kernel, 0.8, np.linspace(0.0, 1.0, 65)
    )
    assert report.max_abs_deviation <= 1e-9


def test_transfer_identity_vanishes_beyond_r(kernel_liou):
    grid = np.linspace(0.0, 1.0, 21)
    report = operators.transfer_identity_check(kernel_liou, 0.5, grid)
    beyond = grid >= 0.5
    assert np.all(report.lhs[beyond] == 0.0)
    assert np.all(report.rhs[beyond] == 0.0)


# -- volatility ----------------------------------------------------------------


def test_volatility_table():
    sig = Volatility(lambda t: np.interp(t, [0.0, 0.5, 1.0], [1.0, 2.0, 1.5]))
    assert sig(0.25) == pytest.approx(1.5)
    assert sig(np.array([0.25, 0.75])).dtype == float
    assert sig.value is None
    assert Volatility.constant(2.5).value == 2.5
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            Volatility.constant(bad)
