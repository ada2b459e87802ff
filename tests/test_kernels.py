"""Kernel catalog: closed forms, regularity and injectivity certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import SignChangeKernel
from volterra_bsde import kernels
from volterra_bsde.errors import DomainError

# frozen oracles (30-digit arithmetic):
#   c_H(3/4)        = sqrt(H(2H-1)/B(2-2H, H-1/2))
#   K_fbm(1, 1/2)   by tanh-sinh quadrature of the integral representation
C_H_075 = 0.26741115875799758
K_FBM_1_HALF = 0.93759196130643056
K_LIOU_1_HALF = 0.84089641525371454  # 0.5**0.25
DK_LIOU_1_HALF = 0.42044820762685727  # 0.25 * 0.5**-0.75


@pytest.fixture(scope="module")
def mbm_kernel():
    return kernels.multifractional(
        lambda t: 0.6 + 0.2 * np.asarray(t), 1.0,
        hurst_deriv=lambda t: 0.2 * np.ones_like(np.asarray(t, dtype=float)),
    )


def test_normalization_constant(kernel_fbm):
    assert kernel_fbm.c_h == pytest.approx(C_H_075, rel=1e-14)


def test_kernel_eval_examples(kernel_liou, kernel_fbm):
    assert kernels.kernel_eval(kernel_liou, 0.5, 1.0) == 0.0
    assert kernels.kernel_eval(kernel_liou, 1.0, 0.5) == pytest.approx(
        K_LIOU_1_HALF, rel=1e-14
    )
    assert kernels.kernel_eval(kernel_fbm, 1.0, 0.5) == pytest.approx(
        K_FBM_1_HALF, abs=1e-8
    )


def test_kernel_eval_domain_errors(kernel_liou):
    with pytest.raises(DomainError):
        kernels.kernel_eval(kernel_liou, 1.5, 0.5)
    with pytest.raises(DomainError):
        kernels.kernel_eval(kernel_liou, 0.5, -0.1)
    with pytest.raises(DomainError):
        kernels.kernel_eval(kernel_liou, np.nan, 0.5)


def test_kernel_dt_examples(kernel_liou, kernel_fbm):
    assert kernels.kernel_dt(kernel_liou, 1.0, 0.5) == pytest.approx(
        DK_LIOU_1_HALF, rel=1e-14
    )
    expect = C_H_075 * 2.0**0.25 * 0.5**-0.75
    assert kernels.kernel_dt(kernel_fbm, 1.0, 0.5) == pytest.approx(expect, rel=1e-13)
    for k in (kernel_liou, kernel_fbm):
        with pytest.raises(DomainError):
            kernels.kernel_dt(k, 0.5, 1.0)
        with pytest.raises(DomainError):
            kernels.kernel_dt(k, 0.5, 0.5)


@pytest.mark.parametrize("family", ["liou", "fbm", "mbm"])
def test_derivative_matches_finite_differences(family, kernel_liou, kernel_fbm,
                                               mbm_kernel):
    kernel = {"liou": kernel_liou, "fbm": kernel_fbm, "mbm": mbm_kernel}[family]
    rng = np.random.default_rng(7)
    for _ in range(12):
        s = rng.uniform(0.05, 0.8)
        t = s + rng.uniform(0.01, 0.19)
        h = 1e-6
        fd = (
            kernels.kernel_eval(kernel, t + h, s)
            - kernels.kernel_eval(kernel, t - h, s)
        ) / (2.0 * h)
        assert kernels.kernel_dt(kernel, t, s) == pytest.approx(fd, rel=1e-4)


def _dt_at_far_end(kernel, t, gap):
    """dK/dt(t, t - gap) in closed form, parametrised from the end t."""
    if isinstance(kernel, kernels.LiouvilleFbm):
        H = kernel.hurst
        return (H - 0.5) * gap ** (H - 1.5)
    if isinstance(kernel, kernels.Fbm):
        H = kernel.hurst
        return kernel.c_h * (t / (t - gap)) ** (H - 0.5) * gap ** (H - 1.5)
    H = kernel.hurst_at(t)
    Hp = kernel.hurst_rate_at(t)
    return gap ** (H - 1.5) * ((H - 0.5) + Hp * gap * np.log(gap))


@pytest.mark.parametrize("family, rel", [
    ("liou", 1e-13), ("fbm", 1e-13), ("mbm", 1e-13),
    # H' by central difference: a 1-ulp move of t = (t - g) + g moves it by
    # ~ulp / _H_DERIV_STEP, ~1e-10 of dK/dt
    ("mbm_fd_rate", 1e-9),
])
def test_dt_gap_t_at_the_far_end(family, rel, kernel_liou, kernel_fbm, mbm_kernel):
    kernel = {"liou": kernel_liou, "fbm": kernel_fbm, "mbm": mbm_kernel,
              "mbm_fd_rate": kernels.multifractional(
                  lambda t: 0.6 + 0.2 * np.asarray(t), 1.0)}[family]
    for t in np.linspace(0.05, 1.0, 39):
        gap = np.geomspace(1e-12 * t, t / 2.0, 400)
        got = kernels.dt_gap_t(kernel, t - gap, gap)
        np.testing.assert_allclose(got, _dt_at_far_end(kernel, t, gap), rtol=rel)


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=1.0),
    s=st.floats(min_value=0.0, max_value=1.0),
)
def test_volterra_property(t, s):
    kernel = kernels.liouville_fbm(0.75, 1.0)
    if t <= s:
        assert kernels.kernel_eval(kernel, t, s) == 0.0
    else:
        assert kernels.kernel_eval(kernel, t, s) > 0.0


@settings(max_examples=30, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0))
def test_diagonal_is_zero(u):
    kernel = kernels.liouville_fbm(0.6, 1.0)
    assert kernels.kernel_eval(kernel, u, u) == 0.0


def test_hurst_validation():
    with pytest.raises(DomainError):
        kernels.liouville_fbm(0.5, 1.0)
    with pytest.raises(DomainError):
        kernels.fbm(1.0, 1.0)
    with pytest.raises(DomainError):
        kernels.multifractional(lambda t: 0.4 + 0.0 * np.asarray(t), 1.0)
    # H stays in range, but H' is infinite at t = 0 (and sampled at t < 0)
    with pytest.raises(DomainError, match="C1"):
        kernels.multifractional(lambda t: 0.55 + 0.4 * np.sqrt(t), 1.0)
    with pytest.raises(DomainError):
        kernels.liouville_fbm(0.75, -1.0)


# -- H2 certificates -----------------------------------------------------------


def test_certify_h2_liouville_exact_bound(kernel_liou):
    cert = kernels.certify_H2(kernel_liou, alpha=0.25, beta=0.0, c=0.25,
                              n_samples=10_000)
    assert cert.valid
    assert cert.max_ratio <= 1.0 + 1e-12
    # the bound is an identity for this family: the ratio is exactly one
    assert cert.max_ratio == pytest.approx(1.0, rel=1e-12)


def test_certify_h2_liouville_wrong_alpha_invalid(kernel_liou):
    cert = kernels.certify_H2(kernel_liou, alpha=0.4, beta=0.0, c=0.25,
                              n_samples=10_000)
    assert not cert.valid
    # violation shows up near the diagonal where the ratio diverges
    assert cert.worst_t - cert.worst_s < 0.05


def test_certify_h2_fbm_family_constant(kernel_fbm):
    alpha, beta, c = kernel_fbm.suggested_h2_constants()
    assert (alpha, beta) == (0.25, 0.25)
    assert c == pytest.approx(C_H_075, rel=1e-14)
    cert = kernels.certify_H2(kernel_fbm, alpha, beta, c, n_samples=10_000)
    assert cert.valid


def test_certify_h2_all_shipped_families(kernel_liou, kernel_fbm, mbm_kernel):
    for kernel in (kernel_liou, kernel_fbm, mbm_kernel):
        alpha, beta, c = kernel.suggested_h2_constants()
        cert = kernels.certify_H2(kernel, alpha, beta, c, n_samples=10_000)
        assert cert.valid, kernel
        assert "halton" in cert.grid_checked


@pytest.mark.parametrize("family", ["liou", "fbm"])
def test_certify_h2_worst_point_ignores_roundoff_ties(family, kernel_liou,
                                                     kernel_fbm):
    # the suggested bound is exact for both families: every ratio is 1 up to
    # round-off, so a 2-ulp change of c must not move the worst point
    kernel = {"liou": kernel_liou, "fbm": kernel_fbm}[family]
    alpha, beta, c = kernel.suggested_h2_constants()
    ref = kernels.certify_H2(kernel, alpha, beta, c)
    for direction in (np.inf, -np.inf):
        c2 = np.nextafter(np.nextafter(c, direction), direction)
        cert = kernels.certify_H2(kernel, alpha, beta, float(c2))
        assert (cert.worst_t, cert.worst_s) == (ref.worst_t, ref.worst_s)


@pytest.mark.parametrize("n_samples, skip", [(10_000, 0), (2000, 64), (100, 0)])
def test_triangle_samples_are_unscrambled_halton(kernel_fbm, n_samples, skip):
    from scipy.stats import qmc

    halton = qmc.Halton(d=2, scramble=False)
    halton.fast_forward(skip)
    raw = halton.random(n_samples + 8)
    t_ref = kernel_fbm.T * np.maximum(raw[:, 0], raw[:, 1])
    s_ref = kernel_fbm.T * np.minimum(raw[:, 0], raw[:, 1])
    keep = ((s_ref > 0) & (t_ref - s_ref > kernels.DIAGONAL_BAND * kernel_fbm.T)
            & (t_ref < kernel_fbm.T))
    t, s = kernels._triangle_samples(kernel_fbm, n_samples, seed_skip=skip)
    assert np.array_equal(t, t_ref[keep][:n_samples])
    assert np.array_equal(s, s_ref[keep][:n_samples])


def test_certify_h2_preconditions(kernel_liou):
    with pytest.raises(DomainError):
        kernels.certify_H2(kernel_liou, 0.25, 0.0, 0.25, n_samples=50)
    with pytest.raises(DomainError):
        kernels.certify_H2(kernel_liou, 0.6, 0.0, 0.25, n_samples=200)
    with pytest.raises(DomainError):
        kernels.certify_H2(kernel_liou, 0.25, 0.5, 0.25, n_samples=200)


# -- injectivity ---------------------------------------------------------------


def test_injectivity_liouville_from_zero(kernel_liou):
    cert = kernels.injectivity_certificate(kernel_liou, 0.0, n_samples=64)
    assert cert.sign_definite
    vals = np.array([v for _, v in cert.samples])
    assert np.all(vals > 0.0)
    # closed form: Ktilde_0(s) = (s - t0)^(H - 1/2)
    svals = np.array([s for s, _ in cert.samples])
    np.testing.assert_allclose(vals, svals**0.25, rtol=1e-9)


def test_injectivity_fbm(kernel_fbm):
    cert = kernels.injectivity_certificate(kernel_fbm, 0.1, n_samples=48)
    assert cert.sign_definite


@pytest.mark.parametrize("t0", [0.0, 1e-6, 1e-4, 0.05])
@pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
def test_injectivity_fbm_matches_scipy_oracle(H, t0):
    # Ktilde_{t0}(s) = c_H int_{t0}^s (s/u)^(H-1/2) (s-u)^(H-3/2) du, singular
    # at u = s and, for t0 = 0, at u = 0 (weights of QUADPACK's qawse);
    # measured within 2.5e-8 relative
    from scipy.integrate import quad

    kernel = kernels.fbm(H, 1.0)
    cert = kernels.injectivity_certificate(kernel, t0, n_samples=16)
    for s, val in cert.samples:
        if t0 == 0.0:
            oracle, _ = quad(lambda u: kernel.c_h * s ** (H - 0.5), 0.0, s, weight="alg",
                             wvar=(0.5 - H, H - 1.5), epsabs=0.0, epsrel=1e-12, limit=200)
        else:
            oracle, _ = quad(lambda u: kernel.c_h * (s / u) ** (H - 0.5), t0, s,
                             weight="alg", wvar=(0.0, H - 1.5), epsabs=0.0,
                             epsrel=1e-12, limit=200)
        assert val == pytest.approx(oracle, rel=1e-7), s
    assert cert.sign_definite


def test_injectivity_sign_changing_kernel():
    kernel = SignChangeKernel(1.0)
    cert = kernels.injectivity_certificate(kernel, 0.0, n_samples=64)
    assert not cert.sign_definite
    # Ktilde_0(s) = s cos(2 pi s) flips sign at s = 1/4
    vals = dict(cert.samples)
    svals = np.array(sorted(vals))
    np.testing.assert_allclose(
        [vals[s] for s in svals], svals * np.cos(2 * np.pi * svals), atol=1e-9
    )


def test_injectivity_t0_domain(kernel_liou):
    with pytest.raises(DomainError):
        kernels.injectivity_certificate(kernel_liou, 1.0)
