"""Volterra kernel catalog: evaluation, derivatives and certificates.

Shipped families (all with K(t,s) = 0 for t <= s and K(u,u) = 0):

``liouville_fbm``
    K(t,s) = (t-s)**(H-1/2), H in (1/2, 1).
``fbm``
    The standard fractional Brownian motion kernel for H > 1/2,
    K(t,s) = c_H s**(1/2-H) * int_s^t (u-s)**(H-3/2) u**(H-1/2) du,
    with c_H = sqrt(H (2H-1) / B(2-2H, H-1/2)); evaluated by singular
    quadrature of its derivative dK/dt over the gap t - s.
``mbm``
    Liouville-type multifractional kernel K(t,s) = (t-s)**(H(t)-1/2) with a
    continuously differentiable H(t) taking values in [0.51, 0.99].

A sign-changing kernel family ``x_sign_change_test`` exists purely so tests
can exercise the negative branch of the injectivity certificate.

dK/dt has one formula per family, :func:`dt_gap_t`, written at (t, s) =
(u + gap, u) so that the diagonal singularity is a power of the exact gap.
Every derivative the package takes goes through it, at the other end
too: dK/dt(t, t - gap) is ``dt_gap_t(kernel, t - gap, gap)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .quadrature import integrate_gap_batch

LIOUVILLE = "liouville_fbm"
FBM = "fbm"
MBM = "mbm"
SIGN_TEST = "x_sign_change_test"

# Relative width of the diagonal band excluded from kernel_dt; inside it the
# (t-s)**(alpha-1) singularity overflows double precision scales.
DIAGONAL_BAND = 1e-10

_MBM_EPS = 0.01
_H_DERIV_STEP = 1e-6


def beta(a, b):
    """Euler's B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0; the
    package takes it at a + b < 2, far below Gamma's overflow near 171."""
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


@dataclass(frozen=True)
class KernelSpec:
    """A Volterra kernel with horizon T and Hurst data.

    ``hurst`` is used by the constant-H families; ``hurst_fn`` (and the
    optional ``hurst_deriv``) by the multifractional family.
    """

    family: str
    T: float
    hurst: Optional[float] = None
    hurst_fn: Optional[Callable] = None
    hurst_deriv: Optional[Callable] = None

    def __post_init__(self):
        if self.T <= 0 or not math.isfinite(self.T):
            raise DomainError(f"horizon T must be positive and finite, got {self.T}")
        if self.family in (LIOUVILLE, FBM):
            if self.hurst is None or not (0.5 < self.hurst < 1.0):
                raise DomainError(
                    f"hurst must lie strictly in (1/2, 1), got {self.hurst}"
                )
        elif self.family == MBM:
            if self.hurst_fn is None:
                raise DomainError("multifractional kernel requires hurst_fn")
            t = np.linspace(0.0, self.T, 101)
            with np.errstate(invalid="ignore", divide="ignore"):
                hs, rates = self.hurst_at(t), self.hurst_rate_at(t)
            lo, hi = 0.5 + _MBM_EPS, 1.0 - _MBM_EPS
            if np.any(hs < lo) or np.any(hs > hi):
                raise DomainError(
                    f"hurst_fn range must stay inside [{lo}, {hi}] on [0, T]"
                )
            if not np.all(np.isfinite(rates)):
                raise DomainError("hurst_fn must be C1 on [0, T]; its rate is not "
                                  f"finite at t = {t[np.argmin(np.isfinite(rates))]:.6g}")
        elif self.family != SIGN_TEST:
            raise DomainError(f"unknown kernel family {self.family!r}")

    # -- family data ------------------------------------------------------

    def hurst_at(self, t):
        if self.family == MBM:
            return np.asarray(self.hurst_fn(np.asarray(t, dtype=float)), dtype=float)
        return np.full_like(np.asarray(t, dtype=float), self.hurst)

    def hurst_rate_at(self, t):
        t = np.asarray(t, dtype=float)
        if self.family != MBM:
            return np.zeros_like(t)
        if self.hurst_deriv is not None:
            return np.asarray(self.hurst_deriv(t), dtype=float)
        h = _H_DERIV_STEP
        return (self.hurst_at(t + h) - self.hurst_at(t - h)) / (2.0 * h)

    @property
    def c_h(self):
        """fBm normalization constant sqrt(H(2H-1)/B(2-2H, H-1/2))."""
        H = self.hurst
        return math.sqrt(H * (2.0 * H - 1.0) / beta(2.0 - 2.0 * H, H - 0.5))

    def diag_exponent(self, t):
        """e with dK/dt(t, t - g) ~ C g**(e - 1) as g -> 0: a float for the
        constant-H families, one value per t for the multifractional one."""
        if self.family == SIGN_TEST:
            return 1.0
        if self.family == MBM:
            return self.hurst_at(t) - 0.5
        return self.hurst - 0.5

    def diag_leading_term(self, t):
        """(A, e) with dK/dt(t, t - g) ~ A g**(e - 1) as g -> 0, per time t."""
        t = np.asarray(t, dtype=float)
        if self.family == SIGN_TEST:
            return np.ones_like(t), np.ones_like(t)
        e = self.hurst_at(t) - 0.5
        return (np.full_like(t, self.c_h) if self.family == FBM else e), e

    def second_arg_power(self):
        """p with K(t,s) ~ C s**p as s -> 0 (only the fBm kernel blows up)."""
        return 0.5 - self.hurst if self.family == FBM else 0.0


def liouville_fbm(hurst, T):
    return KernelSpec(family=LIOUVILLE, T=T, hurst=hurst)


def fbm(hurst, T):
    return KernelSpec(family=FBM, T=T, hurst=hurst)


def multifractional(hurst_fn, T, hurst_deriv=None):
    return KernelSpec(family=MBM, T=T, hurst_fn=hurst_fn, hurst_deriv=hurst_deriv)


def sign_change_test_kernel(T):
    """Test-only kernel K(t,s) = (t-s) cos(2 pi (t-s)); dK/dt changes sign."""
    return KernelSpec(family=SIGN_TEST, T=T)


# -- derivative in the first argument, gap-exact forms ---------------------


def dt_gap_t(kernel, u, gap):
    """dK/dt evaluated at (t, s) = (u + gap, u), as a function of the gap."""
    u = np.asarray(u, dtype=float)
    gap = np.asarray(gap, dtype=float)
    if kernel.family == LIOUVILLE:
        H = kernel.hurst
        return (H - 0.5) * gap ** (H - 1.5)
    if kernel.family == FBM:
        H = kernel.hurst
        return kernel.c_h * ((u + gap) / u) ** (H - 0.5) * gap ** (H - 1.5)
    if kernel.family == MBM:
        t = u + gap
        H = kernel.hurst_at(t)
        Hp = kernel.hurst_rate_at(t)
        return gap ** (H - 1.5) * ((H - 0.5) + Hp * gap * np.log(gap))
    # sign-change test kernel
    return np.cos(2.0 * np.pi * gap) - 2.0 * np.pi * gap * np.sin(2.0 * np.pi * gap)


def _check_domain(kernel, t, s):
    if not (np.isfinite(t) and np.isfinite(s)):
        raise DomainError(f"kernel arguments must be finite, got ({t}, {s})")
    if t < 0 or s < 0 or t > kernel.T or s > kernel.T:
        raise DomainError(f"({t}, {s}) outside [0, {kernel.T}]^2")


def kernel_eval(kernel, t, s):
    """K(t, s); exactly zero whenever t <= s (Volterra property)."""
    _check_domain(kernel, t, s)
    if t <= s:
        return 0.0
    return float(kernel_eval_batch(kernel, np.asarray([t]), np.asarray([s]))[0])


def kernel_eval_batch(kernel, t, s):
    """Vectorized K(t, s) for arrays of the same shape."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    out = np.zeros(np.broadcast(t, s).shape)
    t, s = np.broadcast_arrays(t, s)
    live = t > s
    if not np.any(live):
        return out
    tl, sl = t[live], s[live]
    if kernel.family == LIOUVILLE:
        out[live] = (tl - sl) ** (kernel.hurst - 0.5)
    elif kernel.family == MBM:
        H = kernel.hurst_at(tl)
        out[live] = (tl - sl) ** (H - 0.5)
    elif kernel.family == SIGN_TEST:
        out[live] = (tl - sl) * np.cos(2.0 * np.pi * (tl - sl))
    else:  # fbm: quadrature of the integral representation
        if np.any(sl <= 0):
            raise DomainError("fbm kernel diverges at s = 0")
        scol = sl[:, None]

        def integrand(gap):
            return dt_gap_t(kernel, scol, gap)

        out[live] = integrate_gap_batch(integrand, tl - sl, alpha=kernel.hurst - 0.5)
    return out


def kernel_dt(kernel, t, s):
    """dK/dt(t, s) for 0 < s < t <= T; domain error on or below the diagonal."""
    _check_domain(kernel, t, s)
    if t - s <= DIAGONAL_BAND * kernel.T:
        raise DomainError(
            f"dK/dt undefined for t - s <= {DIAGONAL_BAND:g} * T (got t={t}, s={s})"
        )
    if kernel.family == FBM and s <= 0:
        raise DomainError("fbm kernel derivative diverges at s = 0")
    return float(dt_gap_t(kernel, s, t - s))


# -- certificates -----------------------------------------------------------


@dataclass(frozen=True)
class RegularityCert:
    """Numeric check of |dK/dt| <= c (t-s)**(alpha-1) (t/s)**beta."""

    alpha: float
    beta: float
    c: float
    grid_checked: str
    max_ratio: float
    valid: bool
    worst_t: float
    worst_s: float


@dataclass(frozen=True)
class InjectivityCert:
    """Sampled sign of Ktilde_{t0}(s) = int_{t0}^s dK/ds(s,u) du."""

    t0: float
    samples: list = field(default_factory=list)
    sign_definite: bool = False


# A ratio of exactly 1 is attained in the s->t limit for the shipped
# families; allow for roundoff when declaring the certificate valid.
_RATIO_SLACK = 1e-12


def _triangle_samples(kernel, n_samples, seed_skip=0):
    """Deterministic low-discrepancy points in {0 < s < t < T}.

    The points are the unscrambled 2-D Halton sequence from index
    ``seed_skip`` on: column k is the radical inverse of the index in base
    2 or 3 (its digits mirrored about the radix point).
    """
    index = np.arange(seed_skip, seed_skip + int(n_samples) + 8)
    raw = np.zeros((index.size, 2))
    for col, base in enumerate((2, 3)):
        q, scale = index, 1.0 / base
        while np.any(q):
            raw[:, col] += (q % base) * scale
            scale /= base
            q = q // base
    t = kernel.T * np.maximum(raw[:, 0], raw[:, 1])
    s = kernel.T * np.minimum(raw[:, 0], raw[:, 1])
    keep = (s > 0) & (t - s > DIAGONAL_BAND * kernel.T) & (t < kernel.T)
    return t[keep][: int(n_samples)], s[keep][: int(n_samples)]


def certify_H2(kernel, alpha, beta, c, n_samples=10_000):
    """Check the regularity bound on a deterministic low-discrepancy sample.

    Valid iff max |dK/dt| / (c (t-s)**(alpha-1) (t/s)**beta) <= 1 within
    roundoff slack; the worst pair, the first sample whose ratio lies within
    that slack of the maximum, is recorded either way.
    """
    if n_samples < 100:
        raise DomainError("certificate needs n_samples >= 100")
    if not (0.0 < alpha < 0.5):
        raise DomainError(f"alpha must lie in (0, 1/2), got {alpha}")
    if not (0.0 <= beta < 0.5):
        raise DomainError(f"beta must lie in [0, 1/2), got {beta}")
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    t, s = _triangle_samples(kernel, n_samples)
    deriv = np.abs(dt_gap_t(kernel, s, t - s))
    bound = c * (t - s) ** (alpha - 1.0) * (t / s) ** beta
    ratio = deriv / bound
    max_ratio = float(np.max(ratio))
    # where the bound is exact, ratios tie at 1 up to round-off; the worst
    # pair is the first within the slack, not the noise's argmax
    k = int(np.argmax(ratio >= max_ratio - _RATIO_SLACK))
    return RegularityCert(
        alpha=alpha,
        beta=beta,
        c=c,
        grid_checked=f"halton2d(n={len(t)}, T={kernel.T:g}, band={DIAGONAL_BAND:g}*T)",
        max_ratio=max_ratio,
        valid=max_ratio <= 1.0 + _RATIO_SLACK,
        worst_t=float(t[k]),
        worst_s=float(s[k]),
    )


def suggested_h2_constants(kernel):
    """Documented (alpha, beta, c) under which each shipped family certifies."""
    if kernel.family == LIOUVILLE:
        return kernel.hurst - 0.5, 0.0, kernel.hurst - 0.5
    if kernel.family == FBM:
        return kernel.hurst - 0.5, kernel.hurst - 0.5, kernel.c_h
    if kernel.family == MBM:
        hs = kernel.hurst_at(np.linspace(0.0, kernel.T, 201))
        alpha = float(np.min(hs)) - 0.5
        beta = 0.0
        t, s = _triangle_samples(kernel, 2000, seed_skip=64)
        ratio = np.abs(dt_gap_t(kernel, s, t - s)) / (
            (t - s) ** (alpha - 1.0) * (t / s) ** beta
        )
        return alpha, beta, 1.05 * float(np.max(ratio))
    raise DomainError(f"no documented constants for family {kernel.family!r}")


def injectivity_certificate(kernel, t0, n_samples=64):
    """Sample Ktilde_{t0}(s) on (t0, T] and test for one strict sign.

    Ktilde_{t0}(s) = int_{t0}^s dK/ds(s, u) du, computed by singular
    quadrature in the gap s - u.  A strict common sign over all samples is
    the sufficient condition for injectivity of the adjoint operator.
    """
    if not (0.0 <= t0 < kernel.T):
        raise DomainError(f"t0 must lie in [0, T), got {t0}")
    svals = t0 + (kernel.T - t0) * np.arange(1, n_samples + 1) / n_samples
    scol = svals[:, None]

    def integrand(gap):
        return dt_gap_t(kernel, scol - gap, gap)

    vals = integrate_gap_batch(integrand, svals - t0,
                               alpha=kernel.diag_exponent(svals))
    sign_definite = bool(np.all(vals > 0.0) or np.all(vals < 0.0))
    return InjectivityCert(
        t0=float(t0),
        samples=[(float(a), float(b)) for a, b in zip(svals, vals)],
        sign_definite=sign_definite,
    )
