"""Volterra kernel families: one class per family, one protocol.

A kernel is a frozen dataclass subclassing :class:`KernelSpec`, with
K(t,s) = 0 for t <= s and K(u,u) = 0.  The layers above read a family's
formulas only through its methods, so a family defined outside the package
(the tests define two) runs through every operator.  A family writes
``dt_gap_t``, ``eval`` and ``diag_exponent`` and overrides the defaults of
:class:`KernelSpec` that do not hold for it.

The shipped families, which ``config.build_kernel`` names:

``liouville_fbm`` (:class:`LiouvilleFbm`)
    K(t,s) = (t-s)**(H-1/2), H in (1/2, 1).
``fbm`` (:class:`Fbm`)
    The fBm kernel, K(t,s) = c_H s**(1/2-H) int_s^t (u-s)**(H-3/2)
    u**(H-1/2) du with c_H = sqrt(H (2H-1) / B(2-2H, H-1/2)), H in
    (1/2, 1); evaluated by quadrature of dK/dt over the gap t - s.
``mbm`` (:class:`Multifractional`)
    K(t,s) = (t-s)**(H(t)-1/2) with a C1 H(t) in [0.51, 0.99].

Every derivative the package takes goes through :func:`dt_gap_t`, at the
other end too: dK/dt(t, t - gap) is ``dt_gap_t(kernel, t - gap, gap)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .quadrature import integrate_gap_batch

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
    """A Volterra kernel on [0, T] with the protocol's defaults."""

    T: float

    def __post_init__(self):
        if self.T <= 0 or not math.isfinite(self.T):
            raise DomainError(f"horizon T must be positive and finite, got {self.T}")

    def diag_leading_term(self, t):
        """(A, e) with dK/dt(t, t - g) ~ A g**(e - 1): A = e by default."""
        e = np.zeros_like(np.asarray(t, dtype=float)) + self.diag_exponent(t)
        return e, e

    def second_arg_power(self):
        """p with K(t, s) ~ C(t) s**p as s -> 0."""
        return 0.0

    def second_arg_coefficient(self, t):
        """C(t) with K(t, s) ~ C(t) s**p where p < 0, else None."""
        return None

    def self_similarity(self):
        """H where K is homogeneous of degree H - 1/2, else None."""
        return None

    def phi_diag_correction(self, m, e):
        """C with phi(m + g, m) = A**2 (B(e, 1 - 2e) g**(2e - 1) - C) + o(1)."""
        return None

    def reference_eval(self, t, s):
        """K by a route that shares no quadrature with K* (the transfer check)."""
        return kernel_eval_batch(self, t, s)


@dataclass(frozen=True)
class _ConstantHurst(KernelSpec):
    """One Hurst index H in (1/2, 1); K(ct, cs) = c**(H - 1/2) K(t, s) (for
    fBm by r -> cr in its integral representation; Decreusefond & Ustunel,
    Potential Anal. 10 (1999) 177-214)."""

    hurst: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.5 < self.hurst < 1.0:
            raise DomainError(f"hurst must lie strictly in (1/2, 1), got {self.hurst}")

    def diag_exponent(self, t):
        return self.hurst - 0.5

    def self_similarity(self):
        return self.hurst


class LiouvilleFbm(_ConstantHurst):
    def dt_gap_t(self, u, gap):
        return (self.hurst - 0.5) * gap ** (self.hurst - 1.5)

    def eval(self, t, s):
        return (t - s) ** (self.hurst - 0.5)

    def phi_diag_correction(self, m, e):
        # the tail of int (g + x)**(e - 1) x**(e - 1) dx beyond x = m
        return m ** (2.0 * e - 1.0) / (1.0 - 2.0 * e)

    def suggested_h2_constants(self):
        return self.hurst - 0.5, 0.0, self.hurst - 0.5


class Fbm(_ConstantHurst):
    @property
    def c_h(self):
        """fBm normalization constant sqrt(H(2H-1)/B(2-2H, H-1/2))."""
        H = self.hurst
        return math.sqrt(H * (2.0 * H - 1.0) / beta(2.0 - 2.0 * H, H - 0.5))

    def dt_gap_t(self, u, gap):
        H = self.hurst
        return self.c_h * ((u + gap) / u) ** (H - 0.5) * gap ** (H - 1.5)

    def eval(self, t, s):
        if np.any(s <= 0):
            raise DomainError("fbm kernel diverges at s = 0")
        scol = s[:, None]
        return integrate_gap_batch(lambda gap: dt_gap_t(self, scol, gap), t - s,
                                   alpha=self.hurst - 0.5)

    def diag_leading_term(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.c_h), np.full_like(t, self.hurst) - 0.5

    def second_arg_power(self):
        return 0.5 - self.hurst

    def second_arg_coefficient(self, t):
        """c_H int_0^t u**(2H-2) du, the limit of K(t, s) s**(H-1/2)."""
        return self.c_h * t ** (2.0 * self.hurst - 1.0) / (2.0 * self.hurst - 1.0)

    def reference_eval(self, t, s):
        """K(t, s), 0 < s < t, by parts: with e = H - 1/2, K = c_H s^-e
        [t^e (t - s)^e / e - int_0^{t-s} d^e (s + d)^(e-1) dd]."""
        e = self.hurst - 0.5
        tail = integrate_gap_batch(lambda d: d**e * (s[:, None] + d) ** (e - 1.0),
                                   t - s, alpha=e + 1.0)
        return self.c_h * s**-e * (t**e * (t - s) ** e / e - tail)

    def suggested_h2_constants(self):
        return self.hurst - 0.5, self.hurst - 0.5, self.c_h


@dataclass(frozen=True)
class Multifractional(KernelSpec):
    """H(t) is ``hurst_fn``; H' is ``hurst_deriv``, else a central difference."""

    hurst_fn: Callable
    hurst_deriv: Optional[Callable] = None

    def __post_init__(self):
        super().__post_init__()
        t = np.linspace(0.0, self.T, 101)
        with np.errstate(invalid="ignore", divide="ignore"):
            hs, rates = self.hurst_at(t), self.hurst_rate_at(t)
        lo, hi = 0.5 + _MBM_EPS, 1.0 - _MBM_EPS
        if np.any(hs < lo) or np.any(hs > hi):
            raise DomainError(f"hurst_fn range must stay inside [{lo}, {hi}] on [0, T]")
        if not np.all(np.isfinite(rates)):
            raise DomainError("hurst_fn must be C1 on [0, T]; its rate is not "
                              f"finite at t = {t[np.argmin(np.isfinite(rates))]:.6g}")

    def hurst_at(self, t):
        return np.asarray(self.hurst_fn(np.asarray(t, dtype=float)), dtype=float)

    def hurst_rate_at(self, t):
        t = np.asarray(t, dtype=float)
        if self.hurst_deriv is not None:
            return np.asarray(self.hurst_deriv(t), dtype=float)
        h = _H_DERIV_STEP
        return (self.hurst_at(t + h) - self.hurst_at(t - h)) / (2.0 * h)

    def dt_gap_t(self, u, gap):
        t = u + gap
        H = self.hurst_at(t)
        Hp = self.hurst_rate_at(t)
        return gap ** (H - 1.5) * ((H - 0.5) + Hp * gap * np.log(gap))

    def eval(self, t, s):
        return (t - s) ** (self.hurst_at(t) - 0.5)

    def diag_exponent(self, t):
        return self.hurst_at(t) - 0.5

    def suggested_h2_constants(self):
        """alpha = min H - 1/2, beta = 0, c 5% above the sampled max ratio."""
        alpha = float(np.min(self.hurst_at(np.linspace(0.0, self.T, 201)))) - 0.5
        t, s = _triangle_samples(self, 2000, seed_skip=64)
        ratio = np.abs(dt_gap_t(self, s, t - s)) / (t - s) ** (alpha - 1.0)
        return alpha, 0.0, 1.05 * float(np.max(ratio))


def liouville_fbm(hurst, T):
    return LiouvilleFbm(T=T, hurst=hurst)


def fbm(hurst, T):
    return Fbm(T=T, hurst=hurst)


def multifractional(hurst_fn, T, hurst_deriv=None):
    return Multifractional(T=T, hurst_fn=hurst_fn, hurst_deriv=hurst_deriv)


# -- derivative in the first argument, gap-exact forms ---------------------


def dt_gap_t(kernel, u, gap):
    """dK/dt evaluated at (t, s) = (u + gap, u), as a function of the gap."""
    return kernel.dt_gap_t(np.asarray(u, dtype=float), np.asarray(gap, dtype=float))


def _check_domain(kernel, t, s):
    if not (np.isfinite(t) and np.isfinite(s)):
        raise DomainError(f"kernel arguments must be finite, got ({t}, {s})")
    if t < 0 or s < 0 or t > kernel.T or s > kernel.T:
        raise DomainError(f"({t}, {s}) outside [0, {kernel.T}]^2")


def kernel_eval(kernel, t, s):
    """K(t, s); exactly zero whenever t <= s (Volterra property)."""
    _check_domain(kernel, t, s)
    return float(kernel_eval_batch(kernel, t, s))


def kernel_eval_batch(kernel, t, s):
    """Vectorized K(t, s) for arrays of the same shape."""
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    out = np.zeros(t.shape)
    live = t > s
    if not np.any(live):
        return out
    out[live] = kernel.eval(t[live], s[live])
    return out


def kernel_dt(kernel, t, s):
    """dK/dt(t, s) for 0 < s < t <= T; domain error on or below the diagonal."""
    _check_domain(kernel, t, s)
    if t - s <= DIAGONAL_BAND * kernel.T:
        raise DomainError(
            f"dK/dt undefined for t - s <= {DIAGONAL_BAND:g} * T (got t={t}, s={s})"
        )
    if kernel.second_arg_power() < 0.0 and s <= 0:
        raise DomainError("the kernel's derivative diverges at s = 0")
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
    samples: list
    sign_definite: bool


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
        alpha=alpha, beta=beta, c=c,
        grid_checked=f"halton2d(n={len(t)}, T={kernel.T:g}, band={DIAGONAL_BAND:g}*T)",
        max_ratio=max_ratio, valid=max_ratio <= 1.0 + _RATIO_SLACK,
        worst_t=float(t[k]), worst_s=float(s[k]))


def injectivity_certificate(kernel, t0, n_samples=64):
    """Sample Ktilde_{t0}(s) on (t0, T] and test for one strict sign.

    Ktilde_{t0}(s) = int_{t0}^s dK/ds(s, u) du, split at u = (t0 + s) / 2
    as phi is: one half graded toward the diagonal u = s, the other toward
    u = t0 for dK/ds(s, u) ~ u**p, p = ``second_arg_power()`` (fBm's second
    singular point).  A strict common sign over all samples is the
    sufficient condition for injectivity of the adjoint operator.
    """
    if not (0.0 <= t0 < kernel.T):
        raise DomainError(f"t0 must lie in [0, T), got {t0}")
    svals = t0 + (kernel.T - t0) * np.arange(1, n_samples + 1) / n_samples
    scol = svals[:, None]

    def far(d):  # u = t0 + d
        return dt_gap_t(kernel, t0 + d, scol - (t0 + d))

    def near(gap):  # u = s - gap
        return dt_gap_t(kernel, scol - gap, gap)

    half = (svals - t0) / 2.0
    vals = integrate_gap_batch(far, half, alpha=1.0 + kernel.second_arg_power())
    vals += integrate_gap_batch(near, half, alpha=kernel.diag_exponent(svals))
    return InjectivityCert(
        t0=float(t0), samples=[(float(a), float(b)) for a, b in zip(svals, vals)],
        sign_definite=bool(np.all(vals > 0.0) or np.all(vals < 0.0)))
