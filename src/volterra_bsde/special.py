"""The two special functions the package needs, from NumPy and the stdlib.

``beta`` is Euler's beta function of positive arguments, from
``math.gamma``.  ``ndtr`` is the standard normal CDF,
Phi(z) = erfc(-z / sqrt 2) / 2, with erfc by W. J. Cody's rational
Chebyshev approximations (Math. Comp. 23 (1969) 631-637; the three ranges
and coefficients of his CALERF routine), vectorized.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_RSQRT_PI = 1.0 / math.sqrt(math.pi)
# Phi underflows to 0 at or below this z and rounds to 1 at or above that
NDTR_BAND = (-38.5, 8.3)

# erf(y) = y R(y^2) on |y| <= 0.46875
_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
      3.20937758913846947e03, 1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)
# erfc(y) = exp(-y^2) R(y) on 0.46875 < y <= 4
_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
      2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
# erfc(y) = exp(-y^2) / y (1/sqrt(pi) + R(1/y^2) / y^2) on y > 4
_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)


def beta(a, b):
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for floats a, b > 0.

    The package takes it at a + b < 2 only, far below Gamma's overflow
    near 171.
    """
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def _rational(y, num, den):
    """Cody's rational function of y, both polynomials by Horner.

    As in CALERF, num[-1] is the leading numerator coefficient and num[-2]
    its constant term; the denominator is monic with constant term den[-1].
    """
    xnum = num[-1] * y
    xden = y.copy()
    for p, q in zip(num[:-2], den[:-1]):  # in place: no temporaries
        xnum += p
        xnum *= y
        xden += q
        xden *= y
    return (xnum + num[-2]) / (xden + den[-1])


def _exp_neg_square(y):
    """exp(-y^2), with y^2 split so that its rounding error does not enter."""
    head = np.trunc(y * 16.0) / 16.0
    return np.exp(-head * head) * np.exp(-(y - head) * (y + head))


def _erfc(x):
    """Complementary error function of a float array."""
    y = np.abs(x)
    out = np.empty_like(y)
    small = y <= 0.46875
    xs = x[small]
    out[small] = 1.0 - xs * _rational(xs * xs, _A, _B)
    mid = ~small & (y <= 4.0)
    ym = y[mid]
    out[mid] = _exp_neg_square(ym) * _rational(ym, _C, _D)
    far = y > 4.0
    yf = y[far]
    inv_sq = 1.0 / (yf * yf)
    tail = _RSQRT_PI - inv_sq * _rational(inv_sq, _P, _Q)
    out[far] = _exp_neg_square(yf) * tail / yf
    reflect = ~small & (x < 0.0)  # erfc(-y) = 2 - erfc(y)
    out[reflect] = 2.0 - out[reflect]
    return out


def ndtr(z):
    """Standard normal CDF of a float array: 0 and 1 outside ``NDTR_BAND``."""
    z = np.asarray(z, dtype=float)
    out = (z >= NDTR_BAND[1]).astype(float)
    band = (z > NDTR_BAND[0]) & (z < NDTR_BAND[1])
    out[band] = 0.5 * _erfc(-z[band] * _SQRT1_2)
    return out
