"""Adjoint-operator machinery: K*, phi, covariance and the variance curve.

Every integral here has an algebraic endpoint singularity of known exponent,
so the integrands are written in gap form (distance to the singular
endpoint) and fed to the quadrature engine of :mod:`volterra_bsde.quadrature`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import CurveConsistencyError, DomainError, MonotonicityError
from .quadrature import (
    DEFAULT_RULE,
    SingularQuadRule,
    integrate_gap,
    integrate_gap_batch,
)

# The phi double integral is a cross-check against the L2-norm route at
# 1e-4 relative tolerance; a cheaper rule keeps its triple nesting fast.
# Its finest reachable mesh is 2 * 2**5 = 64 panels.  Every one of the
# route's integrals takes the exponent of its own singular point, so at
# fBm H = 0.75 the outer and inner ones stop at the first doubling (2 -> 4
# panels).
DOUBLE_ROUTE_RULE = SingularQuadRule(
    n_nodes=8, n_panels=2, max_refinements=5, abs_tol=1e-7, rel_tol=1e-5
)
# Below this value of q = (2 |r - s| / min(r, s))**e, phi takes its diagonal
# asymptote (see _phi_pairs).  Under DOUBLE_ROUTE_RULE a pair at
# q = 0.012 still changes by 2e-5 relative between 32 and 64 panels.  The
# fBm and multifractional (H = 0.6 + 0.2 t) double routes stay above
# 0.035; the Liouville ones reach the asymptote from H = 0.85 on.
PHI_ASYMPTOTE_Q = 0.02


@dataclass(frozen=True)
class Volatility:
    """Bounded, strictly positive deterministic volatility t -> sigma_t;
    ``value`` is sigma's value when it is constant, else None."""

    sigma_fn: Callable
    value: Optional[float] = None

    def __call__(self, t):
        return np.asarray(self.sigma_fn(np.asarray(t, dtype=float)), dtype=float)

    @staticmethod
    def constant(value):
        if not 0.0 < value < np.inf:
            raise DomainError(f"constant volatility must be positive and finite, "
                              f"got {value}")
        return Volatility(lambda t: np.full_like(np.asarray(t, dtype=float), value),
                          value)


# -- the adjoint operator K* -------------------------------------------------


def kstar_apply(kernel, sigma, t, u):
    """(K*_t sigma)_u = int_u^t sigma_s dK/ds(s, u) ds for 0 <= u < t <= T."""
    if not (0.0 <= u < t <= kernel.T):
        raise DomainError(f"kstar needs 0 <= u < t <= T, got u={u}, t={t}")
    return float(kstar_apply_batch(kernel, sigma, t, np.asarray([u]))[0])


def kstar_apply_batch(kernel, sigma, t, u, rule=DEFAULT_RULE):
    """Vectorized (K*_t sigma)_u over an array of lower arguments u < t."""
    u = np.asarray(u, dtype=float)
    if kernel.second_arg_power() < 0.0 and np.any(u <= 0):
        raise DomainError("fbm adjoint diverges at u = 0")
    ucol = u[:, None]

    def integrand(gap):
        return sigma(ucol + gap) * kernels.dt_gap_t(kernel, ucol, gap)

    return integrate_gap_batch(integrand, t - u, alpha=kernel.diag_exponent(u),
                               rule=rule)


# -- phi and phi-tilde -------------------------------------------------------


def _phi_pairs(kernel, r, s, rule, absolute=False, gap=None):
    """phi(r, s) (or its absolute-value variant) for flat pair arrays.

    ``gap`` is |r - s| when the caller holds it exactly: near the diagonal
    it can lie far below ulp(r), where max(r, s) - min(r, s) rounds to 0.

    With dK/dt(t, t - g) ~ A g**(e - 1), phi(r, s) ~ A**2 B(e, 1 - 2e)
    g**(2e - 1) as g = |r - s| -> 0, A and e taken at m = min(r, s).  The
    near-diagonal integral below peaks at d ~ g, which its graded panels in
    v = d**alpha resolve only while (2g / m)**e is not tiny; pairs with
    (2g / m)**e < PHI_ASYMPTOTE_Q take the asymptote instead.  For fBm the
    leading term is phi itself, H (2H - 1) g**(2H - 2).  For Liouville,
    phi = A**2 int_0^m (g + x)**(e - 1) x**(e - 1) dx, and the tail beyond
    m adds the O(1) term: phi = A**2 (B(e, 1 - 2e) g**(2e - 1)
    - m**(2e - 1) / (1 - 2e)) + O(g).  It matters near H = 1: at H = 0.9
    the switch sits at g ~ 1e-5, where it is 11% of phi.  The
    multifractional O(1) term also carries H' log terms and is not
    derived, so mbm keeps the leading term.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    m = np.minimum(r, s)
    M = np.maximum(r, s)
    g = M - m if gap is None else np.asarray(gap, dtype=float)
    A, e = kernel.diag_leading_term(m)
    with np.errstate(divide="ignore"):
        near = (e < 0.5) & (g > 0.0) & ((2.0 * g / m) ** e < PHI_ASYMPTOTE_Q)
    if not np.any(near):
        return _phi_quadrature(kernel, m, M, g, rule, absolute)
    e = e[near]
    b = [kernels.beta(p, q) for p, q in zip(e.tolist(), (1.0 - 2.0 * e).tolist())]
    lead = np.array(b) * g[near] ** (2.0 * e - 1.0)
    if kernel.family == kernels.LIOUVILLE:
        lead -= m[near] ** (2.0 * e - 1.0) / (1.0 - 2.0 * e)
    out = np.empty_like(m)
    out[near] = A[near] ** 2 * lead
    far = ~near
    if np.any(far):
        out[far] = _phi_quadrature(kernel, m[far], M[far], g[far], rule, absolute)
    return out


def _phi_quadrature(kernel, m, M, g, rule, absolute):
    """phi for pairs min m, max M and gap g by two gap integrals."""
    wrap = np.abs if absolute else (lambda x: x)
    mcol = m[:, None]
    Mcol = M[:, None]
    gcol = g[:, None]

    # tau in (0, m/2]: both derivative factors evaluated away from their
    # diagonals; for fbm each factor blows up like tau**(1/2 - H) at tau = 0.
    def left(tau):
        a = wrap(kernels.dt_gap_t(kernel, tau, Mcol - tau))
        b = wrap(kernels.dt_gap_t(kernel, tau, mcol - tau))
        return a * b

    # gap d = m - tau in (0, m/2]: the min-side factor carries the diagonal
    # singularity d**(H - 3/2); the max-side factor stays smooth.
    def right(d):
        a = wrap(kernels.dt_gap_t(kernel, mcol - d, gcol + d))
        b = wrap(kernels.dt_gap_t(kernel, mcol - d, d))
        return a * b

    alpha_left = 1.0 + 2.0 * kernel.second_arg_power()
    out = integrate_gap_batch(left, m / 2.0, alpha=alpha_left, rule=rule)
    out += integrate_gap_batch(right, m / 2.0, alpha=kernel.diag_exponent(m),
                               rule=rule)
    return out


def _check_phi_args(kernel, r, s):
    if not (0.0 < r <= kernel.T and 0.0 < s <= kernel.T):
        raise DomainError(f"phi needs 0 < r, s <= T, got r={r}, s={s}")
    if r == s:
        raise DomainError("phi is undefined on the diagonal r = s")


def phi_eval(kernel, r, s):
    """phi(r, s) = int_0^min(r,s) dK/dr(r, t) dK/ds(s, t) dt, r != s."""
    _check_phi_args(kernel, r, s)
    return float(
        _phi_pairs(kernel, np.asarray([r]), np.asarray([s]), DEFAULT_RULE)[0]
    )


def phi_tilde_eval(kernel, r, s):
    """phi with absolute values of both derivative factors (diagnostic)."""
    _check_phi_args(kernel, r, s)
    return float(_phi_pairs(kernel, np.asarray([r]), np.asarray([s]),
                            DEFAULT_RULE, absolute=True)[0])


# -- covariance --------------------------------------------------------------


def covariance_R(kernel, t, s):
    """R(t, s) = int_0^min(t,s) K(t, u) K(s, u) du."""
    if not (0.0 <= t <= kernel.T and 0.0 <= s <= kernel.T):
        raise DomainError(f"covariance needs (t, s) in [0, T]^2, got ({t}, {s})")
    m, M = (t, s) if t <= s else (s, t)
    if m == 0.0:
        return 0.0

    def left(u):
        return kernels.kernel_eval_batch(kernel, M, u) * \
            kernels.kernel_eval_batch(kernel, m, u)

    def right(d):
        return kernels.kernel_eval_batch(kernel, M, m - d) * \
            kernels.kernel_eval_batch(kernel, m, m - d)

    # K(t, t - d) ~ d**e, so the product is ~ d**(2e) at M = m, else ~ d**e
    alpha_left = 1.0 + 2.0 * kernel.second_arg_power()
    e = float(kernel.diag_exponent(m))
    alpha_right = 2.0 * e + 1.0 if M == m else e + 1.0
    val = integrate_gap(left, m / 2.0, alpha=alpha_left)
    val += integrate_gap(right, m / 2.0, alpha=alpha_right)
    return float(val)


# -- variance curve ----------------------------------------------------------


class _CubicHermite:
    """The piecewise cubic through (x, y) with knot slopes d.

    Its coefficients and its evaluation order are those of SciPy's
    ``CubicHermiteSpline``, so for the same slopes the values are the same
    bits.
    """

    def __init__(self, x, y, d):
        h = np.diff(x)
        m = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.x, self.y, self.d = x, y, d
        # powers 3, 2, 1, 0 of the offset from each piece's left knot
        self.coef = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])

    def __call__(self, t):
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        s = t - self.x[i]
        s2 = s * s
        c3, c2, c1, c0 = (c[i] for c in self.coef)
        return c0 + c1 * s + c2 * s2 + c3 * (s2 * s)

    def integral_at_knots(self):
        """int_{x_0}^{x_i} of the cubic for each knot x_i.

        A Hermite cubic integrates over [x_i, x_i + h] to
        h (y_i + y_{i+1}) / 2 + h^2 (d_i - d_{i+1}) / 12.
        """
        h = np.diff(self.x)
        y, d = self.y, self.d
        pieces = h * (y[:-1] + y[1:]) / 2.0 + h * h * (d[:-1] - d[1:]) / 12.0
        return np.concatenate(([0.0], np.cumsum(pieces)))


def _not_a_knot_slopes(x, y):
    """Knot slopes of the not-a-knot cubic spline through (x, y).

    That is SciPy's ``CubicSpline`` default, with its system for the slopes;
    through three points it is the parabola.  The tridiagonal system is
    solved by the Thomas algorithm in Python floats, so the slopes do not
    depend on the BLAS or LAPACK build.
    """
    n = x.size
    h = np.diff(x)
    m = np.diff(y) / h
    sub, diag, sup, b = np.zeros(n), np.empty(n), np.zeros(n), np.empty(n)
    sub[1:-1] = h[1:]
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    sup[1:-1] = h[:-1]
    b[1:-1] = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    if n == 3:  # the two end conditions coincide
        diag[0] = sup[0] = sub[-1] = diag[-1] = 1.0
        b[0], b[-1] = 2.0 * m[0], 2.0 * m[1]
    else:
        d = x[2] - x[0]
        diag[0], sup[0] = h[1], d
        b[0] = ((h[0] + 2.0 * d) * h[1] * m[0] + h[0] ** 2 * m[1]) / d
        d = x[-1] - x[-3]
        sub[-1], diag[-1] = d, h[-2]
        b[-1] = (h[-1] ** 2 * m[-2] + (2.0 * d + h[-1]) * h[-2] * m[-1]) / d
    sub, diag, sup, b = sub.tolist(), diag.tolist(), sup.tolist(), b.tolist()
    for i in range(1, n):
        w = sub[i] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        b[i] -= w * b[i - 1]
    b[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - sup[i] * b[i + 1]) / diag[i]
    return np.array(b)


@dataclass
class VarianceCurve:
    """Var(N_t) and its rate on a grid, with cubic interpolants.

    Var is the Hermite cubic whose knot slopes are the rate, and the rate
    the C2 not-a-knot cubic spline (``_not_a_knot_slopes``) through its own
    values.  Construction validates the defining invariants: var starts at
    zero, the rate is positive on the open interval, the Var cubic never
    decreases, and the spline-integrated rate reproduces var to 1e-6
    relative.  The cubic is monotone where every piece meets Fritsch &
    Carlson's condition (SIAM J. Numer. Anal. 17 (1980) 238-246): alpha =
    rate_i / secant_i and beta = rate_{i+1} / secant_i are >= 0 and
    alpha**2 + beta**2 <= 9.  The checks run on both columns that
    ``variance_curve`` builds: Var(N_T) (t / T)**(2H) from one L2 value
    (fbm or liouville_fbm with constant sigma) and the per-point L2 values
    of every other kernel and sigma, which are the first one's oracle.
    """

    grid: np.ndarray
    var: np.ndarray
    rate: np.ndarray
    _var_ip: _CubicHermite = field(init=False, repr=False)
    _rate_ip: _CubicHermite = field(init=False, repr=False)

    RECON_TOL = 1e-6

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.var = np.asarray(self.var, dtype=float)
        self.rate = np.asarray(self.rate, dtype=float)
        scale = max(float(self.var[-1]), 1e-300)
        if self.grid.size < 3:
            raise DomainError("variance curve needs at least 3 grid points")
        if self.var[0] != 0.0:
            raise DomainError("variance curve must start at Var(N_0) = 0")
        if np.any(self.rate[1:-1] <= 0.0):
            k = 1 + int(np.argmin(self.rate[1:-1]))
            raise MonotonicityError(
                f"variance rate is non-positive at t={self.grid[k]:.6g}"
            )
        # a secant <= 0 next to a positive rate fails too, and so does nan
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = np.diff(self.var) / np.diff(self.grid)
            alpha, beta = self.rate[:-1] / secant, self.rate[1:] / secant
        bent = ~((alpha >= 0.0) & (beta >= 0.0) & (alpha**2 + beta**2 <= 9.0))
        if np.any(bent):
            k = int(np.argmax(bent))
            raise MonotonicityError(
                f"the variance cubic may decrease on [{self.grid[k]:.6g}, "
                f"{self.grid[k + 1]:.6g}]: alpha {alpha[k]:.3g}, beta {beta[k]:.3g}"
            )
        self._var_ip = _CubicHermite(self.grid, self.var, self.rate)
        self._rate_ip = _CubicHermite(self.grid, self.rate,
                                      _not_a_knot_slopes(self.grid, self.rate))
        worst = self.reconstruction_error()
        if worst > self.RECON_TOL * scale:
            raise CurveConsistencyError(
                f"integrated rate misses var by {worst:.3e} "
                f"(> {self.RECON_TOL:g} * Var(T)); the grid is too coarse "
                "for the rate, use more points"
            )

    @property
    def T(self):
        return float(self.grid[-1])

    def reconstruction_error(self):
        """max_i |int_0^{t_i} rate - var_i|, the enforced consistency gap."""
        recon = self._rate_ip.integral_at_knots()
        return float(np.max(np.abs(recon - self.var)))

    def var_at(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.grid[0] - 1e-12) or np.any(t > self.grid[-1] + 1e-12):
            raise DomainError("variance queried outside the curve's grid span")
        return self._var_ip(np.clip(t, self.grid[0], self.grid[-1]))

    def rate_at(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.grid[0] - 1e-12) or np.any(t > self.grid[-1] + 1e-12):
            raise DomainError("rate queried outside the curve's grid span")
        return self._rate_ip(np.clip(t, self.grid[0], self.grid[-1]))


def graded_grid(T, n, power=2.0):
    """Grid on [0, T] clustered toward 0; power=1 gives uniform spacing."""
    tau = np.linspace(0.0, 1.0, n + 1)
    return T * tau**power


def variance_l2_value(kernel, sigma, t, rule=DEFAULT_RULE):
    """Var(N_t) as the squared L2 norm of u -> (K*_t sigma)_u."""
    if t == 0.0:
        return 0.0

    def left(u):
        w = kstar_apply_batch(kernel, sigma, t, u.ravel(), rule=rule)
        return w.reshape(u.shape) ** 2

    def right(d):
        w = kstar_apply_batch(kernel, sigma, t, (t - d).ravel(), rule=rule)
        return w.reshape(d.shape) ** 2

    # (K*_t sigma)_{t - d} ~ d**e, so its square is ~ d**(2e)
    alpha_left = 1.0 + 2.0 * kernel.second_arg_power()
    alpha_right = 2.0 * float(kernel.diag_exponent(t)) + 1.0
    val = integrate_gap(left, t / 2.0, alpha=alpha_left, rule=rule)
    val += integrate_gap(right, t / 2.0, alpha=alpha_right, rule=rule)
    return float(val)


def variance_double_route(kernel, sigma, t, rule=DOUBLE_ROUTE_RULE):
    """Var(N_t) as the phi double integral (independent cross-check route).

    Var(N_t) = 2 int_0^t sigma_r int_0^r phi(r, u) sigma_u du dr.  Each
    integral takes the exponent of its singular point, from e =
    ``diag_exponent`` and p = ``second_arg_power``: the outer integrand
    behaves like r**(2 e(0)) at 0, since Var(N_r) ~ r**(2 e(0) + 1); the
    inner one like u**(e(0) + p) at u = 0 (fBm's phi is smooth there) and
    like d**(2 e(r) - 1) at the diagonal u = r - d.
    """
    if t == 0.0:
        return 0.0
    e0 = float(kernel.diag_exponent(0.0))
    # e + p first: for fBm it is exactly 0, which keeps alpha_left at 1.0
    alpha_left = 1.0 + (e0 + kernel.second_arg_power())

    def g_batch(rvals):
        """Inner integral int_0^r phi(r, u) sigma_u du for an array of r."""
        rcol = rvals[:, None]

        def inner_left(u):
            flat_r = np.broadcast_to(rcol, u.shape).reshape(-1)
            vals = _phi_pairs(kernel, flat_r, u.reshape(-1), rule)
            return vals.reshape(u.shape) * sigma(u)

        def inner_right(d):
            flat_r = np.broadcast_to(rcol, d.shape).reshape(-1)
            vals = _phi_pairs(kernel, flat_r, (rcol - d).reshape(-1), rule,
                              gap=d.reshape(-1))
            return vals.reshape(d.shape) * sigma(rcol - d)

        alpha_diag = 2.0 * kernel.diag_exponent(rvals)
        out = integrate_gap_batch(inner_left, rvals / 2.0, alpha=alpha_left, rule=rule)
        out += integrate_gap_batch(inner_right, rvals / 2.0, alpha=alpha_diag, rule=rule)
        return out

    def outer(r):
        return 2.0 * sigma(r) * g_batch(r.ravel()).reshape(r.shape)

    return integrate_gap(outer, t, alpha=1.0 + 2.0 * e0, rule=rule)


def variance_curve(kernel, sigma, grid, rule=DEFAULT_RULE):
    """Tabulate Var(N_t) on ``grid`` and differentiate with a cubic spline.

    The variance values come from the L2-norm route (``variance_l2_value``).
    The constant-H kernels (``fbm``, ``liouville_fbm``) are homogeneous of
    degree H - 1/2, K(ct, cs) = c**(H - 1/2) K(t, s) (for fBm by r -> cr in
    its integral representation; Decreusefond & Ustunel, Potential Anal. 10
    (1999) 177-214), so with a constant sigma (``sigma.value`` not None)
    Var(N_t) = (t / t_n)**(2H) Var(N_{t_n}) and one L2 value at
    t_n = grid[-1] gives the whole column.  Every other kernel (mbm) or
    sigma (one that varies) takes one L2 value per grid point; that
    per-point route is the oracle the scaled column is tested against.

    On both routes the rate is the knot slopes of the not-a-knot cubic
    spline through the values (``_not_a_knot_slopes``, one tridiagonal
    sweep), accurate enough that the rate re-integrates to the variance
    within ``VarianceCurve.RECON_TOL``; ``var_at`` reads the Hermite cubic
    with those knot slopes, that same spline.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or np.any(np.diff(grid) <= 0):
        raise DomainError("variance grid must be increasing with >= 3 points")
    if grid[0] != 0.0 or grid[-1] > kernel.T + 1e-12:
        raise DomainError("variance grid must start at 0 and stay within [0, T]")
    var = np.zeros_like(grid)
    if kernel.family in (kernels.FBM, kernels.LIOUVILLE) and sigma.value is not None:
        t_n = float(grid[-1])
        var[1:] = variance_l2_value(kernel, sigma, t_n, rule=rule) * \
            (grid[1:] / t_n) ** (2.0 * kernel.hurst)
    else:
        for i, t in enumerate(grid[1:], start=1):
            var[i] = variance_l2_value(kernel, sigma, float(t), rule=rule)
    rate = _not_a_knot_slopes(grid, var)
    # the closed left endpoint may sit exactly at rate zero (e.g. fBm)
    if rate[0] < 0.0 and rate[0] > -1e-3 * float(np.max(rate)):
        rate[0] = 0.0
    return VarianceCurve(grid=grid, var=var, rate=rate)


# -- transfer identity -------------------------------------------------------


@dataclass(frozen=True)
class TransferIdentityReport:
    """Pointwise comparison of (K*_T 1_[0,r])_t against K(r, t)."""

    r: float
    grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    max_abs_deviation: float


def _fbm_kernel_by_parts(kernel, r, t):
    """The fBm K(r, t), 0 < t < r, by parts: with e = H - 1/2,
    K = c_H t^-e [r^e (r - t)^e / e - int_0^{r-t} d^e (t + d)^(e-1) dd],
    a bounded integrand (alpha = H + 1/2) and no quadrature shared with K*."""
    e = kernel.hurst - 0.5
    tail = integrate_gap_batch(lambda d: d**e * (t[:, None] + d) ** (e - 1.0), r - t,
                               alpha=e + 1.0)
    return kernel.c_h * t**-e * (r**e * (r - t) ** e / e - tail)


def transfer_identity_check(kernel, r, grid):
    """Verify (K*_T 1_[0,r])_t = K(r, t) on the grid.

    For t >= r both sides vanish by the Volterra property; below r the left
    side is evaluated by singular quadrature of the adjoint formula and the
    right side by kernel evaluation; for fBm, whose kernel evaluation is the
    adjoint's own quadrature, by :func:`_fbm_kernel_by_parts`.
    """
    if not (0.0 < r <= kernel.T):
        raise DomainError(f"transfer check needs 0 < r <= T, got r={r}")
    grid = np.asarray(grid, dtype=float)
    lhs = np.zeros_like(grid)
    rhs = np.zeros_like(grid)
    ones = Volatility.constant(1.0)
    below = grid < r
    if kernel.family == kernels.FBM:
        below &= grid > 0
    if np.any(below):
        lhs[below] = kstar_apply_batch(kernel, ones, r, grid[below])
        kernel_at = (_fbm_kernel_by_parts if kernel.family == kernels.FBM
                     else kernels.kernel_eval_batch)
        rhs[below] = kernel_at(kernel, r, grid[below])
    dev = float(np.max(np.abs(lhs - rhs))) if grid.size else 0.0
    return TransferIdentityReport(
        r=float(r), grid=grid, lhs=lhs, rhs=rhs, max_abs_deviation=dev
    )
