"""Terminal-value semilinear PDE solvers on the variance clock.

The equation is  u_t = -1/2 Var'(t) u_xx - f(t, x, u, -sigma_t u_x)  with
u(T, x) = g(x).  Two routes are implemented as mutual oracles:

* ``solve_semilinear_picard`` solves the discrete mild (heat-semigroup)
  form in one backward march.  Row i of that form depends on itself only
  through the trapezoid term 1/2 dt_i f(t_i, x, u_i, -sigma_i u_x), so each
  step carries the later rows back with one exact heat step and then
  iterates that local term to its fixed point.  The heat step, the
  one behind :func:`heat_convolve`, is the exact semigroup
  exp((v/2) D2) of the 3-point second difference on the x lattice, applied
  to the row's linear extension in closed form (Duhamel's formula, a real
  FFT convolution of the row's second differences).  Affine rows are
  fixed exactly and x^2 maps to x^2 + v; S_a S_b = S_{a+b} holds, so the
  O(dx^2) spatial error is paid once, not once per step.  A solve builds
  the spectrum of each time step once (it depends only on the step's
  variance increment).
* ``solve_semilinear_fd`` is backward Euler (implicit diffusion) with the
  nonlinearity lagged one time level and far-field Dirichlet data taken
  from the linear solution plus a source-ODE correction.  Each step's
  matrix is tridiag(-a, 1 + 2a, -a) with Dirichlet ends, solved exactly in
  the DST-I sine basis that diagonalizes it (two real FFTs per step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.fft import irfft, rfft

from .errors import (
    ConvergenceError,
    DomainError,
    GrowthViolationError,
    InstabilityError,
    PreconditionError,
)

_EPS = np.finfo(float).eps


# -- problem data -------------------------------------------------------------


def _growth_sample(fn, varcurve, reach):
    """|fn| at 2001 points of [-a, a], a = max(default_halfwidth, reach):
    the x grid's own box, or the caller's samples' reach."""
    a = max(default_halfwidth(varcurve), reach)
    xs = np.linspace(-a, a, 2001)
    with np.errstate(all="ignore"):
        v = np.abs(np.asarray(fn(xs), dtype=float) + 0.0 * xs)
    return xs, v.reshape(-1, xs.size)


def growth_rate(fn, varcurve, reach=0.0):
    """lambda in |fn(x)| ~ c exp(lambda x^2): over fn's rows (one row or a
    stack) on the box of ``_growth_sample``, the largest
    ln(max_{|x| > a/2} |v| / max(max_{|x| <= a/2} |v|, 1)) / (0.75 a^2).
    Exact for c exp(lambda x^2) once c exp(lambda a^2 / 4) >= 1, <= 0 for
    a bounded fn, k ln 2 / (0.75 a^2) for x^k, inf if fn is not finite."""
    xs, v = _growth_sample(fn, varcurve, reach)
    if not np.all(np.isfinite(v)):
        return np.inf
    core = np.abs(xs) <= 0.5 * xs[-1]
    with np.errstate(divide="ignore"):
        lam = np.log(np.max(v[:, ~core], axis=1)
                     / np.maximum(np.max(v[:, core], axis=1), 1.0))
    return float(np.max(lam)) / (0.75 * xs[-1] ** 2)


def require_growth(fn, varcurve, name, per_var=4, reach=0.0):
    """GrowthViolationError unless fn is finite on its box and its
    ``growth_rate`` stays below (per_var Var(N_T))^-1."""
    rate = growth_rate(fn, varcurve, reach)
    if rate == np.inf:
        xs, v = _growth_sample(fn, varcurve, reach)
        x = xs[np.any(~np.isfinite(v), axis=0)][0]
        raise GrowthViolationError(f"{name} is not finite at x = {x:.6g}")
    bound = 1.0 / (per_var * float(varcurve.var[-1]))
    if rate >= bound:
        raise GrowthViolationError(f"{name} grows like exp({rate:.3g} x^2) >= "
                                   f"({per_var} Var(N_T))^-1 = {bound:.3g}")


@dataclass(frozen=True)
class TerminalCondition:
    g_fn: Callable
    label: str = "g"

    def __call__(self, x):
        return np.asarray(self.g_fn(np.asarray(x, dtype=float)), dtype=float)

    def check_growth(self, varcurve):
        """g's Gaussian growth below the heat flow's (4 Var(N_T))^-1."""
        require_growth(self, varcurve, "g")


@dataclass(frozen=True)
class Driver:
    """BSDE generator f(t, x, y, z), Lipschitz in (y, z) on working boxes."""

    f_fn: Callable
    lipschitz_yz: float
    label: str = "f"

    def __post_init__(self):
        if not (np.isfinite(self.lipschitz_yz) and self.lipschitz_yz >= 0):
            raise DomainError("driver Lipschitz budget must be finite and >= 0, "
                              f"got {self.lipschitz_yz}")

    def __call__(self, t, x, y, z):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return np.asarray(self.f_fn(t, x, y, z), dtype=float)

    def lipschitz_estimate(self, t_range, x_range, y_range, z_range):
        """Sampled two-sided difference quotients in y and z (5^4 points)."""
        ts = np.linspace(*t_range, 5)
        xs = np.linspace(*x_range, 5)
        ys = np.linspace(*y_range, 5)
        zs = np.linspace(*z_range, 5)
        T, X, Y, Z = np.meshgrid(ts, xs, ys, zs, indexing="ij")
        hy = max(1e-6, 1e-6 * (abs(y_range[0]) + abs(y_range[1])))
        hz = max(1e-6, 1e-6 * (abs(z_range[0]) + abs(z_range[1])))
        dy = (self(T, X, Y + hy, Z) - self(T, X, Y - hy, Z)) / (2 * hy)
        dz = (self(T, X, Y, Z + hz) - self(T, X, Y, Z - hz)) / (2 * hz)
        return float(max(np.max(np.abs(dy)), np.max(np.abs(dz))))


ZERO_DRIVER = Driver(f_fn=lambda t, x, y, z: np.zeros(np.broadcast(t, x, y, z).shape),
                     lipschitz_yz=0.0, label="0")


@dataclass
class PdeSolution:
    """u and u_x on the (t, x) grid, with solver provenance."""

    tgrid: np.ndarray
    xgrid: np.ndarray
    u: np.ndarray
    ux: np.ndarray
    method: str
    iterations: int
    residual: float
    change_history: list = field(default_factory=list)
    # the f == 0 solution the mild solver started from (solve_linear)
    linear: PdeSolution | None = field(default=None, repr=False)


# -- heat convolution ---------------------------------------------------------


def _uniform_spacing(xgrid):
    dx = np.diff(xgrid)
    if dx.size == 0 or np.any(dx <= 0):
        raise DomainError("x grid must be strictly increasing")
    if np.max(dx) - np.min(dx) > 1e-9 * np.max(dx):
        raise DomainError("x grid must be uniform")
    return float(np.mean(dx))


def _fft_size(m):
    """The smallest 5-smooth length >= 2m - 3, a function of the grid alone.

    A circular convolution of this length gives grid value i the kernel at
    every offset i - j, j = 1 .. m-2, plus images n - m + 2 knots or more
    away, which the wrap check of :func:`_apply_spectrum` keeps below
    round-off.  A row's spectrum thus never depends on the batch it is
    built in, and every heat step is the one lattice semigroup: affine
    rows are fixed exactly, x^2 maps to x^2 + v and S_a S_b = S_{a+b}, so
    the O(dx^2) spatial error is paid once, not once per step.
    """
    n = 2 * m - 3
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _duhamel_spectra(variances, dx, m):
    """rfft of half the Duhamel kernel W_v, one row per (positive) variance.

    W_v = int_0^v G_s ds, G_s the kernel of exp((s/2) D2) on the knot
    lattice, has the spectrum (1 - exp(-2 a sin^2(theta/2))) /
    (2 sin^2(theta/2)) in units where D2 h is ``np.diff(h, 2)``; a = v/dx^2
    and theta = 2 pi k / n.  Its value at theta = 0 is a.
    """
    a = np.asarray(variances, dtype=float)[..., None] / dx**2
    n = _fft_size(m)
    s2 = np.sin(np.pi / n * np.arange(n // 2 + 1)) ** 2
    s2[0] = 1.0
    spectra = np.expm1(-2.0 * a * s2) / (-4.0 * s2)
    spectra[..., 0] = 0.5 * a[..., 0]
    return spectra


def _apply_spectrum(h, spectrum):
    """h plus its second differences convolved with a Duhamel spectrum.

    h is a row or a stack of rows and spectrum one row or a stack of rows
    from :func:`_duhamel_spectra`; the two broadcast against each other.
    """
    d2 = np.diff(h, 2, axis=-1)  # at the interior knots j = 1 .. m-2
    # a row affine up to the round-off of its values is fixed exactly, and
    # at any variance: an affine g on a narrow grid is no wrap-around
    if np.all(np.abs(d2) <= 8.0 * _EPS * np.max(np.abs(h))):
        return h.copy()
    m = h.shape[-1]
    n = _fft_size(m)
    # 12 standard deviations of the step must stay inside the wrap
    # distance: 144 a <= (n - m + 2)^2 knots^2, a = v/dx^2 = 2 spectrum[0]
    if 288.0 * np.max(spectrum[..., 0]) > (n - m + 2) ** 2:
        raise DomainError("variance too large for the x grid: the heat step "
                          "would wrap around")
    conv = irfft(rfft(d2, n, axis=-1) * spectrum, n, axis=-1)
    # d2 starts at knot 1, so conv[p] is knot p + 1; knot 0 wraps to the end
    return h + np.roll(conv, 1, axis=-1)[..., :m]


def heat_convolve(h, v, xgrid):
    """The heat semigroup of the knot lattice applied to a grid row.

    h is read as its linear extension beyond the grid, and the result is
    S_v h = exp((v/2) D2) h with D2 the 3-point second difference, in
    closed form:  S_v h = h + 1/2 sum_j (D2 h)_j W_v(x - x_j), W_v the
    Duhamel kernel of :func:`_duhamel_spectra`.  Affine rows are fixed
    exactly, x^2 maps to x^2 + v, and S_a S_b = S_{a+b}, so the O(dx^2)
    spatial error is paid once, not once per step.  Exact for every
    v >= 0, including v far below dx^2; a v whose 12 standard deviations
    reach the convolution's wrap-around distance raises DomainError.
    """
    h = np.asarray(h, dtype=float)
    xgrid = np.asarray(xgrid, dtype=float)
    if v < 0:
        raise DomainError(f"variance increment must be nonnegative, got {v}")
    if v == 0.0:
        return h.copy()
    dx = _uniform_spacing(xgrid)
    return _apply_spectrum(h, _duhamel_spectra(v, dx, xgrid.size))


def _gradient_stencil(xgrid):
    """Spatial gradient on the uniform ``xgrid``, coefficients built once.

    Returns a function of a row or a stack of rows: central differences
    inside, second-order one-sided differences at the edges, all with the
    one spacing h = :func:`_uniform_spacing` that the solvers use.  It
    repeats the arithmetic of ``np.gradient(., h, axis=-1, edge_order=2)``
    bit for bit, without that call's per-call setup.
    """
    h = _uniform_spacing(xgrid)
    two_h = 2.0 * h
    lo = (-1.5 / h, 2.0 / h, -0.5 / h)
    hi = (0.5 / h, -2.0 / h, 1.5 / h)

    def grad(f):
        out = np.empty_like(f)
        out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / two_h
        out[..., 0] = lo[0] * f[..., 0] + lo[1] * f[..., 1] + lo[2] * f[..., 2]
        out[..., -1] = hi[0] * f[..., -3] + hi[1] * f[..., -2] + hi[2] * f[..., -1]
        return out

    return grad


def _tridiagonal_toeplitz_solver(n):
    """Solver of the n x n system tridiag(-a, 1 + 2a, -a) x = b, any a >= 0.

    The matrix is the Dirichlet second difference, so the DST-I sine modes
    diagonalize it, with eigenvalues 1 + 4a sin^2(pi k / (2(n + 1))),
    k = 1 .. n, and DST-I is its own inverse up to the factor 2 / (n + 1).
    Each DST-I is minus the imaginary part of one real FFT of length
    2(n + 1) of the vector behind a leading zero.  Returns ``solve(a, b)``.
    """
    sin2 = 4.0 * np.sin(0.5 * np.pi * np.arange(1, n + 1) / (n + 1)) ** 2
    padded = np.zeros(2 * (n + 1))

    def dst(v):
        padded[1 : n + 1] = v
        return -rfft(padded)[1 : n + 1].imag

    def solve(a, b):
        return dst(dst(b) * ((2.0 / (n + 1)) / (1.0 + a * sin2)))

    return solve


# -- solvers ------------------------------------------------------------------


def _prepare_grids(varcurve, tgrid, xgrid):
    tgrid = np.asarray(tgrid, dtype=float)
    xgrid = np.asarray(xgrid, dtype=float)
    if tgrid.ndim != 1 or tgrid.size < 2 or np.any(np.diff(tgrid) <= 0):
        raise DomainError("t grid must be strictly increasing with >= 2 points")
    if tgrid[-1] > varcurve.T + 1e-12:
        raise DomainError("t grid extends beyond the variance curve")
    dx = _uniform_spacing(xgrid)
    V = np.asarray(varcurve.var_at(tgrid), dtype=float)
    dV = np.maximum(np.diff(V), 0.0)
    return tgrid, xgrid, dx, V, dV


def solve_linear(g, varcurve, tgrid, xgrid):
    """u(t, x) = P_{Var(T) - Var(t)} g(x): the f == 0 solution."""
    tgrid, xgrid, dx, V, _ = _prepare_grids(varcurve, tgrid, xgrid)
    g.check_growth(varcurve)
    g_row = g(xgrid)
    remaining = V[-1] - V[:-1]
    if np.any(remaining < 0):
        raise DomainError("variance curve decreases on the t grid")
    u = np.empty((tgrid.size, xgrid.size))
    u[:] = g_row
    pos = remaining > 0
    if np.any(pos):
        u[:-1][pos] = _apply_spectrum(
            g_row, _duhamel_spectra(remaining[pos], dx, xgrid.size))
    return PdeSolution(
        tgrid=tgrid, xgrid=xgrid, u=u, ux=_gradient_stencil(xgrid)(u),
        method="linear", iterations=1, residual=0.0,
    )


def _driver_precheck(f, sigma, tgrid, xgrid, lin):
    """f's Lipschitz estimate against its budget on the working box."""
    u_lo, u_hi = float(np.min(lin.u)), float(np.max(lin.u))
    pad = 1.0 + 0.5 * (u_hi - u_lo)
    z = -sigma(tgrid)[:, None] * lin.ux
    z_lo, z_hi = float(np.min(z)), float(np.max(z))
    est = f.lipschitz_estimate((float(tgrid[0]), float(tgrid[-1])),
                               (float(xgrid[0]), float(xgrid[-1])),
                               (u_lo - pad, u_hi + pad), (z_lo - pad, z_hi + pad))
    if est > f.lipschitz_yz * (1.0 + 1e-6) + 1e-12:
        raise PreconditionError(f"driver Lipschitz estimate {est:.4g} exceeds budget "
                                f"{f.lipschitz_yz:g} on the working box")


def solve_semilinear_picard(f, g, varcurve, tgrid, xgrid, sigma, tol=1e-9,
                            max_iter=60):
    """The mild form solved by one backward march.

    The mild form  u(t_i) = P_{V_T - V_i} g + int_{t_i}^T
    P_{V_s - V_i} f(s, ., u, -sigma u_x) ds,  with the time integral by the
    trapezoid rule and the semigroup accumulated backward one step at a
    time, reads  u_i = P_{V_T - V_i} g + I_i  with

        I_i = P_{dV_i}(I_{i+1} + dt_i/2 w_{i+1}) + dt_i/2 w_i,
        w_i = f(t_i, x, u_i, -sigma_i d_x u_i).

    Row i depends on itself only through dt_i/2 w_i.  So from i = nt-2
    down to 0 the march applies the step's cached spectrum once to form
    base_i = P_{V_T - V_i} g + P_{dV_i}(I_{i+1} + dt_i/2 w_{i+1}), then
    iterates  u_i <- base_i + dt_i/2 w_i  from base_i + dt_i/2 w_{i+1}
    until the sup-norm change drops to ``tol``; the map contracts with
    factor dt_i L / 2, L the Lipschitz constant of u_i -> w_i.  This is an
    implicit-in-Y backward step on the exact heat semigroup.  ``max_iter``
    bounds each step's local iterations; a step that exceeds it raises
    ConvergenceError naming the step, with its local change history.  On
    the solution, ``iterations`` is the largest local iteration count,
    ``residual`` the largest final local change and ``change_history[i]``
    step i's final local change.
    """
    if tol <= 0:
        raise DomainError("picard tolerance must be positive")
    if max_iter < 1:
        raise DomainError("picard max_iter must be >= 1")
    lin = solve_linear(g, varcurve, tgrid, xgrid)
    tgrid, xgrid, dx, _, dV = _prepare_grids(varcurve, tgrid, xgrid)
    _driver_precheck(f, sigma, tgrid, xgrid, lin)
    nt = tgrid.size
    dt = np.diff(tgrid)
    sig = sigma(tgrid)
    grad = _gradient_stencil(xgrid)
    # the rows of flat steps (dV == 0) are placeholders and never applied
    spectra = _duhamel_spectra(np.where(dV > 0, dV, 1.0), dx, xgrid.size)
    u = np.empty_like(lin.u)
    u[-1] = lin.u[-1]
    w = f(tgrid[-1], xgrid, u[-1], -sig[-1] * grad(u[-1]))
    integral = np.zeros(xgrid.size)
    history = [0.0] * (nt - 1)
    iterations = 1
    for i in range(nt - 2, -1, -1):
        half_dt = 0.5 * dt[i]
        carried = integral + half_dt * w
        if dV[i] > 0:
            carried = _apply_spectrum(carried, spectra[i])
        base = lin.u[i] + carried
        row = base + half_dt * w
        local = []
        while True:
            w = f(tgrid[i], xgrid, row, -sig[i] * grad(row))
            new = base + half_dt * w
            local.append(float(np.max(np.abs(new - row))))
            row = new
            if local[-1] <= tol:
                break
            if len(local) == max_iter:
                raise ConvergenceError(
                    f"picard step {i} (t = {tgrid[i]:.6g}) still changing by "
                    f"{local[-1]:.3e} after {max_iter} local iterations",
                    history=local,
                )
        u[i] = row
        integral = carried + half_dt * w
        history[i] = local[-1]
        iterations = max(iterations, len(local))
    return PdeSolution(
        tgrid=tgrid, xgrid=xgrid, u=u, ux=grad(u), method="picard_mild",
        iterations=iterations, residual=max(history), change_history=history,
        linear=lin,
    )


def solve_semilinear_fd(f, lin, varcurve, sigma):
    """Backward Euler with the nonlinearity lagged one time level.

    ``lin`` is the f == 0 solution (:func:`solve_linear`, or the ``linear``
    of a mild solution); the scheme runs on its grids from its terminal
    row.  Diffusion uses the exact variance increment of each step, so the
    linear part is integrated exactly in time.  Far-field Dirichlet values
    come from the linear solution plus an explicit source-correction ODE,
    which keeps y-dependent drivers accurate at the boundary.  A step that
    grows the sup-norm more than tenfold raises InstabilityError.
    """
    if lin.method != "linear":
        raise DomainError(
            f"the FD scheme starts from a linear solution, got {lin.method!r}")
    tgrid, xgrid, dx, _, dV = _prepare_grids(varcurve, lin.tgrid, lin.xgrid)
    _driver_precheck(f, sigma, tgrid, xgrid, lin)
    nt, nx = tgrid.size, xgrid.size
    if nx < 3:
        raise DomainError("finite-difference scheme needs at least 3 space points")
    dt = np.diff(tgrid)
    sig_vals = sigma(tgrid)
    z_lin = -sig_vals[:, None] * lin.ux
    grad = _gradient_stencil(xgrid)
    a_steps = 0.5 * dV / dx**2
    solve_step = _tridiagonal_toeplitz_solver(nx - 2)

    u = np.empty((nt, nx))
    u[-1] = lin.u[-1]
    ends = np.array([0, nx - 1])
    corr = np.zeros(2)  # source ODE correction at the two boundary columns
    amp_limit = 10.0

    for i in range(nt - 2, -1, -1):
        a = float(a_steps[i])
        prev = u[i + 1]
        z_prev = -sig_vals[i + 1] * grad(prev)
        source = f(tgrid[i + 1], xgrid, prev, z_prev)
        rhs = (prev + dt[i] * source)[1:-1]

        corr += dt[i] * f(tgrid[i + 1], xgrid[ends], lin.u[i + 1, ends] + corr,
                          z_lin[i + 1, ends])
        left, right = lin.u[i, ends] + corr

        rhs[0] += a * left
        rhs[-1] += a * right
        interior = solve_step(a, rhs)
        row = np.concatenate(([left], interior, [right]))
        amp = np.max(np.abs(row)) / max(np.max(np.abs(prev)), 1e-30)
        if amp > amp_limit:
            raise InstabilityError(
                f"step {i} amplified the sup-norm by {amp:.2f} (> {amp_limit}); "
                f"the driver {f.label!r} is too stiff for dt = {dt[i]:.3g}"
            )
        u[i] = row

    return PdeSolution(
        tgrid=tgrid, xgrid=xgrid, u=u, ux=grad(u),
        method="backward_euler", iterations=nt - 1, residual=0.0,
    )


# -- interpolation ------------------------------------------------------------


@dataclass(frozen=True)
class InterpRows:
    """Grid functions blended in time at fixed query times (:func:`time_rows`).

    ``tables`` holds one flat (len(tq) * nx) table per grid function, row j
    the function at query time j, starting at ``offsets[j]``.  Nothing
    writes into it, so one object serves every query block at those times.
    """

    xgrid: np.ndarray
    dx: float
    offsets: np.ndarray
    tables: tuple


def time_rows(tgrid, xgrid, values, tq):
    """Blend each grid function of ``values`` (one or a tuple) in time into
    one row per query time of ``tq``; time-aligned queries read the grid
    rows exactly.  The x grid must be uniform (DomainError otherwise)."""
    tgrid = np.asarray(tgrid, dtype=float)
    xgrid = np.asarray(xgrid, dtype=float)
    dx = _uniform_spacing(xgrid)
    tq = np.atleast_1d(np.asarray(tq, dtype=float))
    it = np.clip(np.searchsorted(tgrid, tq, side="right") - 1, 0, tgrid.size - 2)
    wt = (tq - tgrid[it]) / (tgrid[it + 1] - tgrid[it])
    wt = np.clip(wt, 0.0, 1.0)[:, None]
    tables = tuple(_time_blend(np.asarray(v, dtype=float), it, wt)
                   for v in (values if isinstance(values, tuple) else (values,)))
    return InterpRows(xgrid=xgrid, dx=dx, offsets=np.arange(tq.size) * xgrid.size,
                      tables=tables)


def _time_blend(v, it, wt):
    """v[it] (1 - wt) + v[it + 1] wt, flat; a function, so that no more than
    two such arrays are live while a table is blended beside the others."""
    rows = v[it]
    rows *= 1.0 - wt
    later = v[it + 1]
    later *= wt
    rows += later
    return rows.ravel()


def interp_rows(rows, xq, out=None, work=None):
    """Interpolate every table of ``rows`` at the queries ``xq``.

    ``xq`` has shape (..., len(tq)); queries are clamped to the x grid.  A
    query's x cell comes from arithmetic on the uniform spacing, and its
    two neighbours are two flat gathers from the table.  Returns one array
    of xq's shape per table, written into the arrays of ``out`` when given.
    ``work`` is (float, intp, float) arrays of xq's shape for the cell
    weight, the flat index and a scratch, allocated when None.
    """
    xq = np.asarray(xq, dtype=float)
    if work is None:
        work = (np.empty(xq.shape), np.empty(xq.shape, dtype=np.intp),
                np.empty(xq.shape))
    wx, ix, hi = work
    # shared per-query cell and weight, built in place: s -> wx, ix -> flat
    x = rows.xgrid
    np.clip(xq, x[0], x[-1], out=wx)
    wx -= x[0]
    wx /= rows.dx
    np.copyto(ix, wx, casting="unsafe")  # truncation, as astype(np.intp)
    np.minimum(ix, x.size - 2, out=ix)
    wx -= ix
    ix += rows.offsets  # row j of the time-blended table
    if out is None:
        out = tuple(np.empty(xq.shape) for _ in rows.tables)
    # mode="clip" writes straight into out (mode="raise" buffers it); every
    # index is in range, so the clip never acts
    for table, lo in zip(rows.tables, out):
        table.take(ix, mode="clip", out=lo)
        table[1:].take(ix, mode="clip", out=hi)
        hi -= lo  # lo + wx (hi - lo), in place
        hi *= wx
        lo += hi
    return out


def bilinear_interp(tgrid, xgrid, values, tq, xq):
    """Bilinear interpolation of a (t, x) grid function at query points.

    tq is a vector of times, xq an array of shape (..., len(tq)) of spatial
    queries; spatial queries are clamped to the grid (the caller tracks the
    clip fraction).  ``values`` may be a tuple of grid functions, which then
    share one index and weight computation and come back as a tuple.

    The x grid must be uniform (DomainError otherwise), as every
    ``PdeSolution`` grid is.  This is :func:`interp_rows` of
    :func:`time_rows`: each grid function is first blended in time into
    one row per query time, then each query reads its x cell's two
    neighbours from that row.
    """
    got = interp_rows(time_rows(tgrid, xgrid, values, tq), xq)
    return got if isinstance(values, tuple) else got[0]


def default_halfwidth(varcurve):
    """Spatial truncation: 8 Gaussian widths of N_T plus a payoff radius of 2."""
    return float(8.0 * np.sqrt(varcurve.var[-1]) + 2.0)
