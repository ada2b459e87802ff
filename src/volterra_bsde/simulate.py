"""Monte Carlo paths of (W, X, N) and expectation-form verification checks.

Wiener integrals are discretized with left-point increments and midpoint
kernel evaluation: the kernel weight tables hold K(t_i, s_j*) and
(K*_{t_i} sigma)_{s_j*} at panel midpoints s_j*, which keeps the zero
diagonal of K out of the sums and roughly halves the discretization bias.

Randomness comes from counter-based Philox streams keyed by
(seed, stream id, block index), one key per block of ``PATH_BLOCK`` paths,
so ensembles are bit-reproducible under any scheduling of the blocks: a
draw names its first block (``first_block``) and holds the paths from
there on.  ``PATH_BLOCK`` is part of the random-number contract: changing
it changes every stochastic artifact, and ``PATH_BLOCK = 1`` is the
earlier one key per path.  NumPy promises no stream stability of
``Generator.standard_normal`` across its versions, so the manifest names
the numpy version that drew the paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .errors import DomainError, ResourceBudgetError
from .operators import Volatility, covariance_R, kstar_apply_batch
from .pde import require_growth
from .quadrature import gauss_hermite_expectation, _gauss01
from .reporting import Report

MEMORY_BUDGET_ENTRIES = 2**26
TAIL_BLOCK_ENTRIES = 2**20  # Gauss nodes per block of kstar_midpoint_table tails
# Philox stream ids (the counter's high word), one per consumer of a seed
ENSEMBLE_STREAM = 0  # the (W, X, N) ensemble
BROWNIAN_STREAM = 1  # the Brownian-side refinement study of the bsde layer
# paths per Philox key: path p is row p mod PATH_BLOCK of block
# p // PATH_BLOCK's draw; the refinement study runs its paths in these blocks
PATH_BLOCK = 256
# fewest paths whose empirical covariance validate_covariance judges
COVARIANCE_MIN_PATHS = 1000


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing simulation times t_0 < ... < t_n = T."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 3:
            raise DomainError("time grid needs at least 3 points (n_steps >= 2)")
        if np.any(np.diff(pts) <= 0) or pts[0] < 0:
            raise DomainError("time grid must be strictly increasing and nonnegative")

    @staticmethod
    def uniform(t0, T, n_steps):
        return TimeGrid(np.linspace(t0, T, n_steps + 1))

    @property
    def t0(self):
        return float(self.points[0])

    @property
    def T(self):
        return float(self.points[-1])

    @property
    def n_steps(self):
        return self.points.size - 1

    @property
    def dt(self):
        return np.diff(self.points)

    @property
    def midpoints(self):
        return 0.5 * (self.points[:-1] + self.points[1:])


@dataclass
class PathEnsemble:
    """Simulated dW increments and the induced X, N paths on one grid.

    For unit volatility N and X are one array (N = X); nothing writes into
    either, so they are not copied.
    """

    grid: TimeGrid
    n_paths: int
    dW: np.ndarray  # (n_paths, n_steps)
    X: np.ndarray   # (n_paths, n_steps + 1)
    N: np.ndarray   # (n_paths, n_steps + 1)
    seed: int


def _normal_increments(seed, n_paths, dt, stream=ENSEMBLE_STREAM, first_block=0,
                       out=None):
    """Philox streams keyed by (seed, stream, block); variance dt per column.

    The seed enters the 64-bit key word modulo 2**64, the block index the
    other key word, and the stream id the counter's high word, so the
    consumers of one seed draw disjoint streams without seed arithmetic.
    Path p is row p mod B of what a fresh ``Generator(Philox(key=[seed mod
    2**64, p // B], counter=[0, 0, 0, stream])).standard_normal((B,
    len(dt)))`` draws, B = ``PATH_BLOCK``, times sqrt(dt) per column.  A
    block fills row by row, so a partial block is the prefix of the full
    block's draw: rows do not depend on ``n_paths``.  Row r is path
    ``first_block * B + r``, so draws block after block are the rows of
    one draw of every path.  B is part of the contract (changing it
    changes every stochastic artifact); B = 1 is the earlier one key per
    path.  NumPy gives no cross-version guarantee for these streams.

    One generator is re-keyed per block instead: setting the key word, the
    counter and an empty output buffer is the whole state of a fresh
    Philox, and building one costs a ``SeedSequence`` (which reads OS
    entropy it never uses) and a ``Generator`` each time.  Each block is one
    ``standard_normal`` call.  The rows are written into ``out`` when it is
    given, a C-contiguous (n_paths, len(dt)) array, so a caller that draws
    block after block can reuse one buffer.
    """
    n_steps = dt.size
    if out is None:
        out = np.empty((n_paths, n_steps))
    elif out.shape != (n_paths, n_steps) or not out.flags.c_contiguous:
        raise DomainError(f"out must be a C-contiguous ({n_paths}, {n_steps}) "
                          f"array, got shape {out.shape}")
    bitgen = np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for row in range(0, n_paths, PATH_BLOCK):
        state["state"]["key"][1] = first_block + row // PATH_BLOCK
        state["state"]["counter"][:] = (0, 0, 0, stream)
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        bitgen.state = state
        gen.standard_normal(out=out[row:row + PATH_BLOCK])
    out *= np.sqrt(dt)[None, :]
    return out


def kstar_midpoint_table(kernel, sigma, grid):
    """Lower-triangular table L[i, j] = (K*_{t_i} sigma)_{s_j*}, j < i.

    Column j accumulates one singular head integral over [s_j*, t_{j+1}]
    plus smooth Gauss panels over the later steps.  The head integrals are
    one vectorized sweep; the tails run over blocks of columns holding at
    most ``TAIL_BLOCK_ENTRIES`` Gauss nodes, so their temporaries stay
    bounded whatever n is.
    """
    pts = grid.points
    mids = grid.midpoints
    n = grid.n_steps
    table = np.zeros((n + 1, n))

    # singular head: (K*_{t_{j+1}} sigma) at the midpoint s_j*
    head = kstar_apply_batch(kernel, sigma, pts[1:], mids)
    table[np.arange(1, n + 1), np.arange(n)] = head

    # smooth tails: 16-point Gauss on every later step k > j of column j
    x01, w01 = _gauss01(16)
    rows = max(1, TAIL_BLOCK_ENTRIES // (x01.size * n))
    for j0 in range(0, n - 1, rows):
        j1 = min(j0 + rows, n - 1)
        jj, kk = np.nonzero(np.arange(n)[None, :] > np.arange(j0, j1)[:, None])
        jj += j0
        lo = pts[kk][:, None]
        width = (pts[kk + 1] - pts[kk])[:, None]
        nodes = lo + width * x01[None, :]
        gaps = nodes - mids[jj][:, None]
        vals = sigma(nodes) * kernels.dt_gap_t(kernel, mids[jj][:, None], gaps)
        segments = np.zeros((j1 - j0, n))
        segments[jj - j0, kk] = np.sum(vals * (width * w01[None, :]), axis=1)
        cums = np.cumsum(segments, axis=1)
        for j in range(j0, j1):
            table[j + 2:, j] = head[j] + cums[j - j0, j + 1:]
    return table


def check_path_budget(n_paths, n):
    """Raise ResourceBudgetError when ``sample_paths`` of ``n_paths`` paths
    over ``n`` steps would hold more than ``MEMORY_BUDGET_ENTRIES`` entries,
    read at call time: the path array, one kernel table and one block of
    its tail nodes."""
    entries = n_paths * (n + 1) + (n + 1) * n + TAIL_BLOCK_ENTRIES
    if entries > MEMORY_BUDGET_ENTRIES:
        raise ResourceBudgetError(
            f"{n_paths} paths x {n} steps need {entries} entries, over the "
            f"memory budget of {MEMORY_BUDGET_ENTRIES}"
        )


def sample_paths(kernel, sigma, grid, n_paths, seed):
    """Simulate W increments and build X, N via the midpoint kernel tables."""
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    check_path_budget(n_paths, grid.n_steps)
    if grid.T > kernel.T + 1e-12:
        raise DomainError("time grid exceeds the kernel horizon")
    dW = _normal_increments(int(seed), int(n_paths), grid.dt)
    n_table = kstar_midpoint_table(kernel, sigma, grid)
    constant_unit_sigma = sigma.value == 1.0
    if constant_unit_sigma:
        x_table = n_table
    else:
        x_table = kstar_midpoint_table(kernel, Volatility.constant(1.0), grid)
    X = dW @ x_table.T
    N = X if constant_unit_sigma else dW @ n_table.T
    return PathEnsemble(grid=grid, n_paths=int(n_paths), dW=dW, X=X, N=N,
                        seed=int(seed))


# -- statistical validation ---------------------------------------------------


def validate_covariance(ensemble, kernel, covariance_fn=None):
    """Empirical Cov(X_t, X_s) against the kernel's R on an 8-point time lattice.

    The tolerance is 3 * stderr plus a discretization allowance for the
    midpoint-rule bias of the Wiener-integral tables, with two terms:

    * near-diagonal: dt**min(2, 2H) * max_t R(t, t) - the kernel behaves
      like (t-s)**(H-1/2) at its own diagonal;
    * s = 0 edge (fBm only): the kernel blows up like s**(1/2-H) there, so
      the midpoint rule under-integrates the first panels by
      ~ c(t) c(s) dt**(2-2H) with c(t) = c_H t**(2H-1)/(2H-1).

    Both terms are recorded in the report details.
    """
    if ensemble.n_paths < COVARIANCE_MIN_PATHS:
        raise DomainError(
            f"covariance validation needs >= {COVARIANCE_MIN_PATHS} paths")
    cov_fn = covariance_fn or (lambda a, b: covariance_R(kernel, a, b))
    pts = ensemble.grid.points
    n = ensemble.grid.n_steps
    idx = np.unique(np.round(np.linspace(n / 8, n, 8)).astype(int))
    times = pts[idx]
    Xs = ensemble.X[:, idx]
    emp = (Xs.T @ Xs) / ensemble.n_paths
    theo = np.zeros((times.size, times.size))
    for a, b in zip(*np.triu_indices(times.size)):  # R is symmetric
        theo[a, b] = theo[b, a] = cov_fn(float(times[a]), float(times[b]))
    dt_max = float(np.max(ensemble.grid.dt))
    h_min = float(np.min(kernel.diag_exponent(times))) + 0.5
    base = dt_max ** min(2.0, 2.0 * h_min) * float(np.max(np.diag(theo)))
    if kernel.second_arg_power() < 0.0:
        H = kernel.hurst
        edge_c = kernel.c_h * times ** (2.0 * H - 1.0) / (2.0 * H - 1.0)
        edge = np.outer(edge_c, edge_c) * dt_max ** (2.0 - 2.0 * H)
    else:
        edge = np.zeros_like(theo)
    report = Report(
        title="covariance_validation",
        details={"allowance_base": base, "allowance_edge_max": float(np.max(edge)),
                 "n_paths": ensemble.n_paths},
    )
    for a in range(times.size):
        for b in range(a, times.size):
            stderr = np.sqrt(
                (theo[a, a] * theo[b, b] + theo[a, b] ** 2) / ensemble.n_paths
            )
            report.add(
                name=f"cov({times[a]:.6g},{times[b]:.6g})",
                lhs=emp[a, b], rhs=theo[a, b], stderr=stderr,
                tol=3.0 * stderr + base + float(edge[a, b]),
            )
    return report


def moment_checks(ensemble):
    """Zero-mean / increment-variance / Gaussian moment sanity battery.

    Skewness and excess kurtosis of every per-time marginal of N must stay
    inside 4 stderr; the report carries the worst time for each statistic.
    The N columns are strongly dependent across times, so the worst of the
    family stays well inside the single-test band.
    """
    report = Report(title="moment_checks")
    n = ensemble.n_paths
    dt = ensemble.grid.dt
    # dW variance, aggregated over steps (4 sigma per invariant)
    ratio = np.var(ensemble.dW, axis=0, ddof=1) / dt
    stderr = np.sqrt(2.0 / (n - 1))
    report.add("dW_variance_ratio_worst",
               lhs=float(ratio[np.argmax(np.abs(ratio - 1.0))]), rhs=1.0,
               stderr=stderr, tol=4.0 * stderr)
    cols = ensemble.N[:, 1:]
    means = np.mean(cols, axis=0)
    stds = np.std(cols, axis=0, ddof=1)
    z = (cols - means[None, :]) / stds[None, :]
    skew = np.mean(z**3, axis=0)
    exk = np.mean(z**4, axis=0) - 3.0
    k_mean = int(np.argmax(np.abs(means / stds)))
    report.add("N_mean_worst", lhs=float(means[k_mean]), rhs=0.0,
               stderr=float(stds[k_mean]) / np.sqrt(n),
               tol=4.0 * float(stds[k_mean]) / np.sqrt(n))
    k_s = int(np.argmax(np.abs(skew)))
    report.add(f"N_skewness_worst@t={ensemble.grid.points[1 + k_s]:.4g}",
               lhs=float(skew[k_s]), rhs=0.0, stderr=np.sqrt(6.0 / n),
               tol=4.0 * np.sqrt(6.0 / n))
    k_k = int(np.argmax(np.abs(exk)))
    report.add(f"N_excess_kurtosis_worst@t={ensemble.grid.points[1 + k_k]:.4g}",
               lhs=float(exk[k_k]), rhs=0.0, stderr=np.sqrt(24.0 / n),
               tol=4.0 * np.sqrt(24.0 / n))
    return report


# -- expectation-form identities ----------------------------------------------


@dataclass(frozen=True)
class C12Function:
    """A C^{1,2} test function with the derivative evaluators supplied."""

    f: Callable
    df_dt: Callable
    d2f_dx2: Callable
    label: str = "F"


def _grid_index(grid, t):
    i = int(np.argmin(np.abs(grid.points - t)))
    if abs(grid.points[i] - t) > 1e-9 * max(1.0, grid.T):
        raise DomainError(f"time {t} is not a grid point of the ensemble")
    return i


def expectation_heat_identity(ensemble, varcurve, h, s):
    """E[h(N_s)] against the Gaussian smoothing P_{Var(N_s)} h (0).

    The divergence-integral term of the underlying representation has zero
    mean, so the two sides must agree up to Monte Carlo error.  Raises
    GrowthViolationError when h is not finite on its growth box or its
    ``growth_rate`` reaches (8 Var(N_T))^-1.
    """
    i = _grid_index(ensemble.grid, s)
    v = float(varcurve.var_at(s))
    col = ensemble.N[:, i]
    require_growth(h, varcurve, "h", per_var=8, reach=float(np.max(np.abs(col))))
    vals = np.asarray(h(col), dtype=float)
    lhs = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(ensemble.n_paths))
    rhs = gauss_hermite_expectation(h, v)
    report = Report(title="heat_identity", details={"s": s, "var": v})
    report.add(name=f"E[h(N_{s:.6g})]", lhs=lhs, rhs=rhs, stderr=stderr,
               tol=3.0 * stderr + 1e-12)
    return report


def ito_expectation_check(ensemble, varcurve, F, t):
    """Expectation form of the change-of-variable formula at time t.

    Per path:  F(t, N_t) - F(0,0) - int_0^t F_t ds - 1/2 int_0^t F_xx dVar,
    with both time integrals discretized by the trapezoid rule on the
    ensemble grid.  The pathwise mean must vanish within 3 stderr plus an
    O(dt) discretization allowance (recorded in the report details).
    """
    i = _grid_index(ensemble.grid, t)
    pts = ensemble.grid.points[: i + 1]
    N = ensemble.N[:, : i + 1]
    V = np.asarray(varcurve.var_at(pts))
    rate = np.asarray(varcurve.rate_at(pts))

    ft_vals = F.df_dt(pts[None, :], N)
    fxx_vals = F.d2f_dx2(pts[None, :], N)
    f_end = F.f(t, N[:, -1])

    # F and its derivatives grow slower than exp(x^2 / (4 Var(N_T)))
    require_growth(lambda xs: [F.f(t, xs) + 0.0 * xs, F.df_dt(t, xs) + 0.0 * xs,
                               F.d2f_dx2(t, xs) + 0.0 * xs],
                   varcurve, "F", reach=float(np.max(np.abs(N))))

    dt = np.diff(pts)
    dV = np.diff(V)
    time_int = np.sum(0.5 * (ft_vals[:, :-1] + ft_vals[:, 1:]) * dt[None, :], axis=1)
    var_int = np.sum(0.5 * (fxx_vals[:, :-1] + fxx_vals[:, 1:]) * dV[None, :], axis=1)
    defect = f_end - float(F.f(0.0, 0.0)) - time_int - 0.5 * var_int

    mean = float(np.mean(defect))
    stderr = float(np.std(defect, ddof=1) / np.sqrt(ensemble.n_paths))
    scale = float(np.mean(np.abs(ft_vals)) + np.mean(np.abs(fxx_vals)) * np.max(rate))
    allowance = float(np.max(dt)) * max(scale, 1.0)
    report = Report(
        title="ito_expectation",
        details={"t": t, "allowance": allowance, "F": F.label},
    )
    report.add(name=f"ito_defect[{F.label}]@{t:.6g}", lhs=mean, rhs=0.0,
               stderr=stderr, tol=3.0 * stderr + allowance)
    return report
