"""(Y, Z) construction from the PDE, verification and diagnostics.

Y_t = u(t, N_t) and Z_t = -sigma_t u_x(t, N_t) are read off the PDE
solution along simulated paths.  The equation itself is verified through
its Brownian-side reduction: zeta_t = int rho dW has the same
one-dimensional marginals as N, and (u(t, zeta_t), rho_t u_x(t, zeta_t))
solves a classical BSDE, driven with z = -sigma_t u_x(t, zeta_t), whose
Euler defect is measurable path by path.  A run takes the
:class:`BrownianSideLevel` of its time grid, built by
``brownian_side_level(sol, varcurve, sigma, grid)``, and the normals of
``brownian_increments``.  The refinement study measures the defect on
dyadic time grids: it builds each level once per study and runs the paths
in blocks of ``simulate.PATH_BLOCK`` = 256, the paths of one Philox key,
drawn by block index into buffers reused by every block.  That block size
is part of the random-number contract (see ``simulate``): changing it
changes every residual, and 1 is the earlier one key per path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import simulate
from .errors import DomainError, PreconditionError, ResourceBudgetError
from .pde import (InterpRows, bilinear_interp, interp_rows,
                  solve_semilinear_picard, time_rows)
from .reporting import Report
from .simulate import (BROWNIAN_STREAM, TimeGrid, _grid_index,
                       _normal_increments)

# (block, finest steps + 1) arrays live at once in a block: the finest
# draw, half of one for the coarse pair sums, brownian_side_verify's six
# work arrays, and the driver's output with its temporaries (tracemalloc
# reads 8.7 for a numpy or a compiled `-y` and 10.5 for `-y + 0.5*sin(z)`,
# on 321 x points)
STUDY_LIVE_ARRAYS = 11
CLIP_FRACTION_LIMIT = 1e-3
COMPARISON_SLACK = 1e-8
ATOM_THRESHOLD_PATHS = 5.0


@dataclass
class BsdeSolution:
    """Per-path (Y, Z) read off a PDE solution along an ensemble."""

    Y: np.ndarray
    Z: np.ndarray
    clip_fraction: float


def build_yz(sol, ensemble, sigma, terminal=None, n_rows=None):
    """Evaluate Y = u(t, N_t), Z = -sigma_t u_x(t, N_t) by bilinear interpolation.

    Path points outside the PDE box are clipped; if more than 0.1% of them
    escape, the spatial domain was too small and a domain error is raised.
    The clip fraction counts every path; (Y, Z) covers the first ``n_rows``
    paths (all of them when None).  When ``terminal`` is supplied, the last
    column of Y is overwritten with g(N_T) evaluated exactly.
    """
    times = ensemble.grid.points
    if times[0] < sol.tgrid[0] - 1e-9 or times[-1] > sol.tgrid[-1] + 1e-9:
        raise DomainError("ensemble grid extends beyond the PDE time grid")
    N = ensemble.N
    outside = (N < sol.xgrid[0]) | (N > sol.xgrid[-1])
    clip_fraction = float(np.mean(outside))
    if clip_fraction > CLIP_FRACTION_LIMIT:
        raise DomainError(
            f"{100 * clip_fraction:.3f}% of path points leave the PDE box "
            f"[{sol.xgrid[0]:g}, {sol.xgrid[-1]:g}]"
        )
    N = N[:n_rows]
    Y, ux = bilinear_interp(sol.tgrid, sol.xgrid, (sol.u, sol.ux), times, N)
    Z = -np.asarray(sigma(times))[None, :] * ux
    if terminal is not None:
        Y[:, -1] = terminal(N[:, -1])
    return BsdeSolution(Y=Y, Z=Z, clip_fraction=clip_fraction)


# -- Brownian-side verification ------------------------------------------------


@dataclass
class BrownianSideRun:
    """zeta simulation and the Euler defect of (Ytilde, Ztilde)."""

    n_paths: int
    zeta: np.ndarray
    Ztilde: np.ndarray
    R: np.ndarray  # the Euler defect of each path
    residual_L2: float


def brownian_increments(grid, n_paths, seed, first_block=0, out=None):
    """Normals for ``brownian_side_verify`` on ``grid``, one row per path.

    Column 0 is N(0, 1) and starts zeta; column k + 1 is the Brownian
    increment over step k, with variance dt_k.  Drawn from the Brownian-side
    stream of ``seed`` (``simulate.BROWNIAN_STREAM``), disjoint from the
    ensemble's stream of the same seed, one Philox key per block of
    ``simulate.PATH_BLOCK`` paths (so the draws depend on that block size;
    numpy gives no cross-version guarantee for them).  Rows are the paths
    of that stream from block ``first_block`` onwards, written into ``out``
    when it is given.
    """
    return _normal_increments(int(seed), int(n_paths),
                              np.concatenate(([1.0], grid.dt)),
                              stream=BROWNIAN_STREAM,
                              first_block=int(first_block), out=out)


@dataclass
class BrownianSideLevel:
    """What a Brownian-side run on one time grid needs besides its normals.

    None of it depends on the paths, so the refinement study builds one per
    level and reuses it for every block: the rates, the zeta scales and the
    (u, u_x) rows blended at the grid's times (``pde.time_rows``).
    """

    grid: TimeGrid
    rho: np.ndarray  # sqrt(rate) at the grid points
    rho_bar: np.ndarray  # sqrt(dVar / dt) per step
    zeta0_scale: float  # sqrt(Var(N_{t0}))
    neg_sigma: np.ndarray  # -sigma at the grid points
    rows: InterpRows


def brownian_side_level(sol, varcurve, sigma, grid):
    """:class:`BrownianSideLevel` of ``grid``; PreconditionError unless the
    variance rate is positive at every grid point."""
    pts = grid.points
    rate = np.asarray(varcurve.rate_at(pts), dtype=float)
    if np.any(rate <= 0.0):
        k = int(np.argmin(rate))
        raise PreconditionError(
            f"variance rate must be positive on the grid; rate({pts[k]:.6g}) = "
            f"{rate[k]:.3e}"
        )
    rho = np.sqrt(rate)
    V = np.asarray(varcurve.var_at(pts), dtype=float)
    return BrownianSideLevel(
        grid=grid, rho=rho,
        rho_bar=np.sqrt(np.maximum(np.diff(V), 0.0) / grid.dt),
        zeta0_scale=np.sqrt(max(V[0], 0.0)),
        neg_sigma=-np.asarray(sigma(pts), dtype=float),
        rows=time_rows(sol.tgrid, sol.xgrid, (sol.u, sol.ux), pts),
    )


def block_work(size):
    """Flat arrays of ``size`` entries for one ``brownian_side_verify`` call:
    zeta, Ytilde, Ztilde, the interpolation's cell weight and flat index,
    and one scratch.  A call on fewer entries uses their leading part."""
    return tuple(np.empty(size, dtype=dtype)
                 for dtype in (float, float, float, float, np.intp, float))


def _shaped(flat, shape):
    """The leading C-contiguous ``shape`` view of a flat buffer."""
    return flat[:shape[0] * shape[1]].reshape(shape)


def brownian_side_verify(level, f, g, increments, work=None):
    """Build zeta = int rho dW from given normals and measure the BSDE defect.

    ``level`` is the :class:`BrownianSideLevel` of the run's time grid
    (``brownian_side_level``).  ``increments`` is laid out as
    ``brownian_increments`` draws it: per path a leading N(0, 1) column,
    then one Brownian increment per step of that grid.  Per path:
        R = Ytilde_{t0} - [ g(zeta_T) + sum f(t_i, zeta_i, Ytilde_i,
            -sigma_i u_x(t_i, zeta_i)) dt_i - sum Ztilde_i dW_i ],
    Ztilde_i = rho_i u_x(t_i, zeta_i), rho_i = sqrt(rate(t_i)): the driver
    takes the paper's Z = -sigma u_x straight from the interpolation.  zeta
    increments use the exact variance spacing sqrt(dVar/dt) dW so the
    marginals match Var(N_t) identically.  The run keeps R, one value per
    path; residual_L2 is its root mean square over the paths and must
    vanish under joint refinement.

    ``work`` is ``block_work`` of at least ``increments.size`` entries,
    built here when None.  The refinement study passes it, so a block sets
    up nothing; the run's zeta and Ztilde are then views of ``work``,
    overwritten by its next use.
    """
    pts = level.grid.points
    n_paths = increments.shape[0]
    if increments.shape[1] != pts.size:
        raise DomainError(f"{increments.shape[1]} increment columns for a grid "
                          f"of {level.grid.n_steps} steps (need n_steps + 1)")
    if work is None:
        work = block_work(increments.size)
    zeta, Yt, Zt, wx, ix, scratch = (_shaped(a, increments.shape) for a in work)
    # zeta integrates rho dW from time zero: over [0, t0] that contributes an
    # initial N(0, Var(N_{t0})) value, scaled from the leading normal column.
    dW = increments[:, 1:]
    np.multiply(level.zeta0_scale, increments[:, 0], out=zeta[:, 0])
    np.multiply(level.rho_bar[None, :], dW, out=zeta[:, 1:])
    np.cumsum(zeta[:, 1:], axis=1, out=zeta[:, 1:])
    zeta[:, 1:] += zeta[:, :1]

    interp_rows(level.rows, zeta, out=(Yt, Zt), work=(wx, ix, scratch))
    Yt[:, -1] = g(zeta[:, -1])  # terminal row exact on the zeta side too
    z_arg = np.multiply(level.neg_sigma[None, :], Zt, out=scratch)  # -sigma u_x
    Zt *= level.rho[None, :]  # rho_t u_x(t, zeta_t), scaled in place
    f_vals = f(pts[None, :-1], zeta[:, :-1], Yt[:, :-1], z_arg[:, :-1])
    riemann = np.sum(np.multiply(f_vals, level.grid.dt[None, :],
                                 out=scratch[:, :-1]), axis=1)
    stochastic = np.sum(np.multiply(Zt[:, :-1], dW, out=scratch[:, :-1]),
                        axis=1)
    R = Yt[:, 0] - (Yt[:, -1] + riemann - stochastic)  # Yt[:, -1] = g(zeta_T)
    residual = float(np.sqrt(np.mean(R**2)))
    return BrownianSideRun(
        n_paths=n_paths, zeta=zeta, Ztilde=Zt, R=R, residual_L2=residual)


@dataclass
class RefinementStudy:
    steps: list
    residuals: list
    slope: float  # over the nonzero residuals; nan when fewer than two
    zeta_var: float  # sample variance of zeta_T at the finest level

    @property
    def monotone(self):
        """Each residual is below the coarser one's, or exactly 0 (converged)."""
        return all(b < a or b == 0.0
                   for a, b in zip(self.residuals, self.residuals[1:]))


def study_footprint(n_paths, base_steps, n_levels, nx):
    """(paths per block, float64-sized entries held at once) of
    :func:`residual_refinement_study` on an x grid of ``nx`` points.

    The block is ``simulate.PATH_BLOCK`` paths, read at call time, or all
    of them when fewer.  It counts the reused block arrays,
    ``STUDY_LIVE_ARRAYS`` x block x (finest steps + 1); each level's
    (u, u_x) rows and eight per-time vectors, (2 nx + 8) (n_l + 1); the
    blend of the last level built, the coarsest, two more of its tables,
    2 nx (base_steps + 1); and the per-path results, (n_levels + 1) n_paths.
    """
    steps = [base_steps * 2**level for level in range(n_levels)]
    block = min(simulate.PATH_BLOCK, n_paths)
    entries = (STUDY_LIVE_ARRAYS * block * (steps[-1] + 1)
               + (2 * nx + 8) * sum(n + 1 for n in steps)
               + 2 * nx * (base_steps + 1)
               + (n_levels + 1) * n_paths)
    return block, entries


def study_block_paths(n_paths, base_steps, n_levels, nx):
    """Paths per block of :func:`residual_refinement_study`, after checking
    that its :func:`study_footprint` fits ``simulate.MEMORY_BUDGET_ENTRIES``,
    read at call time (ResourceBudgetError otherwise)."""
    block, entries = study_footprint(n_paths, base_steps, n_levels, nx)
    if entries > simulate.MEMORY_BUDGET_ENTRIES:
        finest = base_steps * 2**(n_levels - 1)
        raise ResourceBudgetError(
            f"refinement study blocks of {block} paths x {finest} finest steps "
            f"on {nx} x points need {entries} entries, over the memory budget "
            f"of {simulate.MEMORY_BUDGET_ENTRIES}"
        )
    return block


def residual_refinement_study(sol, varcurve, sigma, f, g, t0, T, n_paths, seed,
                              base_steps=64, n_levels=4):
    """residual_L2 across dyadic time refinements plus the log-log slope.

    The levels share their random numbers, the multilevel Monte Carlo
    coupling (Giles, Oper. Res. 56 (2008)): the finest level's normals are
    drawn once, each coarser level's increments are the dyadic pair sums
    of the level above, and the leading column that starts zeta is common
    to all.  Each level's :class:`BrownianSideLevel` (rates, scales and
    the (u, u_x) rows at its times) is built once per study.  The paths
    then run in blocks of ``simulate.PATH_BLOCK``, one Philox key each: a
    block's finest normals are one draw of that key (its rows of the one
    full draw, which depends on the block size) and all levels
    run on it finest first, each coarser level's pair sums alternating
    between the draw's buffer and one coarse buffer.  Every block and level
    writes into the same arrays, allocated once per study; only per-path R
    and zeta_T outlive a block.  So the memory held is set by
    the block, the finest grid and the x grid (:func:`study_footprint`),
    not by n_paths; a study over ``simulate.MEMORY_BUDGET_ENTRIES`` raises
    ResourceBudgetError before anything is built.  Each residual and
    ``zeta_var`` is taken over the full per-path vectors, so the result is
    that of one whole-ensemble run with the same ``simulate.PATH_BLOCK``.
    """
    block = study_block_paths(n_paths, base_steps, n_levels, sol.xgrid.size)
    steps = [base_steps * 2**level for level in range(n_levels)]
    # finest first, so a rate that vanishes is reported on the finest grid
    levels = [brownian_side_level(sol, varcurve, sigma, TimeGrid.uniform(t0, T, n))
              for n in reversed(steps)][::-1]
    width = steps[-1] + 1
    draw = np.empty(block * width)
    coarse = np.empty(block * (steps[-1] // 2 + 1))
    work = block_work(block * width)
    R = np.empty((n_levels, n_paths))
    zeta_T = np.empty(n_paths)
    for p0 in range(0, n_paths, block):
        p1 = min(p0 + block, n_paths)
        incr = brownian_increments(levels[-1].grid, p1 - p0, seed,
                                   first_block=p0 // simulate.PATH_BLOCK,
                                   out=_shaped(draw, (p1 - p0, width)))
        spare = coarse
        for level in reversed(range(n_levels)):
            if incr.shape[1] > steps[level] + 1:
                finer = incr
                incr = _shaped(spare, (p1 - p0, steps[level] + 1))
                incr[:, 0] = finer[:, 0]
                np.add(finer[:, 1::2], finer[:, 2::2], out=incr[:, 1:])
                spare = draw if spare is coarse else coarse
            run = brownian_side_verify(levels[level], f, g, incr, work=work)
            R[level, p0:p1] = run.R
            if level == n_levels - 1:
                zeta_T[p0:p1] = run.zeta[:, -1]
    residuals = [float(np.sqrt(np.mean(r**2))) for r in R]
    dts = (T - t0) / np.asarray(steps, dtype=float)
    res = np.asarray(residuals)
    fit = res > 0.0  # an exact zero has no logarithm
    slope = (float(np.polyfit(np.log(dts[fit]), np.log(res[fit]), 1)[0])
             if np.count_nonzero(fit) >= 2 else float("nan"))
    return RefinementStudy(steps=steps, residuals=residuals, slope=slope,
                           zeta_var=float(np.var(zeta_T, ddof=1)))


# -- comparison harness --------------------------------------------------------


@dataclass
class ComparisonReport:
    min_gap_u: float
    min_gap_Y: Optional[float]
    worst_point: tuple
    passed: bool
    sol1: object = None
    sol2: object = None

    def to_report(self):
        report = Report(title="comparison", details={"worst_point": self.worst_point})
        report.add("u1_ge_u2", lhs=self.min_gap_u, rhs=0.0, stderr=0.0,
                   tol=COMPARISON_SLACK, passed=self.passed)
        if self.min_gap_Y is not None:
            report.add("Y1_ge_Y2", lhs=self.min_gap_Y, rhs=0.0, stderr=0.0,
                       tol=COMPARISON_SLACK,
                       passed=self.min_gap_Y >= -COMPARISON_SLACK)
        return report


def _check_ordered_terminal(g1, g2, xgrid):
    d = g1(xgrid) - g2(xgrid)
    if np.any(d < -1e-12):
        k = int(np.argmin(d))
        raise PreconditionError(
            f"g1 < g2 at x = {xgrid[k]:.6g} (gap {d[k]:.3e})"
        )


def _check_ordered_driver(f1, f2, tgrid, xgrid, y_range, z_range):
    ts = np.linspace(tgrid[0], tgrid[-1], 5)
    xs = np.linspace(xgrid[0], xgrid[-1], 9)
    ys = np.linspace(*y_range, 5)
    zs = np.linspace(*z_range, 5)
    T, X, Y, Z = np.meshgrid(ts, xs, ys, zs, indexing="ij")
    d = f1(T, X, Y, Z) - f2(T, X, Y, Z)
    if np.any(d < -1e-12):
        k = np.unravel_index(int(np.argmin(d)), d.shape)
        raise PreconditionError(
            f"f1 < f2 at (t,x,y,z) = ({T[k]:.4g}, {X[k]:.4g}, {Y[k]:.4g}, "
            f"{Z[k]:.4g}) (gap {float(d[k]):.3e})"
        )


def compare(problem1, problem2, varcurve, tgrid, xgrid, sigma,
            ensemble=None, tol=1e-10):
    """Solve two ordered problems and check u1 >= u2 - 1e-8 everywhere.

    ``problem*`` are (driver, terminal) pairs with f1 >= f2 and g1 >= g2
    (checked on sampled boxes; violations raise PreconditionError naming
    the point).  With an ensemble supplied, the induced Y paths are
    compared as well.
    """
    f1, g1 = problem1
    f2, g2 = problem2
    xgrid = np.asarray(xgrid, dtype=float)
    tgrid = np.asarray(tgrid, dtype=float)
    _check_ordered_terminal(g1, g2, xgrid)

    sol1 = solve_semilinear_picard(f1, g1, varcurve, tgrid, xgrid, tol=tol,
                                   sigma=sigma)
    sol2 = solve_semilinear_picard(f2, g2, varcurve, tgrid, xgrid, tol=tol,
                                   sigma=sigma)
    y_lo = float(min(np.min(sol1.u), np.min(sol2.u))) - 1.0
    y_hi = float(max(np.max(sol1.u), np.max(sol2.u))) + 1.0
    z_scale = float(max(np.max(np.abs(sol1.ux)), np.max(np.abs(sol2.ux)))) + 1.0
    z_scale *= float(sigma(tgrid).max())
    _check_ordered_driver(f1, f2, tgrid, xgrid, (y_lo, y_hi), (-z_scale, z_scale))

    gap = sol1.u - sol2.u
    k = np.unravel_index(int(np.argmin(gap)), gap.shape)
    min_gap = float(gap[k])
    worst = (float(tgrid[k[0]]), float(xgrid[k[1]]))
    min_gap_Y = None
    if ensemble is not None:
        b1 = build_yz(sol1, ensemble, sigma, terminal=g1)
        b2 = build_yz(sol2, ensemble, sigma, terminal=g2)
        min_gap_Y = float(np.min(b1.Y - b2.Y))
    return ComparisonReport(
        min_gap_u=min_gap, min_gap_Y=min_gap_Y, worst_point=worst,
        passed=min_gap >= -COMPARISON_SLACK, sol1=sol1, sol2=sol2,
    )


# -- density diagnostics ---------------------------------------------------------


@dataclass
class DensityDiagnostic:
    """Malliavin-norm square of Y_t per path plus an empirical atom detector."""

    t: float
    malliavin_sq: np.ndarray
    min_over_paths: float
    max_cdf_jump: float
    atom_threshold: float

    # a path sitting exactly on a critical point of u never happens in
    # floating point; "nonzero gradient on every path" is read as bounded
    # away from zero relative to the ensemble's scale
    GRADIENT_REL_FLOOR = 1e-6

    @property
    def gradient_hypothesis_holds(self):
        """Nonvanishing-gradient hypothesis: u_x(t, N_t) != 0 on every path."""
        scale = float(np.max(self.malliavin_sq))
        return self.min_over_paths > self.GRADIENT_REL_FLOOR * scale

    @property
    def continuity_not_rejected(self):
        return self.max_cdf_jump <= self.atom_threshold


def density_diagnostic(sol, ensemble, varcurve, t):
    """Per-path (u_x(t, N_t))^2 Var(N_t) and the largest empirical CDF jump."""
    pts = ensemble.grid.points
    if not (pts[0] < t < pts[-1]):
        raise DomainError(f"diagnostic time {t} outside the open window "
                          f"({pts[0]:g}, {pts[-1]:g})")
    i = _grid_index(ensemble.grid, t)
    v = float(varcurve.var_at(t))
    N_t = ensemble.N[:, i]
    Y_t, ux = (a[:, 0] for a in bilinear_interp(
        sol.tgrid, sol.xgrid, (sol.u, sol.ux), np.asarray([pts[i]]),
        N_t[:, None]))
    msq = ux**2 * v
    n = Y_t.size
    ys = np.sort(Y_t)
    # multiplicity of equal sorted values = size of the largest CDF jump
    boundaries = np.flatnonzero(np.diff(ys) > 0.0)
    counts = np.diff(np.concatenate(([-1], boundaries, [n - 1])))
    max_jump = float(np.max(counts)) / n
    return DensityDiagnostic(
        t=float(t), malliavin_sq=msq, min_over_paths=float(np.min(msq)),
        max_cdf_jump=max_jump,
        atom_threshold=ATOM_THRESHOLD_PATHS / n,
    )
