"""(Y, Z) construction, Brownian-side verification, comparison, density."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from volterra_bsde import bsde, pde, simulate
from volterra_bsde.errors import (DomainError, PreconditionError,
                                  ResourceBudgetError)
from volterra_bsde.expressions import compile_expression
from volterra_bsde.simulate import TimeGrid

G_X = pde.TerminalCondition(g_fn=lambda x: np.asarray(x, dtype=float), label="x")
G_X2 = pde.TerminalCondition(g_fn=lambda x: np.asarray(x, dtype=float) ** 2,
                             label="x^2")
G_ONE = pde.TerminalCondition(g_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                              label="1")
F_ZERO = pde.ZERO_DRIVER
F_MINUS_Y = pde.Driver(f_fn=lambda t, x, y, z: -np.asarray(y, dtype=float)
                       * np.ones(np.broadcast(t, x, y, z).shape),
                       lipschitz_yz=1.0, label="-y")


@pytest.fixture(scope="module")
def tgrid():
    return np.linspace(0.0, 1.0, 201)


@pytest.fixture(scope="module")
def sol_linear(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    return pde.solve_semilinear_picard(F_ZERO, G_X, varcurve_fbm, tgrid,
                                       xgrid_wide, sigma=sigma_one)


@pytest.fixture(scope="module")
def sol_decay(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    return pde.solve_semilinear_picard(F_MINUS_Y, G_ONE, varcurve_fbm, tgrid,
                                       xgrid_wide, sigma=sigma_one, tol=1e-11)


@pytest.fixture(scope="module")
def ensemble_small(kernel_fbm, sigma_one):
    return simulate.sample_paths(kernel_fbm, sigma_one,
                                 TimeGrid.uniform(0.0, 1.0, 128),
                                 n_paths=4000, seed=99)


# -- build_yz ----------------------------------------------------------------


def test_build_yz_linear_case(sol_linear, ensemble_small, sigma_one):
    built = bsde.build_yz(sol_linear, ensemble_small, sigma_one, terminal=G_X)
    np.testing.assert_allclose(built.Y, ensemble_small.N, atol=1e-12)
    np.testing.assert_allclose(built.Z, -np.ones_like(built.Z), atol=1e-10)
    assert built.clip_fraction == 0.0


def test_build_yz_terminal_exact_per_path(sol_linear, ensemble_small, sigma_one):
    built = bsde.build_yz(sol_linear, ensemble_small, sigma_one, terminal=G_X)
    np.testing.assert_array_equal(built.Y[:, -1], ensemble_small.N[:, -1])


def test_build_yz_leading_rows(sol_linear, ensemble_small, sigma_one):
    full = bsde.build_yz(sol_linear, ensemble_small, sigma_one, terminal=G_X)
    for n_rows in (0, 3):
        part = bsde.build_yz(sol_linear, ensemble_small, sigma_one, terminal=G_X,
                             n_rows=n_rows)
        assert np.array_equal(part.Y, full.Y[:n_rows])
        assert np.array_equal(part.Z, full.Z[:n_rows])
        assert part.clip_fraction == full.clip_fraction


def test_build_yz_square_moment(varcurve_fbm, tgrid, xgrid_wide, sigma_one,
                                ensemble_small):
    # E[Y_t] = Var(N_T) - Var(N_t) + E[N_t^2] = Var(N_T) for g = x^2, f = 0
    sol = pde.solve_semilinear_picard(F_ZERO, G_X2, varcurve_fbm, tgrid,
                                      xgrid_wide, sigma=sigma_one)
    built = bsde.build_yz(sol, ensemble_small, sigma_one, terminal=G_X2)
    n = ensemble_small.n_paths
    for i in (32, 64, 96):
        col = built.Y[:, i]
        stderr = float(np.std(col, ddof=1) / np.sqrt(n))
        assert abs(float(np.mean(col)) - 1.0) <= 3.0 * stderr + 2e-3


def test_build_yz_l2_integrals_finite(sol_decay, ensemble_small, sigma_one):
    built = bsde.build_yz(sol_decay, ensemble_small, sigma_one, terminal=G_ONE)
    dt = ensemble_small.grid.dt
    y2 = float(np.mean(np.sum(built.Y[:, :-1] ** 2 * dt[None, :], axis=1)))
    z2 = float(np.mean(np.sum(built.Z[:, :-1] ** 2 * dt[None, :], axis=1)))
    assert np.isfinite(y2) and np.isfinite(z2)


def test_build_yz_domain_escape(kernel_fbm, sigma_one, varcurve_fbm, tgrid):
    # a PDE box far narrower than the paths must be refused
    xg = np.linspace(-0.05, 0.05, 11)
    sol = pde.solve_linear(G_X, varcurve_fbm, tgrid, xg)
    ens = simulate.sample_paths(kernel_fbm, sigma_one,
                                TimeGrid.uniform(0.0, 1.0, 16), 200, seed=4)
    with pytest.raises(DomainError, match="PDE box"):
        bsde.build_yz(sol, ens, sigma_one)


# -- Brownian-side verification -------------------------------------------------


def test_zeta_marginals_match_variance(sol_linear, varcurve_fbm, sigma_one):
    grid = TimeGrid.uniform(0.05, 1.0, 64)
    run = bsde.brownian_side_verify(
        bsde.brownian_side_level(sol_linear, varcurve_fbm, sigma_one, grid),
        F_ZERO, G_X, bsde.brownian_increments(grid, 4000, 21))
    n = run.n_paths
    for i in (0, 16, 32, 64):
        v_theo = float(varcurve_fbm.var_at(grid.points[i]))
        v_samp = float(np.var(run.zeta[:, i], ddof=1))
        stderr = v_theo * np.sqrt(2.0 / (n - 1))
        assert abs(v_samp - v_theo) <= 3.0 * stderr + 1e-12


def test_brownian_side_decay_residual(sol_decay, varcurve_fbm, sigma_one):
    grid = TimeGrid.uniform(0.05, 1.0, 512)
    run = bsde.brownian_side_verify(
        bsde.brownian_side_level(sol_decay, varcurve_fbm, sigma_one, grid),
        F_MINUS_Y, G_ONE, bsde.brownian_increments(grid, 2000, 5))
    assert run.residual_L2 <= 1e-3
    # spatially flat solution: Ztilde vanishes identically
    assert float(np.max(np.abs(run.Ztilde))) <= 1e-8


def test_brownian_side_positivity_guard(sol_linear, sigma_one):
    # a curve whose rate vanishes at the left endpoint must be refused on
    # a grid that touches that endpoint, when the run's level is built
    from volterra_bsde.operators import VarianceCurve

    grid_pts = np.linspace(0.0, 1.0, 33)
    curve = VarianceCurve(grid=grid_pts, var=grid_pts**2, rate=2.0 * grid_pts)
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    with pytest.raises(PreconditionError, match="rate"):
        bsde.brownian_side_level(sol_linear, curve, sigma_one, grid)


def test_brownian_side_rejects_increments_of_another_grid(sol_linear,
                                                          varcurve_fbm,
                                                          sigma_one):
    grid = TimeGrid.uniform(0.05, 1.0, 8)
    other = bsde.brownian_increments(TimeGrid.uniform(0.05, 1.0, 16), 10, 1)
    level = bsde.brownian_side_level(sol_linear, varcurve_fbm, sigma_one, grid)
    with pytest.raises(DomainError, match="increment columns"):
        bsde.brownian_side_verify(level, F_ZERO, G_X, other)


def test_brownian_side_single_path_minimal_grid(sol_linear, varcurve_fbm,
                                                sigma_one):
    grid = TimeGrid.uniform(0.05, 1.0, 2)
    run = bsde.brownian_side_verify(
        bsde.brownian_side_level(sol_linear, varcurve_fbm, sigma_one, grid),
        F_ZERO, G_X, bsde.brownian_increments(grid, 1, 8))
    assert np.isfinite(run.residual_L2)


def test_refinement_monotone_for_shipped_problems(sol_linear, sol_decay,
                                                  varcurve_fbm, sigma_one):
    for sol, f, g in ((sol_linear, F_ZERO, G_X), (sol_decay, F_MINUS_Y, G_ONE)):
        study = bsde.residual_refinement_study(sol, varcurve_fbm, sigma_one,
                                               f, g, 0.05, 1.0, n_paths=2000,
                                               seed=17)
        assert study.monotone, (g.label, study.residuals)


@pytest.mark.parametrize("base_steps,n_levels", [(64, 4), (3, 3), (8, 2)])
def test_refinement_levels_share_the_finest_draw(sol_linear, varcurve_fbm,
                                                 sigma_one, base_steps,
                                                 n_levels):
    # each level is a run on the dyadic pair sums of the level above it,
    # all from one draw at the finest level; the leading column is shared
    t0, T, n_paths, seed = 0.05, 1.0, 300, 41
    study = bsde.residual_refinement_study(
        sol_linear, varcurve_fbm, sigma_one, F_ZERO, G_X, t0, T,
        n_paths=n_paths, seed=seed, base_steps=base_steps, n_levels=n_levels)
    finest = base_steps * 2**(n_levels - 1)
    incr = bsde.brownian_increments(TimeGrid.uniform(t0, T, finest), n_paths,
                                    seed)
    expected = {}
    for level in reversed(range(n_levels)):
        n = base_steps * 2**level
        grid = TimeGrid.uniform(t0, T, n)
        level = bsde.brownian_side_level(sol_linear, varcurve_fbm, sigma_one,
                                         grid)
        run = bsde.brownian_side_verify(level, F_ZERO, G_X, incr)
        expected[n] = run.residual_L2
        if n == finest:
            zeta_var = float(np.var(run.zeta[:, -1], ddof=1))
        incr = np.concatenate((incr[:, :1], incr[:, 1::2] + incr[:, 2::2]),
                              axis=1)
    assert study.steps == sorted(expected)
    assert study.residuals == [expected[n] for n in study.steps]
    assert study.zeta_var == zeta_var


@pytest.mark.parametrize("block", [1, 7, 300, 10**6])
def test_refinement_study_does_not_depend_on_the_block(
        monkeypatch, sol_linear, varcurve_fbm, sigma_one, block):
    # the blocked study against the level-by-level oracle over all 300 paths,
    # both drawn under the same block of paths per key
    monkeypatch.setattr(simulate, "PATH_BLOCK", block)
    test_refinement_levels_share_the_finest_draw(sol_linear, varcurve_fbm,
                                                 sigma_one, 64, 4)


def test_refinement_study_memory_does_not_grow_with_paths(sol_linear,
                                                          varcurve_fbm,
                                                          sigma_one):
    def peak(n_paths):
        tracemalloc.start()
        bsde.residual_refinement_study(sol_linear, varcurve_fbm, sigma_one,
                                       F_ZERO, G_X, 0.05, 1.0, n_paths=n_paths,
                                       seed=3, base_steps=8, n_levels=3)
        size = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return size

    block = simulate.PATH_BLOCK
    peak(block)  # warm-up
    assert peak(4 * block) <= 1.25 * peak(block)


@pytest.fixture(scope="module")
def liouville_study_problem(varcurve_liou, sigma_one):
    """The bsde-liouville workload's study: Liouville H = 0.75, f = -y,
    g = cos(x) (compiled as the config compiles them), u on a 257 x 321
    grid, t0 = 0.05, 64 base steps, 4 levels."""
    f = pde.Driver(f_fn=compile_expression("-y", ("t", "x", "y", "z")),
                   lipschitz_yz=1.0, label="-y")
    g = pde.TerminalCondition(g_fn=compile_expression("cos(x)", ("x",)),
                              label="cos(x)")
    half = pde.default_halfwidth(varcurve_liou)
    sol = pde.solve_semilinear_picard(f, g, varcurve_liou,
                                      np.linspace(0.0, 1.0, 257),
                                      np.linspace(-half, half, 321),
                                      sigma=sigma_one, tol=1e-10)
    return sol, varcurve_liou, sigma_one, f, g


@pytest.mark.parametrize("block", [1, 7, 256, 300])
def test_refinement_study_peak_is_within_its_footprint(
        monkeypatch, liouville_study_problem, block):
    # the budget check counts what the study holds: the reused block
    # arrays, every level's (u, u_x) rows and the per-path results; the
    # study's block is the draw's, so every draw is one aligned key
    monkeypatch.setattr(simulate, "PATH_BLOCK", block)
    n_paths = 600
    _, entries = bsde.study_footprint(n_paths, 64, 4, 321)
    # warm-up: the first draw of a process loads what numpy's generators
    # keep for good
    bsde.residual_refinement_study(*liouville_study_problem, 0.05, 1.0,
                                   n_paths=2, seed=5)
    tracemalloc.start()
    bsde.residual_refinement_study(*liouville_study_problem, 0.05, 1.0,
                                   n_paths=n_paths, seed=5)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 8 * entries, (peak, 8 * entries)


def test_refinement_study_twice_in_one_process_is_identical(
        liouville_study_problem):
    # the reused buffers carry nothing from one study into the next
    def study():
        return bsde.residual_refinement_study(*liouville_study_problem, 0.05,
                                              1.0, n_paths=300, seed=9,
                                              base_steps=16, n_levels=3)

    first, second = study(), study()
    assert first.residuals == second.residuals
    assert first.zeta_var == second.zeta_var


@pytest.mark.parametrize("block", [7, 256])
def test_refinement_study_draws_each_normal_once(monkeypatch, sol_linear,
                                                 varcurve_fbm, sigma_one,
                                                 block):
    # the finest level's normals, leading column included, once per path;
    # each request names the Philox key's block it starts and holds at most
    # that block, so it is one re-key and one standard_normal call
    monkeypatch.setattr(simulate, "PATH_BLOCK", block)
    drawn, requests = [], []
    draw = bsde._normal_increments

    def counted(seed, n_paths, dt, stream=simulate.ENSEMBLE_STREAM,
                first_block=0, out=None):
        got = draw(seed, n_paths, dt, stream=stream, first_block=first_block,
                   out=out)
        drawn.append(got.size)  # what the tracer's draws counter reads
        requests.append((first_block, n_paths))
        return got

    monkeypatch.setattr(bsde, "_normal_increments", counted)
    bsde.residual_refinement_study(sol_linear, varcurve_fbm, sigma_one,
                                   F_ZERO, G_X, 0.05, 1.0, n_paths=300,
                                   seed=2, base_steps=8, n_levels=3)
    assert sum(drawn) == 300 * (32 + 1)
    assert len(drawn) == -(-300 // block)
    assert requests == [(p0 // block, min(block, 300 - p0))
                        for p0 in range(0, 300, block)]


def test_refinement_study_over_the_memory_budget_allocates_nothing(monkeypatch):
    # a finest grid of 2**51 steps fails the budget check before its time
    # grid, a level's rows or any draw is built; of the solution the check
    # reads only the x grid's size
    def unreachable(*args, **kwargs):
        raise AssertionError("allocated past the budget check")

    monkeypatch.setattr(bsde.TimeGrid, "uniform", unreachable)
    monkeypatch.setattr(bsde, "time_rows", unreachable)
    monkeypatch.setattr(bsde, "brownian_increments", unreachable)
    sol = SimpleNamespace(xgrid=np.zeros(321))
    with pytest.raises(ResourceBudgetError, match="memory budget"):
        bsde.residual_refinement_study(sol, None, None, F_ZERO, G_X, 0.05,
                                       1.0, n_paths=10, seed=1,
                                       base_steps=16, n_levels=48)


def test_memory_budget_is_read_at_call_time(monkeypatch, kernel_fbm,
                                            sigma_one, sol_linear,
                                            varcurve_fbm):
    # the ensemble and the study both read simulate's budget when they are
    # called, so a budget lowered after import refuses them both
    monkeypatch.setattr(simulate, "MEMORY_BUDGET_ENTRIES", 1000)
    with pytest.raises(ResourceBudgetError, match="memory budget of 1000"):
        simulate.sample_paths(kernel_fbm, sigma_one,
                              TimeGrid.uniform(0.0, 1.0, 8), 2, seed=1)
    with pytest.raises(ResourceBudgetError, match="memory budget of 1000"):
        bsde.residual_refinement_study(sol_linear, varcurve_fbm, sigma_one,
                                       F_ZERO, G_X, 0.05, 1.0, n_paths=2,
                                       seed=1, base_steps=2, n_levels=2)


def test_brownian_increments_use_their_own_stream():
    # the Brownian side and the ensemble of one seed draw disjoint streams
    grid = TimeGrid.uniform(0.05, 1.0, 16)
    drawn = bsde.brownian_increments(grid, 5, 3)
    dt = np.concatenate(([1.0], grid.dt))
    assert np.array_equal(drawn, simulate._normal_increments(
        3, 5, dt, stream=simulate.BROWNIAN_STREAM))
    assert not np.any(drawn == simulate._normal_increments(3, 5, dt))


def test_z_representation_consistency(varcurve_fbm, tgrid, xgrid_wide,
                                      sigma_one, ensemble_small):
    # Z rebuilt from the independently FD-solved u agrees with Z from the
    # Picard-solved u within the mild/FD tolerance (Z's representing
    # function is pinned to -sigma u_x)
    mild = pde.solve_semilinear_picard(F_MINUS_Y, G_X, varcurve_fbm, tgrid,
                                       xgrid_wide, sigma=sigma_one)
    fd = pde.solve_semilinear_fd(F_MINUS_Y, mild.linear, varcurve_fbm,
                                 sigma=sigma_one)
    z_mild = bsde.build_yz(mild, ensemble_small, sigma_one).Z
    z_fd = bsde.build_yz(fd, ensemble_small, sigma_one).Z
    dt = float(np.max(np.diff(tgrid)))
    dx = float(np.mean(np.diff(xgrid_wide)))
    assert float(np.max(np.abs(z_mild - z_fd))) <= max(5e-3, 10.0 * (dt + dx**2))


# -- comparison -------------------------------------------------------------------


def test_compare_constant_shift_exact(varcurve_fbm, tgrid, xgrid_wide, sigma_one,
                                      ensemble_small):
    g_hi = pde.TerminalCondition(
        g_fn=lambda x: np.asarray(x, dtype=float) + 0.1,
        label="x+0.1",
    )
    result = bsde.compare((F_ZERO, g_hi), (F_ZERO, G_X), varcurve_fbm, tgrid,
                          xgrid_wide, sigma_one, ensemble=ensemble_small)
    assert result.passed
    gap = result.sol1.u - result.sol2.u
    np.testing.assert_allclose(gap, np.full_like(gap, 0.1), atol=1e-6)
    assert result.min_gap_Y >= 0.1 - 1e-6


def test_compare_identical_problems_bitwise(varcurve_fbm, tgrid, xgrid_wide,
                                            sigma_one):
    result = bsde.compare((F_ZERO, G_X), (F_ZERO, G_X), varcurve_fbm, tgrid,
                          xgrid_wide, sigma_one)
    assert np.array_equal(result.sol1.u, result.sol2.u)
    assert result.min_gap_u == 0.0


def test_compare_relu_pair_strict_gap(varcurve_fbm, tgrid, xgrid_wide, sigma_one):
    g2 = pde.TerminalCondition(
        g_fn=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0),
        label="max(x,0)",
    )
    g1 = pde.TerminalCondition(
        g_fn=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0) + 0.05,
        label="max(x,0)+0.05",
    )
    result = bsde.compare((F_MINUS_Y, g1), (F_MINUS_Y, g2), varcurve_fbm, tgrid,
                          xgrid_wide, sigma_one)
    assert result.passed
    assert result.min_gap_u > 0.0


def test_compare_precondition_violation_names_point(varcurve_fbm, tgrid,
                                                    xgrid_wide, sigma_one):
    g_lo = pde.TerminalCondition(
        g_fn=lambda x: np.asarray(x, dtype=float) - 0.1,
        label="x-0.1",
    )
    with pytest.raises(PreconditionError, match="g1 < g2 at x"):
        bsde.compare((F_ZERO, g_lo), (F_ZERO, G_X), varcurve_fbm, tgrid,
                     xgrid_wide, sigma_one)
    f_lo = pde.Driver(f_fn=lambda t, x, y, z: -np.ones(np.broadcast(t, x, y, z).shape),
                      lipschitz_yz=0.0, label="-1")
    with pytest.raises(PreconditionError, match="f1 < f2"):
        bsde.compare((f_lo, G_X), (F_ZERO, G_X), varcurve_fbm, tgrid,
                     xgrid_wide, sigma_one)


# -- density diagnostics ------------------------------------------------------------


def test_density_linear_case(sol_linear, ensemble_small, varcurve_fbm):
    diag = bsde.density_diagnostic(sol_linear, ensemble_small, varcurve_fbm, 0.5)
    v = float(varcurve_fbm.var_at(0.5))
    np.testing.assert_allclose(diag.malliavin_sq, np.full_like(diag.malliavin_sq, v),
                               rtol=1e-6)
    assert diag.gradient_hypothesis_holds
    assert diag.max_cdf_jump <= 2.0 / ensemble_small.n_paths
    assert diag.continuity_not_rejected


def test_density_even_terminal_flags_hypothesis(varcurve_fbm, tgrid, xgrid_wide,
                                                sigma_one, ensemble_small):
    sol = pde.solve_semilinear_picard(F_ZERO, G_X2, varcurve_fbm, tgrid,
                                      xgrid_wide, sigma=sigma_one)
    diag = bsde.density_diagnostic(sol, ensemble_small, varcurve_fbm, 0.5)
    # even solution: paths near N_t = 0 give u_x ~ 0
    assert diag.min_over_paths < 1e-3 * float(np.max(diag.malliavin_sq))
    assert not diag.gradient_hypothesis_holds


def test_density_time_domain(sol_linear, ensemble_small, varcurve_fbm):
    with pytest.raises(DomainError):
        bsde.density_diagnostic(sol_linear, ensemble_small, varcurve_fbm, 1.5)
    with pytest.raises(DomainError):
        bsde.density_diagnostic(sol_linear, ensemble_small, varcurve_fbm, 0.1234567)
