"""Path generation, statistical validation and the expectation identities."""

import tracemalloc

import numpy as np
import pytest

from volterra_bsde import kernels, quadrature, simulate
from volterra_bsde.errors import (
    DomainError,
    GrowthViolationError,
    ResourceBudgetError,
)
from volterra_bsde.operators import Volatility
from volterra_bsde.reporting import fmt, grid_csv
from volterra_bsde.simulate import C12Function, TimeGrid


def small_grid():
    return TimeGrid.uniform(0.0, 1.0, 64)


def test_time_grid_validation():
    with pytest.raises(DomainError):
        TimeGrid(np.array([0.0, 1.0]))  # n_steps >= 2
    with pytest.raises(DomainError):
        TimeGrid(np.array([0.0, 0.5, 0.4]))
    g = TimeGrid.uniform(0.1, 1.0, 8)
    assert g.t0 == 0.1 and g.T == 1.0 and g.n_steps == 8


def test_determinism_bit_identical(kernel_fbm, sigma_one):
    a = simulate.sample_paths(kernel_fbm, sigma_one, small_grid(), 64, seed=9)
    b = simulate.sample_paths(kernel_fbm, sigma_one, small_grid(), 64, seed=9)
    assert np.array_equal(a.dW, b.dW)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.N, b.N)
    c = simulate.sample_paths(kernel_fbm, sigma_one, small_grid(), 64, seed=10)
    assert not np.array_equal(a.dW, c.dW)


def test_path_prefix_stable_in_path_count(kernel_fbm, sigma_one):
    # streams are keyed by (seed, block) and a partial block is the prefix
    # of the full one: the first paths' increments never change; path
    # values agree up to BLAS reduction-order roundoff
    a = simulate.sample_paths(kernel_fbm, sigma_one, small_grid(), 16, seed=3)
    b = simulate.sample_paths(kernel_fbm, sigma_one, small_grid(), 64, seed=3)
    assert np.array_equal(a.dW, b.dW[:16])
    np.testing.assert_allclose(a.N, b.N[:16], atol=1e-13)


def test_memory_budget(monkeypatch, kernel_fbm, sigma_one):
    monkeypatch.setattr(simulate, "MEMORY_BUDGET_ENTRIES", 100)
    with pytest.raises(ResourceBudgetError):
        simulate.sample_paths(kernel_fbm, sigma_one, small_grid(), 10, seed=1)


def test_memory_budget_counts_kernel_table(monkeypatch, kernel_fbm, sigma_one):
    grid = small_grid()  # 64 steps
    # dW, X, the table and one tail block's temporaries (N is X at sigma = 1)
    need = (2 * 64 + 2 * 65 + 65 * 64
            + simulate.TAIL_TEMPORARIES * simulate.TAIL_BLOCK_ENTRIES)
    monkeypatch.setattr(simulate, "MEMORY_BUDGET_ENTRIES", need)
    simulate.sample_paths(kernel_fbm, sigma_one, grid, 2, seed=1)
    monkeypatch.setattr(simulate, "MEMORY_BUDGET_ENTRIES", need - 1)
    with pytest.raises(ResourceBudgetError):
        simulate.sample_paths(kernel_fbm, sigma_one, grid, 2, seed=1)


@pytest.mark.parametrize("family", [kernels.fbm, kernels.liouville_fbm])
@pytest.mark.parametrize("sigma_value", [1.0, 2.0])
@pytest.mark.parametrize("n_steps", [256, 1024])
def test_sample_paths_peak_is_within_its_budget(family, sigma_value, n_steps):
    # the budget check counts what sample_paths holds: dW and X, N and a
    # second table unless sigma is 1, the table and the tail temporaries
    kernel = family(0.75, 1.0)
    sigma = Volatility.constant(sigma_value)
    grid = TimeGrid.uniform(0.0, 1.0, n_steps)
    n_paths = 600
    entries = simulate.check_path_budget(n_paths, n_steps, sigma)
    # warm-up: the first draw of a process loads what numpy's generators
    # keep for good
    simulate.sample_paths(kernel, sigma, TimeGrid.uniform(0.0, 1.0, 8), 2, seed=5)
    tracemalloc.start()
    simulate.sample_paths(kernel, sigma, grid, n_paths, seed=5)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 8 * entries, (peak, 8 * entries)


def _normal_increments_fresh_per_path(seed, n_paths, dt, stream=0):
    """One new Generator(Philox(key=[seed mod 2**64, p],
    counter=[0, 0, 0, stream])) per path (oracle of the one-key-per-path
    contract, which ``simulate.PATH_BLOCK = 1`` keeps)."""
    out = np.empty((n_paths, dt.size))
    for p in range(n_paths):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed % 2**64, p], dtype=np.uint64),
            counter=np.array([0, 0, 0, stream], dtype=np.uint64)))
        out[p] = gen.standard_normal(dt.size)
    return out * np.sqrt(dt)[None, :]


def _normal_increments_fresh_per_block(seed, n_paths, dt, stream=0):
    """One new Generator(Philox(key=[seed mod 2**64, b],
    counter=[0, 0, 0, stream])) per block b of ``simulate.PATH_BLOCK``
    paths, each drawing its full (PATH_BLOCK, len(dt)) block (oracle)."""
    block = simulate.PATH_BLOCK
    draws = []
    for b in range(-(-n_paths // block)):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed % 2**64, b], dtype=np.uint64),
            counter=np.array([0, 0, 0, stream], dtype=np.uint64)))
        draws.append(gen.standard_normal((block, dt.size)))
    return np.concatenate(draws)[:n_paths] * np.sqrt(dt)[None, :]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64 + 5])
@pytest.mark.parametrize("n_paths", [1, 3, 17, 2 * simulate.PATH_BLOCK + 3])
@pytest.mark.parametrize("n_steps", [1, 64])
def test_normal_increments_match_fresh_generator_per_block(seed, n_paths,
                                                           n_steps):
    # 2 PATH_BLOCK + 3 paths cross two block edges into a partial block
    dt = np.linspace(0.5, 1.5, n_steps) / n_steps
    assert np.array_equal(simulate._normal_increments(seed, n_paths, dt),
                          _normal_increments_fresh_per_block(seed, n_paths, dt))
    for stream in (simulate.ENSEMBLE_STREAM, simulate.BROWNIAN_STREAM):
        got = simulate._normal_increments(seed, n_paths, dt, stream=stream)
        assert np.array_equal(
            got, _normal_increments_fresh_per_block(seed, n_paths, dt, stream))


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64 + 5])
@pytest.mark.parametrize("n_paths", [1, 3, 17])
@pytest.mark.parametrize("n_steps", [1, 64])
def test_normal_increments_match_fresh_generator_per_path(monkeypatch, seed,
                                                          n_paths, n_steps):
    # one path per block is the one-key-per-path contract, bit for bit
    monkeypatch.setattr(simulate, "PATH_BLOCK", 1)
    dt = np.linspace(0.5, 1.5, n_steps) / n_steps
    assert np.array_equal(simulate._normal_increments(seed, n_paths, dt),
                          _normal_increments_fresh_per_path(seed, n_paths, dt))
    for stream in (simulate.ENSEMBLE_STREAM, simulate.BROWNIAN_STREAM):
        got = simulate._normal_increments(seed, n_paths, dt, stream=stream)
        assert np.array_equal(
            got, _normal_increments_fresh_per_path(seed, n_paths, dt, stream))


@pytest.mark.parametrize("stream", [simulate.ENSEMBLE_STREAM,
                                    simulate.BROWNIAN_STREAM])
def test_normal_increments_partial_block_is_the_prefix_of_the_full_block(stream):
    # a block fills row by row, so fewer rows are the leading rows of the
    # full block, in the first block and in a later one
    block = simulate.PATH_BLOCK
    dt = np.linspace(0.5, 1.5, 9) / 9
    seed = 2**64 - 1
    for first in (0, 1):
        full = simulate._normal_increments(seed, block, dt, stream=stream,
                                           first_block=first)
        for n in (1, 2, block - 1):
            part = simulate._normal_increments(seed, n, dt, stream=stream,
                                               first_block=first)
            assert np.array_equal(part, full[:n])


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("stream", [simulate.ENSEMBLE_STREAM,
                                    simulate.BROWNIAN_STREAM])
def test_normal_increments_block_is_rows_of_the_full_draw(seed, stream):
    # the paths from block b onwards are rows b B onwards of one draw of
    # every path, whether they end inside a block or run across its edge
    B = simulate.PATH_BLOCK
    dt = np.linspace(0.5, 1.5, 9) / 9
    full = simulate._normal_increments(seed, 2 * B + 40, dt, stream=stream)
    for b, n in ((0, 1), (0, 40), (0, B + 40), (1, B), (1, B + 40), (2, 40)):
        block = simulate._normal_increments(seed, n, dt, stream=stream,
                                            first_block=b)
        assert np.array_equal(block, full[b * B:b * B + n])


@pytest.mark.parametrize("stream", [simulate.ENSEMBLE_STREAM,
                                    simulate.BROWNIAN_STREAM])
def test_normal_increments_into_a_reused_buffer_are_the_fresh_draw(stream):
    # the blocks of 2 B + 40 paths, the last one partial, drawn one after
    # the other into the leading rows of one NaN-filled buffer
    B = simulate.PATH_BLOCK
    n_paths = 2 * B + 40
    dt = np.linspace(0.5, 1.5, 9) / 9
    seed = 2**64 - 1
    fresh = _normal_increments_fresh_per_block(seed, n_paths, dt, stream)
    buf = np.full(B * dt.size, np.nan)
    for b in range(3):
        n = min(B, n_paths - b * B)
        out = buf[:n * dt.size].reshape(n, dt.size)
        got = simulate._normal_increments(seed, n, dt, stream=stream,
                                          first_block=b, out=out)
        assert got is out
        assert np.array_equal(got, simulate._normal_increments(
            seed, n, dt, stream=stream, first_block=b))
        assert np.array_equal(got, fresh[b * B:b * B + n])
        buf[:] = np.nan


def test_normal_increments_refuse_an_out_of_another_shape():
    dt = np.full(4, 0.25)
    for bad in (np.empty((3, 5)), np.empty((4, 4)), np.empty((4, 3)).T):
        with pytest.raises(DomainError, match="out"):
            simulate._normal_increments(1, 3, dt, out=bad)


def _midpoint_table_one_pass(kernel, sigma, grid):
    """Tails of every column in one vectorized pass (oracle)."""
    pts, mids, n = grid.points, grid.midpoints, grid.n_steps
    mcol = mids[:, None]
    head = quadrature.integrate_gap_batch(
        lambda gap: sigma(mcol + gap) * kernels.dt_gap_t(kernel, mcol, gap),
        pts[1:] - mids, alpha=kernel.diag_exponent(mids))
    x01, w01 = simulate._gauss01(16)
    jj, kk = np.triu_indices(n, k=1)
    width = (pts[kk + 1] - pts[kk])[:, None]
    nodes = pts[kk][:, None] + width * x01[None, :]
    vals = sigma(nodes) * kernels.dt_gap_t(kernel, mids[jj][:, None],
                                           nodes - mids[jj][:, None])
    segments = np.zeros((n, n))
    segments[jj, kk] = np.sum(vals * (width * w01[None, :]), axis=1)
    cums = np.cumsum(segments, axis=1)
    out = np.zeros((n + 1, n))
    for j in range(n):
        out[j + 1, j] = head[j]
        out[j + 2:, j] = head[j] + cums[j, j + 1:]
    return out


@pytest.mark.parametrize("block", [2**20, 5000, 1])
def test_midpoint_table_blocks_match_one_pass(kernel_fbm, kernel_liou, monkeypatch, block):
    monkeypatch.setattr(simulate, "TAIL_BLOCK_ENTRIES", block)
    sigma = Volatility(lambda t: np.interp(t, [0.0, 0.5, 1.0], [1.0, 1.5, 0.8]))
    for kernel in (kernel_fbm, kernel_liou):
        for n in (3, 64, 256):
            grid = TimeGrid.uniform(0.0, 1.0, n)
            table = simulate.kstar_midpoint_table(kernel, sigma, grid)
            assert np.array_equal(table, _midpoint_table_one_pass(kernel, sigma, grid))


def test_terminal_variance_and_mean(ensemble_fbm_10k):
    # Var(N_1) = 1 for fBm H = 3/4, sigma == 1
    n = ensemble_fbm_10k.n_paths
    end = ensemble_fbm_10k.N[:, -1]
    sample_var = float(np.var(end, ddof=1))
    stderr = 1.0 * np.sqrt(2.0 / (n - 1))
    assert abs(sample_var - 1.0) <= 3.0 * stderr
    means = np.mean(ensemble_fbm_10k.N, axis=0)
    stds = np.std(ensemble_fbm_10k.N, axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(means) <= 3.0 * stds + 1e-12)


def test_x_equals_n_for_unit_sigma(ensemble_fbm_10k):
    # N_t = int (K* 1) dW coincides with X_t when sigma == 1
    assert np.array_equal(ensemble_fbm_10k.X, ensemble_fbm_10k.N)


def test_sigma_scales_n(kernel_liou):
    from volterra_bsde.operators import Volatility

    base = simulate.sample_paths(kernel_liou, Volatility.constant(1.0),
                                 small_grid(), 32, seed=5)
    scaled = simulate.sample_paths(kernel_liou, Volatility.constant(2.0),
                                   small_grid(), 32, seed=5)
    np.testing.assert_allclose(scaled.N, 2.0 * base.N, atol=1e-12)
    np.testing.assert_allclose(scaled.X, base.X, atol=1e-12)


def test_moment_checks(ensemble_fbm_10k):
    report = simulate.moment_checks(ensemble_fbm_10k)
    assert report.passed


def test_midpoint_table_matches_kernel(kernel_fbm, sigma_one):
    grid = small_grid()
    table = simulate.kstar_midpoint_table(kernel_fbm, sigma_one, grid)
    mids = grid.midpoints
    for i, j in [(5, 2), (30, 29), (64, 0), (64, 63)]:
        expect = kernels.kernel_eval(kernel_fbm, float(grid.points[i]), float(mids[j]))
        assert table[i, j] == pytest.approx(expect, abs=1e-9)
    # strictly lower-triangular in the (point, step) sense
    assert np.all(table[np.triu_indices_from(table)] == 0.0)


# -- covariance validation -------------------------------------------------------


def test_validate_covariance_passes(ensemble_fbm_10k, kernel_fbm):
    closed = lambda a, b: 0.5 * (a**1.5 + b**1.5 - abs(a - b) ** 1.5)
    report = simulate.validate_covariance(ensemble_fbm_10k, kernel_fbm,
                                          covariance_fn=closed)
    assert report.passed
    assert len(report.rows) == 36  # upper triangle of the 8x8 lattice


def test_validate_covariance_negative_control(ensemble_fbm_10k):
    # deliberately wrong kernel: H = 0.6 covariance must be rejected
    wrong = lambda a, b: 0.5 * (a**1.2 + b**1.2 - abs(a - b) ** 1.2)
    report = simulate.validate_covariance(ensemble_fbm_10k, kernels.fbm(0.6, 1.0),
                                          covariance_fn=wrong)
    assert not report.passed


def test_validate_covariance_needs_paths(kernel_fbm, sigma_one):
    ens = simulate.sample_paths(kernel_fbm, sigma_one, small_grid(), 10, seed=2)
    with pytest.raises(DomainError):
        simulate.validate_covariance(ens, kernel_fbm)


def test_diagonal_entries_are_sample_variances(ensemble_fbm_10k, kernel_fbm):
    closed = lambda a, b: 0.5 * (a**1.5 + b**1.5 - abs(a - b) ** 1.5)
    report = simulate.validate_covariance(ensemble_fbm_10k, kernel_fbm,
                                          covariance_fn=closed)
    pts = ensemble_fbm_10k.grid.points
    for row in report.rows:
        a, b = map(float, row.name[4:-1].split(","))
        if a == b:
            i = int(np.argmin(np.abs(pts - a)))
            col = ensemble_fbm_10k.X[:, i]
            assert row.lhs == pytest.approx(float(np.mean(col**2)), rel=1e-12)


def test_cholesky_cross_check(kernel_fbm, sigma_one):
    # exact Cholesky sampling of X's law vs the midpoint-table construction:
    # the two ensembles must agree in covariance away from the t = 0 edge
    # (where the documented fBm midpoint bias concentrates)
    grid = TimeGrid.uniform(0.0, 1.0, 64)
    ens = simulate.sample_paths(kernel_fbm, sigma_one, grid, 4000, seed=314)
    sel = np.arange(16, 65, 8)
    ts = grid.points[sel]
    R = 0.5 * (ts[:, None] ** 1.5 + ts[None, :] ** 1.5
               - np.abs(ts[:, None] - ts[None, :]) ** 1.5)
    L = np.linalg.cholesky(R)
    rng = np.random.default_rng(314)
    exact = rng.standard_normal((4000, ts.size)) @ L.T
    emp_table = ens.X[:, sel].T @ ens.X[:, sel] / 4000
    emp_exact = exact.T @ exact / 4000
    scale = np.sqrt(np.outer(np.diag(R), np.diag(R)))
    # each estimate carries ~ sqrt(2/n) relative noise; allow their sum
    # plus a slice of the discretization allowance
    assert np.max(np.abs(emp_table - emp_exact) / scale) \
        <= 6.0 * np.sqrt(2.0 / 4000) + 0.05


# -- heat identity ----------------------------------------------------------------


def test_heat_identity_cos(ensemble_fbm_10k, varcurve_fbm):
    report = simulate.expectation_heat_identity(ensemble_fbm_10k, varcurve_fbm,
                                                np.cos, 1.0)
    row = report.rows[0]
    assert report.passed
    assert row.rhs == pytest.approx(np.exp(-0.5), abs=1e-9)
    assert abs(row.lhs - np.exp(-0.5)) <= 3.0 * row.stderr


def test_heat_identity_trivial_h(ensemble_fbm_10k, varcurve_fbm):
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    report = simulate.expectation_heat_identity(ensemble_fbm_10k, varcurve_fbm,
                                                one, 1.0)
    assert report.rows[0].lhs == 1.0
    assert report.rows[0].rhs == pytest.approx(1.0, abs=1e-14)
    ident = lambda x: np.asarray(x, dtype=float)
    report = simulate.expectation_heat_identity(ensemble_fbm_10k, varcurve_fbm,
                                                ident, 1.0)
    assert report.rows[0].rhs == pytest.approx(0.0, abs=1e-12)
    assert report.passed


def test_heat_identity_growth_violation(ensemble_fbm_10k, varcurve_fbm):
    # exp(x^2) grows at lambda' = 1 >= (8 Var(N_1))^-1 = 1/8
    with pytest.raises(GrowthViolationError):
        simulate.expectation_heat_identity(ensemble_fbm_10k, varcurve_fbm,
                                           lambda x: np.exp(x**2), 1.0)


def test_heat_identity_reads_the_exact_gaussian_rate(ensemble_fbm_10k,
                                                     varcurve_fbm):
    # 0.14 >= 1/8 = (8 Var(N_1))^-1, though a rate read as 0.75 lambda passes
    with pytest.raises(GrowthViolationError, match=r"exp\(0\.14 x\^2\)"):
        simulate.expectation_heat_identity(ensemble_fbm_10k, varcurve_fbm,
                                           lambda x: np.exp(0.14 * x**2), 1.0)
    with pytest.raises(GrowthViolationError, match="h is not finite"):
        simulate.expectation_heat_identity(ensemble_fbm_10k, varcurve_fbm,
                                           np.sqrt, 1.0)


def test_heat_identity_off_grid_time(ensemble_fbm_10k, varcurve_fbm):
    with pytest.raises(DomainError):
        simulate.expectation_heat_identity(ensemble_fbm_10k, varcurve_fbm,
                                           np.cos, 0.1234567)


# -- expectation-form change-of-variable check ------------------------------------


def test_ito_square(ensemble_fbm_10k, varcurve_fbm):
    F = C12Function(
        f=lambda t, x: np.asarray(x) ** 2,
        df_dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        d2f_dx2=lambda t, x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
        label="x^2",
    )
    report = simulate.ito_expectation_check(ensemble_fbm_10k, varcurve_fbm, F, 1.0)
    assert report.passed


def test_ito_cube(ensemble_fbm_10k, varcurve_fbm):
    F = C12Function(
        f=lambda t, x: np.asarray(x) ** 3,
        df_dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        d2f_dx2=lambda t, x: 6.0 * np.asarray(x, dtype=float),
        label="x^3",
    )
    report = simulate.ito_expectation_check(ensemble_fbm_10k, varcurve_fbm, F, 0.75)
    assert report.passed


def test_ito_exponential(ensemble_fbm_10k, varcurve_fbm):
    F = C12Function(
        f=lambda t, x: np.exp(np.asarray(x) / 2.0),
        df_dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        d2f_dx2=lambda t, x: np.exp(np.asarray(x) / 2.0) / 4.0,
        label="exp(x/2)",
    )
    for t in (0.25, 0.5, 0.75):
        report = simulate.ito_expectation_check(ensemble_fbm_10k, varcurve_fbm, F, t)
        assert report.passed
        # the left side alone matches the Gaussian mgf oracle
        i = int(np.argmin(np.abs(ensemble_fbm_10k.grid.points - t)))
        lhs = float(np.mean(np.exp(ensemble_fbm_10k.N[:, i] / 2.0)))
        expect = float(np.exp(varcurve_fbm.var_at(t) / 8.0))
        stderr = float(np.std(np.exp(ensemble_fbm_10k.N[:, i] / 2.0), ddof=1)
                       / np.sqrt(ensemble_fbm_10k.n_paths))
        assert abs(lhs - expect) <= 3.0 * stderr + 1e-3


def test_ito_growth_violation(ensemble_fbm_10k, varcurve_fbm):
    F = C12Function(
        f=lambda t, x: np.exp(np.asarray(x) ** 2),
        df_dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        d2f_dx2=lambda t, x: np.exp(np.asarray(x) ** 2),
        label="exp(x^2)",
    )
    with pytest.raises(GrowthViolationError):
        simulate.ito_expectation_check(ensemble_fbm_10k, varcurve_fbm, F, 0.5)


# -- export -----------------------------------------------------------------------


def test_ensemble_csv(kernel_liou, sigma_one):
    ens = simulate.sample_paths(kernel_liou, sigma_one,
                                TimeGrid.uniform(0.0, 1.0, 4), 3, seed=1)
    text = b"".join(grid_csv("path_id,t,X,N", np.arange(2), ens.grid.points,
                             ens.X[:2], ens.N[:2])).decode()
    lines = text.strip().split("\n")
    assert lines[0] == "path_id,t,X,N"
    assert len(lines) == 1 + 2 * 5
    assert lines[1].startswith("0,0,")


def test_path_dump_matches_per_path_rendering():
    """A path dump "p,t,a,b" through the grid renderer, with the path ids
    as its first axis, against the per-path f-string loop it replaced."""
    rng = np.random.default_rng(11)
    k, times = 13, np.linspace(0.0, 1.0, 6)
    a = rng.standard_normal((k + 2, 6)) * 10.0 ** rng.integers(-300, 300, (k + 2, 6))
    b = rng.standard_normal((k + 2, 6))
    a[0, :5] = [0.0, -0.0, np.inf, -np.inf, np.nan]
    b[11, :4] = [5e-324, -5e-324, 2.2250738585072014e-308 / 3, np.finfo(float).max]
    rows = [f"{p},{fmt(t)},{fmt(a[p, i])},{fmt(b[p, i])}"
            for p in range(k) for i, t in enumerate(times)]
    expected = "\n".join(["path_id,t,A,B"] + rows) + "\n"
    got = b"".join(grid_csv("path_id,t,A,B", np.arange(k), times, a[:k],
                            b[:k])).decode()
    assert got == expected
