"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Criterion 6's slope clause is asserted exactly as stated but is expected to
fail for the linear problem it names: with g(x) = x the solution gradient
is constant, the stochastic integrand is deterministic, and the Euler
defect is O(dt) (measured slope ~ 1.01), not the classical O(sqrt(dt))
that the [0.4, 0.6] window encodes.  The window is verified on the
quadratic problem, whose nonzero curvature produces the generic rate
(measured slope ~ 0.50).  See notes in the repository history.
"""

import time

import numpy as np
import pytest

from volterra_bsde import (
    C12Function,
    Driver,
    TerminalCondition,
    TimeGrid,
    Volatility,
    bsde,
    graded_grid,
    operators,
    pde,
    sample_paths,
    simulate,
    variance_curve,
)
from volterra_bsde.cli import run

G_X = TerminalCondition(g_fn=lambda x: np.asarray(x, dtype=float), label="x")
G_X2 = TerminalCondition(g_fn=lambda x: np.asarray(x, dtype=float) ** 2, label="x^2")
G_ONE = TerminalCondition(g_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                          label="1")
F_ZERO = pde.ZERO_DRIVER
F_ONE = Driver(f_fn=lambda t, x, y, z: np.ones(np.broadcast(t, x, y, z).shape),
               lipschitz_yz=0.0, label="1")
F_MINUS_Y = Driver(f_fn=lambda t, x, y, z: -np.asarray(y, dtype=float)
                   * np.ones(np.broadcast(t, x, y, z).shape),
                   lipschitz_yz=1.0, label="-y")

SHIPPED_PROBLEMS = [(F_ZERO, G_X), (F_ONE, G_X), (F_MINUS_Y, G_ONE),
                    (F_ZERO, G_X2)]


def _criterion(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num:>2}] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_variance_oracle(kernel_fbm, kernel_liou, sigma_one):
    start = time.perf_counter()
    curve_f = variance_curve(kernel_fbm, sigma_one, graded_grid(1.0, 256, 2.0))
    curve_l = variance_curve(kernel_liou, sigma_one, graded_grid(1.0, 256, 2.0))
    elapsed = time.perf_counter() - start
    err_f = abs(curve_f.var[-1] - 1.0)
    err_l = abs(curve_l.var[-1] - 2.0 / 3.0) / (2.0 / 3.0)
    ok = err_f <= 1e-3 and err_l <= 1e-3 and elapsed <= 10.0
    _criterion(1, "variance oracle", ok,
               f"fbm err {err_f:.2e}, liouville rel err {err_l:.2e}, "
               f"{elapsed:.1f}s at 256 grid points")


def test_criterion_2_covariance_validation(kernel_fbm, sigma_one):
    start = time.perf_counter()
    ens = sample_paths(kernel_fbm, sigma_one, TimeGrid.uniform(0.0, 1.0, 256),
                       n_paths=10_000, seed=4711)
    closed = lambda a, b: 0.5 * (a**1.5 + b**1.5 - abs(a - b) ** 1.5)
    report = simulate.validate_covariance(ens, kernel_fbm, covariance_fn=closed)
    elapsed = time.perf_counter() - start
    worst = max(abs(r.lhs - r.rhs) / r.tol for r in report.rows)
    ok = report.passed and elapsed <= 30.0
    _criterion(2, "covariance validation", ok,
               f"{len(report.rows)} lattice pairs, worst dev/tol {worst:.2f}, "
               f"{elapsed:.1f}s")


def test_criterion_3_representation_identity(ensemble_fbm_10k, varcurve_fbm):
    report = simulate.expectation_heat_identity(ensemble_fbm_10k, varcurve_fbm,
                                                np.cos, 1.0)
    row = report.rows[0]
    target = np.exp(-0.5)
    ok = (abs(row.rhs - target) <= 1e-9
          and abs(row.lhs - target) <= 3.0 * row.stderr
          and 3.0 * row.stderr <= 0.02)
    _criterion(3, "representation identity (h=cos)", ok,
               f"mc {row.lhs:.6f} vs p-side {row.rhs:.6f} "
               f"(exp(-1/2) = {target:.6f}), 3se {3 * row.stderr:.4f}")


def test_criterion_4_ito_expectation(ensemble_fbm_10k, varcurve_fbm):
    F = C12Function(
        f=lambda t, x: np.exp(np.asarray(x) / 2.0),
        df_dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        d2f_dx2=lambda t, x: np.exp(np.asarray(x) / 2.0) / 4.0,
        label="exp(x/2)",
    )
    details = []
    ok = True
    for t in (0.25, 0.5, 0.75):
        report = simulate.ito_expectation_check(ensemble_fbm_10k, varcurve_fbm,
                                                F, t)
        row = report.rows[0]
        ok &= report.passed
        # the left side alone against the Gaussian mgf oracle
        i = int(np.argmin(np.abs(ensemble_fbm_10k.grid.points - t)))
        col = np.exp(ensemble_fbm_10k.N[:, i] / 2.0)
        lhs, se = float(np.mean(col)), float(np.std(col, ddof=1)) / 100.0
        oracle = float(np.exp(varcurve_fbm.var_at(t) / 8.0))
        ok &= abs(lhs - oracle) <= 3.0 * se + row.tol
        details.append(f"t={t}: defect {row.lhs:.2e} (tol {row.tol:.2e})")
    _criterion(4, "ito expectation (F=exp(x/2))", ok, "; ".join(details))


@pytest.fixture(scope="module")
def pde_grids():
    return np.linspace(0.0, 1.0, 201), np.linspace(-10.0, 10.0, 401)


def test_criterion_5_pde_closed_forms(varcurve_fbm, sigma_one, pde_grids):
    tg, xg = pde_grids
    details = []

    s1 = pde.solve_semilinear_picard(F_ZERO, G_X, varcurve_fbm, tg, xg,
                                     sigma=sigma_one)
    e1 = float(np.max(np.abs(s1.u - xg[None, :])))
    details.append(f"f=0,g=x: {e1:.1e} (tol 1e-12)")

    s2 = pde.solve_semilinear_picard(F_ONE, G_X, varcurve_fbm, tg, xg,
                                     sigma=sigma_one)
    e2 = float(np.max(np.abs(s2.u - (xg[None, :] + (1.0 - tg)[:, None]))))
    details.append(f"f=1,g=x: {e2:.1e} (tol 1e-4)")

    s3 = pde.solve_semilinear_picard(F_MINUS_Y, G_ONE, varcurve_fbm, tg, xg,
                                     sigma=sigma_one)
    e3 = float(np.max(np.abs(s3.u - np.exp(-(1.0 - tg))[:, None])))
    details.append(f"f=-y,g=1 picard: {e3:.1e} (tol 1e-4)")

    tg512 = np.linspace(0.0, 1.0, 513)
    s4 = pde.solve_semilinear_fd(
        F_MINUS_Y, pde.solve_linear(G_ONE, varcurve_fbm, tg512, xg), varcurve_fbm,
        sigma=sigma_one)
    e4 = float(np.max(np.abs(s4.u - np.exp(-(1.0 - tg512))[:, None])))
    details.append(f"f=-y,g=1 fd512: {e4:.1e} (tol 1e-3)")

    gap_worst = 0.0
    for f, g in SHIPPED_PROBLEMS:
        mild = pde.solve_semilinear_picard(f, g, varcurve_fbm, tg, xg,
                                           sigma=sigma_one)
        fd = pde.solve_semilinear_fd(f, mild.linear, varcurve_fbm,
                                     sigma=sigma_one)
        gap_worst = max(gap_worst, float(np.max(np.abs(mild.u - fd.u))))
    details.append(f"picard/fd gap: {gap_worst:.1e} (tol 5e-3)")

    ok = e1 <= 1e-12 and e2 <= 1e-4 and e3 <= 1e-4 and e4 <= 1e-3 \
        and gap_worst <= 5e-3
    _criterion(5, "pde closed forms", ok, "; ".join(details))


@pytest.fixture(scope="module")
def bsde_solutions(varcurve_fbm, sigma_one, pde_grids):
    tg, xg = pde_grids
    sols = {}
    for f, g in SHIPPED_PROBLEMS:
        sols[(f.label, g.label)] = pde.solve_semilinear_picard(
            f, g, varcurve_fbm, tg, xg, sigma=sigma_one, tol=1e-11)
    return sols


def test_criterion_6a_residual_monotone(varcurve_fbm, sigma_one, bsde_solutions):
    details = []
    ok = True
    for f, g in SHIPPED_PROBLEMS:
        sol = bsde_solutions[(f.label, g.label)]
        study = bsde.residual_refinement_study(
            sol, varcurve_fbm, sigma_one, f, g, 0.05, 1.0,
            n_paths=4000, seed=606, base_steps=64, n_levels=4)
        ok &= study.monotone
        details.append(f"f={f.label},g={g.label}: slope {study.slope:.2f}")
    _criterion("6a", "residual monotone over 4 dyadic refinements", ok,
               "; ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason="with g(x) = x the gradient of u is constant, so the stochastic "
    "integrand is deterministic and the Euler defect is O(dt): measured "
    "slope ~ 1.0, outside the stated [0.4, 0.6] window (which matches the "
    "classical sqrt(dt) rate of problems with nonzero curvature; see "
    "test_criterion_6b_slope_window_quadratic_control)",
)
def test_criterion_6b_slope_window_linear(varcurve_fbm, sigma_one,
                                          bsde_solutions):
    sol = bsde_solutions[(F_ZERO.label, G_X.label)]
    study = bsde.residual_refinement_study(
        sol, varcurve_fbm, sigma_one, F_ZERO, G_X, 0.05, 1.0,
        n_paths=8000, seed=607, base_steps=64, n_levels=4)
    ok = 0.4 <= study.slope <= 0.6
    _criterion("6b", "refinement slope in [0.4, 0.6] for f=0, g=x", ok,
               f"measured slope {study.slope:.3f}, residuals "
               + ", ".join(f"{r:.2e}" for r in study.residuals))


def test_criterion_6b_slope_window_quadratic_control(varcurve_fbm, sigma_one,
                                                     bsde_solutions):
    # the classical Euler-defect rate appears once the solution has
    # curvature: same harness, terminal x^2 instead of x
    sol = bsde_solutions[(F_ZERO.label, G_X2.label)]
    study = bsde.residual_refinement_study(
        sol, varcurve_fbm, sigma_one, F_ZERO, G_X2, 0.05, 1.0,
        n_paths=8000, seed=607, base_steps=64, n_levels=4)
    ok = 0.4 <= study.slope <= 0.6
    _criterion("6b*", "slope window on the curved control problem", ok,
               f"measured slope {study.slope:.3f}")


def test_criterion_6c_decay_residual(varcurve_fbm, sigma_one, bsde_solutions):
    sol = bsde_solutions[(F_MINUS_Y.label, G_ONE.label)]
    grid = TimeGrid.uniform(0.05, 1.0, 512)
    run512 = bsde.brownian_side_verify(
        bsde.brownian_side_level(sol, varcurve_fbm, sigma_one, grid),
        F_MINUS_Y, G_ONE, bsde.brownian_increments(grid, 4000, 608))
    ok = run512.residual_L2 <= 1e-3
    _criterion("6c", "f=-y residual at 512 steps", ok,
               f"residual_L2 {run512.residual_L2:.2e} (tol 1e-3)")


def test_criterion_7_comparison(varcurve_fbm, sigma_one, pde_grids):
    tg, xg = pde_grids
    g_hi = TerminalCondition(g_fn=lambda x: np.asarray(x, dtype=float) + 0.1,
                             label="x+0.1")
    shift = bsde.compare((F_ZERO, g_hi), (F_ZERO, G_X), varcurve_fbm, tg, xg,
                         sigma_one)
    d = shift.sol1.u - shift.sol2.u
    shift_err = float(np.max(np.abs(d - 0.1)))

    g_lo = TerminalCondition(
        g_fn=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0),
        label="max(x,0)")
    g_hi2 = TerminalCondition(
        g_fn=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0) + 0.05,
        label="max(x,0)+0.05")
    relu = bsde.compare((F_MINUS_Y, g_hi2), (F_MINUS_Y, g_lo), varcurve_fbm,
                        tg, xg, sigma_one)
    ok = shift_err <= 1e-6 and relu.min_gap_u > 0.0 and shift.passed \
        and relu.passed
    _criterion(7, "comparison theorem", ok,
               f"shift |u1-u2-0.1| {shift_err:.1e}; relu min gap "
               f"{relu.min_gap_u:.4f}")


def test_criterion_8_density_diagnostic(varcurve_fbm, sigma_one, pde_grids,
                                        ensemble_fbm_10k):
    tg, xg = pde_grids
    sol = pde.solve_semilinear_picard(F_ZERO, G_X, varcurve_fbm, tg, xg,
                                      sigma=sigma_one)
    diag = bsde.density_diagnostic(sol, ensemble_fbm_10k, varcurve_fbm, 0.5)
    v = float(varcurve_fbm.var_at(0.5))
    rel = float(np.max(np.abs(diag.malliavin_sq / v - 1.0)))
    n = ensemble_fbm_10k.n_paths
    ok = rel <= 1e-6 and diag.max_cdf_jump <= 5.0 / n
    _criterion(8, "density diagnostic (linear case)", ok,
               f"malliavin_sq rel dev {rel:.1e}; max cdf jump "
               f"{diag.max_cdf_jump * n:.0f}/n (tol 5/n)")


def test_criterion_9_transfer_identity(kernel_liou, kernel_fbm):
    rep_l = operators.transfer_identity_check(kernel_liou, 1.0,
                                              np.linspace(0.0, 1.0, 100))
    rep_f = operators.transfer_identity_check(kernel_fbm, 0.8,
                                              np.linspace(0.0, 1.0, 65))
    ok = rep_l.max_abs_deviation <= 1e-6 and rep_f.max_abs_deviation <= 1e-6
    _criterion(9, "transfer identity", ok,
               f"liouville {rep_l.max_abs_deviation:.1e} (tol 1e-6); "
               f"fbm {rep_f.max_abs_deviation:.1e} (tol quad)")


DET_CONFIG = """
[kernel]
family = liouville_fbm
hurst = 0.75
T = 1.0

[grids]
t0 = 0.1
n_time = 32
n_space = 81

[driver]
expr = 0
lipschitz = 0

[terminal]
expr = x + 0.1

[terminal2]
expr = x

[mc]
n_paths = 1200
seed = 7
export_paths = 2

[bsde]
base_steps = 16
n_levels = 3
"""


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(DET_CONFIG)
    subcommands = ("variance", "simulate", "solve-pde", "solve-bsde", "verify",
                   "compare", "certify")
    ok = True
    for sub in subcommands:
        a_dir, b_dir = tmp_path / f"{sub}_a", tmp_path / f"{sub}_b"
        code_a = run(sub, str(cfg), str(a_dir))
        code_b = run(sub, str(cfg), str(b_dir))
        ok &= code_a == 0 and code_b == 0
        for f in sorted(a_dir.iterdir()):
            ok &= f.read_bytes() == (b_dir / f.name).read_bytes()
    _criterion(10, "determinism", ok,
               f"{len(subcommands)} subcommands re-run byte-identically")
