"""Layer ladder of the package import, the variance operators and the PDE
hot path at fixed sizes.

    python3 bench/ladder.py [--src DIR]

Times, for the volterra_bsde sources under DIR (default: this checkout's
``src``), ``import volterra_bsde.cli`` in a fresh interpreter (median of
7; every CLI run pays it), ``variance_curve`` on the graded grid
(power 2) with n_var = 64 / 128 / 256 by both of its routes and
``variance_double_route`` at t = 1, both for fBm and Liouville (H = 0.75,
sigma = 1, default rules, median of 3).  ``variance_curve_s`` is the
curve as the CLI builds it (one L2 value scaled by (t / T)^{2H} on trees
that have the self-similar shortcut); ``variance_curve_per_point_s`` is the
same sigma declared with bounds (1, 1 + 1e-9), which the curve cannot
take for constant, so it takes one L2 value per grid point.  The two
routes alternate call by call, so a change of the host's speed hits both
alike.  It then times one ``pde.heat_convolve`` call at m = 321 / 641 / 1281
(best of repeated calls), the heat-step spectra of 255 variance
increments (those of 256 uniform steps of the fBm curve) at m = 321 / 641
on the ``default_halfwidth`` grid (median of 7), one
``pde.solve_semilinear_picard`` solve (the backward march;
``picard_sweeps`` records its largest local iteration count) and one
``pde.solve_semilinear_fd`` solve from g, its linear solve included, at
(nt, nx) = (129, 321) / (257, 641) / (513, 1281) (median of 3) on the
nonlinear benchmark problem: fBm H = 0.75, f = -y + 0.5 sin(z), g = cos,
tol 1e-10, and the rendering of that Picard solution as the bytes of
``pde_picard.csv`` (``grid_csv_s``, median of 3; ``grid_csv_peak_mb``,
the tracemalloc peak of one more rendering).  The path side:
``pde.bilinear_interp`` of (u, u_x) at 8000 x 513 queries into a 257 x 321
grid and
``simulate._normal_increments`` at 4000 / 40000 paths x 256 steps (median
of 3), and ``simulate.kstar_midpoint_table`` (fBm, H = 0.75, sigma = 1) at
n = 512 / 1024 / 2048, each size in a fresh interpreter that reports the
call's wall time and the process's peak RSS (VmHWM, the import
included; Linux only).  ``bsde.residual_refinement_study`` as
``solve-bsde`` runs it on the bsde-liouville problem (Liouville H = 0.75,
f = -y, g = cos, u from a 257 x 321 solve; t0 = 0.05, 64 base steps, 4
levels) at 2000 / 8000 paths (median of 3), the tracemalloc peak of one
more study at each size (``refinement_study_peak_mb``), and the normals
one study draws per path (``refinement_study_normals_per_path``, leading
columns included).  ``closed_form_error`` is the max |u - exact| on |x| <= 4 of
the 321-point Picard solve of that problem at nt = 64 / 1024 uniform
steps of [0, 1], exact u = e^{-(T - t)} e^{-(V_T - V_t)/2} cos x.
Prints one JSON object.
Run it against two source trees in turn to compare them; BLAS is held to
one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import timeit
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

IMPORT_RUNS = 7
VARIANCE_SIZES = (64, 128, 256)
HEAT_SIZES = (321, 641, 1281)
SPECTRA_SIZES = (321, 641)
PICARD_GRIDS = ((129, 321), (257, 641), (513, 1281))
INTERP_GRID, INTERP_QUERIES = (257, 321), (8000, 513)
NORMAL_PATHS, NORMAL_STEPS = (4000, 40000), 256
KSTAR_SIZES = (512, 1024, 2048)
REFINEMENT_PATHS = (2000, 8000)
# VmHWM, not ru_maxrss: a child's ru_maxrss starts from its parent's RSS
# at the fork, while VmHWM counts only this process since its exec.
KSTAR_SCRIPT = """
import json, sys, time
from volterra_bsde import TimeGrid, Volatility, fbm, simulate
grid = TimeGrid.uniform(0.0, 1.0, int(sys.argv[1]))
t0 = time.perf_counter()
simulate.kstar_midpoint_table(fbm(0.75, 1.0), Volatility.constant(1.0), grid)
s = time.perf_counter() - t0
hwm = next(line for line in open("/proc/self/status") if line.startswith("VmHWM"))
print(json.dumps({"s": s, "peak_rss_mb": int(hwm.split()[1]) / 1024}))
"""


def _median_time(fn, runs=3):
    """Median wall time of ``runs`` calls of fn, and the last call's result."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=args.src)
    import_times = []
    for _ in range(IMPORT_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import volterra_bsde.cli"],
                       env=env, check=True)
        import_times.append(time.perf_counter() - t0)

    sys.path.insert(0, args.src)
    import numpy as np
    from volterra_bsde import (bsde, fbm, graded_grid, liouville_fbm, pde, reporting,
                               simulate, variance_curve)
    from volterra_bsde.operators import Volatility, variance_double_route

    out = {"src": args.src, "import_s": statistics.median(import_times),
           "variance_curve_s": {}, "variance_curve_per_point_s": {},
           "variance_double_route_s": {},
           "heat_convolve_per_call_s": {}, "picard_s": {}, "picard_sweeps": {},
           "spectra_255_s": {}, "fd_s": {}, "closed_form_error": {},
           "grid_csv_s": {}, "grid_csv_peak_mb": {}}
    sigma = Volatility.constant(1.0)
    per_point = Volatility(sigma.sigma_fn, (1.0, 1.0 + 1e-9))
    kernels = (("fbm", fbm(0.75, 1.0)), ("liouville", liouville_fbm(0.75, 1.0)))
    for name, kernel in kernels:
        for n in VARIANCE_SIZES:
            grid = graded_grid(1.0, n, power=2.0)
            routes = {"variance_curve_s": sigma, "variance_curve_per_point_s": per_point}
            times = {key: [] for key in routes}
            for _ in range(3):
                for key, sig in routes.items():
                    t0 = time.perf_counter()
                    variance_curve(kernel, sig, grid)
                    times[key].append(time.perf_counter() - t0)
            for key, samples in times.items():
                out[key][f"{name}/{n}"] = statistics.median(samples)
        out["variance_double_route_s"][name] = _median_time(
            lambda: variance_double_route(kernel, sigma, 1.0))[0]
    for m in HEAT_SIZES:
        x = np.linspace(-10.0, 10.0, m)
        h = np.cos(x)
        number = max(20, 40_000 // m)
        best = min(timeit.repeat(lambda: pde.heat_convolve(h, 1e-3, x),
                                 number=number, repeat=5))
        out["heat_convolve_per_call_s"][str(m)] = best / number

    rng = np.random.default_rng(0)
    nt, nx = INTERP_GRID
    tg, xg = np.linspace(0.0, 1.0, nt), np.linspace(-8.0, 8.0, nx)
    u = np.cos(xg)[None, :] * np.exp(-tg)[:, None]
    ux = np.gradient(u, xg, axis=-1, edge_order=2)
    n_q, n_tq = INTERP_QUERIES
    tq = np.linspace(0.0, 1.0, n_tq)
    xq = 3.0 * rng.standard_normal((n_q, n_tq))
    out["bilinear_interp_s"] = _median_time(
        lambda: pde.bilinear_interp(tg, xg, (u, ux), tq, xq))[0]
    del xq
    dt = np.full(NORMAL_STEPS, 1.0 / NORMAL_STEPS)
    out["normal_increments_s"] = {
        str(n): _median_time(lambda: simulate._normal_increments(7, n, dt))[0]
        for n in NORMAL_PATHS}
    out["kstar_midpoint_table"] = {
        str(n): json.loads(subprocess.run(
            [sys.executable, "-c", KSTAR_SCRIPT, str(n)], env=env, check=True,
            capture_output=True, text=True).stdout)
        for n in KSTAR_SIZES}

    varcurve = variance_curve(fbm(0.75, 1.0), sigma, graded_grid(1.0, 128, power=2.0))
    f = pde.Driver(f_fn=lambda t, x, y, z: -y + 0.5 * np.sin(z), lipschitz_yz=1.5)
    g = pde.TerminalCondition(g_fn=np.cos, growth=pde.GrowthBudget(c=8.0, lam=0.05))
    half = pde.default_halfwidth(varcurve)

    def render_grid(sol):
        if hasattr(reporting, "grid_csv"):
            return reporting.grid_csv("t,x,u,ux", sol.tgrid, sol.xgrid, sol.u, sol.ux)
        # trees whose grid_csv_rows yields one str per time row
        return reporting.csv_text("t,x,u,ux", reporting.grid_csv_rows(
            sol.tgrid, sol.xgrid, sol.u, sol.ux)).encode()

    def fd_from_g(tg, xg):
        lin = pde.solve_linear(g, varcurve, tg, xg)
        return pde.solve_semilinear_fd(f, lin, varcurve, sigma=sigma)

    dV = np.diff(varcurve.var_at(np.linspace(0.0, 1.0, 256)))
    for m in SPECTRA_SIZES:
        dx = 2.0 * half / (m - 1)
        out["spectra_255_s"][str(m)] = _median_time(
            lambda: pde._duhamel_spectra(dV, dx, m), runs=7)[0]
    for nt, nx in PICARD_GRIDS:
        tg = np.linspace(0.0, 1.0, nt)
        xg = np.linspace(-half, half, nx)
        out["picard_s"][f"{nt}x{nx}"], sol = _median_time(
            lambda: pde.solve_semilinear_picard(f, g, varcurve, tg, xg, tol=1e-10,
                                                sigma=sigma))
        out["picard_sweeps"][f"{nt}x{nx}"] = sol.iterations
        out["fd_s"][f"{nt}x{nx}"] = _median_time(lambda: fd_from_g(tg, xg))[0]
        out["grid_csv_s"][f"{nt}x{nx}"] = _median_time(lambda: render_grid(sol))[0]
        tracemalloc.start()
        render_grid(sol)
        out["grid_csv_peak_mb"][f"{nt}x{nx}"] = \
            tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

    varcurve = variance_curve(liouville_fbm(0.75, 1.0), sigma,
                              graded_grid(1.0, 128, power=2.0))
    f = pde.Driver(f_fn=lambda t, x, y, z: -y, lipschitz_yz=1.0)
    half = pde.default_halfwidth(varcurve)
    sol = pde.solve_semilinear_picard(f, g, varcurve, np.linspace(0.0, 1.0, 257),
                                      np.linspace(-half, half, 321), tol=1e-10,
                                      sigma=sigma)
    xg = np.linspace(-half, half, 321)
    for nt in (64, 1024):
        tg = np.linspace(0.0, 1.0, nt + 1)
        V = np.asarray(varcurve.var_at(tg))
        exact = np.exp(-(1.0 - tg) - 0.5 * (V[-1] - V))[:, None] * np.cos(xg)
        u = pde.solve_semilinear_picard(f, g, varcurve, tg, xg, tol=1e-10,
                                        sigma=sigma).u
        out["closed_form_error"][str(nt)] = float(
            np.max(np.abs(u - exact)[:, np.abs(xg) <= 4.0]))
    def study(n_paths):
        return bsde.residual_refinement_study(sol, varcurve, sigma, f, g, 0.05,
                                              1.0, n_paths=n_paths, seed=12347)

    out["refinement_study_s"] = {
        str(n): _median_time(lambda: study(n))[0] for n in REFINEMENT_PATHS}
    out["refinement_study_peak_mb"] = {}
    for n in REFINEMENT_PATHS:
        tracemalloc.start()
        study(n)
        out["refinement_study_peak_mb"][str(n)] = \
            tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    # one more study, its draws counted through the name bsde imported
    drawn = []
    draw = bsde._normal_increments

    def counted(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    bsde._normal_increments = counted
    study(2)
    bsde._normal_increments = draw
    out["refinement_study_normals_per_path"] = sum(a.shape[1] for a in drawn)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
