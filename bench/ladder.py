"""Layer ladder of the package import, the variance operators and the PDE
hot path at fixed sizes.

    python3 bench/ladder.py [--src DIR]

Times, for the volterra_bsde sources under DIR (default: this checkout's
``src``), ``import volterra_bsde.cli`` in a fresh interpreter (median of
7; every CLI run pays it), ``variance_curve`` on the graded grid
(power 2) of 64 / 128 / 256 points by both of its routes, for fBm
and Liouville (H = 0.75, sigma = 1, default rules, median of 3).
``variance_curve_s`` is the curve as the CLI builds it (one L2 value
scaled by (t / T)^{2H} on trees that have the self-similar shortcut);
``variance_curve_per_point_s`` is the same sigma function with no
constant value beside it (``Volatility(sigma.sigma_fn)``), which the
curve cannot take for constant, so it takes one L2 value per grid point.
The two routes alternate call by call, so a change of the host's speed
hits both alike.  ``variance_curve_sigma_expr_s`` is ``config.build_varcurve``, the
curve as the CLI builds it with its grid doubling, for the compiled
sigma(t) = exp(-t) and 1 + 0.5 sin(6t) on fBm and Liouville (median of
3).  ``var_at_rel_error`` is the CLI curve's clock error at each of those
sizes: max |var_at(t) - exact| /
Var(N_1) on the 257-point uniform grid of [0, 1], exact t^{2H} (fBm) or
t^{2H} / (2H) (Liouville).  ``variance_double_route_s``
is the phi route at t = 1 (sigma = 1, median of 3) for fBm and Liouville
at H = 0.6 / 0.75 / 0.9 and for the multifractional kernel
H(t) = 0.6 + 0.2 t; a route that raises
``QuadratureError`` records the message instead of a time, and
``variance_double_route_rel_error`` is the relative miss of t^{2H} (fBm)
or t^{2H} / (2H) (Liouville).  It then times one ``pde.heat_convolve``
call at m = 321 / 641 / 1281 (best of repeated calls), one compiled
driver expression call, ``-y + 0.5*sin(z)`` on rows of m = 321 / 641 / 1281
points (``expression_eval_s``, best of repeated calls; the Picard loop
calls the driver once per row and sweep), the heat-step
spectra of 255 variance increments (those of 256 uniform steps of the fBm
curve) at m = 321 / 641 on the ``default_halfwidth`` grid (median of 7), one
``pde.solve_semilinear_picard`` solve (the backward march;
``picard_sweeps`` records its largest local iteration count) and one
``pde.solve_semilinear_fd`` solve from g, its linear solve included, at
(nt, nx) = (129, 321) / (257, 641) / (513, 1281) (median of 3) on the
nonlinear benchmark problem: fBm H = 0.75, f = -y + 0.5 sin(z), g = cos,
tol 1e-10, and the rendering of that Picard solution as the bytes of
``pde_picard.csv`` (``grid_csv_s``, median of 3; ``grid_csv_peak_mb``,
the tracemalloc peak of one more rendering).  The path side:
``pde.bilinear_interp`` of (u, u_x) at 8000 x 513 queries into a 257 x 321
grid, ``simulate._normal_increments`` at 4000 / 40000 paths x 256 steps
and at the refinement study's draw shape, 8000 paths x 513 columns
(median of 3; keyed paths x columns), and
``simulate.kstar_midpoint_table`` (fBm, H = 0.75, sigma = 1) at
n = 512 / 1024 / 2048, each size in a fresh interpreter that reports the
call's wall time and the process's peak RSS (VmHWM, the import
included; Linux only).  ``bsde.residual_refinement_study`` as
``solve-bsde`` runs it on the bsde-liouville problem (Liouville H = 0.75,
f = -y, g = cos, u from a 257 x 321 solve; t0 = 0.05, 64 base steps, 4
levels) at 2000 / 8000 paths (median of 3), the tracemalloc peak of one
more study at each size (``refinement_study_peak_mb``), the minor page
faults and the wall time of one study in a fresh interpreter that first
builds the same problem (``refinement_study_minflt``, the ``ru_minflt``
delta of the call, and ``refinement_study_fresh_s``, median of 3
children; in this process the earlier stages leave the heap grown, so no
study faults here, while every CLI call is a fresh process), and the
normals one study draws per path
(``refinement_study_normals_per_path``, leading columns included).
``closed_form_error`` is the max |u - exact| on |x| <= 4 of
the 321-point Picard solve of that problem at nt = 64 / 1024 uniform
steps of [0, 1], exact u = e^{-(T - t)} e^{-(V_T - V_t)/2} cos x.
Prints one JSON object.

The whole ladder runs pinned to one CPU, with BLAS held to one thread,
beside ``perfbench/hostspeed.HostSpeed``, which samples the host's speed
on that CPU (paused while a child interpreter runs).  The host's speed
switches between a fast and a ~25-35% slower state, so beside each raw
time ``rescaled`` holds the same stage rescaled to the reference host
speed the way ``perfbench`` rescales its calls: each call's wall time
times the host factor over that call, then the same median or best.  A
call shorter than ``hostspeed.PERIOD_S`` holds no sample and takes a
kernel timing of its own, which reads the host warm.  Compare two source
trees by their rescaled times.
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
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from hostspeed import HostSpeed, pinned_to_one_cpu  # noqa: E402

IMPORT_RUNS = 7
VARIANCE_SIZES = (64, 128, 256)
DOUBLE_ROUTE_HURSTS = (0.6, 0.75, 0.9)
HEAT_SIZES = (321, 641, 1281)
EXPRESSION_SIZES = (321, 641, 1281)
SPECTRA_SIZES = (321, 641)
PICARD_GRIDS = ((129, 321), (257, 641), (513, 1281))
INTERP_GRID, INTERP_QUERIES = (257, 321), (8000, 513)
NORMAL_SHAPES = ((4000, 256), (40000, 256), (8000, 513))  # paths, columns
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

STUDY_FAULTS_SCRIPT = """
import json, resource, sys, time
import numpy as np
from volterra_bsde import Volatility, bsde, graded_grid, liouville_fbm, pde
from volterra_bsde import variance_curve
sigma = Volatility.constant(1.0)
curve = variance_curve(liouville_fbm(0.75, 1.0), sigma, graded_grid(1.0, 128, power=2.0))
f = pde.Driver(f_fn=lambda t, x, y, z: -y, lipschitz_yz=1.0)
g = pde.TerminalCondition(g_fn=np.cos)
half = pde.default_halfwidth(curve)
sol = pde.solve_semilinear_picard(f, g, curve, np.linspace(0.0, 1.0, 257),
                                  np.linspace(-half, half, 321), tol=1e-10,
                                  sigma=sigma)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
bsde.residual_refinement_study(sol, curve, sigma, f, g, 0.05, 1.0,
                               n_paths=int(sys.argv[1]), seed=12347)
s = time.perf_counter() - t0
minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"s": s, "minflt": minflt}))
"""
SIGMA_EXPRS = ("exp(-t)", "1 + 0.5*sin(6*t)")


class _Stages:
    """Raw and host-rescaled stage times, recorded into one output dict."""

    def __init__(self, host, out):
        self.host = host
        self.out = out

    def timed(self, fn):
        """fn's raw and rescaled wall time, and its result."""
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        return t1 - t0, (t1 - t0) * self.host.factor(t0, t1), result

    def record(self, key, name, raw, rescaled):
        """out[key][name], or out[key] if name is None, and its ``rescaled``
        twin."""
        if name is None:
            self.out[key] = raw
            self.out["rescaled"][key] = rescaled
        else:
            self.out[key][name] = raw
            self.out["rescaled"].setdefault(key, {})[name] = rescaled

    def stage(self, key, name, fn, runs=3):
        """Record the median raw and rescaled times of ``runs`` calls of fn;
        returns the last call's result."""
        times = [self.timed(fn) for _ in range(runs)]
        self.record(key, name, statistics.median(t[0] for t in times),
                    statistics.median(t[1] for t in times))
        return times[-1][2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args(argv)
    with pinned_to_one_cpu(), HostSpeed() as host:
        out = _ladder(args.src, host)
    print(json.dumps(out, indent=1))


def _ladder(src, host):
    env = dict(os.environ, PYTHONPATH=src)
    out = {"src": src, "rescaled": {}}
    stages = _Stages(host, out)

    def import_once():
        subprocess.run([sys.executable, "-c", "import volterra_bsde.cli"],
                       env=env, check=True)

    with host.paused():
        stages.stage("import_s", None, import_once, runs=IMPORT_RUNS)

    sys.path.insert(0, src)
    import numpy as np
    from volterra_bsde import (bsde, fbm, graded_grid, liouville_fbm, multifractional,
                               pde, reporting, simulate, variance_curve)
    from volterra_bsde.config import build_varcurve
    from volterra_bsde.errors import QuadratureError
    from volterra_bsde.expressions import compile_expression
    from volterra_bsde.operators import Volatility, variance_double_route

    out.update({"variance_curve_s": {}, "variance_curve_per_point_s": {},
                "variance_curve_sigma_expr_s": {}, "var_at_rel_error": {},
                "variance_double_route_s": {}, "variance_double_route_rel_error": {},
                "heat_convolve_per_call_s": {}, "expression_eval_s": {},
                "picard_s": {}, "picard_sweeps": {},
                "spectra_255_s": {}, "fd_s": {}, "closed_form_error": {},
                "grid_csv_s": {}, "grid_csv_peak_mb": {}, "normal_increments_s": {},
                "refinement_study_s": {}})

    sigma = Volatility.constant(1.0)
    # a sigma without a constant value, which the curve takes point by point
    per_point = Volatility(sigma.sigma_fn)
    sigma_exprs = {src: Volatility(compile_expression(src, ("t",)))
                   for src in SIGMA_EXPRS}
    # (name, kernel, Var(N_1))
    kernels = (("fbm", fbm(0.75, 1.0), 1.0),
               ("liouville", liouville_fbm(0.75, 1.0), 1.0 / 1.5))
    t_pde = np.linspace(0.0, 1.0, 257)
    for name, kernel, var_1 in kernels:
        for n in VARIANCE_SIZES:
            grid = graded_grid(1.0, n, power=2.0)
            routes = {"variance_curve_s": sigma, "variance_curve_per_point_s": per_point}
            times = {key: [] for key in routes}
            for _ in range(3):
                for key, sig in routes.items():
                    times[key].append(
                        stages.timed(lambda: variance_curve(kernel, sig, grid)))
            for key, samples in times.items():
                stages.record(key, f"{name}/{n}",
                              statistics.median(t[0] for t in samples),
                              statistics.median(t[1] for t in samples))
            curve = times["variance_curve_s"][-1][2]
            out["var_at_rel_error"][f"{name}/{n}"] = float(
                np.max(np.abs(curve.var_at(t_pde) - var_1 * t_pde ** (2.0 * kernel.hurst)))
                / var_1)
        for src, sig in sigma_exprs.items():
            stages.stage("variance_curve_sigma_expr_s", f"{name}/{src}",
                         lambda: build_varcurve(kernel, sig))
    # (key, kernel, Var(N_1) or None)
    routes = [(f"{name}/{H}", make(H, 1.0), exact) for H in DOUBLE_ROUTE_HURSTS
              for name, make, exact in (("fbm", fbm, 1.0),
                                        ("liouville", liouville_fbm, 0.5 / H))]
    routes.append(("mbm", multifractional(lambda t: 0.6 + 0.2 * np.asarray(t), 1.0),
                   None))
    for key, kernel, exact in routes:
        try:
            val = stages.stage("variance_double_route_s", key,
                               lambda: variance_double_route(kernel, sigma, 1.0))
        except QuadratureError as exc:  # trees without the O(1) phi term
            out["variance_double_route_s"][key] = f"QuadratureError: {exc}"
            continue
        if exact is not None:
            out["variance_double_route_rel_error"][key] = abs(val - exact) / exact
    for m in HEAT_SIZES:
        x = np.linspace(-10.0, 10.0, m)
        h = np.cos(x)
        number = max(20, 40_000 // m)
        runs = [stages.timed(lambda: timeit.timeit(
            lambda: pde.heat_convolve(h, 1e-3, x), number=number)) for _ in range(5)]
        stages.record("heat_convolve_per_call_s", str(m),
                      min(r[0] for r in runs) / number,
                      min(r[1] for r in runs) / number)
    driver = compile_expression("-y + 0.5*sin(z)", ("t", "x", "y", "z"))
    for m in EXPRESSION_SIZES:
        x = np.linspace(-10.0, 10.0, m)
        y, z = np.cos(x), -np.sin(x)
        number = max(20, 2_000_000 // m)
        runs = [stages.timed(lambda: timeit.timeit(
            lambda: driver(0.5, x, y, z), number=number)) for _ in range(5)]
        stages.record("expression_eval_s", str(m), min(r[0] for r in runs) / number,
                      min(r[1] for r in runs) / number)

    rng = np.random.default_rng(0)
    nt, nx = INTERP_GRID
    tg, xg = np.linspace(0.0, 1.0, nt), np.linspace(-8.0, 8.0, nx)
    u = np.cos(xg)[None, :] * np.exp(-tg)[:, None]
    ux = np.gradient(u, xg, axis=-1, edge_order=2)
    n_q, n_tq = INTERP_QUERIES
    tq = np.linspace(0.0, 1.0, n_tq)
    xq = 3.0 * rng.standard_normal((n_q, n_tq))
    stages.stage("bilinear_interp_s", None,
                 lambda: pde.bilinear_interp(tg, xg, (u, ux), tq, xq))
    del xq
    for n, steps in NORMAL_SHAPES:
        dt = np.full(steps, 1.0 / steps)
        stages.stage("normal_increments_s", f"{n}x{steps}",
                     lambda: simulate._normal_increments(7, n, dt))
    out["kstar_midpoint_table"] = {}
    for n in KSTAR_SIZES:
        with host.paused():
            t0 = time.perf_counter()
            child = json.loads(subprocess.run(
                [sys.executable, "-c", KSTAR_SCRIPT, str(n)], env=env, check=True,
                capture_output=True, text=True).stdout)
            child["rescaled_s"] = child["s"] * host.factor(t0, time.perf_counter())
        out["kstar_midpoint_table"][str(n)] = child

    varcurve = variance_curve(fbm(0.75, 1.0), sigma, graded_grid(1.0, 128, power=2.0))
    f = pde.Driver(f_fn=lambda t, x, y, z: -y + 0.5 * np.sin(z), lipschitz_yz=1.5)
    g = pde.TerminalCondition(g_fn=np.cos)
    half = pde.default_halfwidth(varcurve)

    def render_grid(sol):
        return reporting.grid_csv("t,x,u,ux", sol.tgrid, sol.xgrid, sol.u, sol.ux)

    def fd_from_g(tg, xg):
        lin = pde.solve_linear(g, varcurve, tg, xg)
        return pde.solve_semilinear_fd(f, lin, varcurve, sigma=sigma)

    dV = np.diff(varcurve.var_at(np.linspace(0.0, 1.0, 256)))
    for m in SPECTRA_SIZES:
        dx = 2.0 * half / (m - 1)
        stages.stage("spectra_255_s", str(m),
                     lambda: pde._duhamel_spectra(dV, dx, m), runs=7)
    for nt, nx in PICARD_GRIDS:
        tg = np.linspace(0.0, 1.0, nt)
        xg = np.linspace(-half, half, nx)
        sol = stages.stage("picard_s", f"{nt}x{nx}",
                           lambda: pde.solve_semilinear_picard(f, g, varcurve, tg, xg,
                                                               tol=1e-10, sigma=sigma))
        out["picard_sweeps"][f"{nt}x{nx}"] = sol.iterations
        stages.stage("fd_s", f"{nt}x{nx}", lambda: fd_from_g(tg, xg))
        stages.stage("grid_csv_s", f"{nt}x{nx}", lambda: render_grid(sol))
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

    for n in REFINEMENT_PATHS:
        stages.stage("refinement_study_s", str(n), lambda: study(n))
    out["refinement_study_peak_mb"] = {}
    for n in REFINEMENT_PATHS:
        tracemalloc.start()
        study(n)
        out["refinement_study_peak_mb"][str(n)] = \
            tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    out["refinement_study_minflt"], out["refinement_study_fresh_s"] = {}, {}
    for n in REFINEMENT_PATHS:
        children = []
        for _ in range(3):
            with host.paused():
                t0 = time.perf_counter()
                child = json.loads(subprocess.run(
                    [sys.executable, "-c", STUDY_FAULTS_SCRIPT, str(n)], env=env,
                    check=True, capture_output=True, text=True).stdout)
                children.append((child, host.factor(t0, time.perf_counter())))
        out["refinement_study_minflt"][str(n)] = int(statistics.median(
            c["minflt"] for c, _ in children))
        stages.record("refinement_study_fresh_s", str(n),
                      statistics.median(c["s"] for c, _ in children),
                      statistics.median(c["s"] * f for c, f in children))
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
    return out


if __name__ == "__main__":
    main()
