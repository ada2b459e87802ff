"""Configuration-driven experiment runner.

    volterra-bsde <subcommand> --config <path> --out <dir> [--seed <u64>]

Subcommands: variance, simulate, solve-pde, solve-bsde, verify, compare,
certify.  Every run writes CSV artifacts plus a manifest listing the numeric
stack, the config hashes, the seed and one sha256 per artifact; a failed
run writes ``error.txt`` and the manifest instead.  Nothing in the outputs
depends on wall-clock time, so a re-run with the same config and seed on
the same numeric stack is byte-identical.  Exit codes: 0 all checks passed,
1 a check or runtime precondition failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import traceback
from functools import cached_property

import numpy as np

from . import bsde, config as cfgmod, kernels, operators, pde, simulate
from .errors import ConfigError, VolterraError
from .reporting import Report, column_csv_rows, csv_chunks, fmt, grid_csv


# sup-norm change that ends each step's local iteration of the mild solver;
# also the gate of the reported picard_residual
PICARD_TOL = 1e-10


def _sha256(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _sha256_file(path):
    with open(path, "rb") as fh:
        return _sha256(iter(lambda: fh.read(65536), b""))


def _write_atomic(path, chunks):
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _numeric_stack():
    """Manifest lines naming the numeric stack under the artifacts: numpy's
    version (it promises no cross-version stability of its normal streams),
    the BLAS it was built with, and ``OPENBLAS_CORETYPE`` when set (the
    path matmul's round-off follows the BLAS kernel)."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    name, version = blas.get("name", "unknown"), blas.get("version", "unknown")
    lines = [f"numpy={np.__version__}", f"blas={name} {version}"]
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    if coretype:
        lines.append(f"openblas_coretype={coretype}")
    return lines


class _Workspace:
    """Everything the subcommands share.  Each config check that needs no
    numerical work runs here; the curve and the x grid wait for a reader."""

    def __init__(self, cfg, seed_override=None):
        self.cfg = cfg
        self.n_paths, self.seed, self.export_paths = cfgmod.build_mc(cfg, seed_override)
        self.base_steps, self.n_levels = cfgmod.build_study(cfg)
        self.kernel = cfgmod.build_kernel(cfg)
        self.sigma = cfgmod.build_sigma(cfg)
        self.driver = cfgmod.build_driver(cfg)
        self.terminal = cfgmod.build_terminal(cfg)
        self.tgrid, self.n_space, self.t0 = cfgmod.build_grids(cfg, self.kernel.T)

    @cached_property
    def varcurve(self):
        """Var(N_t); g's growth is checked as soon as Var(N_T) is known."""
        curve = cfgmod.build_varcurve(self.kernel, self.sigma)
        cfgmod.check_terminal(self.terminal, curve)
        return curve

    @cached_property
    def xgrid(self):
        h = pde.default_halfwidth(self.varcurve)
        return np.linspace(-h, h, self.n_space)

    def check_path_budget(self):
        """The ensemble's memory budget, checked before any numerical work."""
        simulate.check_path_budget(self.n_paths, self.tgrid.size - 1, self.sigma)

    def check_study_budget(self):
        """The refinement study's memory budget, checked likewise."""
        bsde.study_block_paths(self.n_paths, self.base_steps, self.n_levels,
                               self.n_space)

    def ensemble(self):
        return simulate.sample_paths(self.kernel, self.sigma,
                                     simulate.TimeGrid(self.tgrid),
                                     n_paths=self.n_paths, seed=self.seed)

    def solve_picard(self):
        return pde.solve_semilinear_picard(
            self.driver, self.terminal, self.varcurve, self.tgrid, self.xgrid,
            self.sigma, tol=PICARD_TOL,
        )

    def refinement_study(self, sol):
        """The Brownian-side refinement study of ``sol`` on [t0, T]."""
        return bsde.residual_refinement_study(
            sol, self.varcurve, self.sigma, self.driver, self.terminal,
            self.t0, float(self.tgrid[-1]), n_paths=self.n_paths,
            seed=self.seed, base_steps=self.base_steps, n_levels=self.n_levels,
        )


# -- subcommands ---------------------------------------------------------------


def cmd_variance(ws):
    curve = ws.varcurve
    report = Report(title="variance")
    report.add("rate_reconstruction", lhs=curve.reconstruction_error(),
               rhs=0.0, stderr=0.0,
               tol=curve.RECON_TOL * float(curve.var[-1]))
    rows = column_csv_rows(curve.grid, curve.var, curve.rate)
    return {"variance.csv": csv_chunks("t,var,rate", rows),
            "variance_report.csv": report.to_csv()}, report


def cmd_simulate(ws):
    ens = ws.ensemble()
    report = simulate.moment_checks(ens)
    k = min(ens.n_paths, ws.export_paths)
    return {"ensemble.csv": grid_csv("path_id,t,X,N", np.arange(k),
                                     ens.grid.points, ens.X[:k], ens.N[:k]),
            "simulate_report.csv": report.to_csv()}, report


def cmd_solve_pde(ws):
    sol_p = ws.solve_picard()
    sol_f = pde.solve_semilinear_fd(ws.driver, sol_p.linear, ws.varcurve,
                                    sigma=ws.sigma)
    gap = float(np.max(np.abs(sol_p.u - sol_f.u)))
    dt = float(np.max(np.diff(ws.tgrid)))
    dx = float(np.mean(np.diff(ws.xgrid)))
    report = Report(title="solve_pde")
    report.add("picard_residual", lhs=sol_p.residual, rhs=0.0, stderr=0.0,
               tol=PICARD_TOL)
    report.add("mild_fd_gap", lhs=gap, rhs=0.0, stderr=0.0,
               tol=max(5e-3, 10.0 * (dt + dx**2)))
    header = [f"# method={sol_p.method}",
              f"# nt={sol_p.tgrid.size} nx={sol_p.xgrid.size}",
              f"# iterations={sol_p.iterations} residual={fmt(sol_p.residual)}",
              "t,x,u,ux"]
    return {"pde_picard.csv": grid_csv(header, sol_p.tgrid, sol_p.xgrid,
                                       sol_p.u, sol_p.ux),
            "pde_report.csv": report.to_csv()}, report


def cmd_solve_bsde(ws):
    ws.check_path_budget()
    ws.check_study_budget()
    sol = ws.solve_picard()
    ens = ws.ensemble()
    built = bsde.build_yz(sol, ens, ws.sigma, terminal=ws.terminal,
                          n_rows=ws.export_paths)
    report = Report(title="solve_bsde")
    report.add("clip_fraction", lhs=built.clip_fraction, rhs=0.0, stderr=0.0,
               tol=bsde.CLIP_FRACTION_LIMIT)
    artifacts = {}
    if ws.export_paths > 0:  # per-path dump is optional
        artifacts["bsde_paths.csv"] = grid_csv(
            "path_id,t,Y,Z", np.arange(built.Y.shape[0]), ens.grid.points,
            built.Y, built.Z)
    # nothing below reads the paths or (Y, Z); dropped, they do not sit
    # beside the refinement study, so the ensemble phase sets the peak
    del ens, built
    study = ws.refinement_study(sol)
    # zeta_T has variance exactly Var(N_T) at every level of the study
    vT = float(ws.varcurve.var_at(ws.tgrid[-1]))
    se = vT * np.sqrt(2.0 / (ws.n_paths - 1))
    report.add("zeta_variance_match", lhs=study.zeta_var, rhs=vT, stderr=se,
               tol=3.0 * se)
    # after a level whose residual is exactly 0: 0 if this one is too, else inf
    ratios = [b / a if a else (np.inf if b else 0.0)
              for a, b in zip(study.residuals, study.residuals[1:])]
    report.add("residual_refinement_monotone", lhs=max(ratios), rhs=0.0,
               stderr=0.0, tol=1.0, passed=study.monotone)
    artifacts["bsde_report.csv"] = report.to_value_csv()
    artifacts["bsde_refinement.csv"] = csv_chunks(
        "n_steps,residual_L2", column_csv_rows(study.steps, study.residuals))
    return artifacts, report


def cmd_verify(ws):
    """The fixed seven-check verification pipeline."""
    if ws.n_paths < simulate.COVARIANCE_MIN_PATHS:
        raise ConfigError(
            f"verify's covariance validation needs [mc] n_paths >= "
            f"{simulate.COVARIANCE_MIN_PATHS}, got {ws.n_paths}",
            key="mc.n_paths")
    ws.check_path_budget()
    ws.check_study_budget()
    report = Report(title="verify")
    curve = ws.varcurve
    vT = float(curve.var[-1])

    # 1. the two independent variance routes agree
    worst = 0.0
    for frac in (0.25, 0.5, 1.0):
        t = float(curve.T * frac)
        a = operators.variance_l2_value(ws.kernel, ws.sigma, t)
        b = operators.variance_double_route(ws.kernel, ws.sigma, t)
        worst = max(worst, abs(a - b))
    report.add("variance_routes_agree", lhs=worst, rhs=0.0, stderr=0.0,
               tol=1e-4 * vT)

    # 2. the rate integrates back to the variance
    report.add("rate_reconstruction", lhs=curve.reconstruction_error(),
               rhs=0.0, stderr=0.0, tol=curve.RECON_TOL * vT)

    # 3. transfer identity (K*_T 1_[0,r])_t = K(r, t)
    r = 0.8 * curve.T
    tcheck = operators.transfer_identity_check(
        ws.kernel, r, np.linspace(0.0, curve.T, 65))
    report.add("transfer_identity", lhs=tcheck.max_abs_deviation, rhs=0.0,
               stderr=0.0, tol=1e-6)

    # 4. empirical covariance of X against R
    ens = ws.ensemble()
    cov = simulate.validate_covariance(ens, ws.kernel)
    frac = np.mean([row.passed for row in cov.rows])
    report.add("covariance_validation", lhs=float(frac), rhs=1.0,
               stderr=0.0, tol=0.0)

    # 5. heat identity with h = cos at s = T
    heat = simulate.expectation_heat_identity(ens, curve, np.cos, ens.grid.T)
    row = heat.rows[0]
    report.add("heat_identity_cos", lhs=row.lhs, rhs=row.rhs,
               stderr=row.stderr, tol=row.tol)

    # 6. expectation-form change-of-variable check, F = exp(x/2)
    F = simulate.C12Function(
        f=lambda t, x: np.exp(x / 2.0),
        df_dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        d2f_dx2=lambda t, x: np.exp(x / 2.0) / 4.0,
        label="exp(x/2)",
    )
    pts = ens.grid.points
    worst_defect, worst_tol, all_pass = 0.0, 0.0, True
    for frac_t in (0.25, 0.5, 0.75):
        t = float(pts[int(round(frac_t * (pts.size - 1)))])
        rep = simulate.ito_expectation_check(ens, curve, F, t)
        all_pass &= rep.passed
        if abs(rep.rows[0].lhs) >= worst_defect:
            worst_defect = abs(rep.rows[0].lhs)
            worst_tol = rep.rows[0].tol
    report.add("ito_expectation_exp", lhs=worst_defect, rhs=0.0,
               stderr=0.0, tol=worst_tol, passed=all_pass)
    # nothing below reads the paths; dropped, they do not sit beside the
    # study, so the ensemble phase sets the peak
    del ens

    # 7. BSDE residual shrinks under dyadic time refinement on [t0, T]
    study = ws.refinement_study(ws.solve_picard())
    report.add("bsde_residual_refinement",
               lhs=float(study.residuals[-1]), rhs=0.0, stderr=0.0,
               tol=float(study.residuals[0]), passed=study.monotone)

    return {"verify_report.csv": report.to_csv()}, report


def cmd_compare(ws):
    cfg = ws.cfg
    if not (cfg.has("driver2", "expr") or cfg.has("terminal2", "expr")):
        raise ConfigError("compare needs [driver2] and/or [terminal2] sections",
                          key="driver2.expr")
    ws.check_path_budget()
    f2 = cfgmod.build_driver(cfg, section="driver2")
    g2 = cfgmod.build_terminal(cfg, section="terminal2")
    cfgmod.check_terminal(g2, ws.varcurve, section="terminal2")
    ens = ws.ensemble()
    result = bsde.compare((ws.driver, ws.terminal), (f2, g2), ws.varcurve,
                          ws.tgrid, ws.xgrid, ws.sigma, ensemble=ens,
                          tol=PICARD_TOL)
    report = result.to_report()
    return {"compare_report.csv": report.to_value_csv(),
            "compare_gap.csv": grid_csv("t,x,u1_minus_u2", ws.tgrid, ws.xgrid,
                                        result.sol1.u - result.sol2.u)}, report


def cmd_certify(ws):
    report = Report(title="certify")
    alpha, beta, c = ws.kernel.suggested_h2_constants()
    cert = kernels.certify_H2(ws.kernel, alpha, beta, c, n_samples=10_000)
    report.add("h2_certificate", lhs=cert.max_ratio, rhs=1.0, stderr=0.0,
               tol=1e-12, passed=cert.valid)
    inj = kernels.injectivity_certificate(ws.kernel, ws.t0, n_samples=64)
    min_abs = float(np.min(np.abs([v for _, v in inj.samples])))
    report.add("injectivity_sign_definite", lhs=min_abs, rhs=0.0,
               stderr=0.0, tol=0.0, passed=inj.sign_definite)
    values = [("h2_alpha", alpha), ("h2_beta", beta), ("h2_c", c),
              ("h2_max_ratio", cert.max_ratio), ("h2_worst_t", cert.worst_t),
              ("h2_worst_s", cert.worst_s), ("injectivity_t0", inj.t0),
              ("injectivity_min_abs", min_abs)]
    lines = [f"{name},{fmt(v)}" for name, v in values]
    lines.append(f"injectivity_sign_definite,{int(inj.sign_definite)}")
    return {"certify_report.csv": report.to_csv(),
            "certify_values.csv": csv_chunks("name,value", lines)}, report


_COMMANDS = {
    "variance": cmd_variance,
    "simulate": cmd_simulate,
    "solve-pde": cmd_solve_pde,
    "solve-bsde": cmd_solve_bsde,
    "verify": cmd_verify,
    "compare": cmd_compare,
    "certify": cmd_certify,
}


def run(subcommand, config_path, out_dir, seed=None):
    """Execute one subcommand; returns the process exit code (0/1/2).

    Every run of a known subcommand writes ``manifest.txt``; a failed one
    also writes ``error.txt`` (the traceback, for an error that is not a
    ``VolterraError``).  The config hashes appear in the manifest once the
    config has loaded, the seed once the workspace is built.  If ``out_dir``
    cannot be created, only the message goes to stderr, with exit code 1.
    """
    if subcommand not in _COMMANDS:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return 2
    manifest = [
        "tool=volterra-bsde",
        f"subcommand={subcommand}",
        f"config={os.path.basename(str(config_path))}",
        *_numeric_stack(),
    ]
    try:
        os.makedirs(out_dir, exist_ok=True)
        cfg = cfgmod.load_config(config_path)
        manifest += [f"config_sha256={_sha256_file(config_path)}",
                     f"config_canonical_sha256={cfg.canonical_hash()}"]
        ws = _Workspace(cfg, seed_override=seed)
        manifest.append(f"seed={ws.seed}")
        artifacts, report = _COMMANDS[subcommand](ws)
        exit_code = 0 if report.passed else 1
    except Exception as exc:
        failure = f"{type(exc).__name__}: {exc}"
        print(failure, file=sys.stderr)
        if not os.path.isdir(out_dir):  # nowhere to write error.txt
            return 1
        detail = failure + "\n"
        if not isinstance(exc, VolterraError):
            detail = traceback.format_exc()
        artifacts = {"error.txt": [detail.encode()]}
        report = Report(title=subcommand)
        exit_code = 2 if isinstance(exc, ConfigError) else 1

    for name in sorted(artifacts):
        _write_atomic(os.path.join(out_dir, name), artifacts[name])
    manifest += [
        f"checks_passed={sum(1 for r in report.rows if r.passed)}",
        f"checks_total={len(report.rows)}",
    ]
    manifest += [
        f"artifact={name}:{_sha256(artifacts[name])}"
        for name in sorted(artifacts)
    ]
    manifest.append(f"exit={exit_code}")
    _write_atomic(os.path.join(out_dir, "manifest.txt"), csv_chunks(manifest, ()))
    return exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="volterra-bsde",
        description="Gaussian-Volterra BSDE/PDE experiment runner",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
