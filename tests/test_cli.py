"""CLI subcommands: exit codes, artifacts, manifest, reproducibility."""

import configparser
import contextlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import volterra_bsde
from volterra_bsde import bsde, cli, operators, pde, simulate
from volterra_bsde.cli import main, run
from volterra_bsde.config import (_KEYS, build_driver, build_grids, build_sigma,
                                  build_terminal, load_config)
from volterra_bsde.errors import ConfigError, CurveConsistencyError

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _manifest(out):
    return dict(
        line.split("=", 1) for line in
        (out / "manifest.txt").read_text().strip().split("\n")
        if not line.startswith("artifact=")
    )


def _assert_config_error_written(out):
    assert _manifest(out)["exit"] == "2"
    assert (out / "error.txt").read_text().startswith("ConfigError: ")


SMALL = """
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
expr = x

[mc]
n_paths = 1200
seed = 7
export_paths = 2

[bsde]
base_steps = 16
n_levels = 3
"""


SUBCOMMANDS = ("variance", "simulate", "solve-pde", "solve-bsde", "verify",
               "compare", "certify")


def _small_configs(tmp_path):
    """SMALL, and for compare SMALL with a shifted second terminal."""
    cfg = _write(tmp_path, SMALL)
    compare_cfg = _write(
        tmp_path,
        SMALL.replace("expr = x\n", "expr = x + 0.1\n")
        + "\n[terminal2]\nexpr = x\n",
        name="cmp.ini",
    )
    return {sub: compare_cfg if sub == "compare" else cfg for sub in SUBCOMMANDS}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Every subcommand run once on SMALL: {subcommand: (exit code, out dir)}."""
    tmp_path = tmp_path_factory.mktemp("small_runs")
    configs = _small_configs(tmp_path)
    return {sub: (run(sub, configs[sub], str(tmp_path / sub)), tmp_path / sub)
            for sub in SUBCOMMANDS}


def test_all_subcommands_reproduce_byte_identical(tmp_path, small_runs):
    configs = _small_configs(tmp_path)
    for sub in SUBCOMMANDS:
        code_a, a_dir = small_runs[sub]
        b_dir = tmp_path / f"{sub}_b"
        code_b = run(sub, configs[sub], str(b_dir))
        assert code_a == code_b == 0, sub
        names_a = sorted(p.name for p in a_dir.iterdir())
        names_b = sorted(p.name for p in b_dir.iterdir())
        assert names_a == names_b and names_a, sub
        if sub == "solve-pde":
            assert names_a == ["manifest.txt", "pde_picard.csv", "pde_report.csv"]
        for name in names_a:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), \
                (sub, name)


def test_verify_lists_seven_checks(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert run("verify", cfg, str(out)) == 0
    manifest = _manifest(out)
    assert manifest["checks_total"] == "7"
    assert manifest["checks_passed"] == "7"
    assert manifest["exit"] == "0"
    report = (out / "verify_report.csv").read_text().strip().split("\n")
    assert len(report) == 8  # header + seven checks
    assert all(line.endswith(",1") for line in report[1:])


def test_verify_and_solve_bsde_share_one_refinement_study(tmp_path):
    # both run the study on the Brownian-side window [t0, T] of [grids] t0
    ws = cli._Workspace(load_config(_write(tmp_path, SMALL)))
    artifacts, report = cli.cmd_solve_bsde(ws)
    assert [row.name for row in report.rows] == [
        "clip_fraction", "zeta_variance_match", "residual_refinement_monotone"]
    levels = b"".join(artifacts["bsde_refinement.csv"]).decode().strip().split("\n")[1:]
    residuals = [float(line.split(",")[1]) for line in levels]
    _, verify = cli.cmd_verify(ws)
    row = next(r for r in verify.rows if r.name == "bsde_residual_refinement")
    assert row.lhs == residuals[-1]
    assert row.tol == residuals[0]


def test_missing_hurst_is_config_error(tmp_path, capsys):
    bad = SMALL.replace("hurst = 0.75\n", "")
    cfg = _write(tmp_path, bad)
    out = tmp_path / "out"
    code = run("verify", cfg, str(out))
    assert code == 2
    assert "hurst" in capsys.readouterr().err
    _assert_config_error_written(out)
    manifest = _manifest(out)
    assert "config_canonical_sha256" in manifest and "seed" not in manifest


def test_bad_expression_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL.replace("expr = x\n", "expr = x + qq\n"))
    out = tmp_path / "out"
    code = run("solve-pde", cfg, str(out))
    assert code == 2
    assert "expr" in capsys.readouterr().err
    _assert_config_error_written(out)


def test_variance_report_holds_the_reconstruction_row_only(small_runs):
    code, out = small_runs["variance"]
    assert code == 0 and _manifest(out)["checks_total"] == "1"
    rows = (out / "variance_report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["rate_reconstruction"]


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_u64_is_config_error(tmp_path, capsys, seed):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 f"--seed={seed}"]) == 2
    assert "seed" in capsys.readouterr().err
    _assert_config_error_written(out)
    bad = _write(tmp_path, SMALL.replace("seed = 7\n", f"seed = {seed}\n"),
                 name="bad.ini")
    out2 = tmp_path / "out2"
    assert run("simulate", bad, str(out2)) == 2
    assert "seed" in capsys.readouterr().err
    _assert_config_error_written(out2)


def test_seed_at_u64_max_is_accepted(tmp_path):
    cfg = _write(tmp_path, SMALL)
    assert run("simulate", cfg, str(tmp_path / "out"),
               seed=2**64 - 1) == 0
    # solve-bsde draws its ensemble and its Brownian-side study from it
    out = tmp_path / "bsde"
    assert run("solve-bsde", cfg, str(out), seed=2**64 - 1) in (0, 1)
    assert _manifest(out)["seed"] == str(2**64 - 1)


def test_single_path_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL.replace("n_paths = 1200\n", "n_paths = 1\n"))
    out = tmp_path / "out"
    assert run("simulate", cfg, str(out)) == 2
    assert "n_paths" in capsys.readouterr().err
    _assert_config_error_written(out)


def test_out_path_naming_a_file_exits_one_without_traceback(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run("variance", cfg, str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("FileExistsError: ") and "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def test_unexpected_exception_writes_traceback(tmp_path, capsys, monkeypatch):
    def broken(ws):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "variance", broken)
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert run("variance", cfg, str(out)) == 1
    assert capsys.readouterr().err == "RuntimeError: boom\n"
    error = (out / "error.txt").read_text()
    assert error.startswith("Traceback (most recent call last):")
    assert error.endswith("RuntimeError: boom\n")
    assert _manifest(out)["exit"] == "1"


def test_variance_grid_doubles_until_the_rate_integrates_back(tmp_path):
    # this mbm rate misses var by 7.5e-7 * Var(T) > 1e-6 * Var(T) on 128
    # graded points and by 2.8e-7 * Var(T) on 256
    mbm = _write(tmp_path, SMALL.replace(
        "family = liouville_fbm\nhurst = 0.75\n",
        "family = mbm\nhurst_expr = 0.55 + 0.3 * t\n"))
    out = tmp_path / "out"
    assert run("variance", mbm, str(out)) == 0
    rows = (out / "variance.csv").read_text().strip().split("\n")
    assert rows[0] == "t,var,rate" and len(rows) == 1 + 257


def test_too_coarse_variance_grid_is_config_error(tmp_path, capsys, monkeypatch):
    # a rate that no grid up to 1024 points integrates back to the variance
    sizes = []

    def too_coarse(kernel, sigma, grid):
        sizes.append(grid.size)
        raise CurveConsistencyError("integrated rate misses var")

    monkeypatch.setattr(cli.cfgmod, "variance_curve", too_coarse)
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert run("variance", cfg, str(out)) == 2
    assert sizes == [129, 257, 513, 1025]
    assert "[kernel]" in capsys.readouterr().err
    _assert_config_error_written(out)
    assert "on 1024 graded points" in (out / "error.txt").read_text()
    # the curve is built by the subcommand, after the workspace's eager checks
    assert _manifest(out)["seed"] == "7"


def test_growth_budget_is_checked_with_the_curve(tmp_path, capsys):
    # Var(N_T) = 1/1.5 for Liouville H = 0.75, so g must grow slower than
    # exp(0.375 x^2); the rate is measured once the curve is built
    cfg = _write(tmp_path, SMALL.replace("expr = x\n", "expr = exp(0.5*x^2)\n"))
    for sub in ("variance", "solve-pde"):
        out = tmp_path / sub
        assert run(sub, cfg, str(out)) == 2
        assert "[terminal] expr" in capsys.readouterr().err
        _assert_config_error_written(out)
        assert "g grows like exp(0.5 x^2) >= (4 Var(N_T))^-1 = 0.375" in \
            (out / "error.txt").read_text()
    for sub in ("simulate", "certify"):
        assert run(sub, cfg, str(tmp_path / sub)) == 0


@pytest.mark.parametrize("overrides", [
    {("terminal", "expr"): "9"},
    {("terminal", "expr"): "10*x"},
    {("kernel", "T"): "6.0"},
])
def test_bounded_linear_and_long_horizon_terminals_run(tmp_path, overrides):
    """A large constant, a steep line and a long horizon all grow slower
    than the heat flow allows."""
    cfg = _write(tmp_path, _small_with(overrides))
    out = tmp_path / "out"
    assert run("solve-pde", cfg, str(out)) == 0
    assert _manifest(out)["exit"] == "0"
    assert not (out / "error.txt").exists()


@pytest.mark.parametrize("key", ["growth_c", "growth_lambda"])
def test_declared_growth_keys_are_unknown(tmp_path, key):
    cfg = _write(tmp_path, SMALL.replace("expr = x\n", f"expr = x\n{key} = 8.0\n"))
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        assert run("solve-pde", cfg, str(out)) == 2
    _assert_config_error_written(out)
    assert f"unknown config key [terminal] {key}" in (out / "error.txt").read_text()


def test_zero_lipschitz_budget_is_enforced(tmp_path):
    # SMALL declares lipschitz = 0
    cfg = _write(tmp_path, _small_with({("driver", "expr"): "-5*y"}))
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        assert run("solve-pde", cfg, str(out)) == 1
    assert _manifest(out)["exit"] == "1"
    assert "estimate 5 exceeds budget 0" in (out / "error.txt").read_text()


@pytest.mark.parametrize("sub", ["simulate", "certify"])
def test_simulate_and_certify_never_build_the_curve(tmp_path, monkeypatch, sub):
    def refused(*args):
        raise AssertionError("variance curve built")

    monkeypatch.setattr(cli.cfgmod, "build_varcurve", refused)
    assert run(sub, _write(tmp_path, SMALL), str(tmp_path / "out")) == 0


def _with_lines(section, lines):
    """SMALL with ``lines`` at the top of [section] (appended if SMALL has no
    such section); SMALL's own line for a key that ``lines`` sets is dropped."""
    keys = {line.split("=")[0].strip() for line in lines.split("\n")}
    out, current = [], None
    for line in SMALL.split("\n"):
        if line.startswith("["):
            current = line[1:-1]
        elif current == section and line.split("=")[0].strip() in keys:
            continue
        out.append(line)
        if line == f"[{section}]":
            out.append(lines)
    if f"[{section}]" not in SMALL:
        out.append(f"[{section}]\n{lines}\n")
    return "\n".join(out)


# (section, lines, key the error must name)
_BAD_INPUTS = [
    # [tolerances] is not a section, whatever its values
    ("tolerances", "max_iter = 0", "max_iter"),
    ("tolerances", "picard_tol = 0", "picard_tol"),
    ("tolerances", "picard_tol = -1", "picard_tol"),
    ("tolerances", "quad_abs = -1e-8", "quad_abs"),
    ("tolerances", "quad_rel = -1e-6", "quad_rel"),
    ("tolerances", "quad_abs = 0\nquad_rel = 0", "quad_abs"),
    ("grids", "x_halfwidth = 5", "x_halfwidth"),
    ("grids", "var_power = 1", "var_power"),
    ("grids", "n_spcae = 81", "n_spcae"),
    # the variance curve picks its own grid
    ("grids", "n_var = 128", "n_var"),
    ("tolerence", "picard_tol = 1e-9", "tolerence"),
    ("bsde", "base_steps = 0", "base_steps"),
    ("bsde", "base_steps = 1", "base_steps"),
    ("bsde", "n_levels = 0", "n_levels"),
    ("bsde", "n_levels = 1", "n_levels"),
    ("mc", "export_paths = -1", "export_paths"),
    # the builtin-name spelling of a problem is gone
    ("driver", "name = zero", "name"),
    ("terminal", "name = identity", "name"),
]


@pytest.mark.parametrize("section,lines,key", [
    pytest.param(*case, id=f"{case[1]}-{case[2]}") for case in _BAD_INPUTS
])
def test_invalid_tolerances_are_config_errors(tmp_path, capsys, section, lines, key):
    """Unknown sections and keys and out-of-range [bsde] / [mc] counts exit
    2 before any seed is drawn."""
    cfg = _write(tmp_path, _with_lines(section, lines))
    out = tmp_path / "out"
    assert run("solve-bsde", cfg, str(out)) == 2
    assert key in capsys.readouterr().err
    _assert_config_error_written(out)
    assert "seed" not in _manifest(out)


def test_refinement_study_over_the_memory_budget_exits_one(tmp_path, capsys,
                                                           monkeypatch):
    # 16 * 2**47 finest steps, or an ensemble of 3e6 paths: the subcommands
    # price the study and the paths before they build the curve, solve the
    # PDE or sample a path
    def refused(*args, **kwargs):
        raise AssertionError("numerical work before the budget check")

    for module, name in ((pde, "solve_semilinear_picard"),
                         (bsde, "solve_semilinear_picard"),
                         (simulate, "sample_paths"),
                         (operators, "variance_curve"),
                         (cli.cfgmod, "variance_curve")):
        monkeypatch.setattr(module, name, refused)
    study = _write(tmp_path, _with_lines("bsde", "n_levels = 48"))
    paths = _write(tmp_path, _with_lines("mc", "n_paths = 3000000")
                   + "\n[terminal2]\nexpr = x - 1\n", name="paths.ini")
    for sub, cfg in (("solve-bsde", study), ("verify", study),
                     ("solve-bsde", paths), ("verify", paths),
                     ("compare", paths)):
        out = tmp_path / f"{sub}-{os.path.basename(cfg)}"
        assert run(sub, cfg, str(out)) == 1, (sub, cfg)
        assert "ResourceBudgetError" in capsys.readouterr().err
        assert _manifest(out)["exit"] == "1"
        assert (out / "error.txt").read_text().startswith("ResourceBudgetError: ")


def test_compare_second_problem_given_by_name(tmp_path):
    # a compare config without [driver2] takes [driver]'s expr, and gives
    # the artifacts of the shipped config that repeats it
    shipped = (CONFIGS / "compare_shift.ini").read_text()
    short = shipped.replace("[driver2]\nexpr = 0\nlipschitz = 0\n\n", "")
    assert "[driver2]" not in short and "[terminal2]" in short
    a, b = tmp_path / "shipped", tmp_path / "short"
    assert run("compare", str(CONFIGS / "compare_shift.ini"), str(a)) == 0
    assert run("compare", _write(tmp_path, short), str(b)) == 0
    for name in ("compare_report.csv", "compare_gap.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_second_problem_falls_back_to_first_name_and_expr(tmp_path):
    first = SMALL.replace("[driver]\nexpr = 0\n", "[driver]\nexpr = -y\n")
    cfg = load_config(_write(tmp_path, first + "\n[terminal2]\nexpr = x + 1\n",
                             "a.ini"))
    assert build_driver(cfg, "driver2").label == "-y"
    assert build_terminal(cfg, section="terminal2").label == "x + 1"
    # a section's own expr wins over the first problem's
    own = load_config(_write(tmp_path, first + "\n[driver2]\nexpr = 1\n"
                             "\n[terminal2]\nexpr = x^2\n", "b.ini"))
    assert build_driver(own, "driver2").label == "1"
    assert build_terminal(own, section="terminal2").label == "x^2"
    # a [driver2] that sets only lipschitz still reads [driver]'s expr
    partial = load_config(_write(tmp_path, first + "\n[driver2]\nlipschitz = 2\n",
                                 "c.ini"))
    assert build_driver(partial, "driver2").label == "-y"
    assert build_driver(partial, "driver2").lipschitz_yz == 2.0


def test_compare_ordering_violation_exits_one(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        SMALL.replace("expr = x\n", "expr = x - 0.1\n")
        + "\n[terminal2]\nexpr = x\n",
    )
    out = tmp_path / "out"
    code = run("compare", cfg, str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "g1 < g2 at x" in err
    assert (out / "error.txt").exists()
    assert (out / "manifest.txt").exists()


def test_seed_override_changes_outputs(tmp_path):
    cfg = _write(tmp_path, SMALL)
    a, b, c = (tmp_path / n for n in ("sa", "sb", "sc"))
    run("simulate", cfg, str(a))
    run("simulate", cfg, str(b), seed=123)
    run("simulate", cfg, str(c), seed=123)
    ens_a = (a / "ensemble.csv").read_bytes()
    assert ens_a != (b / "ensemble.csv").read_bytes()
    assert (b / "ensemble.csv").read_bytes() == (c / "ensemble.csv").read_bytes()


def test_canonical_hash_semantics(tmp_path):
    base = load_config(_write(tmp_path, SMALL, "a.ini"))
    commented = load_config(
        _write(tmp_path, "# a leading comment\n" + SMALL, "b.ini")
    )
    assert base.canonical_hash() == commented.canonical_hash()
    changed = load_config(
        _write(tmp_path, SMALL.replace("seed = 7", "seed = 8"), "c.ini")
    )
    assert base.canonical_hash() != changed.canonical_hash()


def test_manifest_artifact_hashes_match_files(small_runs):
    """The artifact contract of all seven subcommands: each artifact= digest
    is the sha256 of the file on disk, each CSV is ASCII ending in a
    newline, and no *.tmp file is left behind."""
    import hashlib

    for sub, (code, out) in small_runs.items():
        assert code == 0, sub
        lines = (out / "manifest.txt").read_text().splitlines()
        digests = dict(line[len("artifact="):].rsplit(":", 1)
                       for line in lines if line.startswith("artifact="))
        files = sorted(p.name for p in out.iterdir())
        assert files == sorted([*digests, "manifest.txt"]), sub
        for name, digest in digests.items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (sub, name)
            assert name.endswith(".csv") and data.isascii(), (sub, name)
            assert data.endswith(b"\n"), (sub, name)


def test_manifest_names_the_numeric_stack(tmp_path, monkeypatch, small_runs):
    """numpy's version, the BLAS it was built with and, when set,
    OPENBLAS_CORETYPE; nothing in them varies from run to run."""
    import numpy as np

    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    cfg = _small_configs(tmp_path)["certify"]
    texts = [(tmp_path / name / "manifest.txt").read_text()
             for name in ("a", "b") if run("certify", cfg, str(tmp_path / name)) == 0]
    assert len(texts) == 2 and texts[0] == texts[1]
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    for sub, (_, out) in small_runs.items():
        manifest = _manifest(out)
        assert manifest["numpy"] == np.__version__, sub
        assert manifest["blas"] == f"{blas['name']} {blas['version']}", sub
    assert "openblas_coretype" not in _manifest(tmp_path / "a")
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert run("certify", cfg, str(tmp_path / "c")) == 0
    assert _manifest(tmp_path / "c")["openblas_coretype"] == "Haswell"


@pytest.mark.parametrize("n_paths", [999, 1000])
def test_verify_refuses_too_few_paths_before_any_work(tmp_path, n_paths):
    """Fewer paths than the covariance validation needs is a config error
    naming [mc] n_paths, raised before the curve, the ensemble or the PDE;
    the minimum itself runs every check."""
    cfg = _write(tmp_path, SMALL.replace("n_paths = 1200", f"n_paths = {n_paths}"))
    out = tmp_path / "out"
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        code = run("verify", cfg, str(out))
    elapsed = time.perf_counter() - start
    if n_paths < simulate.COVARIANCE_MIN_PATHS:
        assert code == 2 and elapsed < 0.5, (code, elapsed)
        _assert_config_error_written(out)
        assert "[mc] n_paths" in (out / "error.txt").read_text()
        with pytest.raises(ConfigError) as err:
            cli.cmd_verify(cli._Workspace(load_config(cfg)))
        assert err.value.key == "mc.n_paths"
    else:
        assert code != 2 and not (out / "error.txt").exists()
        rows = (out / "verify_report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows][3] == "covariance_validation"


def test_shipped_configs_parse():
    paths = sorted(CONFIGS.glob("*.ini")) + \
        sorted((CONFIGS.parent / "perfbench" / "workloads").glob("*.ini"))
    assert len(paths) >= 6
    for path in paths:
        assert load_config(str(path)).get("kernel", "family")


def test_verify_on_shipped_fbm_linear_config(tmp_path):
    out = tmp_path / "out"
    code = run("verify", str(CONFIGS / "fbm_linear.ini"), str(out))
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "checks_passed=7" in manifest
    assert "checks_total=7" in manifest


def _shipped_with(tmp_path, name, **sections):
    """The shipped config ``name`` with each given section's keys updated."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep the key T upper-case
    parser.read(CONFIGS / name)
    for section, values in sections.items():
        parser[section].update(values)
    path = tmp_path / name
    with open(path, "w") as fh:
        parser.write(fh)
    return str(path)


def _routes_agree_row(out):
    report = (out / "verify_report.csv").read_text().strip().split("\n")
    return next(line for line in report if line.startswith("variance_routes_agree,"))


def test_verify_on_liouville_near_one(tmp_path):
    # at H = 0.9 the phi route's near-diagonal pairs switch to the asymptote
    # where its O(1) term is 11% of phi; without it the route raises
    # QuadratureError and verify exits 1
    cfg = _shipped_with(tmp_path, "liouville_linear.ini", kernel={"hurst": "0.9"})
    out = tmp_path / "out"
    assert run("verify", cfg, str(out)) == 0
    assert _manifest(out)["checks_passed"] == "7"
    assert _routes_agree_row(out).endswith(",1")


def test_verify_on_multifractional_kernel(tmp_path):
    # H(t) = 0.6 + 0.2 t: the phi route takes the exponents at 0, e(0) = 0.1
    cfg = _shipped_with(tmp_path, "fbm_linear.ini",
                        kernel={"family": "mbm", "hurst_expr": "0.6 + 0.2 * t"})
    out = tmp_path / "out"
    assert run("verify", cfg, str(out)) == 0
    assert _manifest(out)["exit"] == "0"
    assert _routes_agree_row(out).endswith(",1")


def test_main_entry_point(tmp_path):
    cfg = _write(tmp_path, SMALL)
    code = main(["variance", "--config", cfg, "--out", str(tmp_path / "m")])
    assert code == 0
    assert (tmp_path / "m" / "variance.csv").exists()


def test_cli_import_and_verify_leave_scipy_unloaded(tmp_path):
    # SciPy is a test-only dependency: neither the import nor a full
    # verify run may load any of it
    code = ("import sys, volterra_bsde.cli as c\n"
            "def scipy_mods():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "after_import = scipy_mods()\n"
            "code = c.run('verify', sys.argv[1], sys.argv[2])\n"
            "print(after_import, scipy_mods(), code)\n"
            "sys.exit(bool(after_import or scipy_mods()) or code)\n")
    cfg = _write(tmp_path, SMALL)
    src = pathlib.Path(volterra_bsde.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "v")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "[] [] 0"


def test_variance_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # the curve's slopes come from a sweep in Python floats, not from
    # LAPACK, so OpenBLAS's Prescott kernels write the default kernels'
    # variance.csv byte for byte (BLAS held to one thread in both runs)
    src = pathlib.Path(volterra_bsde.__file__).resolve().parents[1]
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    written = []
    for name, kernel in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        env = dict(base, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", **kernel)
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-m", "volterra_bsde.cli", "variance", "--config",
             str(CONFIGS / "liouville_linear.ini"), "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        written.append((out / "variance.csv").read_bytes())
    assert written[0] == written[1]


def test_solve_pde_solves_the_linear_problem_once(tmp_path, monkeypatch):
    calls = []
    solve_linear = cli.pde.solve_linear

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_linear(*args, **kwargs)

    monkeypatch.setattr(cli.pde, "solve_linear", counted)
    assert run("solve-pde", _write(tmp_path, SMALL), str(tmp_path / "p")) == 0
    assert len(calls) == 1


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x", "--out", "y"])


def test_run_with_an_unknown_subcommand_returns_two_and_writes_nothing(tmp_path,
                                                                      capsys):
    out = tmp_path / "out"
    assert run("frobnicate", _write(tmp_path, SMALL), str(out)) == 2
    assert "unknown subcommand 'frobnicate'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["unreadable", "unparsable", "compare_alone"])
def test_a_config_that_cannot_serve_is_config_error(tmp_path, case):
    """A path that cannot be read, a file configparser cannot parse and
    `compare` with no second problem: exit 2, a manifest and an error.txt
    that names the problem."""
    sub, cfg, problem = {
        "unreadable": ("variance", str(tmp_path / "nosuch.ini"), "cannot read config"),
        "unparsable": ("variance", _write(tmp_path, "expr = x\n[kernel]\n", "bad.ini"),
                       "cannot parse config"),
        "compare_alone": ("compare", _write(tmp_path, SMALL),
                          "compare needs [driver2] and/or [terminal2]"),
    }[case]
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        assert run(sub, cfg, str(out)) == 2
    _assert_config_error_written(out)
    assert problem in (out / "error.txt").read_text()


_EXPR_SIGMA = "\n[sigma]\nkind = expr\nvalue = 1 + t\n"


def test_table_sigma_runs_and_a_bad_table_is_config_error(tmp_path, capsys):
    """The old table (times 0, 1; values 1, 2) is the expression 1 + t,
    which runs; a table's own keys are unknown, a config error naming them."""
    cfg = _write(tmp_path, SMALL + _EXPR_SIGMA)
    for sub in ("simulate", "solve-pde"):
        assert run(sub, cfg, str(tmp_path / sub)) == 0
    for key in ("times", "values"):
        bad = _write(tmp_path, SMALL + _EXPR_SIGMA + f"{key} = 0, 1\n", f"{key}.ini")
        out = tmp_path / key
        assert run("simulate", bad, str(out)) == 2
        assert f"[sigma] {key}" in capsys.readouterr().err
        _assert_config_error_written(out)
        with pytest.raises(ConfigError) as info:
            build_sigma(load_config(bad))
        assert info.value.key == f"sigma.{key}"


@pytest.mark.parametrize("family", ["liouville_fbm", "fbm"])
@pytest.mark.parametrize("times,values", [
    ("0, 0.5, 1", "1, 1.5, 0.8"), ("0.5, 2", "1, 2"), ("-1, 0.25", "1, 2"),
])
@pytest.mark.parametrize("sub", ["variance", "certify"])
def test_table_sigma_with_a_knot_inside_the_horizon_is_refused(tmp_path, sub,
                                                               family, times,
                                                               values):
    """A sigma table, knots inside (0, T) or not, is no longer spelled:
    its `times` and `values` are unknown keys, a config error naming
    sigma.times (the first of them) before any numerical work, exit 2
    within half a second.  A kinked sigma is an expression now
    (``test_expression_sigma_runs_or_is_refused_by_key``)."""
    cfg = _write(tmp_path, _small_with({
        ("kernel", "family"): family, ("sigma", "kind"): "table",
        ("sigma", "times"): times, ("sigma", "values"): values}))
    out = tmp_path / "out"
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        code = run(sub, cfg, str(out))
    elapsed = time.perf_counter() - t0
    assert code == 2
    _assert_config_error_written(out)
    assert "[sigma] times" in (out / "error.txt").read_text()
    assert elapsed < 0.5
    with pytest.raises(ConfigError) as info:
        build_sigma(load_config(cfg))
    assert info.value.key == "sigma.times"


@pytest.mark.parametrize("key,value", [("n_time", "1"), ("n_space", "8")])
def test_too_small_grid_is_config_error_naming_its_key(tmp_path, key, value):
    cfg = load_config(_write(tmp_path, _small_with({("grids", key): value})))
    with pytest.raises(ConfigError, match=f"{key} must be >= ") as info:
        build_grids(cfg, 1.0)
    assert info.value.key == f"grids.{key}"


def test_table_sigma_knots_at_or_beyond_the_horizon_run(tmp_path):
    # the affine sigma of the tables with knots at 0 and T (1, 2) and outside
    # [0, T] (-1, 0, 1, 3 -> 1, 1.5, 2, 3), now spelled as expressions
    for value in ("1 + t", "1.5 + 0.5*t"):
        cfg = _write(tmp_path, _small_with({
            ("sigma", "kind"): "expr", ("sigma", "value"): value}))
        assert run("variance", cfg, str(tmp_path / "v")) == 0


_VALUE = "[sigma] value"


@pytest.mark.parametrize("kind,value,key", [
    ("constant", "0", _VALUE), ("constant", "-1", _VALUE), ("expr", "t", _VALUE),
    ("expr", "1 - t", _VALUE), ("expr", "1/(t - 0.5)", _VALUE), ("expr", "x", _VALUE),
    ("constant", "1 + t", _VALUE), ("table", "1", "[sigma] kind"),
    ("expr", "exp(-t)", None), ("expr", "1 + 0.5*sin(6*t)", None), ("expr", "2", None),
])
def test_expression_sigma_runs_or_is_refused_by_key(tmp_path, kind, value, key):
    """A smooth sigma(t) > 0 runs `variance` (key None); one that is zero,
    negative or not finite somewhere on [0, T], a constant that holds t, an
    unknown variable and an unknown kind exit 2 within half a second naming
    the key."""
    cfg = _write(tmp_path, _small_with({("sigma", "kind"): kind,
                                        ("sigma", "value"): value}))
    out = tmp_path / "out"
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        code = run("variance", cfg, str(out))
    elapsed = time.perf_counter() - t0
    if key is None:
        assert code == 0
        return
    assert code == 2 and elapsed < 0.5
    _assert_config_error_written(out)
    assert key in (out / "error.txt").read_text()


def test_constant_sigma_folds_to_the_constant_route(tmp_path):
    # a value with no t is constant under either kind, so the curve takes
    # its self-similar route and the paths their unit-sigma branch
    for kind in ("constant", "expr"):
        sigma = build_sigma(load_config(_write(tmp_path, _small_with({
            ("sigma", "kind"): kind, ("sigma", "value"): "2*0.5"}))))
        assert sigma.value == 1.0
    assert build_sigma(load_config(_write(tmp_path, _small_with({
        ("sigma", "kind"): "expr", ("sigma", "value"): "1 + 0*t"})))).value is None


_DOMAIN_CASES = [
    ({("sigma", "value"): "0"}, "[sigma] value"),
    ({("sigma", "value"): "-1"}, "[sigma] value"),
    ({("sigma", "values"): "1, 0"}, "[sigma] values"),
    ({("sigma", "kind"): "expr", ("sigma", "value"): "1 - t"}, "[sigma] value"),
    ({("sigma", "times"): "1, 0"}, "[sigma] times"),
    ({("driver", "lipschitz"): "-1"}, "[driver] lipschitz"),
    ({("driver", "lipschitz"): "nan"}, "[driver] lipschitz"),
    ({("driver", "lipschitz"): "inf"}, "[driver] lipschitz"),
    ({("driver", "lipschitz"): "-inf"}, "[driver] lipschitz"),
]
# g2's growth is checked once `compare` has built the curve
_SECOND_TERMINAL_CASES = [
    ({("terminal2", "expr"): "exp(0.5*x^2)"}, "[terminal2] expr"),
    ({("terminal2", "expr"): "sqrt(x)"}, "[terminal2] expr"),
]


# a horizon that is not positive, deep nesting and constants that are not
# finite, refused at parse time
_PARSE_TIME_CASES = [
    ("variance", {("kernel", "T"): "0"}, "[kernel] T"),
    ("certify", {("kernel", "T"): "nan"}, "[kernel] T"),
    ("variance", {("terminal", "expr"): "-" * 3000 + "x"}, "[terminal] expr"),
    ("variance", {("terminal", "expr"): "+".join(["x"] * 3000)}, "[terminal] expr"),
    ("variance", {("terminal", "expr"): "x + 1/0"}, "[terminal] expr"),
    ("variance", {("terminal", "expr"): "10^400"}, "[terminal] expr"),
    ("solve-pde", {("driver", "expr"): "-y + 0^-1"}, "[driver] expr"),
    ("solve-pde", {("driver", "expr"): "y*10^400"}, "[driver] expr"),
]


@pytest.mark.parametrize("sub,overrides,key", [
    *((sub, overrides, key) for sub in ("variance", "certify")
      for overrides, key in _DOMAIN_CASES),
    *(("compare", overrides, key) for overrides, key in _SECOND_TERMINAL_CASES),
    *_PARSE_TIME_CASES,
])
def test_out_of_domain_problem_values_are_config_errors(tmp_path, sub, overrides,
                                                        key):
    """A horizon, volatility, Lipschitz budget, terminal growth or expression
    that the problem objects reject is a config error naming its key: exit 2, a
    manifest and a one-line error."""
    cfg = _write(tmp_path, _small_with(overrides))
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run(sub, cfg, str(out)) == 2
    _assert_config_error_written(out)
    text = (out / "error.txt").read_text()
    assert key in text and "Traceback" not in text + err.getvalue()


# per settable key: valid, boundary and malformed values; None deletes the
# key, so its default applies or the key is missing.  Sizes stay small, so
# each run ends well inside a second.
_FUZZ_VALUES = {
    ("kernel", "family"): ["fbm", "mbm", "nosuch", None],
    ("kernel", "hurst"): ["0.6", "0.5", "1", "x", None],
    ("kernel", "hurst_expr"): ["0.6 + 0.2 * t", "0.55 + 0.4 * sqrt(t)", "0.5",
                               "t +", "q"],
    ("kernel", "T"): ["0.5", "0", "-1", "nan", "x"],
    ("sigma", "kind"): ["constant", "expr", "table", "nosuch"],
    ("sigma", "value"): ["2", "exp(-t)", "1 + 0.5*sin(6*t)", "1 + 0.5*t", "t",
                         "1 - t", "1/(t - 0.5)", "0", "-1", "x"],
    ("grids", "t0"): ["0.5", "0", "1", "nan", "x"],
    ("grids", "n_time"): ["2", "1", "x"],
    ("grids", "n_space"): ["9", "8", "x"],
    ("driver", "expr"): ["-y + z", "max(x, 0)", "y +", "q", ""],
    ("driver", "lipschitz"): ["2", "0", "-1", "nan", "x"],
    ("terminal", "expr"): ["cos(x)", "exp(x^2)", "sqrt(x)", "x +", ""],
    ("mc", "n_paths"): ["2", "1", "x"],
    ("mc", "seed"): ["0", "18446744073709551615", "-1", "18446744073709551616",
                     "x"],
    ("mc", "export_paths"): ["0", "-1", "x"],
    ("bsde", "base_steps"): ["2", "1", "x"],
    ("bsde", "n_levels"): ["2", "1", "x"],
}


def _small_with(overrides):
    """SMALL with each (section, key) of ``overrides`` set to its value, or
    deleted where the value is None."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(SMALL)
    for (section, key), value in overrides.items():
        if value is None:
            if parser.has_section(section):
                parser.remove_option(section, key)
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


def test_fuzz_values_cover_every_settable_key():
    assert set(_FUZZ_VALUES) == {(s, k) for s, keys in _KEYS.items() for k in keys}


_OVERRIDES = st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), min_size=1,
                      max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: st.sampled_from(_FUZZ_VALUES[key]) for key in keys}))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(overrides=_OVERRIDES, sub=st.sampled_from(["variance", "certify"]))
@example(overrides={("sigma", "kind"): "expr", ("sigma", "value"): "exp(-t)"},
         sub="variance")
@example(overrides={("sigma", "kind"): "table", ("sigma", "times"): "0, 1",
                    ("sigma", "values"): "1, 2"}, sub="variance")
@example(overrides={("sigma", "kind"): "table"}, sub="variance")
@example(overrides={("kernel", "family"): None}, sub="certify")
@example(overrides={("kernel", "T"): "x"}, sub="variance")
@example(overrides={("kernel", "family"): "nosuch"}, sub="certify")
@example(overrides={("kernel", "family"): "mbm", ("kernel", "hurst_expr"): "t +"},
         sub="variance")
@example(overrides={("kernel", "family"): "mbm",
                    ("kernel", "hurst_expr"): "0.55 + 0.4 * sqrt(t)"}, sub="variance")
@example(overrides={("grids", "t0"): "1"}, sub="variance")
def test_fuzzed_config_exits_with_a_documented_code(overrides, sub):
    """Every config either runs or fails with exit 1 or 2, and always leaves
    a manifest; a config error (exit 2) is one line, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.ini")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(_small_with(overrides))
        out = pathlib.Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(sub, cfg, str(out))
        assert code in (0, 1, 2)
        manifest = _manifest(out)
        assert manifest["exit"] == str(code)
        # exit 1 without error.txt is a check that ran and failed
        no_failed_check = manifest["checks_passed"] == manifest["checks_total"]
        error = out / "error.txt"
        assert error.exists() == (code != 0 and no_failed_check)
        if code == 2:
            text = error.read_text()
            assert text.startswith("ConfigError: ") and "Traceback" not in text
            assert "Traceback" not in err.getvalue()
