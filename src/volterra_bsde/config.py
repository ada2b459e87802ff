"""Experiment configuration: flat sectioned key=value files.

Sections and keys (defaults in parentheses):

    [kernel]      family = liouville_fbm | fbm | mbm ; hurst (liouville_fbm,
                  fbm) or hurst_expr (mbm), never both ; T (1.0)
    [sigma]       kind = constant | expr ; value (1.0), an expression in t:
                  a constant holds no t; an expr must be finite and
                  positive on 101 points of [0, T]; a kink runs but costs
                  time (1 + abs(t - 0.5): `variance` 4-10 s, not 0.3 s)
    [grids]       t0 (0.05) ; n_time (128) ; n_space (321)
    [driver]      expr (0) ; lipschitz (1.0, finite and >= 0)
    [terminal]    expr (x; must grow slower than exp(x^2 / (4 Var(N_T))))
    [driver2]     second problem for `compare` (same keys as [driver])
    [terminal2]   second problem for `compare` (same keys as [terminal])
    [mc]          n_paths (4000, >= 2; `verify` needs >= 1000) ;
                  seed (12345, in [0, 2^64 - 1]) ; export_paths (16, >= 0)
    [bsde]        base_steps (64, >= 2) ; n_levels (4, >= 2)

Each ``expr`` and ``hurst_expr`` is compiled before any numerical work
(``expressions.compile_expression``); one that does not parse, nests too
deep or holds a constant that is not finite is refused there.
``check_terminal`` measures g's growth (``pde.growth_rate``) once the
variance curve is built.  Every value the problem objects refuse
(``_built``), and any other section or key, is a ConfigError naming its
key.  Comments start with '#'.
The canonical hash covers the parsed semantic fields only, so formatting
or comment edits do not change it.
"""

from __future__ import annotations

import ast
import configparser
import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .errors import (ConfigError, CurveConsistencyError, DomainError,
                     GrowthViolationError)
from .expressions import ExpressionError, compile_expression
from .operators import Volatility, graded_grid, variance_curve
from .pde import Driver, TerminalCondition

# section -> key -> default; None means no default
_KEYS = {
    "kernel": {"family": None, "hurst": None, "hurst_expr": None, "T": "1.0"},
    "sigma": {"kind": "constant", "value": "1.0"},
    "grids": {"t0": "0.05", "n_time": "128", "n_space": "321"},
    "driver": {"expr": "0", "lipschitz": "1.0"},
    "terminal": {"expr": "x"},
    "mc": {"n_paths": "4000", "seed": "12345", "export_paths": "16"},
    "bsde": {"base_steps": "64", "n_levels": "4"},
}
# the second problem of `compare`: a key it leaves unset is read from the first
_SECOND = {"driver2": "driver", "terminal2": "terminal"}
# the family a config names -> its constructor and the one Hurst key it reads
_FAMILIES = {"liouville_fbm": (kernels.liouville_fbm, "hurst"),
             "fbm": (kernels.fbm, "hurst"),
             "mbm": (kernels.multifractional, "hurst_expr")}


@dataclass
class ExperimentConfig:
    """Parsed and semantically validated experiment description."""

    values: dict = field(default_factory=dict)
    path: Optional[str] = None

    def get(self, section, key, cast=str):
        base = _SECOND.get(section, section)
        raw = self.values.get((section, key), self.values.get((base, key)))
        if raw is None:
            raw = _KEYS.get(base, {}).get(key)
        if raw is None:
            raise ConfigError(f"missing config key [{section}] {key}", key=f"{section}.{key}")
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"bad value for [{section}] {key}: {raw!r} ({exc})",
                key=f"{section}.{key}",
            ) from exc

    def has(self, section, key):
        return (section, key) in self.values

    def canonical_text(self):
        merged = {(s, k): v for s, keys in _KEYS.items()
                  for k, v in keys.items() if v is not None}
        merged.update(self.values)
        lines = [f"{s}.{k}={merged[(s, k)]}" for s, k in sorted(merged)]
        return "\n".join(lines) + "\n"

    def canonical_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       comment_prefixes=("#",))
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        keys = parser.options(section)
        known = _KEYS.get(_SECOND.get(section, section))
        unknown = [key for key in keys if key not in (known or ())]
        if unknown or known is None:
            what = "section" if known is None else "key"
            raise ConfigError(
                f"unknown config {what} [{section}] {', '.join(unknown)}".rstrip(),
                key=section if known is None else f"{section}.{unknown[0]}")
        for key in keys:
            values[(section, key)] = parser.get(section, key).strip()
    return ExperimentConfig(values=values, path=str(path))


# -- builders -----------------------------------------------------------------


def build_kernel(cfg):
    family = cfg.get("kernel", "family")
    T = cfg.get("kernel", "T", float)
    if not 0.0 < T < np.inf:  # KernelSpec would report it under the hurst key
        raise ConfigError(f"bad value for [kernel] T: must be positive and finite, "
                          f"got {T}", key="kernel.T")
    if family not in _FAMILIES:
        raise ConfigError(f"unknown kernel family {family!r}", key="kernel.family")
    build, key = _FAMILIES[family]
    other = "hurst_expr" if key == "hurst" else "hurst"
    if cfg.has("kernel", other):
        raise ConfigError(f"bad value for [kernel] {other}: family {family} reads "
                          f"{key}, not {other}", key=f"kernel.{other}")
    hurst = cfg.get("kernel", key, float) if key == "hurst" else \
        _built(compile_expression, "kernel", key, cfg.get("kernel", key), ("t",))
    return _built(build, "kernel", key, hurst, T)


def _built(build, section, key, *args):
    """build(*args), its DomainError, GrowthViolationError or ExpressionError
    a config error that names the key."""
    try:
        return build(*args)
    except (DomainError, GrowthViolationError, ExpressionError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}",
                          key=f"{section}.{key}") from exc


def build_sigma(cfg):
    """sigma from [sigma]; a value without t is constant under either kind."""
    kind = cfg.get("sigma", "kind")
    if kind not in ("constant", "expr"):
        raise ConfigError(f"bad value for [sigma] kind: {kind!r} (allowed: constant, "
                          "expr)", key="sigma.kind")
    expr = _built(compile_expression, "sigma", "value", cfg.get("sigma", "value"), ("t",))
    if isinstance(expr.node, ast.Constant):
        return _built(Volatility.constant, "sigma", "value", float(expr.node.value))
    if kind == "constant":
        raise ConfigError(f"bad value for [sigma] value: {expr.source!r} holds t; "
                          "use kind = expr", key="sigma.value")
    t = np.linspace(0.0, cfg.get("kernel", "T", float), 101)
    with np.errstate(all="ignore"):
        values = expr(t)
    ok = np.isfinite(values) & (values > 0.0)
    if not np.all(ok):
        raise ConfigError(f"bad value for [sigma] value: {expr.source!r} is not finite "
                          f"and positive at t = {t[np.argmin(ok)]:.6g}", key="sigma.value")
    return Volatility(expr)


def build_varcurve(kernel, sigma):
    """The variance curve on 128 graded points, doubled up to 1024 while its
    rate does not integrate back to var; past that, a config error."""
    for n in (128, 256, 512, 1024):
        try:
            return variance_curve(kernel, sigma, graded_grid(kernel.T, n))
        except CurveConsistencyError as exc:
            error = exc
    raise ConfigError(f"bad value for [kernel]: on {n} graded points the variance "
                      f"curve's {error}", key="kernel") from error


def build_driver(cfg, section="driver"):
    src = cfg.get(section, "expr")
    lipschitz = cfg.get(section, "lipschitz", float)
    expr = _built(compile_expression, section, "expr", src, ("t", "x", "y", "z"))
    return _built(Driver, section, "lipschitz", expr, lipschitz, expr.source)


def build_terminal(cfg, section="terminal"):
    expr = _built(compile_expression, section, "expr", cfg.get(section, "expr"), ("x",))
    return TerminalCondition(g_fn=expr, label=expr.source)


def check_terminal(terminal, varcurve, section="terminal"):
    """g's measured growth against Var(N_T); too fast is a config error."""
    _built(terminal.check_growth, section, "expr", varcurve)


SEED_MAX = 2**64 - 1  # Philox keys are unsigned 64-bit words


def build_mc(cfg, seed_override=None):
    """(n_paths, seed, export_paths) from [mc]; seed_override replaces [mc] seed."""
    n_paths = cfg.get("mc", "n_paths", int)
    if n_paths < 2:
        raise ConfigError(f"n_paths must be >= 2, got {n_paths}", key="mc.n_paths")
    seed = cfg.get("mc", "seed", int) if seed_override is None else int(seed_override)
    if not 0 <= seed <= SEED_MAX:
        raise ConfigError(f"seed must lie in [0, 2^64 - 1], got {seed}", key="mc.seed")
    export_paths = cfg.get("mc", "export_paths", int)
    if export_paths < 0:
        raise ConfigError(f"export_paths must be >= 0, got {export_paths}",
                          key="mc.export_paths")
    return n_paths, seed, export_paths


def build_study(cfg):
    """(base_steps, n_levels) of the BSDE refinement study from [bsde]."""
    base_steps = cfg.get("bsde", "base_steps", int)
    n_levels = cfg.get("bsde", "n_levels", int)
    for key, value in (("base_steps", base_steps), ("n_levels", n_levels)):
        if value < 2:
            raise ConfigError(f"{key} must be >= 2, got {value}", key=f"bsde.{key}")
    return base_steps, n_levels


def build_grids(cfg, T):
    """The PDE/simulation time grid on [0, T], the x grid's size (its
    half-width comes from Var(N_T)) and the BSDE window start t0 > 0.
    The variance curve picks its own grid (``build_varcurve``).

    Paths and the PDE always live on the full interval (the Wiener
    integrals defining X and N start at 0); t0 only delimits the window of
    the Brownian-side BSDE checks, which refuse the zero variance rate at 0.
    """
    t0 = cfg.get("grids", "t0", float)
    n_time = cfg.get("grids", "n_time", int)
    n_space = cfg.get("grids", "n_space", int)
    if not (0.0 < t0 < T):
        raise ConfigError(f"t0 must lie in (0, T), got {t0}", key="grids.t0")
    if n_time < 2:
        raise ConfigError(f"n_time must be >= 2, got {n_time}", key="grids.n_time")
    if n_space < 9:
        raise ConfigError(f"n_space must be >= 9, got {n_space}", key="grids.n_space")
    return np.linspace(0.0, T, n_time + 1), n_space, t0
