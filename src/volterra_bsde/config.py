"""Experiment configuration: flat sectioned key=value files.

Sections and keys (defaults in parentheses):

    [kernel]      family = liouville_fbm | fbm | mbm ; hurst ; hurst_expr ;
                  T (1.0)
    [sigma]       kind = constant | table ; value (1.0) ; times ; values
                  (a table's times may not lie inside (0, T))
    [grids]       t0 (0.05) ; n_time (128) ; n_space (321)
    [driver]      expr (0) ; lipschitz (1.0, finite and >= 0)
    [terminal]    expr (x; must grow slower than exp(x^2 / (4 Var(N_T))))
    [driver2]     second problem for `compare` (same keys as [driver])
    [terminal2]   second problem for `compare` (same keys as [terminal])
    [mc]          n_paths (4000, >= 2) ; seed (12345, in [0, 2^64 - 1]) ;
                  export_paths (16, >= 0)
    [bsde]        base_steps (64, >= 2) ; n_levels (4, >= 2)

``check_terminal`` measures g's growth (``pde.growth_rate``) once the
variance curve is built.  A g that grows too fast or is not finite there,
and any other section or key, is a ConfigError.  Comments start with '#'.
The canonical hash covers the parsed semantic fields only, so formatting
or comment edits do not change it.
"""

from __future__ import annotations

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
    "sigma": {"kind": "constant", "value": "1.0", "times": None, "values": None},
    "grids": {"t0": "0.05", "n_time": "128", "n_space": "321"},
    "driver": {"expr": "0", "lipschitz": "1.0"},
    "terminal": {"expr": "x"},
    "mc": {"n_paths": "4000", "seed": "12345", "export_paths": "16"},
    "bsde": {"base_steps": "64", "n_levels": "4"},
}
# the second problem of `compare`: a key it leaves unset is read from the first
_SECOND = {"driver2": "driver", "terminal2": "terminal"}


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
                key=section)
        for key in keys:
            values[(section, key)] = parser.get(section, key).strip()
    return ExperimentConfig(values=values, path=str(path))


# -- builders -----------------------------------------------------------------


def build_kernel(cfg):
    family = cfg.get("kernel", "family")
    T = cfg.get("kernel", "T", float)
    if family in (kernels.LIOUVILLE, kernels.FBM):
        hurst = cfg.get("kernel", "hurst", float)
        try:
            return kernels.KernelSpec(family=family, T=T, hurst=hurst)
        except Exception as exc:
            raise ConfigError(f"invalid kernel: {exc}", key="kernel.hurst") from exc
    if family == kernels.MBM:
        src = cfg.get("kernel", "hurst_expr")
        try:
            return kernels.multifractional(compile_expression(src, ("t",)), T)
        except Exception as exc:
            raise ConfigError(f"bad value for [kernel] hurst_expr: {exc}",
                              key="kernel.hurst_expr") from exc
    raise ConfigError(f"unknown kernel family {family!r}", key="kernel.family")


def _floats(raw):
    return [float(v) for v in raw.split(",")]


def _built(build, section, key, *args):
    """build(*args), its DomainError or GrowthViolationError a config error
    that names the key."""
    try:
        return build(*args)
    except (DomainError, GrowthViolationError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}",
                          key=f"{section}.{key}") from exc


def build_sigma(cfg):
    kind = cfg.get("sigma", "kind")
    if kind == "constant":
        return _built(Volatility.constant, "sigma", "value",
                      cfg.get("sigma", "value", float))
    if kind == "table":
        times = cfg.get("sigma", "times", _floats)
        values = cfg.get("sigma", "values", _floats)
        if len(times) != len(values):
            raise ConfigError(f"[sigma] values has {len(values)} entries, times "
                              f"{len(times)}", key="sigma.values")
        # sigma kinks at a knot inside (0, T), and across a kink the variance
        # curve's rate spline need not reconstruct Var(N_t) on any grid
        T = cfg.get("kernel", "T", float)
        inside = [t for t in times if 0.0 < t < T]
        if inside:
            raise ConfigError(f"bad value for [sigma] times: knot {inside[0]:g} lies "
                              f"inside (0, T = {T:g}); sigma must be affine on "
                              "[0, T]", key="sigma.times")
        # from_table checks the times first
        increasing = len(times) > 1 and all(a < b for a, b in zip(times, times[1:]))
        return _built(Volatility.from_table, "sigma",
                      "values" if increasing else "times", times, values)
    raise ConfigError(f"unknown sigma kind {kind!r}", key="sigma.kind")


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
    try:
        expr = compile_expression(src, ("t", "x", "y", "z"))
    except ExpressionError as exc:
        raise ConfigError(f"bad driver expr: {exc}", key=f"{section}.expr") from exc
    return _built(Driver, section, "lipschitz", expr, lipschitz, expr.source)


def build_terminal(cfg, section="terminal"):
    src = cfg.get(section, "expr")
    try:
        expr = compile_expression(src, ("x",))
    except ExpressionError as exc:
        raise ConfigError(f"bad terminal expr: {exc}", key=f"{section}.expr") from exc
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
    the Brownian-side BSDE checks, which divide by the variance rate.
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
