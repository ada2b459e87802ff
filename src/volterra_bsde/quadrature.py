"""Panelized Gauss-Legendre quadrature for endpoint-singular integrands.

All singular integrals in this package are reduced to the canonical form

    I = int_0^L f(d) dd,     f(d) ~ C * d**(alpha - 1)  as  d -> 0,

where ``d`` is the gap from the singular endpoint.  Integrand callables
receive the gap directly, so kernel evaluations near a singularity never
suffer cancellation from recomputing ``t - s``.  Smooth integrals are the
case alpha = 1 of the same form, so one adaptive routine serves both.
For one alpha the substitution v = d**alpha scales with L, so each mesh is
built once on [0, 1] (``_unit_rule``) and scaled to every length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError


@dataclass(frozen=True)
class SingularQuadRule:
    """How to integrate across an algebraic endpoint singularity.

    There is one mode.  For alpha != 1 the integral is taken in the
    variable v = d**alpha, which turns f ~ d**(alpha-1) into a bounded
    integrand, on panels graded quadratically toward v = 0; for alpha = 1
    (a smooth integrand) the panels are uniform in d.

    n_nodes
        Gauss-Legendre nodes per panel.
    n_panels
        Initial panel count; doubled up to max_refinements times until the
        change between refinements meets max(abs_tol, rel_tol * |I|).
        The start is deliberately coarse: nearly every integral passes
        the test at the first doubling, and the tolerance test, not the
        starting mesh, decides how fine the accepted mesh is.  The finest
        reachable mesh is n_panels * 2**max_refinements panels (1024 by
        default).
    """

    n_nodes: int = 12
    n_panels: int = 4
    max_refinements: int = 8
    abs_tol: float = 1e-8
    rel_tol: float = 1e-6


DEFAULT_RULE = SingularQuadRule()


@lru_cache(maxsize=64)
def _gauss01(n):
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=256)
def _unit_rule(n_panels, q, n_nodes, alpha):
    """Gaps x and weights w on [0, 1] with int_0^L f ~ L * (f(L x) @ w).

    Panels are graded as tau**q in v = d**alpha, so x = v**(1/alpha) and w
    carries the Jacobian x / (alpha v).  Cached and shared: read-only."""
    x01, w01 = _gauss01(n_nodes)
    edges = np.linspace(0.0, 1.0, n_panels + 1) ** q
    width = np.diff(edges)[:, None]
    v = (edges[:-1, None] + width * x01).ravel()
    w = (width * w01).ravel()
    x = v
    if alpha != 1.0:
        x = v ** (1.0 / alpha)
        w = w * x / (alpha * v)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def integrate_gap(f, length, alpha=1.0, rule=DEFAULT_RULE):
    """Integrate f over (0, length) with f ~ C d**(alpha-1) at d = 0.

    ``f`` must be vectorized over numpy arrays of gaps.  Raises
    QuadratureError (carrying the best estimate) on non-convergence.
    """
    vals = integrate_gap_batch(f, np.asarray([length], dtype=float), alpha, rule)
    return float(vals[0])


def integrate_gap_batch(f, lengths, alpha=1.0, rule=DEFAULT_RULE):
    """Batched ``integrate_gap`` sharing one panel structure.

    lengths : (K,) array of upper limits; f receives a (K, M) gap matrix
    and must return values of the same shape.  alpha is one float for the
    batch, which scales one cached unit rule, or a (K,) array, one exponent
    per length, which always takes the substitution on the graded unit
    nodes.  Panel doubling applies to the whole batch until every entry
    meets tolerance.
    """
    lengths = np.asarray(lengths, dtype=float)
    if np.any(lengths < 0):
        raise QuadratureError("negative integration length")
    out = np.zeros_like(lengths)
    live = lengths > 0
    if not np.any(live):
        return out
    L = lengths[live]
    per_length = isinstance(alpha, np.ndarray) and alpha.ndim > 0
    a = alpha[live][:, None] if per_length else float(alpha)
    q = 2.0 if per_length or a != 1.0 else 1.0

    def evaluate(n_panels):
        if per_length:
            v, w = _unit_rule(n_panels, q, rule.n_nodes, 1.0)
            x = v ** (1.0 / a)
            return np.sum(f(L[:, None] * x) * (w * x / (a * v)), axis=1) * L
        x, w = _unit_rule(n_panels, q, rule.n_nodes, a)
        return (f(L[:, None] * x) @ w) * L

    prev = evaluate(rule.n_panels)
    for level in range(1, rule.max_refinements + 1):
        cur = evaluate(rule.n_panels * 2**level)
        err = np.abs(cur - prev)
        tol = np.maximum(rule.abs_tol, rule.rel_tol * np.abs(cur))
        if np.all(err <= tol):
            out[live] = cur
            return out
        prev = cur
    worst = float(np.max(err))
    raise QuadratureError(
        f"gap quadrature did not reach tolerance (worst error {worst:.3e})",
        estimate=float(cur[0]) if cur.size == 1 else float("nan"),
        error_estimate=worst,
    )


def gauss_hermite_expectation(h, variance):
    """E[h(Z)] for Z ~ N(0, variance) by 96-node Gauss-Hermite quadrature."""
    if variance < 0:
        raise QuadratureError("negative variance in Gaussian expectation")
    if variance == 0:
        return float(np.asarray(h(np.zeros(1)))[0])
    x, w = np.polynomial.hermite.hermgauss(96)
    pts = np.sqrt(2.0 * variance) * x
    return float(np.sum(w * np.asarray(h(pts))) / np.sqrt(np.pi))
