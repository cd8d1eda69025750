"""Composite Gauss-Legendre quadrature and scalar root refinement.

The iso mappings need two numerical primitives: cumulative arc-length
integrals of smooth positive speeds, and inverses of the resulting monotone
functions.  Both live here so the geometry modules stay free of numerics
plumbing.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

# Parameter tolerance of every root solve: tight enough that exp/log round
# trips keep headroom over the quadrature error.
REFINE_XTOL = 1e-12


@dataclass(frozen=True)
class QuadratureConfig:
    """Numerical settings threaded through every iso mapping.

    panels x nodes_per_panel Gauss-Legendre points discretize each unit of
    curve parameter; max_bracket_doublings caps the bracket search in
    vectorchange.  The root solves use the fixed tolerance REFINE_XTOL.
    """

    panels: int = 64
    nodes_per_panel: int = 4
    max_bracket_doublings: int = 60

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError(f"panels must be >= 1, got {self.panels}")
        if self.nodes_per_panel < 1:
            raise ValueError(
                f"nodes_per_panel must be >= 1, got {self.nodes_per_panel}")
        if self.max_bracket_doublings < 1:
            raise ValueError("max_bracket_doublings must be >= 1")


@lru_cache(maxsize=None)
def _leggauss(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def composite_nodes(a, b, panels, nodes_per_panel):
    """Flattened Gauss-Legendre nodes and weights for [a, b] split into panels."""
    nodes, weights = _leggauss(nodes_per_panel)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = mid[:, None] + half[:, None] * nodes[None, :]
    w = half[:, None] * weights[None, :]
    return t.ravel(), w.ravel(), edges


@lru_cache(maxsize=16)
def unit_rule(quad):
    """``composite_nodes(0, 1, ...)`` for a config, built once and read-only.

    Every arc-length table shares these arrays, so they must not be written.
    """
    rule = composite_nodes(0.0, 1.0, quad.panels, quad.nodes_per_panel)
    for array in rule:
        array.flags.writeable = False
    return rule


def panel_integrals(values, panels, nodes_per_panel):
    """Per-panel integrals from node values flattened along the last axis."""
    return values.reshape(*values.shape[:-1], panels, nodes_per_panel).sum(axis=-1)


def refine_root(g, lo, hi, g_lo=None, guess=None, scale=1.0):
    """Solve g = 0 on a bracketing interval [lo, hi] with g(lo) <= 0 <= g(hi).

    An interpolated guess with negligible residual is accepted outright (this
    keeps exactly-linear cases, e.g. the identity geometry, exact to rounding).
    Otherwise Brent's method refines the bracket to REFINE_XTOL in the
    parameter.
    """
    residual_eps = 1e-15 * (1.0 + abs(scale))
    if guess is not None and lo <= guess <= hi:
        if abs(g(guess)) <= residual_eps:
            return float(guess)
    if g_lo is None:
        g_lo = g(lo)
    if abs(g_lo) <= residual_eps:
        return float(lo)
    g_hi = g(hi)
    if abs(g_hi) <= residual_eps:
        return float(hi)
    return float(brentq(g, lo, hi, xtol=REFINE_XTOL, rtol=8.9e-16))
