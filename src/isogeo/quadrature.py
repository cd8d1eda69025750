"""Composite Gauss-Legendre quadrature and root refinement.

The iso mappings integrate smooth positive speeds into arc lengths and
invert them.  The inverses take Newton's method kept inside a bracket, with
a regula falsi step where a Newton step leaves it, as in the ``rtsafe``
routine of *Numerical Recipes* (Press et al.); an arc length's derivative
is the speed, one quadrature node more.  Two loops take the same steps, bit
for bit: ``newton_roots`` on a batch in lockstep arrays, and ``newton_root``
on one root in Python floats, about 50 us a call faster than one lane of numpy.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergenceError

# Parameter tolerance of every root solve: tight enough that exp/log round
# trips keep headroom over the quadrature error.
REFINE_XTOL = 1e-12
# Iteration cap of every Newton solve (that of scipy's brentq).
NEWTON_MAXITER = 100


@dataclass(frozen=True)
class QuadratureConfig:
    """Numerical settings threaded through every iso mapping.

    panels x nodes_per_panel Gauss-Legendre points discretize each unit of
    curve parameter.  The root solves use the fixed tolerance REFINE_XTOL.
    """

    panels: int = 64
    nodes_per_panel: int = 4

    def __post_init__(self):
        for key in ("panels", "nodes_per_panel"):
            object.__setattr__(self, key, _count(key, getattr(self, key), 1))


def _count(key, value, low):
    """value as an int >= low, else ValueError naming key."""
    # An integral float becomes an int, as a dim does; a bool, inf or NaN is no count.
    try:
        whole = not isinstance(value, bool) and int(value) == value
    except (OverflowError, ValueError):
        whole = False
    if not whole:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{key} must be >= {low}, got {value}")
    return int(value)


_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _linspace_chunk(start, stop, num, i0, i1):
    """``np.linspace(start, stop, num)[i0:i1]`` bit for bit, for num >= 2."""
    div = num - 1
    delta = stop - start
    step = delta / div
    y = np.arange(i0, i1, dtype=float)
    # linspace scales by delta / div, or for an underflowing step by
    # 1 / div then delta.
    if step != 0:
        y *= step
    else:
        y /= div
        y *= delta
    y += start
    if i1 == num:
        y[-1] = stop
    return y


def composite_nodes(a, b, panels, nodes_per_panel):
    """Flattened Gauss-Legendre nodes and weights for [a, b] split into panels.

    The panel edges are ``np.linspace(a, b, panels + 1)``, bit for bit.
    """
    nodes, weights = _leggauss(nodes_per_panel)
    edges = _linspace_chunk(a, b, panels + 1, 0, panels + 1)
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


def _sum_last(values):
    """``values.sum(axis=-1)`` bit for bit, without add.reduce's slow short-axis loop."""
    if values.shape[-1] >= 8:
        # add.reduce sums 8 or more terms in pairwise blocks: keep its order.
        return values.sum(axis=-1)
    # Below 8 terms add.reduce adds the terms in order onto +0.0 (a row of
    # -0.0 sums to +0.0).  Column adds do the same.
    acc = np.add(values[..., 0], 0.0)
    for k in range(1, values.shape[-1]):
        acc += values[..., k]
    return acc


def panel_integrals(values, panels, nodes_per_panel):
    """Per-panel integrals from node values flattened along the last axis.

    Equal bit for bit to ``.sum(axis=-1)`` over the nodes of each panel.
    """
    return _sum_last(values.reshape(*values.shape[:-1], panels, nodes_per_panel))


def residual_tolerance(scale):
    """The residual at or below which every root solve stops, for targets of size scale."""
    return 1e-15 * (1.0 + abs(scale))


def _check_finite(x, residual):
    if not np.isfinite(residual).all():
        bad = ~np.isfinite(residual)
        raise NonConvergenceError(
            f"root solve: residual {residual[bad][0]} at x = {x[bad][0]}")


def newton_roots(g, lo, hi, f_lo, f_hi, x, scale):
    """Roots of increasing residuals by safeguarded Newton, all lanes in lockstep.

    ``lo``, ``hi``, their residuals ``f_lo <= 0 <= f_hi`` and the starts
    ``x`` in ``[lo, hi]`` are ``(n,)`` arrays; ``g(i, x)`` returns the
    residuals and derivatives of the lanes ``i`` (an index array) at ``x``.
    Each step moves a bracket end to ``x`` and takes the Newton step, the
    bracket's regula falsi point where that step leaves it, or the secant of
    the last two iterates where the residual did not halve.  A lane returns ``x`` at
    a residual within ``residual_tolerance(scale)``, and the stepped point after a
    step below REFINE_XTOL.  Lanes share no arithmetic: each root is that of its own
    one-lane solve.  Raises NonConvergenceError for a non-finite residual, a bracket
    without a sign change, or a lane open after NEWTON_MAXITER steps.
    """
    lo, hi, f_lo, f_hi, x = (np.array(v, dtype=float) for v in
                             np.broadcast_arrays(lo, hi, f_lo, f_hi, x))
    eps = np.full(lo.shape, residual_tolerance(scale))
    _check_finite(lo, f_lo)
    _check_finite(hi, f_hi)
    wrong = (f_lo > 0.0) | (f_hi < 0.0)
    if wrong.any():
        raise NonConvergenceError(
            f"root solve: no sign change on [{lo[wrong][0]}, {hi[wrong][0]}]")
    root = np.empty(len(lo))
    live = np.arange(len(lo))
    x_prev = f_prev = half_prev = np.full(len(lo), np.inf)
    for _ in range(NEWTON_MAXITER):
        if not live.size:
            return root
        f, df = g(live, x)
        _check_finite(x, f)
        size = np.abs(f)
        hit = size <= eps
        left = f < 0.0
        lo, f_lo = np.where(left, x, lo), np.where(left, f, f_lo)
        hi, f_hi = np.where(left, hi, x), np.where(left, f_hi, f)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # A residual that did not halve has a slope other than df (a coarse
            # rule's sum drifts from the integral whose derivative df is).
            stalled = size > half_prev
            if stalled.any():
                df = np.where(stalled, (f - f_prev) / (x - x_prev), df)
            step = x - f / df
            # Inclusive: a step onto a bracket end is a Newton step.
            inside = (step >= lo) & (step <= hi)
            if not inside.all():
                step = np.where(inside, step, lo - f_lo * (hi - lo) / (f_hi - f_lo))
        done = hit | (np.abs(step - x) < REFINE_XTOL)
        x_prev, f_prev, half_prev = x, f, 0.5 * size
        if done.any():
            root[live[done]] = np.where(hit, x, step)[done]
            keep = ~done
            live, lo, hi, f_lo, f_hi, step, eps, x_prev, f_prev, half_prev = (
                v[keep] for v in (live, lo, hi, f_lo, f_hi, step, eps, x_prev, f_prev,
                                  half_prev))
        x = step
    if not live.size:
        return root
    raise NonConvergenceError(
        f"root solve: {len(live)} of {len(root)} lanes open after "
        f"{NEWTON_MAXITER} Newton iterations")


def newton_root(g, lo, hi, f_lo, f_hi, df_hi, scale):
    """``newton_roots`` on one lane, in Python floats, from the top end of a bracket:
    ``g(x)`` gives the residual and derivative at x, ``df_hi`` the derivative at hi."""
    x, f, df, x_prev, f_prev = hi, f_hi, df_hi, hi, math.inf
    for k in range(NEWTON_MAXITER):
        if k:
            f, df = g(x)
        if not math.isfinite(f):
            raise NonConvergenceError(f"root solve: residual {f} at x = {x}")
        if abs(f) <= residual_tolerance(scale):
            return x
        lo, f_lo, hi, f_hi = (x, f, hi, f_hi) if f < 0.0 else (lo, f_lo, x, f)
        slope = (f - f_prev) / (x - x_prev) if abs(f) > 0.5 * abs(f_prev) else df
        step = x - f / slope if slope != 0.0 else math.inf
        if not lo <= step <= hi:
            step = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if abs(step - x) < REFINE_XTOL:
            return step
        x_prev, f_prev, x = x, f, step
    raise NonConvergenceError(
        f"root solve: 1 of 1 lanes open after {NEWTON_MAXITER} Newton iterations")
