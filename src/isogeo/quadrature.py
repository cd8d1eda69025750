"""Composite Gauss-Legendre quadrature and root refinement.

The iso mappings need two numerical primitives: cumulative arc-length
integrals of smooth positive speeds, and inverses of the resulting monotone
functions.  Both live here so the geometry modules stay free of numerics
plumbing.  Both root solvers take the steps of scipy's ``brentq.c``
(Brent, 1973), bit for bit: ``refine_root`` solves one root in Python
floats, and ``refine_roots`` solves a batch in lockstep numpy arrays.  The
two share no code because each is fastest at its own size: a one-lane
lockstep solve pays numpy's per-call cost at every step, tens of times the
cost of a scalar one.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergenceError

# Parameter tolerance of every root solve: tight enough that exp/log round
# trips keep headroom over the quadrature error.
REFINE_XTOL = 1e-12
# Relative tolerance and iteration cap of every Brent solve (the smallest
# rtol scipy's brentq accepts, and its default maxiter).
REFINE_RTOL = 8.9e-16
BRENT_MAXITER = 100


@dataclass(frozen=True)
class QuadratureConfig:
    """Numerical settings threaded through every iso mapping.

    panels x nodes_per_panel Gauss-Legendre points discretize each unit of
    curve parameter.  The root solves use the fixed tolerance REFINE_XTOL.
    """

    panels: int = 64
    nodes_per_panel: int = 4

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError(f"panels must be >= 1, got {self.panels}")
        if self.nodes_per_panel < 1:
            raise ValueError(
                f"nodes_per_panel must be >= 1, got {self.nodes_per_panel}")


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
    """Per-panel integrals from node values flattened along the last axis.

    Equal bit for bit to ``.sum(axis=-1)`` over the nodes of each panel.
    """
    v = values.reshape(*values.shape[:-1], panels, nodes_per_panel)
    if nodes_per_panel >= 8:
        # add.reduce sums 8 or more terms in pairwise blocks: keep its order.
        return v.sum(axis=-1)
    # Below 8 terms add.reduce adds the nodes in order onto +0.0 (a panel of
    # -0.0 sums to +0.0).  Column adds do the same without its slow reduction
    # over a short axis.
    acc = np.add(v[..., 0], 0.0)
    for k in range(1, nodes_per_panel):
        acc += v[..., k]
    return acc


def refine_root(g, lo, hi, g_lo=None, guess=None, scale=1.0):
    """Solve g = 0 on a bracketing interval [lo, hi] with g(lo) <= 0 <= g(hi).

    An interpolated guess with negligible residual is accepted outright (this
    keeps exactly-linear cases, e.g. the identity geometry, exact to rounding).
    Otherwise Brent's method refines the bracket to REFINE_XTOL in the
    parameter, with the steps and result of scipy's ``brentq``.  ``g_lo``,
    when given, must equal ``g(lo)``.  Raises NonConvergenceError for a
    non-finite residual, a bracket without a sign change, or no convergence
    within BRENT_MAXITER iterations.
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
    return _brent_scalar(g, float(lo), float(hi), float(g_lo), float(g_hi))


def _finite(x, fx):
    if not math.isfinite(fx):
        raise NonConvergenceError(f"root solve: residual {fx} at x = {x}")
    return fx


def _brent_scalar(g, xpre, xcur, fpre, fcur):
    """scipy's ``brentq.c`` on one bracket, in Python floats (Brent, 1973).

    ``xpre``/``xcur`` bracket the root with residuals ``fpre``/``fcur``.
    """
    _finite(xpre, fpre)
    _finite(xcur, fcur)
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NonConvergenceError(f"root solve: no sign change on [{xpre}, {xcur}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (REFINE_XTOL + REFINE_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)   # interpolate
                else:                                              # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C divides to inf or NaN, so the step test below bisects.
                stry = math.inf
            # brentq.c's MIN(|spre|, 3 |sbis| - delta), NaN ordering included.
            bis_limit = 3 * abs(sbis) - delta
            limit = abs(spre) if abs(spre) < bis_limit else bis_limit
            if 2 * abs(stry) < limit:
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _finite(xcur, float(g(xcur)))
    raise NonConvergenceError(
        f"root solve: 1 of 1 lanes open after {BRENT_MAXITER} Brent iterations")


def refine_roots(g, lo, hi, g_lo, guess, scale):
    """Batch-first ``refine_root``: one solve per lane, all lanes in lockstep.

    ``lo``, ``hi``, ``g_lo`` and ``guess`` are ``(n,)`` arrays and ``scale``
    broadcasts to them; ``g(i, x)`` returns the residuals of the lanes ``i``
    (an index array) at the times ``x``.  Each root equals
    ``refine_root(g_i, lo[i], hi[i], g_lo[i], guess[i], scale)`` bit for bit:
    the prologue accepts the guess, then ``lo``, then ``hi``, and the other
    lanes take the steps of scipy's ``brentq``.  Raises NonConvergenceError
    for a non-finite residual, a bracket without a sign change, or a lane
    still open after BRENT_MAXITER iterations.
    """
    lo, hi, g_lo, guess = np.broadcast_arrays(lo, hi, g_lo, guess)
    eps = np.broadcast_to(1e-15 * (1.0 + np.abs(scale)), lo.shape)
    root = np.empty(lo.shape)
    done = np.zeros(lo.shape, dtype=bool)

    def accept(lanes, x, residual):
        hit = np.abs(residual) <= eps[lanes]
        root[lanes[hit]] = x[hit]
        done[lanes[hit]] = True
        return ~hit

    lanes = np.flatnonzero((lo <= guess) & (guess <= hi))
    if lanes.size:
        accept(lanes, guess[lanes], g(lanes, guess[lanes]))
    lanes = np.flatnonzero(~done)
    accept(lanes, lo[lanes], g_lo[lanes])
    lanes = np.flatnonzero(~done)
    if lanes.size:
        g_hi = g(lanes, hi[lanes])
        open_ = accept(lanes, hi[lanes], g_hi)
        lanes = lanes[open_]
        root[lanes] = _brent(g, lanes, lo[lanes], hi[lanes], g_lo[lanes],
                             g_hi[open_])
    return root


def _check_finite(x, residual):
    if not np.isfinite(residual).all():
        bad = ~np.isfinite(residual)
        raise NonConvergenceError(
            f"root solve: residual {residual[bad][0]} at x = {x[bad][0]}")


def _brent(g, lanes, xpre, xcur, fpre, fcur):
    """scipy's ``brentq.c`` stepped on every lane at once (Brent, 1973).

    ``xpre``/``xcur`` bracket each root with residuals ``fpre``/``fcur``;
    returns the roots of ``lanes``.  Every branch is taken per lane with
    ``np.where`` on the same arithmetic, and a lane leaves at convergence.
    """
    _check_finite(xpre, fpre)
    _check_finite(xcur, fcur)
    same = np.signbit(fpre) == np.signbit(fcur)
    if same.any():
        raise NonConvergenceError(
            f"root solve: no sign change on [{xpre[same][0]}, {xcur[same][0]}]")
    root = np.empty(len(lanes))
    live = np.arange(len(lanes))
    xblk, fblk, spre, scur = (np.zeros(len(lanes)) for _ in range(4))
    for _ in range(BRENT_MAXITER):
        # A sign change between pre and cur makes pre the block end.
        flip = np.sign(fpre) * np.sign(fcur) < 0
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        step = xcur - xpre
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        # When the block end has the smaller residual, it becomes current.
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (REFINE_XTOL + REFINE_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        converged = (fcur == 0) | (np.abs(sbis) < delta)
        if converged.any():
            root[live[converged]] = xcur[converged]
            keep = ~converged
            if not keep.any():
                return root
            (live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
             sbis) = (v[keep] for v in (live, xpre, xcur, xblk, fpre, fcur,
                                        fblk, spre, scur, delta, sbis))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = (-fcur * (fblk * dblk - fpre * dpre)
                           / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        # brentq.c's MIN(|spre|, 3 |sbis| - delta), NaN ordering included.
        aspre = np.abs(spre)
        bis_limit = 3 * np.abs(sbis) - delta
        limit = np.where(aspre < bis_limit, aspre, bis_limit)
        short = ((aspre > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < limit))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = g(lanes[live], xcur)
        _check_finite(xcur, fcur)
    raise NonConvergenceError(
        f"root solve: {len(live)} of {len(lanes)} lanes open after "
        f"{BRENT_MAXITER} Brent iterations")
