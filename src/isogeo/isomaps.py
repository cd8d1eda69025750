"""Isometrized manifold mappings built from arc-length quadrature.

Pullback geodesics are straight lines in phi-coordinates but traverse the
ambient space with non-constant l2 speed.  The mappings here reparameterize
them to constant speed: iso-distance is the l2 arc length of the geodesic,
the timechange inverts the cumulative arc length, and the vectorchange
rescales exponential arguments so that radial arc lengths match vector norms.

Arc-length tables come from one batch engine, ``_arc_table``: a batch of
phi-lines is evaluated at every quadrature node in one array pass, and the
values per line are the same as for that line on its own.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurveError, DomainError, NonConvergenceError
from .pullback import TangentVector, as_point, lc_exp, lc_log, lc_transport
from .quadrature import composite_nodes, panel_integrals, refine_root, unit_rule

# Lines per array pass of _arc_table: with the default 256 nodes and d = 2,
# each node array of a pass holds 2 MB, whatever the size of the batch.
LINES_PER_PASS = 512


@dataclass(frozen=True)
class ArcLengthTable:
    """Cumulative l2 arc length of a geodesic at the quadrature panel knots."""

    knots: np.ndarray
    cumlen: np.ndarray

    @property
    def total(self):
        return float(self.cumlen[-1])


def _arc_table(M, a, w):
    """Cumulative arc length at the panel knots of the phi-lines a + t w.

    ``a`` and ``w`` broadcast over ``(..., d)``; returns ``(..., panels + 1)``
    with 0 in the first column and the whole arc length in the last.
    """
    q = M.quad
    ts, weights, _ = unit_rule(q)
    a, w = np.broadcast_arrays(a, w)
    lines = w.shape[:-1]
    a, w = a.reshape(-1, w.shape[-1]), w.reshape(-1, w.shape[-1])
    cumlen = np.zeros((len(w), q.panels + 1))
    for start in range(0, len(w), LINES_PER_PASS):
        part = slice(start, start + LINES_PER_PASS)
        wp = w[part, None, :]
        p = a[part, None, :] + ts[:, None] * wp
        speeds = np.linalg.norm(
            M.diffeo.inv_jvp(p, np.broadcast_to(wp, p.shape)), axis=-1)
        per_panel = panel_integrals(speeds * weights, q.panels, q.nodes_per_panel)
        np.cumsum(per_panel, axis=-1, out=cumlen[part, 1:])
    return cumlen.reshape(*lines, q.panels + 1)


class _Arc:
    """Arc-length machinery for the phi-line from phi(x) to phi(y)."""

    def __init__(self, M, x, y):
        self.M = M
        self.a = M.diffeo.forward(x)
        self.w = M.diffeo.forward(y) - self.a
        self.quad = M.quad
        self._table = None

    def speeds(self, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        p = self.a + ts[:, None] * self.w
        vel = self.M.diffeo.inv_jvp(p, np.broadcast_to(self.w, p.shape))
        return np.linalg.norm(vel, axis=-1)

    def table(self):
        if self._table is None:
            self._table = ArcLengthTable(unit_rule(self.quad)[2],
                                         _arc_table(self.M, self.a, self.w))
        return self._table

    def cumulative(self, tp):
        """Arc length from 0 to tp, exact on panel knots."""
        table = self.table()
        k = int(np.searchsorted(table.knots, tp, side="right")) - 1
        k = min(max(k, 0), len(table.knots) - 2)
        lo = table.knots[k]
        if tp <= lo:
            return float(table.cumlen[k])
        ts, w, _ = composite_nodes(lo, tp, 1, self.quad.nodes_per_panel)
        return float(table.cumlen[k] + np.dot(self.speeds(ts), w))

    def invert(self, target):
        """Smallest t' with cumulative(t') = target, refined past the table."""
        table = self.table()
        total = table.total
        if target <= 0.0:
            return 0.0
        if target >= total:
            return 1.0
        idx = int(np.searchsorted(table.cumlen, target, side="left"))
        idx = min(max(idx, 1), len(table.knots) - 1)
        lo, hi = table.knots[idx - 1], table.knots[idx]
        c_lo, c_hi = table.cumlen[idx - 1], table.cumlen[idx]
        guess = lo + (hi - lo) * (target - c_lo) / max(c_hi - c_lo, 1e-300)
        return refine_root(lambda tp: self.cumulative(tp) - target,
                           lo, hi, self.quad.refine_tol,
                           g_lo=c_lo - target, guess=guess, scale=total)


class _RayArc:
    """Arc length along the geodesic ray t' -> lc_exp(t' xi)."""

    def __init__(self, M, xi):
        self.M = M
        self.a = M.diffeo.forward(xi.base)
        self.w = M.diffeo.jvp(xi.base, xi.vec)
        self.quad = M.quad

    def length_to(self, T):
        q = self.quad
        ts, w, _ = composite_nodes(0.0, T, q.panels, q.nodes_per_panel)
        p = self.a + ts[:, None] * self.w
        vel = self.M.diffeo.inv_jvp(p, np.broadcast_to(self.w, p.shape))
        return float(np.dot(np.linalg.norm(vel, axis=-1), w))


def _validated_pair(M, x, y):
    return as_point(x, M.dim, "x"), as_point(y, M.dim, "y")


def arc_length_table(M, x, y, quad=None):
    """Cumulative quadrature of the geodesic speed at panel boundaries."""
    x, y = _validated_pair(M, x, y)
    if quad is not None:
        M = dataclasses.replace(M, quad=quad)
    return _Arc(M, x, y).table()


def iso_distance(M, x, y):
    """l2 arc length of the geodesic from x to y (Gauss-Legendre composite).

    Batch-first: x and y broadcast over ``(..., d)``.  One pair gives a
    float, a batch an ``(...)`` array with the same value per pair as a
    one-pair call.  Symmetric under swapping the endpoints; not claimed to
    be a metric.
    """
    x = as_point(x, M.dim, "x", batch=True)
    y = as_point(y, M.dim, "y", batch=True)
    a = M.diffeo.forward(x)
    total = _arc_table(M, a, M.diffeo.forward(y) - a)[..., -1]
    return float(total) if total.ndim == 0 else total


def timechange(M, x, y, t):
    """Monotone reparameterization s with equal arc length in equal time.

    Returns the smallest t' such that the arc length up to t' is t times the
    total; s(0) = 0 and s(1) = 1 exactly.
    """
    x, y = _validated_pair(M, x, y)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"timechange requires t in [0, 1], got {t}")
    arc = _Arc(M, x, y)
    total = arc.table().total
    if total == 0.0:
        raise DegenerateCurveError(
            "timechange is undefined for coinciding endpoints")
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return 1.0
    return arc.invert(t * total)


def iso_geodesic(M, x, y, t):
    """Constant-speed geodesic: the Levi-Civita curve at the changed time."""
    x, y = _validated_pair(M, x, y)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"iso_geodesic requires t in [0, 1], got {t}")
    arc = _Arc(M, x, y)
    total = arc.table().total
    if total == 0.0:
        raise DegenerateCurveError(
            "iso_geodesic is undefined for coinciding endpoints")
    tp = 0.0 if t == 0.0 else 1.0 if t == 1.0 else arc.invert(t * total)
    return M.diffeo.inverse(arc.a + tp * arc.w)


def vectorchange(M, xi):
    """Scale t' >= 0 making the exponential radially isometric.

    Solves arclength(x -> lc_exp(t' xi)) = |xi| by doubling the bracket from
    t' = 1 and refining; the arc length is strictly increasing in t' for
    pullback closed forms, so the root is unique.  Probes past the
    diffeomorphism domain are pulled back toward the last valid parameter;
    DomainError is raised when the available arc length cannot reach |xi|.
    """
    nv = xi.norm
    if nv == 0.0:
        return 0.0
    ray = _RayArc(M, xi)

    def g(T):
        return ray.length_to(T) - nv

    lo, g_lo = 0.0, -nv
    hi = 1.0
    g_hi = None
    hit_domain_edge = False
    for _ in range(2 * M.quad.max_bracket_doublings):
        try:
            g_hi = g(hi)
        except DomainError:
            hit_domain_edge = True
            g_hi = None
            hi = 0.5 * (lo + hi)
            continue
        if abs(g_hi) <= 1e-15 * (1.0 + nv):
            return float(hi)
        if g_hi >= 0.0:
            break
        lo, g_lo = hi, g_hi
        hi *= 2.0
    if g_hi is None or g_hi < 0.0:
        if hit_domain_edge:
            raise DomainError(
                f"iso-exponential leaves the diffeomorphism domain before "
                f"reaching arc length {nv}")
        raise NonConvergenceError(
            f"vectorchange failed to bracket within "
            f"{M.quad.max_bracket_doublings} doublings (|xi| = {nv})")
    return refine_root(g, lo, hi, M.quad.refine_tol, g_lo=g_lo, scale=nv)


def iso_exp(M, xi):
    """Iso-exponential lc_exp(vectorchange(xi) * xi); iso_exp(0) = x."""
    base = as_point(xi.base, M.dim, "base")
    scale = vectorchange(M, xi)
    if scale == 0.0:
        return base.copy()
    return lc_exp(M, TangentVector(base, scale * xi.vec))


def _iso_log_vecs(M, x, y):
    """Iso-log vectors from x to y for validated ``(..., d)`` points.

    x and y broadcast; each row equals ``iso_log(M, x_i, y_i).vec`` bit for
    bit when the diffeomorphism maps a point alone and in a batch alike, as
    every built-in one does.
    """
    a = M.diffeo.forward(x)
    w = M.diffeo.forward(y) - a
    v = M.diffeo.inv_jvp(a, w)
    # vecdot runs the dot kernel of TangentVector.norm: norms agree bitwise.
    nv = np.sqrt(np.vecdot(v, v))
    dist = _arc_table(M, a, w)[..., -1]
    moving = nv > 0.0
    scale = np.divide(dist, nv, out=np.zeros_like(nv), where=moving)
    return np.where(moving[..., None], scale[..., None] * v, 0.0)


def iso_log(M, x, y):
    """Logarithm direction rescaled so its norm equals the iso-distance."""
    x, y = _validated_pair(M, x, y)
    return TangentVector(x, _iso_log_vecs(M, x, y))


def iso_transport(M, x, y, xi):
    """Parallel transport rescaled by the log-norm ratio of the endpoints."""
    x, y = _validated_pair(M, x, y)
    forward_norm = lc_log(M, x, y).norm
    if forward_norm == 0.0:
        return TangentVector(y, np.asarray(xi.vec, dtype=float).copy())
    backward_norm = lc_log(M, y, x).norm
    moved = lc_transport(M, x, y, xi)
    return TangentVector(y, (forward_norm / backward_norm) * moved.vec)


def speed_profile(M, x, y, n_samples=33, h=1e-5):
    """Central finite-difference l2 speeds of the iso-geodesic.

    Returns an (n_samples, 2) array of (t, speed) rows at interior times;
    diagnostic for the constant-speed guarantee.
    """
    x, y = _validated_pair(M, x, y)
    ts = np.arange(1, n_samples + 1) / (n_samples + 1.0)
    arc = _Arc(M, x, y)
    total = arc.table().total
    if total == 0.0:
        return np.stack([ts, np.zeros_like(ts)], axis=-1)
    stencil = np.concatenate([ts - h, ts + h])
    s_vals = np.array([arc.invert(t * total) for t in stencil])
    pts = M.diffeo.inverse(arc.a + s_vals[:, None] * arc.w)
    lo, hi = pts[:n_samples], pts[n_samples:]
    speeds = np.linalg.norm(hi - lo, axis=-1) / (2.0 * h)
    return np.stack([ts, speeds], axis=-1)
