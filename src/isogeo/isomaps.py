"""Isometrized manifold mappings built from arc-length quadrature.

Pullback geodesics are straight lines in phi-coordinates but traverse the
ambient space with non-constant l2 speed.  The mappings here reparameterize
them to constant speed: iso-distance is the l2 arc length of the geodesic,
the timechange inverts the cumulative arc length, and the vectorchange
rescales exponential arguments so that radial arc lengths match vector norms.

Arc lengths come from one engine.  Where the diffeomorphism gives them,
``arc_length`` is exact and ``speed`` is its derivative (``_exact_probe``
reads both); elsewhere the speed is integrated with the fixed Gauss-Legendre
rule: ``_knot_lengths`` sums the one line that ``_invert`` brackets up to
each panel knot, and ``_arc_lengths`` evaluates a batch of phi-lines at every
node in 96 kB passes, with the values of each line on its own, one pass after
another on the calling thread, and keeps each line's total, its panels added
in the knots' order.  The rule's speed is the map's ``speed``, the norm of
``inv_jvp``, except on a map with a ``coupling`` (river), which only this
module reads: there it is sqrt((w_0 + g)^2 + s) from the factors g and s of
the d - 1 coordinates after the first, the only ones built, with the bits of
``speed`` on river, and the passes take more lines for the arrays they save.
A coupling batch of ``SHARED_PASSES`` whole-point passes or more (169 lines
or more at d = 2) with at most half as many distinct (a_rest, w_rest) bit
patterns, or keys, as lines (as a grid's field has) evaluates the factors
once per key and the speed's finish per line.

On a 1-D pullback the iso-geodesic, and so the speed profile, is the exact
segment from x to y, with no knot table and no root solve.
"""

import math

import numpy as np

from .errors import DegenerateCurveError, DomainError, NonConvergenceError
from .pullback import TangentVector, _point_pair, as_point
from .quadrature import (_count, composite_nodes, gauss_panels, newton_root, newton_roots,
                         panel_integrals, residual_tolerance, unit_rule)

# Bytes of the float (d, L, n) point array of one _arc_lengths pass: a pass takes
# max(1, PASS_BYTES // (8 n d)) of the L lines of a batch, so peak memory does
# not grow with d.  Under glibc's 128 kB mmap threshold the per-pass arrays are
# reused from the heap (at 256 kB every pass faulted in fresh pages), and
# smaller passes pay more per-pass overhead; BENCH_8.json records the sweep.
# A coupling's pass is sized by the (L, n) arrays it keeps live: it builds only
# the d - 1 coordinates the factors read, which with their COUPLING_ARRAYS
# (river's g, s and one work array) make d + 2 where the whole point array
# made d + 3, so it takes (d + 3) / (d + 2) times the lines (30 for 24 at
# d = 2; 48 doubled the faults of a scipy-free solver_loop pass).  A pass of
# shared coupling lines takes d times the lines, whose (L, n) speeds are as
# large as the (d, L, n) points.
PASS_BYTES = 96 * 1024
COUPLING_ARRAYS = 3
# A coupling batch that reaches into its SHARED_PASSES-th whole-point pass
# (169 lines or more at d = 2) looks for shared keys; a smaller one keeps its
# per-line passes without sorting them.
SHARED_PASSES = 8

MAX_BRACKET_DOUBLINGS = 60


def _coupled_speed(w_0, g, s):
    """sqrt((w_0 + g)^2 + s), the speed of a coupling from its factors, in place in g."""
    g += w_0
    np.square(g, out=g)
    g += s
    return np.sqrt(g, out=g)


def _points(a, w, ts):
    """The ``(L, n, d)`` points a + t w, a view of one C-contiguous ``(d, L, n)`` array.

    A map reads them one contiguous coordinate at a time; a ``(d,)`` line gives ``(n, d)``.
    """
    p = np.multiply(w.T[..., None], ts, order="C")
    p += a.T[..., None]
    return p.T.swapaxes(0, -2)


def _speeds(M, a, w, ts):
    """l2 speeds ``(n,)`` or ``(L, n)`` of one ``(d,)`` or ``(L, d)`` phi-line a + t w."""
    factors = M.diffeo.coupling
    if factors is None:
        p = _points(a, w, ts)
        return M.diffeo.speed(p, np.broadcast_to(w[..., None, :], p.shape))
    return _coupled_speed(w[..., 0, None],
                          *factors(_points(a[..., 1:], w[..., 1:], ts), w[..., None, 1:]))


def _arc_lengths(M, a, w):
    """Whole arc lengths ``(...)`` of the phi-lines a + t w, a and w broadcast over ``(..., d)``.

    The diffeomorphism's ``arc_length`` where it has one, else the rule's
    totals: each line's last ``_knot_lengths`` knot, bit for bit.
    """
    if M.diffeo.arc_length is not None:
        return M.diffeo.arc_length(a, w)
    q = M.quad
    ts, weights, _ = unit_rule(q)
    a, w = np.broadcast_arrays(a, w)
    lines, d = w.shape[:-1], w.shape[-1]
    a, w = a.reshape(-1, d), w.reshape(-1, d)
    out = np.zeros(len(w))
    step = max(1, PASS_BYTES // (8 * len(ts) * d))

    def store(rows, speeds):
        p = panel_integrals(speeds * weights, q.panels, q.nodes_per_panel)
        if len(p) > 1:
            # add.reduce down a C-contiguous (panels, lines) array adds the
            # panels in cumsum's order, in a third of its time at 48 lines.
            out[rows] = np.add.reduce(np.ascontiguousarray(p.T), axis=0)
        else:
            # A lone line it would reduce along its panels, pairwise from 8 on.
            out[rows] = np.cumsum(p[0])[-1]

    def per_line(part):
        store(part, _speeds(M, a[part], w[part], ts))

    def shared(part):
        # Each key's factors are evaluated on the key's first line and taken by row.
        rows, own = order[part], key[part]
        first = heads[own[0]:own[-1] + 1]
        g, s = factors(_points(a_rest[first], w_rest[first], ts), w_rest[first, None, :])
        own = own - own[0]
        store(rows, _coupled_speed(w[rows, 0, None], g[own], s[own]))

    one_pass, width, factors = per_line, step, M.diffeo.coupling
    if factors is not None:
        width = step * (d + COUPLING_ARRAYS) // (d - 1 + COUPLING_ARRAYS)
        if len(w) > (SHARED_PASSES - 1) * step:
            a_rest, w_rest = a[:, 1:], w[:, 1:]
            order, key, heads = _shared_keys(a_rest, w_rest)
            if 2 * len(heads) <= len(w):
                # d times the lines of a whole-point pass, in key order: their
                # (L, n) speeds are as large as its (d, L, n) points.
                one_pass, width = shared, step * d
    for start in range(0, len(w), width):
        one_pass(slice(start, start + width))
    return out.reshape(lines)


def _shared_keys(a_rest, w_rest):
    """Group lines by the bits of their (a_rest, w_rest), which keep +0.0 and -0.0 apart.

    Returns the stable order that groups them, each ordered line's key index
    and each key's first line.
    """
    bits = np.concatenate([a_rest, w_rest], axis=1).view(np.int64)
    order = np.lexsort(bits.T)
    ordered = bits[order]
    new = np.concatenate([[True], (ordered[1:] != ordered[:-1]).any(axis=1)])
    return order, np.cumsum(new) - 1, order[new]


def _knot_lengths(M, a, w):
    """Arc lengths ``(panels + 1,)`` of one phi-line a + t w up to the rule's knots, from 0."""
    q = M.quad
    ts, weights, knots = unit_rule(q)
    if M.diffeo.arc_length is not None:
        return M.diffeo.arc_length(a, knots[:, None] * w)
    cumlen = np.zeros(q.panels + 1)
    p = panel_integrals(_speeds(M, a, w, ts) * weights, q.panels, q.nodes_per_panel)
    np.cumsum(p, out=cumlen[1:])
    return cumlen


def _exact_probe(M, a, w, t):
    """The closed-form arc length along a + t w from 0 to t, and the speed at t."""
    tw = t * w
    return M.diffeo.arc_length(a, tw), M.diffeo.speed(a + tw, w)


def _invert(M, a, w, cumlen, target):
    """Smallest t' whose arc length along a + t w is each target, refined past the table.

    ``cumlen`` is the ``_knot_lengths`` row of the one line ``a + t w`` and
    ``target`` an ``(n,)`` array; targets at or below 0 map to 0 and at or
    above the whole length to 1.  The other targets are solved together by
    ``newton_roots``, each on its own panel and equal to its own one-target
    call, with the diffeomorphism's ``arc_length`` to t' where it has one.
    """
    q = M.quad
    knots = unit_rule(q)[2]
    changed = np.where(target <= 0.0, 0.0, 1.0)
    inner = np.flatnonzero((target > 0.0) & (target < cumlen[-1]))
    target = target[inner]
    idx = np.minimum(np.maximum(np.searchsorted(cumlen, target), 1), len(knots) - 1)
    lo, hi = knots[idx - 1], knots[idx]
    c_lo, c_hi = cumlen[idx - 1], cumlen[idx]
    guess = lo + (hi - lo) * (target - c_lo) / np.maximum(c_hi - c_lo, 1e-300)

    if M.diffeo.arc_length is not None:
        def g(lanes, tp):
            # Arc length from 0 to tp minus the target, and the speed at tp.
            length, speed = _exact_probe(M, a, w, tp[:, None])
            return length - target[lanes], speed
    else:
        def g(lanes, tp):
            # Arc length from 0 to tp minus the target, by the rule on the
            # lane's panel [knot, tp], and the speed at tp.
            nodes, weights = gauss_panels(lo[lanes], tp, q.nodes_per_panel)
            ts = np.concatenate([nodes, tp[:, None]], axis=1)
            speeds = _speeds(M, a, w, ts.ravel()).reshape(ts.shape)
            # vecdot runs the dot kernel of np.dot: each sum is the scalar one.
            length = c_lo[lanes] + np.vecdot(speeds[:, :-1], weights)
            return length - target[lanes], speeds[:, -1]

    changed[inner] = newton_roots(g, lo, hi, c_lo - target, c_hi - target, guess,
                                  cumlen[-1])
    return changed


def iso_distance(M, x, y):
    """l2 arc length of the geodesic from x to y.

    Exact where the diffeomorphism has an ``arc_length``, by the fixed
    Gauss-Legendre rule elsewhere.

    Batch-first: x and y broadcast over ``(..., d)``.  One pair gives a
    float, a batch an ``(...)`` array with the same value per pair as a
    one-pair call.  Symmetric under swapping the endpoints; not claimed to
    be a metric.
    """
    x = as_point(x, M.dim, "x", batch=True)
    y = as_point(y, M.dim, "y", batch=True)
    a = M.diffeo.forward(x)
    total = _arc_lengths(M, a, M.diffeo.forward(y) - a)
    return float(total) if total.ndim == 0 else total


def _phi_line(M, x, y, t):
    """The times t, checked to lie in [0, 1], and the phi-line a + t w from x to y."""
    x, y = _point_pair(M, x, y)
    t = np.asarray(t, dtype=float)
    outside = t[~((t >= 0.0) & (t <= 1.0))]
    if outside.size:
        raise ValueError(f"the time change requires t in [0, 1], got {outside[0]}")
    a = M.diffeo.forward(x)
    return x, y, t, a, M.diffeo.forward(y) - a


def _whole_length(total):
    """The whole arc length of a curve as a float; DegenerateCurveError where it is 0."""
    if total == 0.0:
        raise DegenerateCurveError(
            "the time change is undefined for coinciding endpoints")
    return float(total)


def _changed_times(M, x, y, t):
    """The phi-line a + t' w from x to y and the changed times t'(t).

    t' is the smallest time whose arc length is t times the whole; t = 0 and
    t = 1 map to 0 and 1 exactly (``_invert`` clamps the targets 0 and the
    whole length).  One table serves every entry of t.
    """
    _, _, t, a, w = _phi_line(M, x, y, t)
    cumlen = _knot_lengths(M, a, w)
    total = _whole_length(cumlen[-1])
    return a, w, _invert(M, a, w, cumlen, t.ravel() * total).reshape(t.shape)


def timechange(M, x, y, t):
    """Monotone reparameterization s with equal arc length in equal time.

    Returns the smallest t' such that the arc length up to t' is t times the
    total; s(0) = 0 and s(1) = 1 exactly.  Batch-first in t: a float for a
    scalar t, an array of the shape of t otherwise.
    """
    tp = _changed_times(M, x, y, t)[2]
    return float(tp) if tp.ndim == 0 else tp


def iso_geodesic(M, x, y, t):
    """Constant-speed geodesic: the Levi-Civita curve at the changed time.

    Batch-first in t: a ``(d,)`` point for a scalar t, ``(..., d)`` for an
    ``(...)`` array of times.  On a 1-D pullback, whose diffeomorphism is
    monotone, it is the exact segment (1 - t) x + t y, with no knot table
    and no root solve: x and y at t = 0 and 1, within about an ulp of
    max(|x|, |y|) between.  It raises what the time change raises.
    """
    if M.dim > 1:
        a, w, tp = _changed_times(M, x, y, t)
        return M.diffeo.inverse(a + tp[..., None] * w)
    x, y, t, a, w = _phi_line(M, x, y, t)
    _whole_length(M.diffeo.arc_length(a, w))
    t = t[..., None]
    return (1.0 - t) * x + t * y


def _vectorchange(M, x, a, v):
    """``vectorchange`` of the vector v at x: validated float arrays, a = phi(x)."""
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return 0.0
    w = M.diffeo.jvp(x, v)
    q = M.quad

    if M.diffeo.arc_length is not None:
        def g(T):
            # Arc length to T minus |v|, and the speed at T.
            length, speed = _exact_probe(M, a, w, T)
            return float(length) - nv, float(speed)
    else:
        def g(T):
            # Arc length to T minus |v|, and the speed at T, from one _speeds call
            # whose last node is T: the nodes go into an array with a slot for T.
            nodes, weights, _ = composite_nodes(0.0, T, q.panels, q.nodes_per_panel)
            ts = np.empty(len(nodes) + 1)
            ts[:-1] = nodes
            ts[-1] = T
            speeds = _speeds(M, a, w, ts)
            return float(np.dot(speeds[:-1], weights)) - nv, float(speeds[-1])

    # g(0) is -|v| by construction: the line to 0 has length 0 (the rule on
    # [0, 0] has zero weights).
    lo, g_lo, hi, g_hi = 0.0, -nv, 1.0, None
    edges = set()   # probes past the domain: doubling back onto one reads it here
    for _ in range(2 * MAX_BRACKET_DOUBLINGS):
        if hi not in edges:
            try:
                g_hi, speed = g(hi)
            except DomainError:
                edges.add(hi)
        if hi in edges:
            g_hi = None
            hi = 0.5 * (lo + hi)
            continue
        if abs(g_hi) <= residual_tolerance(nv):
            return float(hi)
        if g_hi >= 0.0:
            break
        lo, g_lo = hi, g_hi
        hi *= 2.0
    if g_hi is None or g_hi < 0.0:
        if edges:
            raise DomainError(
                f"iso-exponential leaves the diffeomorphism domain before "
                f"reaching arc length {nv}")
        raise NonConvergenceError(
            f"vectorchange failed to bracket within "
            f"{MAX_BRACKET_DOUBLINGS} doublings (|xi| = {nv})")
    return newton_root(g, lo, hi, g_lo, g_hi, speed, nv)


def vectorchange(M, xi):
    """Scale t' >= 0 making the exponential radially isometric.

    Solves arclength(x -> lc_exp(t' xi)) = |xi| by doubling the bracket from
    t' = 1 (the speed at 0 is |xi|) and refining by safeguarded Newton steps;
    the arc length is strictly increasing in t' for pullback closed forms, so
    the root is unique.  Probes past the diffeomorphism domain are pulled back
    toward the last valid parameter; DomainError is raised when the available
    arc length cannot reach |xi|.  Each probe is one call of the
    diffeomorphism's ``arc_length`` or, without one, one quadrature, and
    the speed at t', the derivative of the arc length.
    """
    base = as_point(xi.base, M.dim, "base")
    # A zero vector scales by 0 without phi, even where phi is undefined.
    if xi.norm == 0.0:
        return 0.0
    return _vectorchange(M, base, M.diffeo.forward(base), xi.vec)


def _iso_exp(M, x, a, v):
    """``iso_exp`` of the vector v at x: validated float arrays, a = phi(x).

    phi(x) serves every ``vectorchange`` probe and the final inverse map.
    """
    scale = _vectorchange(M, x, a, v)
    if scale == 0.0:
        return x.copy()
    return M.diffeo.inverse(a + M.diffeo.jvp(x, scale * v))


def iso_exp(M, xi):
    """Iso-exponential lc_exp(vectorchange(xi) * xi); iso_exp(0) = x."""
    base = as_point(xi.base, M.dim, "base")
    if xi.norm == 0.0:
        return base.copy()
    return _iso_exp(M, base, M.diffeo.forward(base), xi.vec)


def _iso_log_vecs(M, x, y):
    """Iso-log vectors and iso-distances from x to y, validated ``(..., d)`` points.

    x and y broadcast; returns the ``(..., d)`` vectors and the ``(...)``
    distances their norms are scaled to.  Each vector equals
    ``iso_log(M, x_i, y_i).vec`` bit for bit when the diffeomorphism maps a
    point alone and in a batch alike, as every built-in one does.
    """
    return _phi_log_vecs(M, M.diffeo.forward(x), M.diffeo.forward(y))


def _phi_log_vecs(M, a, b):
    """``_iso_log_vecs`` from the phi-images a of x and b of y."""
    w = b - a
    v = M.diffeo.inv_jvp(a, w)
    # vecdot runs the dot kernel of TangentVector.norm: norms agree bitwise.
    nv = np.sqrt(np.vecdot(v, v))
    dist = _arc_lengths(M, a, w)
    moving = nv > 0.0
    scale = np.divide(dist, nv, out=np.zeros_like(nv), where=moving)
    return np.where(moving[..., None], scale[..., None] * v, 0.0), dist


def iso_log(M, x, y):
    """Logarithm direction rescaled so its norm equals the iso-distance."""
    x, y = _point_pair(M, x, y)
    return TangentVector(x, _iso_log_vecs(M, x, y)[0])


def _iso_transport_vecs(M, x, y, v):
    """Iso-transports of the vectors v from x to y, validated ``(..., d)`` arrays.

    x, y and v broadcast.  Each pair scales the parallel transport of its
    vector by |log_x y| / |log_y x|; a pair whose forward log is zero keeps
    its vector.
    """
    a, b = M.diffeo.forward(x), M.diffeo.forward(y)
    fwd = M.diffeo.inv_jvp(a, b - a)
    bwd = M.diffeo.inv_jvp(b, a - b)
    # vecdot runs the dot kernel of TangentVector.norm: norms agree bitwise.
    fwd_norm = np.sqrt(np.vecdot(fwd, fwd))
    bwd_norm = np.sqrt(np.vecdot(bwd, bwd))
    moving = fwd_norm != 0.0
    scale = np.divide(fwd_norm, bwd_norm, out=np.ones_like(fwd_norm), where=moving)
    moved = M.diffeo.inv_jvp(b, M.diffeo.jvp(x, v))
    return np.where(moving[..., None], scale[..., None] * moved, v)


def iso_transport(M, x, y, xi):
    """Parallel transport rescaled by the log-norm ratio of the endpoints."""
    x, y = _point_pair(M, x, y)
    if not np.array_equal(xi.base, x):
        raise ValueError("transported vector must be based at x")
    return TangentVector(y, _iso_transport_vecs(M, x, y, xi.vec))


def speed_profile(M, x, y, n_samples=33, h=1e-5):
    """Central finite-difference l2 speeds of the iso-geodesic.

    Returns an (n_samples, 2) array of (t, speed) rows at interior times;
    diagnostic for the constant-speed guarantee.  Needs finite h > 0 and integer n_samples >= 0.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h}")
    n_samples = _count("n_samples", n_samples, 0)
    ts = np.arange(1, n_samples + 1) / (n_samples + 1.0)
    # A stencil time past [0, 1] (h >= ts[0]) reads the endpoint, as an
    # arc-length target beyond either end of the curve does.
    stencil = np.clip(np.concatenate([ts - h, ts + h]), 0.0, 1.0)
    try:
        pts = iso_geodesic(M, x, y, stencil)
    except DegenerateCurveError:
        return np.stack([ts, np.zeros_like(ts)], axis=-1)
    lo, hi = pts[:n_samples], pts[n_samples:]
    speeds = np.linalg.norm(hi - lo, axis=-1) / (2.0 * h)
    return np.stack([ts, speeds], axis=-1)
