"""Isometrized manifold mappings built from arc-length quadrature.

Pullback geodesics are straight lines in phi-coordinates but traverse the
ambient space with non-constant l2 speed.  The mappings here reparameterize
them to constant speed: iso-distance is the l2 arc length of the geodesic,
the timechange inverts the cumulative arc length, and the vectorchange
rescales exponential arguments so that radial arc lengths match vector norms.

Arc lengths come from one engine.  Where the diffeomorphism gives them,
``arc_length`` is exact and ``speed`` is its derivative; elsewhere
``_arc_table`` integrates the speed with the fixed Gauss-Legendre rule: a
batch of phi-lines is evaluated at every quadrature node in 96 kB passes, with
the values of each line on its own.  In a table of ``SPLIT_PASSES`` passes or
more whose first pass took ``SPLIT_PASS_S`` or longer, a helper thread takes
passes too, so two pass arrays may be live at once.
"""

import contextlib
import contextvars
import functools
import math
import os
import time

import numpy as np

from .errors import DegenerateCurveError, DomainError, NonConvergenceError
from .pullback import TangentVector, _point_pair, as_point
from .quadrature import (NEWTON_MAXITER, REFINE_XTOL, _leggauss, composite_nodes,
                         newton_roots, panel_integrals, unit_rule)

# Bytes of the float (d, L, n) point array of one _arc_table pass: a pass takes
# max(1, PASS_BYTES // (8 n d)) of the L lines of a batch, so peak memory does
# not grow with d.  Under glibc's 128 kB mmap threshold the per-pass arrays are
# reused from the heap (at 256 kB every pass faulted in fresh pages), and
# smaller passes pay more per-pass overhead; BENCH_8.json records the sweep.
PASS_BYTES = 96 * 1024
# A table of at least SPLIT_PASSES passes (192 lines at d = 2) whose first
# pass took SPLIT_PASS_S or longer shares its other passes with one helper
# thread (_run_passes).  Waking the idle helper costs about what a small table
# saves: with other work between river tables, a split table took 0.94-1.20x
# the one-thread time at 2-4 passes and 0.83-1.06x at 5-6, but 0.77-0.88x at
# 8 and 0.73-0.84x at 12-20 (BENCH_25.json).  At 8, every solver_loop table
# (at most 5 passes) stays on one thread.  The threads overlap only where
# numpy releases the GIL, so a speed of a few cheap ufuncs gains nothing
# (identity(2), identity(3), identity(16) and banana through the rule:
# 0.92-1.28x at 8-20 passes).  Their first passes took 33-55 us on a 2-core
# x86-64 host, river's 95 us and a sin map's 435 us: a pass of 70 us or more
# spends long enough in ufuncs for a second thread to pay.
SPLIT_PASSES = 8
SPLIT_PASS_S = 70e-6

MAX_BRACKET_DOUBLINGS = 60


def _speeds(M, a, w, ts):
    """l2 speeds ``(n,)`` or ``(L, n)`` of one ``(d,)`` or ``(L, d)`` phi-line a + t w.

    The points at the ``(n,)`` times ts are one C-contiguous ``(d, L, n)`` array:
    the diffeomorphism reads its ``(L, n, d)`` view one contiguous coordinate at a time.
    """
    p = np.multiply(w.T[..., None], ts, order="C")
    p += a.T[..., None]
    p = p.T.swapaxes(0, -2)
    return M.diffeo.speed(p, np.broadcast_to(w[..., None, :], p.shape))


@functools.cache
def _helper():
    # The one helper thread's executor, made on first use (its thread on the
    # first submit).  Two threads that first split at once may each make one:
    # the one not kept ends its thread once it is dropped and its job is done.
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="isogeo")


# A forked child inherits the executor but not its thread, and work submitted
# to it would never run: the child makes its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helper.cache_clear)


def _cpus():   # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_passes(one_pass, starts):
    """Call ``one_pass(start)`` for every start in order, raising what that loop raises."""
    # The calling thread takes the first start.  From SPLIT_PASSES starts on,
    # if that pass took SPLIT_PASS_S or longer, on 2 or more CPUs, the helper
    # joins it: both take starts from one shared iterator (next() on a range
    # iterator is one step under the GIL) until none are left, the helper in
    # a copy of the caller's context (numpy's errstate lives there).  Each
    # looks for a failure before it takes a start, so every start below a
    # taken one runs to its end: the lowest failing start, the serial loop's,
    # is among those run, and its exception is raised.
    shared, failed, job = iter(starts), [], None

    def take(count=len(starts)):
        for _ in range(count):
            if failed or (start := next(shared, None)) is None:
                return
            try:
                one_pass(start)
            except Exception as exc:
                failed.append((start, exc))

    started = time.perf_counter()
    take(1)
    if (len(starts) >= SPLIT_PASSES and time.perf_counter() - started >= SPLIT_PASS_S
            and _cpus() >= 2):
        # submit raises RuntimeError once the interpreter is shutting down.
        with contextlib.suppress(RuntimeError):
            job = _helper().submit(contextvars.copy_context().run, take)
    try:
        take()
    finally:
        # No helper work outlives the call, and a job the helper has not
        # started (it may be busy with another thread's table) is cancelled.
        if job is not None and not job.cancel():
            job.result()
    if failed:
        raise min(failed)[1]   # the starts differ: no two exceptions are compared


def _arc_table(M, a, w):
    """Cumulative arc length at the panel knots of the phi-lines a + t w.

    ``a`` and ``w`` broadcast over ``(..., d)``; returns ``(..., panels + 1)``
    with 0 in the first column and the whole arc length in the last.  Each
    pass writes its own rows, on two threads in a table of SPLIT_PASSES passes
    or more whose first pass took SPLIT_PASS_S or longer.
    """
    q = M.quad
    ts, weights, _ = unit_rule(q)
    a, w = np.broadcast_arrays(a, w)
    lines = w.shape[:-1]
    a, w = a.reshape(-1, w.shape[-1]), w.reshape(-1, w.shape[-1])
    cumlen = np.zeros((len(w), q.panels + 1))
    step = max(1, PASS_BYTES // (8 * len(ts) * w.shape[-1]))

    def one_pass(start):
        part = slice(start, start + step)
        speeds = _speeds(M, a[part], w[part], ts)
        per_panel = panel_integrals(speeds * weights, q.panels, q.nodes_per_panel)
        np.cumsum(per_panel, axis=-1, out=cumlen[part, 1:])

    _run_passes(one_pass, range(0, len(w), step))
    return cumlen.reshape(*lines, q.panels + 1)


def _arc_lengths(M, a, w):
    """Whole arc lengths ``(...)`` of the phi-lines a + t w, a and w broadcast over ``(..., d)``.

    The diffeomorphism's ``arc_length`` where it has one, else the last
    column of ``_arc_table``.
    """
    if M.diffeo.arc_length is not None:
        return M.diffeo.arc_length(a, w)
    return _arc_table(M, a, w)[..., -1]


def _knot_lengths(M, a, w):
    """Cumulative arc length of the one phi-line a + t w at the rule's panel knots."""
    if M.diffeo.arc_length is None:
        return _arc_table(M, a, w)
    return M.diffeo.arc_length(a, unit_rule(M.quad)[2][:, None] * w)


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
    nodes, weights = _leggauss(q.nodes_per_panel)
    changed = np.where(target <= 0.0, 0.0, 1.0)
    inner = np.flatnonzero((target > 0.0) & (target < cumlen[-1]))
    target = target[inner]
    idx = np.minimum(np.maximum(np.searchsorted(cumlen, target), 1), len(knots) - 1)
    lo, hi = knots[idx - 1], knots[idx]
    c_lo, c_hi = cumlen[idx - 1], cumlen[idx]
    guess = lo + (hi - lo) * (target - c_lo) / np.maximum(c_hi - c_lo, 1e-300)
    arc_length = M.diffeo.arc_length

    if arc_length is not None:
        def g(lanes, tp):
            # Arc length from 0 to tp minus the target, and the speed at tp.
            tw = tp[:, None] * w
            return arc_length(a, tw) - target[lanes], M.diffeo.speed(a + tw, w)
    else:
        def g(lanes, tp):
            # Arc length from 0 to tp minus the target, by the stencil
            # composite_nodes(lo, tp, 1, n) on the lane's panel, and the speed at tp.
            kn = lo[lanes]
            half, mid = 0.5 * (tp - kn), 0.5 * (tp + kn)
            ts = np.concatenate([mid[:, None] + half[:, None] * nodes, tp[:, None]], axis=1)
            speeds = _speeds(M, a, w, ts.ravel()).reshape(ts.shape)
            # vecdot runs the dot kernel of np.dot: each sum is the scalar one.
            length = c_lo[lanes] + np.vecdot(speeds[:, :-1], half[:, None] * weights)
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


def _changed_times(M, x, y, t):
    """The phi-line a + t' w from x to y and the changed times t'(t).

    t' is the smallest time whose arc length is t times the whole; t = 0 and
    t = 1 map to 0 and 1 exactly (``_invert`` clamps the targets 0 and the
    whole length).  One table serves every entry of t.
    """
    x, y = _point_pair(M, x, y)
    t = np.asarray(t, dtype=float)
    outside = t[~((t >= 0.0) & (t <= 1.0))]
    if outside.size:
        raise ValueError(f"the time change requires t in [0, 1], got {outside[0]}")
    a = M.diffeo.forward(x)
    w = M.diffeo.forward(y) - a
    cumlen = _knot_lengths(M, a, w)
    total = float(cumlen[-1])
    if total == 0.0:
        raise DegenerateCurveError(
            "the time change is undefined for coinciding endpoints")
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
    ``(...)`` array of times.
    """
    a, w, tp = _changed_times(M, x, y, t)
    return M.diffeo.inverse(a + tp[..., None] * w)


def _vectorchange(M, x, a, v):
    """``vectorchange`` of the vector v at x: validated float arrays, a = phi(x)."""
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return 0.0
    w = M.diffeo.jvp(x, v)
    q = M.quad
    eps = 1e-15 * (1.0 + nv)
    arc_length = M.diffeo.arc_length

    if arc_length is not None:
        def g(T):
            # Arc length to T minus |v|, and the speed at T.
            return float(arc_length(a, T * w)) - nv, float(M.diffeo.speed(a + T * w, w))
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
        if abs(g_hi) <= eps:
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
    # newton_roots' steps on one lane, from the bracket's top end.
    T, f, T_prev, f_prev = hi, g_hi, hi, math.inf
    for _ in range(NEWTON_MAXITER):
        if not math.isfinite(f):
            raise NonConvergenceError(f"root solve: residual {f} at x = {T}")
        slope = (f - f_prev) / (T - T_prev) if abs(f) > 0.5 * abs(f_prev) else speed
        step = T - f / slope if slope != 0.0 else math.inf
        if not lo <= step <= hi:
            step = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        if abs(step - T) < REFINE_XTOL:
            return step
        T_prev, f_prev, T = T, f, step
        f, speed = g(T)
        if abs(f) <= eps:
            return T
        if f < 0.0:
            lo, g_lo = T, f
        else:
            hi, g_hi = T, f
    raise NonConvergenceError(
        f"root solve: 1 of 1 lanes open after {NEWTON_MAXITER} Newton iterations")


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
    diagnostic for the constant-speed guarantee.
    """
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
