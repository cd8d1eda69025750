"""Byte-budgeted passes, in-place Jacobian actions and in-order panel sums
equal their old formulas bit for bit; vectorchange probes each parameter
once and lands within REFINE_XTOL of a brentq oracle."""

import numpy as np
import pytest
from scipy.optimize import brentq

import isogeo as ig
from isogeo import isomaps
from isogeo.errors import DomainError, NonConvergenceError
from isogeo.isomaps import COUPLING_ARRAYS, PASS_BYTES, _arc_lengths, _knot_lengths, _speeds
from isogeo.pullback import TangentVector, lc_exp
from isogeo.quadrature import (REFINE_XTOL, _sum_last, composite_nodes, newton_roots,
                                panel_integrals, unit_rule)

from conftest import make_manifold, sample_point

GEOMETRIES = ["identity", "river", "spiral", "banana", "sinh"]


# The Jacobian actions as np.stack formulas: the oracles of the in-place ones.
def stacked_actions(name, params):
    if name == "river":
        beta, eta = params["beta"], params["eta"]

        def jvp(x, v):
            x2 = x[..., 1]
            return np.stack([v[..., 0] - beta * np.cos(x2) * v[..., 1],
                             eta * np.cosh(eta * x2) * v[..., 1]], axis=-1)

        def inv_jvp(y, w):
            y2 = y[..., 1]
            dx2 = w[..., 1] / (eta * np.sqrt(1.0 + y2 ** 2))
            x2 = np.arcsinh(y2) / eta
            return np.stack([w[..., 0] + beta * np.cos(x2) * dx2, dx2], axis=-1)
    elif name == "spiral":
        beta = params["beta"]

        def jvp(x, v):
            x1, x2 = x[..., 0], x[..., 1]
            radius = np.hypot(x1, x2)
            radial = (x1 * v[..., 0] + x2 * v[..., 1]) / (beta * radius)
            angular = (x1 * v[..., 1] - x2 * v[..., 0]) / radius ** 2
            return np.stack([radial, angular - radial], axis=-1)

        def inv_jvp(p, w):
            r, theta = p[..., 0], p[..., 1]
            c, s = np.cos(r + theta), np.sin(r + theta)
            wr, wt = w[..., 0], w[..., 1]
            return beta * np.stack([(c - r * s) * wr - r * s * wt,
                                    (s + r * c) * wr + r * c * wt], axis=-1)
    else:
        a = params["a"]

        def jvp(x, v):
            return np.stack([v[..., 0] - 2.0 * a * x[..., 1] * v[..., 1],
                             v[..., 1]], axis=-1)

        def inv_jvp(y, w):
            return np.stack([w[..., 0] + 2.0 * a * y[..., 1] * w[..., 1],
                             w[..., 1]], axis=-1)
    return jvp, inv_jvp


def speeds_view(a, w, ts):
    """The (L, n, d) points and broadcast directions that _speeds hands a map."""
    p = np.multiply(w.T[..., None], ts, order="C")
    p += a.T[..., None]
    p = p.T.swapaxes(0, -2)
    return p, np.broadcast_to(w[..., None, :], p.shape)


def assert_same_action(got, want):
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["river", "spiral", "banana"])
def test_builtin_jacobian_actions_equal_stacked_formulas(name):
    M = make_manifold(name)
    diffeo = M.diffeo
    jvp, inv_jvp = stacked_actions(name, diffeo.params)
    rng = np.random.default_rng(80)
    x = np.array([sample_point(name, M, rng) for _ in range(2000)])
    v = rng.standard_normal(x.shape)
    y = diffeo.forward(x)
    for new, old, base in ((diffeo.jvp, jvp, x), (diffeo.inv_jvp, inv_jvp, y)):
        # Single points: their scalar temporaries take other numpy paths.
        for b, u in zip(base[:300], v[:300]):
            assert_same_action(new(b, u), old(b, u))
        assert_same_action(new(base, v), old(base, v))
        assert_same_action(new(base[0], v), old(base[0], v))
        assert_same_action(new(base[:50], v.reshape(40, 50, 2)),
                           old(base[:50], v.reshape(40, 50, 2)))
    # The component-major (L, n, d) view of _speeds, default and 8x16 rules.
    a, w = y[:7], y[7:14] - y[:7]
    for quad in (ig.QuadratureConfig(), ig.QuadratureConfig(8, 16)):
        p, dirs = speeds_view(a, w, unit_rule(quad)[0])
        assert_same_action(diffeo.inv_jvp(p, dirs), inv_jvp(p, dirs))


@pytest.mark.parametrize("nodes_per_panel", range(1, 17))
def test_panel_integrals_equal_add_reduce(nodes_per_panel):
    rng = np.random.default_rng(81 + nodes_per_panel)
    panels = 9
    values = rng.standard_normal((3, 5, panels * nodes_per_panel))
    values *= np.exp(rng.uniform(-30.0, 30.0, values.shape))
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.2] = -0.0
    values[0, 0, :nodes_per_panel] = -0.0   # a panel of negative zeros only
    values[0, 1, :nodes_per_panel] = 0.0
    # _sum_last on its own, first on rows of this length (one of -0.0 only).
    rows = values[..., :nodes_per_panel]
    for got, want in [(_sum_last(rows), rows.sum(axis=-1)),
                      (panel_integrals(values, panels, nodes_per_panel),
                       values.reshape(3, 5, panels, nodes_per_panel).sum(axis=-1))]:
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def one_pass_table(M, a, w):
    """The arc-length table of every line in one pass, panels by add.reduce."""
    q = M.quad
    ts, weights, _ = unit_rule(q)
    per_panel = (_speeds(M, a, w, ts) * weights).reshape(
        len(w), q.panels, q.nodes_per_panel).sum(axis=-1)
    return np.concatenate([np.zeros((len(w), 1)), np.cumsum(per_panel, axis=-1)],
                          axis=-1)


def linear_manifold(dim, quad, rng):
    B = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
    B_inv = np.linalg.inv(B)
    return ig.PullbackManifold(
        ig.Diffeomorphism(dim, lambda x: x @ B_inv.T, lambda y: y @ B.T,
                          jvp=lambda x, v: v @ B_inv.T, inv_jvp=lambda y, w: w @ B.T),
        quad)


@pytest.mark.parametrize("quad", [ig.QuadratureConfig(), ig.QuadratureConfig(8, 16)],
                         ids=["64x4", "8x16"])
@pytest.mark.parametrize("dim", [1, 2, 12])
def test_arc_lengths_across_pass_boundaries(dim, quad, monkeypatch):
    rng = np.random.default_rng(82 + dim)
    step = max(1, PASS_BYTES // (8 * len(unit_rule(quad)[0]) * dim))
    names = {1: "sinh", 2: "river"}
    M = make_manifold(names[dim], quad) if dim in names else linear_manifold(dim, quad, rng)
    if M.diffeo.coupling is not None:   # river's passes build d - 1 coordinates
        step = step * (dim + COUPLING_ARRAYS) // (dim - 1 + COUPLING_ARRAYS)
    lines = 2 * step + 1
    if dim in names:
        pts = np.array([sample_point(names[dim], M, rng) for _ in range(2 * lines)])
        ends = M.diffeo.forward(pts)
    else:
        ends = rng.standard_normal((2 * lines, dim))
    a, w = ends[:lines], ends[lines:] - ends[:lines]
    # The rule's lengths, on sinh too, whose own arc lengths are exact.
    monkeypatch.setattr(M.diffeo, "arc_length", None)
    table = one_pass_table(M, a, w)
    passes = []
    monkeypatch.setattr(isomaps, "_speeds",
                        lambda M, a, w, ts: passes.append(len(a)) or _speeds(M, a, w, ts))
    got = _arc_lengths(M, a, w)
    assert passes == [step, step, 1]
    assert got.tobytes() == table[:, -1].tobytes()
    # Each line's knots are its oracle row, one _speeds call each, ending in its total.
    for i in range(lines):
        assert np.array_equal(_knot_lengths(M, a[i], w[i]), table[i])
    assert len(passes) == 3 + lines
    assert got.tobytes() == np.array([_knot_lengths(M, *line)[-1] for line in zip(a, w)]).tobytes()


def test_a_one_line_total_sums_its_panels_in_order():
    # add.reduce would sum one line's 64 panels pairwise, to other bits here.
    M = make_manifold("river")
    q = M.quad
    ts, weights, _ = unit_rule(q)
    a, b = np.random.default_rng(0).uniform(-4.0, 4.0, (2, 2))
    per_panel = panel_integrals(_speeds(M, a, b - a, ts) * weights, q.panels, q.nodes_per_panel)
    assert per_panel.sum() != np.cumsum(per_panel)[-1]
    for line in (a, b - a), (a[None], (b - a)[None]):
        assert _arc_lengths(M, *line).tobytes() == _knot_lengths(M, a, b - a)[-1].tobytes()


# vectorchange as a bracket search with one full quadrature, or one call of
# the map's own arc_length, per probe and scipy's brentq: the oracle of the
# Newton refinement.  ``edges`` records the domain-edge retries.  A probe
# g(T) returns the residual and the speed at T; ``refine``, if given, takes
# over from the bracket as ``refine(g, lo, g_lo, hi, g_hi, speed, nv)``.
def probing_vectorchange(M, xi, edges, arc_length, refine=None):
    nv = xi.norm
    if nv == 0.0:
        return 0.0
    a = M.diffeo.forward(xi.base)
    w = M.diffeo.jvp(xi.base, xi.vec)
    q = M.quad

    def g(T):
        if arc_length is not None:
            return float(arc_length(a, T * w)) - nv, float(M.diffeo.speed(a + T * w, w))
        ts, weights, _ = composite_nodes(0.0, T, q.panels, q.nodes_per_panel)
        speeds = _speeds(M, a, w, np.append(ts, T))
        return float(np.dot(speeds[:-1], weights)) - nv, float(speeds[-1])

    lo, g_lo = 0.0, -nv
    hi, g_hi = 1.0, None
    hit_domain_edge = False
    for _ in range(2 * isomaps.MAX_BRACKET_DOUBLINGS):
        try:
            g_hi, speed = g(hi)
        except DomainError:
            hit_domain_edge = True
            edges.append(hi)
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
            raise DomainError("leaves the domain")
        raise NonConvergenceError("no bracket")
    if refine is not None:
        return refine(g, lo, g_lo, hi, g_hi, speed, nv)
    eps = 1e-15 * (1.0 + nv)
    if abs(g_lo) <= eps:
        return float(lo)
    if abs(g_hi) <= eps:
        return float(hi)
    return float(brentq(lambda T: g(T)[0], lo, hi, xtol=REFINE_XTOL))


def outcome(fn):
    try:
        return fn()
    except (DomainError, NonConvergenceError) as exc:
        return type(exc)


# River tangents that need T > 2: with one bracket doubling they fail to bracket.
LONG_RIVER_TANGENTS = [([-1.5, 1.7], [5.0, -0.75]), ([2.0, 0.75], [3.4, 0.8])]


@pytest.mark.parametrize("name", GEOMETRIES)
def test_vectorchange_probes_once_and_equals_repeat_probing(name, monkeypatch):
    # One doubling: river and sinh then also fail to bracket, spiral leaves its domain.
    rng = np.random.default_rng(83)
    probed = []
    seen = set()
    M = make_manifold(name)
    arc_length = M.diffeo.arc_length
    if arc_length is None:
        # Each vectorchange probe is one _speeds call whose last node is its parameter.
        monkeypatch.setattr(isomaps, "_speeds",
                            lambda M, a, w, ts: probed.append(ts[-1]) or _speeds(M, a, w, ts))
    else:
        # Each probe is one arc_length call along its parameter times the
        # direction, which has the phi-length of that parameter.
        monkeypatch.setattr(M.diffeo, "arc_length",
                            lambda y, w: probed.append(np.linalg.norm(w)) or arc_length(y, w))
    for doublings in (isomaps.MAX_BRACKET_DOUBLINGS, 1):
        monkeypatch.setattr(isomaps, "MAX_BRACKET_DOUBLINGS", doublings)
        tangents = [TangentVector(x, rng.standard_normal(M.dim) * rng.choice([0.1, 1.0, 5.0, 20.0]))
                    for x in (sample_point(name, M, rng) for _ in range(40))]
        if name == "river":
            tangents += [TangentVector(np.array(x), np.array(v)) for x, v in LONG_RIVER_TANGENTS]
        for xi in tangents:
            x = xi.base
            edges = []
            want = outcome(lambda: probing_vectorchange(M, xi, edges, arc_length))
            probed.clear()
            got = outcome(lambda: ig.vectorchange(M, xi))
            assert probed and 0.0 not in probed and len(probed) == len(set(probed))
            failed = isinstance(want, type)
            if failed:
                assert got == want
            else:
                assert abs(got - want) <= REFINE_XTOL * (1.0 + want)
            # A float after a domain-edge retry is its own case.
            seen.add(want if failed else (float, bool(edges)))
            exp = outcome(lambda: ig.iso_exp(M, xi))
            if failed:
                assert exp == want
            else:
                assert np.array_equal(exp, lc_exp(M, TangentVector(x, got * xi.vec)))
    solved = (float, False)
    expected = {"identity": {solved}, "banana": {solved},
                "river": {solved, NonConvergenceError},
                "sinh": {solved, NonConvergenceError},
                "spiral": {solved, (float, True), DomainError}}[name]
    assert seen == expected


def one_lane_newton(steps):
    """A ``refine`` of ``probing_vectorchange``: newton_roots on one lane.

    The lane starts at the top of the bracket, and its first probe is
    answered with the bracket's last value, so no parameter is probed twice.
    Each probed step is counted in ``steps`` as a Newton, secant or regula
    falsi step, by the rule newton_roots states.
    """
    def refine(g, lo, g_lo, hi, g_hi, speed, nv):
        probes = []

        def lane(i, x):
            T = float(x[0])
            assert T not in [p[0] for p in probes]
            f, df = g(T) if probes else (g_hi, speed)
            if probes:
                T0, f0, df0 = probes[-1]
                secant = len(probes) > 1 and abs(f0) > 0.5 * abs(probes[-2][1])
                slope = (f0 - probes[-2][1]) / (T0 - probes[-2][0]) if secant else df0
                newton = T0 - f0 / slope if slope != 0.0 else None
                steps["secant" if secant else "newton"] += T == newton
                steps["regula falsi"] += T != newton
            probes.append((T, f, df))
            return np.array([f]), np.array([df])

        return float(newton_roots(lane, [lo], [hi], [g_lo], [g_hi], [hi], nv)[0])

    return refine


def test_vectorchange_is_newton_roots_on_one_lane(monkeypatch):
    # The scalar loop of vectorchange takes newton_roots' steps: the same
    # root, bit for bit, and the same failure, on every geometry.  The
    # tangents are those of test_vectorchange_probes_once_and_equals_repeat_probing.
    steps = {"newton": 0, "secant": 0, "regula falsi": 0}
    seen = set()
    default = isomaps.MAX_BRACKET_DOUBLINGS
    for name in GEOMETRIES:
        rng = np.random.default_rng(83)
        M = make_manifold(name)
        for doublings in (default, 1):
            monkeypatch.setattr(isomaps, "MAX_BRACKET_DOUBLINGS", doublings)
            tangents = [TangentVector(x, rng.standard_normal(M.dim) * rng.choice([0.1, 1.0, 5.0, 20.0]))
                        for x in (sample_point(name, M, rng) for _ in range(40))]
            if name == "river":
                tangents += [TangentVector(np.array(x), np.array(v))
                             for x, v in LONG_RIVER_TANGENTS]
            for xi in tangents:
                edges = []
                want = outcome(lambda: probing_vectorchange(
                    M, xi, edges, M.diffeo.arc_length, one_lane_newton(steps)))
                got = outcome(lambda: ig.vectorchange(M, xi))
                assert got == want and type(got) is type(want)
                seen.add(want if isinstance(want, type) else (float, bool(edges)))
    assert seen == {(float, False), (float, True), DomainError, NonConvergenceError}
    assert steps["secant"] >= 1 and steps["regula falsi"] >= 1


@pytest.mark.parametrize("name", GEOMETRIES)
def test_zero_width_probe_is_minus_the_norm(name):
    # The rule on [0, 0] has zero weights, so the quadrature of g(0) is exactly 0.
    M = make_manifold(name)
    rng = np.random.default_rng(84)
    ts, weights, _ = composite_nodes(0.0, 0.0, M.quad.panels, M.quad.nodes_per_panel)
    for _ in range(50):
        x = sample_point(name, M, rng)
        xi = TangentVector(x, rng.standard_normal(M.dim))
        a, w = M.diffeo.forward(x), M.diffeo.jvp(x, xi.vec)
        value = float(np.dot(_speeds(M, a, w, ts), weights)) - xi.norm
        assert value == -xi.norm


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_vectorchange_nonfinite_residual_raises_nonconvergence(bad, monkeypatch):
    # An infinite residual ends the bracket search at T = 2; a NaN one inside
    # the bracket [1, 2] meets the Newton steps.
    M = make_manifold("river")
    xi = TangentVector(np.array([0.0, 0.0]), np.array([3.0, 0.5]))
    assert 1.0 < ig.vectorchange(M, xi) < 2.0

    def spoiled(M, a, w, ts):
        speeds = _speeds(M, a, w, ts)
        if bad == np.inf:
            return speeds * (np.inf if ts[-1] == 2.0 else 1.0)
        return np.where(ts[-1] not in (1.0, 2.0), np.nan, speeds)

    monkeypatch.setattr(isomaps, "_speeds", spoiled)
    with pytest.raises(NonConvergenceError, match="residual"):
        ig.vectorchange(M, xi)
