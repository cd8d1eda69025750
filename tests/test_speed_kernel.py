"""The component-major speed kernel equals the point-major formula bit for bit."""

import numpy as np
import pytest

import isogeo as ig
from isogeo.errors import DomainError
from isogeo.isomaps import PASS_BYTES, _arc_lengths, _invert, _knot_lengths, _speeds, vectorchange
from isogeo.quadrature import panel_integrals, unit_rule

from conftest import make_manifold, sample_point

# More lines than one _arc_lengths pass takes at any d (d = 1 passes take the most).
BATCH = PASS_BYTES // (8 * len(unit_rule(ig.QuadratureConfig())[0])) + 7


def aos_speeds(M, a, w, ts):
    """The point-major formula: (..., n, d) points, norms over the last axis."""
    p = a[..., None, :] + ts[:, None] * w[..., None, :]
    return np.linalg.norm(M.diffeo.inv_jvp(p, np.broadcast_to(w[..., None, :], p.shape)),
                          axis=-1)


def aos_table(M, a, w):
    ts, weights, _ = unit_rule(M.quad)
    per_panel = panel_integrals(aos_speeds(M, a, w, ts) * weights,
                                M.quad.panels, M.quad.nodes_per_panel)
    return np.concatenate([np.zeros((len(w), 1)), np.cumsum(per_panel, axis=-1)], axis=-1)


def stencil_times(rng):
    # The shape _invert passes: Gauss nodes of a few sub-panels, flattened.
    nodes = np.polynomial.legendre.leggauss(4)[0]
    lo = np.sort(rng.uniform(0.0, 1.0, 3))
    half = 0.5 * rng.uniform(0.0, 1.0 - lo)
    return ((lo + half)[:, None] + half[:, None] * nodes).ravel()


def assert_kernel_matches(M, a, w, rng, monkeypatch):
    # The rule's lengths, on maps whose own arc lengths are exact too.
    monkeypatch.setattr(M.diffeo, "arc_length", None)
    ts = unit_rule(M.quad)[0]
    got = _speeds(M, a, w, ts)
    assert got.shape == (len(a), len(ts))
    assert np.array_equal(got, aos_speeds(M, a, w, ts))
    table = aos_table(M, a, w)
    assert np.array_equal(_arc_lengths(M, a, w), table[:, -1])
    for i in (0, len(a) - 1):
        assert np.array_equal(_knot_lengths(M, a[i], w[i]), table[i])
        for times in (stencil_times(rng), ts):
            one = _speeds(M, a[i], w[i], times)
            assert one.shape == times.shape
            assert np.array_equal(one, aos_speeds(M, a[i], w[i], times))


def phi_lines(name, M, rng):
    x = np.array([sample_point(name, M, rng) for _ in range(BATCH)])
    y = np.array([sample_point(name, M, rng) for _ in range(BATCH)])
    a = M.diffeo.forward(x)
    return a, M.diffeo.forward(y) - a


def test_builtin_geometries(any_manifold, monkeypatch):
    name, M = any_manifold
    rng = np.random.default_rng(70)
    assert_kernel_matches(M, *phi_lines(name, M, rng), rng, monkeypatch)


@pytest.mark.parametrize("dim", range(1, 13))
def test_identity_in_every_dimension_up_to_12(dim, monkeypatch):
    rng = np.random.default_rng(71 + dim)
    M = ig.PullbackManifold(ig.identity(dim))
    a, w = rng.standard_normal((2, BATCH, dim))
    assert_kernel_matches(M, a, w, rng, monkeypatch)


@pytest.mark.parametrize("dim", [2, 5, 7, 8, 9])
def test_linear_map_with_mixing_components(dim, monkeypatch):
    # inv_jvp mixes every coordinate into every component, unlike the identity.
    rng = np.random.default_rng(90 + dim)
    B = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
    B_inv = np.linalg.inv(B)
    diffeo = ig.Diffeomorphism(dim, lambda x: x @ B_inv.T, lambda y: y @ B.T,
                               jvp=lambda x, v: v @ B_inv.T,
                               inv_jvp=lambda y, w: w @ B.T)
    M = ig.PullbackManifold(diffeo)
    a, w = rng.standard_normal((2, BATCH, dim))
    assert_kernel_matches(M, a, w, rng, monkeypatch)


def test_finite_difference_fallback_reads_the_transposed_view(monkeypatch):
    river = ig.river()
    M = ig.PullbackManifold(ig.Diffeomorphism(2, river.forward, river.inverse))
    rng = np.random.default_rng(100)
    a, w = phi_lines("river", make_manifold("river"), rng)
    assert_kernel_matches(M, a, w, rng, monkeypatch)


def test_default_speed_is_the_norm_of_inv_jvp():
    # Every map's speed has the bits of np.linalg.norm of inv_jvp, in every
    # dimension; there is no speed to pass instead.
    with pytest.raises(TypeError, match="speed"):
        ig.Diffeomorphism(2, lambda x: x, lambda y: y, speed=lambda y, w: w[..., 0])
    rng = np.random.default_rng(110)
    for dim in (1, 2, 7, 8, 9):
        B = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
        diffeo = ig.Diffeomorphism(dim, lambda x: x @ B.T, lambda y: y @ B.T,
                                   inv_jvp=lambda y, w: w @ B.T)
        y, w = rng.standard_normal((2, 5, 3, dim))
        got = diffeo.speed(y, w)
        assert got.shape == (5, 3)
        assert np.array_equal(got, np.linalg.norm(w @ B.T, axis=-1))


def test_builtin_speeds_of_one_point(any_manifold):
    # A (d,) point gives a 0-d speed, that point's entry of a batch call.
    name, M = any_manifold
    rng = np.random.default_rng(105)
    a, w = phi_lines(name, M, rng)
    batch = M.diffeo.speed(a, w)
    assert batch.shape == (len(a),)
    for i in (0, len(a) - 1):
        one = M.diffeo.speed(a[i], w[i])
        assert np.shape(one) == () and one == batch[i]
        assert one == np.linalg.norm(M.diffeo.inv_jvp(a[i], w[i]))


@pytest.mark.parametrize("r", [
    [1.0, 2.0], [0.0, 2.0], [1.0, -0.0], [-1e-300, 3.0], [np.nan, 1.0],
    [np.inf, 1.0], [-np.inf, 1.0], [5e-324, 1.0]])
def test_spiral_speed_raises_where_inv_jvp_does(r):
    diffeo = ig.spiral()
    p = np.stack([np.array(r), np.array([0.5, 1.0])], axis=-1)
    w = np.array([[0.3, -0.2], [1.0, 2.0]])
    for y, v in ((p, w), (p[0], w[0]), (p[1], w[1])):
        try:
            with np.errstate(invalid="ignore"):   # cos and sin of an infinite angle
                diffeo.inv_jvp(y, v)
        except DomainError:
            with pytest.raises(DomainError):
                diffeo.speed(y, v)
        else:
            with np.errstate(invalid="ignore"):
                assert diffeo.speed(y, v).shape == y.shape[:-1]


def test_custom_speed_is_the_integrand_of_every_arc_length():
    # An inv_jvp twice river's doubles its speed, and so every arc length, bit
    # for bit; the inversions and the vectorchange solve against it.
    river = ig.river()
    calls = []

    def inv_jvp(y, w):
        calls.append(y.shape)
        return 2.0 * river.inv_jvp(y, w)

    M = ig.PullbackManifold(river)
    doubled = ig.PullbackManifold(ig.Diffeomorphism(
        2, river.forward, river.inverse, river.jvp, inv_jvp))
    rng = np.random.default_rng(120)
    a, w = phi_lines("river", M, rng)
    assert np.array_equal(_arc_lengths(doubled, a, w), 2.0 * _arc_lengths(M, a, w))
    table = _knot_lengths(M, a[0], w[0])
    assert np.array_equal(_knot_lengths(doubled, a[0], w[0]), 2.0 * table)
    assert calls

    calls.clear()
    targets = np.array([0.1, 0.5, 0.9]) * table[-1]
    got = _invert(doubled, a[0], w[0], 2.0 * table, 2.0 * targets)
    assert calls
    np.testing.assert_allclose(got, _invert(M, a[0], w[0], table, targets),
                               rtol=0.0, atol=1e-12)

    # Arc length 2 L(T) = |xi| along xi is L(T) = |xi| / 2: the scale of xi / 2, halved.
    calls.clear()
    xi = ig.TangentVector(np.array([0.5, -1.0]), np.array([1.5, 2.0]))
    half = ig.TangentVector(xi.base, 0.5 * xi.vec)
    got = vectorchange(doubled, xi)
    assert calls
    assert got != vectorchange(M, xi)
    assert got == pytest.approx(0.5 * vectorchange(M, half), rel=1e-9)
