"""The batch arc-length engine: batched calls equal one-pair calls bitwise."""

import numpy as np
import pytest

import isogeo as ig
from isogeo import isomaps
from isogeo.errors import DegenerateCurveError, DimensionError, DomainError
from isogeo.isomaps import _arc_lengths, _iso_log_vecs, _iso_transport_vecs, _knot_lengths
from isogeo.quadrature import unit_rule

from conftest import sample_point


def _points(name, M, rng, shape):
    flat = [sample_point(name, M, rng) for _ in range(int(np.prod(shape)))]
    return np.array(flat).reshape(*shape, M.dim)


def _pairwise(fn, x, y):
    """fn over every pair of the broadcast of x and y, one call each."""
    x, y = np.broadcast_arrays(x, y)
    flat = [fn(p, q) for p, q in zip(x.reshape(-1, x.shape[-1]),
                                     y.reshape(-1, y.shape[-1]))]
    return np.array(flat).reshape(x.shape[:-1] + np.shape(flat[0]))


def test_iso_distance_batches_equal_one_pair_calls(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(20)
    x = sample_point(name, M, rng)
    Y = _points(name, M, rng, (6,))
    P, C = _points(name, M, rng, (3,)), _points(name, M, rng, (2,))

    def one(p, q):
        return ig.iso_distance(M, p, q)

    single = ig.iso_distance(M, x, Y[0])
    assert isinstance(single, float)
    a = M.diffeo.forward(x)
    assert single == _arc_lengths(M, a, M.diffeo.forward(Y[0]) - a)
    for got, want in [
            (ig.iso_distance(M, x, Y), _pairwise(one, x, Y)),
            (ig.iso_distance(M, Y, x), _pairwise(one, Y, x)),
            (ig.iso_distance(M, Y[:3], Y[3:]), _pairwise(one, Y[:3], Y[3:])),
            (ig.iso_distance(M, P[:, None, :], C[None, :, :]),
             _pairwise(one, P[:, None, :], C[None, :, :]))]:
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_iso_log_vecs_equal_one_pair_calls(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(21)
    x = sample_point(name, M, rng)

    def one(p, q):
        return ig.iso_log(M, p, q).vec

    for shape in [(), (5,), (3, 2)]:
        Y = _points(name, M, rng, shape)
        got, dists = _iso_log_vecs(M, x, Y)
        assert got.shape == Y.shape
        assert np.array_equal(got, _pairwise(one, x, Y))
        assert np.array_equal(dists, ig.iso_distance(M, x, Y))
    X, Y = _points(name, M, rng, (4,)), _points(name, M, rng, (4,))
    assert np.array_equal(_iso_log_vecs(M, X, Y)[0], _pairwise(one, X, Y))


def test_coincident_row_gives_zero_distance_and_log(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(22)
    x = sample_point(name, M, rng)
    Y = _points(name, M, rng, (4,))
    Y[2] = x
    dists = ig.iso_distance(M, x, Y)
    logs, log_dists = _iso_log_vecs(M, x, Y)
    assert np.array_equal(log_dists, dists)
    assert dists[2] == 0.0
    assert np.array_equal(logs[2], np.zeros(M.dim))
    assert not np.signbit(logs[2]).any()
    assert np.all(dists[[0, 1, 3]] > 0.0)


def test_iso_transport_vecs_equal_one_pair_calls(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(27)
    x = sample_point(name, M, rng)
    Y, V = _points(name, M, rng, (5,)), rng.standard_normal((5, M.dim))
    Y[1] = x  # the coincident branch keeps its vector

    def one(p, q, v):
        return ig.iso_transport(M, p, q, ig.TangentVector(p, v)).vec

    got = _iso_transport_vecs(M, x, Y, V)
    assert got.shape == Y.shape
    assert np.array_equal(got, np.array([one(x, y, v) for y, v in zip(Y, V)]))
    assert np.array_equal(got[1], V[1])
    X = _points(name, M, rng, (5,))
    X[3] = Y[3]
    got = _iso_transport_vecs(M, X, Y, V)
    assert np.array_equal(got, np.array([one(*row) for row in zip(X, Y, V)]))
    assert np.array_equal(got[3], V[3])


def test_batch_validation(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(23)
    x = sample_point(name, M, rng)
    Y = _points(name, M, rng, (3,))
    with pytest.raises(DimensionError):
        ig.iso_distance(M, x, np.zeros((3, M.dim + 1)))
    with pytest.raises(DimensionError):
        ig.iso_distance(M, 1.0, Y)
    Y[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ig.iso_distance(M, x, Y)


def test_spiral_row_through_origin_raises_from_batch(spiral_manifold, monkeypatch):
    M = spiral_manifold
    rng = np.random.default_rng(24)
    x = sample_point("spiral", M, rng)
    Y = _points("spiral", M, rng, (3,))
    Y[1] = 0.0
    with pytest.raises(DomainError):
        ig.iso_distance(M, x, Y)
    # A phi-line whose radial coordinate crosses r <= 0, on the rule.
    monkeypatch.setattr(M.diffeo, "arc_length", None)
    a = np.array([2.0, 1.0])
    W = np.array([[1.0, 0.5], [-3.0, 0.0], [0.5, 0.5]])
    with pytest.raises(DomainError):
        _arc_lengths(M, a, W)
    with pytest.raises(DomainError):
        _knot_lengths(M, a, W[1])


def test_arc_lengths_passes_split_lines_without_changing_values(
        river_manifold, monkeypatch):
    M = river_manifold
    rng = np.random.default_rng(25)
    x = sample_point("river", M, rng)
    Y = _points("river", M, rng, (7,))
    whole = ig.iso_distance(M, x, Y)
    # A byte budget of 3 lines per pass: the 7 lines take 3 passes.
    monkeypatch.setattr(isomaps, "PASS_BYTES",
                        3 * 8 * M.dim * len(unit_rule(M.quad)[0]))
    passes = []
    speeds = isomaps._speeds
    monkeypatch.setattr(isomaps, "_speeds",
                        lambda M, a, w, ts: passes.append(len(a)) or speeds(M, a, w, ts))
    assert np.array_equal(ig.iso_distance(M, x, Y), whole)
    assert passes == [3, 3, 1]


def test_arc_lengths_shape_and_shared_read_only_rule(river_manifold):
    M = river_manifold
    q = M.quad
    a, w = np.zeros(2), np.ones((4, 3, 2))
    assert _arc_lengths(M, a, w).shape == (4, 3)
    knots = _knot_lengths(M, a, w[0, 0])
    assert knots.shape == (q.panels + 1,) and knots[0] == 0.0
    rule = unit_rule(q)
    assert unit_rule(ig.QuadratureConfig()) is rule
    for array in rule:
        with pytest.raises(ValueError):
            array[0] = 1.0
    # The knot lengths sit at the shared rule's knots: on a flat line the
    # cumulative length is |w| times the knot.
    flat = ig.PullbackManifold(ig.identity(2), q)
    np.testing.assert_allclose(_knot_lengths(flat, a, np.ones(2)),
                               np.sqrt(2.0) * rule[2], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_time_change_batches_equal_per_t_calls(any_manifold, shape):
    name, M = any_manifold
    rng = np.random.default_rng(26)
    x, y = sample_point(name, M, rng), sample_point(name, M, rng)
    t = rng.uniform(0.0, 1.0, shape)
    if t.ndim:
        t.flat[0], t.flat[-1] = 0.0, 1.0
    tp = ig.timechange(M, x, y, t)
    pts = ig.iso_geodesic(M, x, y, t)
    if not shape:
        assert isinstance(tp, float)
    assert np.shape(tp) == shape and pts.shape == shape + (M.dim,)
    one_tp = np.reshape([ig.timechange(M, x, y, s) for s in t.ravel()], shape)
    one_pts = np.reshape([ig.iso_geodesic(M, x, y, s) for s in t.ravel()],
                         shape + (M.dim,))
    assert np.array_equal(tp, one_tp)
    assert np.array_equal(pts, one_pts)


def test_time_change_batch_errors(river_manifold):
    M = river_manifold
    x, y = np.array([1.0, 2.0]), np.array([-2.0, 0.5])
    for fn in (ig.timechange, ig.iso_geodesic):
        with pytest.raises(ValueError, match="got 1.5"):
            fn(M, x, y, np.array([0.0, 0.5, 1.5, 1.0]))
        with pytest.raises(ValueError):
            fn(M, x, y, np.array([[0.5, np.nan]]))
        with pytest.raises(DegenerateCurveError):
            fn(M, x, x, np.array([0.0, 0.5, 1.0]))
