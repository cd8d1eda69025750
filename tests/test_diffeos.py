"""Built-in diffeomorphisms: analytic values, round trips, Jacobian actions."""

import math

import numpy as np
import pytest

import isogeo as ig
from isogeo.errors import DomainError

from conftest import sample_point


def fd_jacobian_action(mapping, x, v):
    nv = np.linalg.norm(v)
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    e = h / nv
    return (mapping(x + e * v) - mapping(x - e * v)) / (2.0 * e)


def test_river_analytic_values():
    d = ig.river(beta=5.0, eta=0.25)
    np.testing.assert_allclose(d.forward(np.zeros(2)), np.zeros(2), atol=1e-15)
    out = d.forward(np.array([1.0, math.pi / 2]))
    np.testing.assert_allclose(out, [-4.0, math.sinh(math.pi / 8)], rtol=1e-14)
    np.testing.assert_allclose(d.inverse(out), [1.0, math.pi / 2], rtol=1e-14)


def test_spiral_analytic_values():
    d = ig.spiral(beta=0.25)
    out = d.forward(np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [4.0, (2 * math.pi - 4) % (2 * math.pi)],
                               rtol=1e-14)
    np.testing.assert_allclose(d.inverse(out), [1.0, 0.0], atol=1e-13)


def test_spiral_domain_errors():
    d = ig.spiral()
    with pytest.raises(DomainError):
        d.forward(np.zeros(2))
    with pytest.raises(DomainError):
        d.inverse(np.array([-1.0, 0.0]))
    with pytest.raises(DomainError):
        d.inv_jvp(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(DomainError, match="^spiral map is undefined at the origin$"):
        d.jvp(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]))


def test_banana_analytic_values():
    d = ig.banana(a=1.0 / 9.0, z=0.0)
    np.testing.assert_allclose(d.forward(np.array([2.0, 3.0])), [1.0, 3.0],
                               rtol=1e-15)
    np.testing.assert_allclose(d.inverse(np.array([1.0, 3.0])), [2.0, 3.0],
                               rtol=1e-15)
    flat = ig.banana(a=0.0, z=0.0)
    x = np.array([0.7, -2.1])
    np.testing.assert_allclose(flat.forward(x), x, rtol=1e-15)


def test_sinh_shift_values():
    d = ig.sinh_shift_1d()
    np.testing.assert_allclose(d.forward(np.array([-1.0])), [0.0], atol=1e-15)
    np.testing.assert_allclose(d.forward(np.array([0.0])), [math.sinh(1.0)],
                               rtol=1e-15)
    for x in range(-3, 4):
        x = np.array([float(x)])
        np.testing.assert_allclose(d.inverse(d.forward(x)), x, atol=1e-12)


def test_round_trips_seeded(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = sample_point(name, M, rng)
        back = M.diffeo.inverse(M.diffeo.forward(x))
        np.testing.assert_allclose(back, x, atol=1e-9 * (1 + np.linalg.norm(x)))


def test_jvp_matches_finite_differences(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = sample_point(name, M, rng)
        v = rng.uniform(-1.0, 1.0, M.dim)
        got = M.diffeo.jvp(x, v)
        want = fd_jacobian_action(M.diffeo.forward, x, v)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


def test_inv_jvp_inverts_jvp(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = sample_point(name, M, rng)
        v = rng.uniform(-1.0, 1.0, M.dim)
        w = M.diffeo.inv_jvp(M.diffeo.forward(x), M.diffeo.jvp(x, v))
        np.testing.assert_allclose(w, v, atol=1e-8 * (1 + np.linalg.norm(v)))


def test_jvp_linear_in_vector():
    d = ig.river()
    rng = np.random.default_rng(9)
    x = rng.uniform(-2, 2, 2)
    u, v = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    lhs = d.jvp(x, 2.5 * u - 0.7 * v)
    rhs = 2.5 * d.jvp(x, u) - 0.7 * d.jvp(x, v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_finite_difference_fallback():
    analytic = ig.river()
    plain = ig.Diffeomorphism(2, analytic.forward, analytic.inverse)
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        v = rng.uniform(-1, 1, 2)
        np.testing.assert_allclose(plain.jvp(x, v), analytic.jvp(x, v),
                                   rtol=1e-5, atol=1e-8)
        y = analytic.forward(x)
        np.testing.assert_allclose(plain.inv_jvp(y, v), analytic.inv_jvp(y, v),
                                   rtol=1e-5, atol=1e-8)
    np.testing.assert_array_equal(plain.jvp(x, np.zeros(2)), np.zeros(2))


def test_registry():
    d = ig.make_diffeomorphism("river", {"beta": 5.0, "eta": 0.25})
    assert d.name == "river" and d.params == {"beta": 5.0, "eta": 0.25}
    assert ig.make_diffeomorphism("banana").params["a"] == pytest.approx(1 / 9)
    assert "spiral" in ig.registered_names()
    with pytest.raises(KeyError):
        ig.make_diffeomorphism("moebius")


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        ig.river(beta=-1.0)
    with pytest.raises(ValueError):
        ig.spiral(beta=0.0)
    with pytest.raises(ig.DimensionError):
        ig.Diffeomorphism(0, lambda x: x, lambda x: x)


@pytest.mark.parametrize("factory, params, message", [
    (ig.river, {"beta": math.nan}, "river requires a finite beta, got nan"),
    (ig.river, {"eta": math.inf}, "river requires a finite eta, got inf"),
    (ig.spiral, {"beta": math.nan}, "spiral requires a finite beta, got nan"),
    (ig.spiral, {"beta": math.inf}, "spiral requires a finite beta, got inf"),
    (ig.banana, {"a": math.nan}, "banana requires a finite a, got nan"),
    (ig.banana, {"z": -math.inf}, "banana requires a finite z, got -inf"),
])
def test_non_finite_parameters_rejected(factory, params, message):
    with pytest.raises(ValueError) as excinfo:
        factory(**params)
    assert str(excinfo.value) == message


def test_identity_dim_must_be_integral():
    for dim in (2.5, 0, math.inf, -math.inf, math.nan, True, False):
        with pytest.raises(ig.DimensionError) as excinfo:
            ig.identity(dim)
        assert str(excinfo.value) == f"dim must be a positive integer, got {dim}"
    d = ig.identity(3.0)
    assert d.dim == 3 and d.params == {"dim": 3}
    assert d.forward(np.ones(3)).shape == (3,)


def test_diffeomorphism_dim_must_be_integral():
    river = ig.river()
    for dim in (2.5, 0, -1, 0.5, math.inf, math.nan, True):
        with pytest.raises(ig.DimensionError, match=f"dim must be a positive integer, got {dim}"):
            ig.Diffeomorphism(dim, river.forward, river.inverse)
    d = ig.Diffeomorphism(2.0, river.forward, river.inverse)
    assert d.dim == 2 and type(d.dim) is int


def test_batch_maps_equal_point_by_point_maps(any_manifold):
    # A point mapped alone and inside a batch gets the same bits, which the
    # batch arc-length engine relies on.
    name, M = any_manifold
    rng = np.random.default_rng(40)
    X = np.array([sample_point(name, M, rng) for _ in range(3000)])
    V = rng.standard_normal(X.shape)
    d = M.diffeo
    Y = d.forward(X)
    x, y, v = X[0], Y[0], V[0]
    points, speeds = X.shape, X.shape[:-1]
    for got, one, shape in [
            (Y, lambda i: d.forward(X[i]), points),
            (d.inverse(Y), lambda i: d.inverse(Y[i]), points),
            (d.jvp(X, V), lambda i: d.jvp(X[i], V[i]), points),
            (d.inv_jvp(Y, V), lambda i: d.inv_jvp(Y[i], V[i]), points),
            # A batch of points against one vector, and one point against a
            # batch of vectors: x broadcasts against v.
            (d.jvp(X, v), lambda i: d.jvp(X[i], v), points),
            (d.inv_jvp(Y, v), lambda i: d.inv_jvp(Y[i], v), points),
            (d.jvp(x, V), lambda i: d.jvp(x, V[i]), points),
            (d.inv_jvp(y, V), lambda i: d.inv_jvp(y, V[i]), points),
            # The speed broadcasts too, with one value per point.
            (d.speed(Y, V), lambda i: d.speed(Y[i], V[i]), speeds),
            (d.speed(Y, v), lambda i: d.speed(Y[i], v), speeds),
            (d.speed(y, V), lambda i: d.speed(y, V[i]), speeds)]:
        want = np.array([one(i) for i in range(len(X))])
        assert got.shape == want.shape == shape
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)
