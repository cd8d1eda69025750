"""Levi-Civita closed forms: distances, geodesics, exp/log, barycentres."""

import math

import numpy as np
import pytest

import isogeo as ig
from isogeo.errors import DimensionError

from conftest import sample_pairs, sample_point


def test_lc_distance_identity_reduction(identity2):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        assert ig.lc_distance(identity2, x, y) == pytest.approx(
            np.linalg.norm(x - y), abs=1e-12)


def test_lc_distance_river_axis(river_manifold):
    # phi fixes the x-axis, so distances along it are Euclidean.
    assert ig.lc_distance(river_manifold, [0, 0], [3, 0]) == pytest.approx(3.0)
    assert ig.lc_distance(river_manifold, [1.3, 0.4], [1.3, 0.4]) == 0.0


def test_lc_distance_metric_axioms(river_manifold):
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x, y, z = (rng.uniform(-4, 4, 2) for _ in range(3))
        dxy = ig.lc_distance(river_manifold, x, y)
        assert dxy == ig.lc_distance(river_manifold, y, x)
        assert dxy <= (ig.lc_distance(river_manifold, x, z)
                       + ig.lc_distance(river_manifold, z, y) + 1e-12)


def test_lc_distance_input_validation(river_manifold):
    with pytest.raises(ValueError):
        ig.lc_distance(river_manifold, [np.nan, 0.0], [0.0, 0.0])
    with pytest.raises(DimensionError):
        ig.lc_distance(river_manifold, [0.0], [0.0, 0.0])


def test_lc_geodesic_endpoints(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(2)
    x, y = sample_pairs(name, M, rng, 1)[0]
    np.testing.assert_array_equal(ig.lc_geodesic(M, x, y, 0.0), x)
    np.testing.assert_array_equal(ig.lc_geodesic(M, x, y, 1.0), y)


def test_lc_geodesic_is_batch_first_in_t(any_manifold):
    # (...) times give (...) points, each with the bits of its scalar call.
    name, M = any_manifold
    x, y = sample_pairs(name, M, np.random.default_rng(12), 1)[0]
    for t in ([0.0, 0.5], [0.25, 0.5, 0.75], [[0.125, 1.0], [0.5, 0.0]]):
        got = ig.lc_geodesic(M, x, y, t)
        assert got.shape == np.shape(t) + (M.dim,)
        want = [ig.lc_geodesic(M, x, y, s) for s in np.ravel(t)]
        assert got.tobytes() == np.array(want).tobytes()


def test_lc_geodesic_velocity_needs_a_scalar_t(banana_manifold):
    for t in ([0.0, 0.5], np.array([0.5])):
        with pytest.raises(ValueError, match="requires a scalar t"):
            ig.lc_geodesic_velocity(banana_manifold, [-3.0, 0.0], [3.0, 2.0], t)
    vel = ig.lc_geodesic_velocity(banana_manifold, [-3.0, 0.0], [3.0, 2.0], np.float64(0.5))
    assert vel.vec.shape == (2,)


def test_lc_geodesic_sinh_midpoint(sinh_manifold):
    got = ig.lc_geodesic(sinh_manifold, [0.0], [2.0], 0.5)
    want = math.asinh((math.sinh(1) + math.sinh(3)) / 2) - 1
    np.testing.assert_allclose(got, [want], rtol=1e-14)


def test_lc_geodesic_extension_can_leave_domain(spiral_manifold):
    # Extending past t = 1 drives the radial phi-coordinate negative.
    x = spiral_manifold.diffeo.inverse(np.array([3.0, 2.0]))
    y = spiral_manifold.diffeo.inverse(np.array([1.0, 2.0]))
    with pytest.raises(ig.DomainError):
        ig.lc_geodesic(spiral_manifold, x, y, 3.0)
    inside = ig.lc_geodesic(spiral_manifold, x, y, 1.25)
    assert np.all(np.isfinite(inside))


def test_velocity_matches_finite_differences(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(3)
    h = 1e-5
    for x, y in sample_pairs(name, M, rng, 10):
        t = rng.uniform(0.1, 0.9)
        vel = ig.lc_geodesic_velocity(M, x, y, t)
        fd = (ig.lc_geodesic(M, x, y, t + h)
              - ig.lc_geodesic(M, x, y, t - h)) / (2 * h)
        np.testing.assert_allclose(vel.vec, fd, rtol=1e-6,
                                   atol=1e-8 * (1 + np.linalg.norm(fd)))
        np.testing.assert_allclose(vel.base, ig.lc_geodesic(M, x, y, t))


def test_velocity_river_axis_constant(river_manifold):
    for t in (0.0, 0.3, 0.8):
        vel = ig.lc_geodesic_velocity(river_manifold, [0, 0], [3, 0], t)
        np.testing.assert_allclose(vel.vec, [3.0, 0.0], atol=1e-12)


def test_identity_exp_log_transport(identity2):
    rng = np.random.default_rng(4)
    x, y, v = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2), rng.uniform(-1, 1, 2)
    np.testing.assert_allclose(
        ig.lc_exp(identity2, ig.TangentVector(x, v)), x + v, atol=1e-12)
    np.testing.assert_allclose(ig.lc_log(identity2, x, y).vec, y - x, atol=1e-12)
    np.testing.assert_allclose(
        ig.lc_transport(identity2, x, y, ig.TangentVector(x, v)).vec, v,
        atol=1e-12)


def test_exp_log_round_trip(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(5)
    for x, y in sample_pairs(name, M, rng, 100):
        back = ig.lc_exp(M, ig.lc_log(M, x, y))
        np.testing.assert_allclose(back, y, atol=1e-8 * (1 + np.linalg.norm(y)))


def test_lc_log_sinh_value(sinh_manifold):
    got = ig.lc_log(sinh_manifold, [0.0], [2.0])
    want = (math.sinh(3) - math.sinh(1)) / math.cosh(1)
    assert got.vec[0] == pytest.approx(want, rel=1e-14)
    np.testing.assert_array_equal(got.base, [0.0])


def test_transport_is_linear_and_invertible(river_manifold):
    rng = np.random.default_rng(6)
    x, y = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
    u, v = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    lin = ig.lc_transport(river_manifold, x, y,
                          ig.TangentVector(x, 2.0 * u - v)).vec
    parts = (2.0 * ig.lc_transport(river_manifold, x, y, ig.TangentVector(x, u)).vec
             - ig.lc_transport(river_manifold, x, y, ig.TangentVector(x, v)).vec)
    np.testing.assert_allclose(lin, parts, atol=1e-12)
    there = ig.lc_transport(river_manifold, x, y, ig.TangentVector(x, u))
    back = ig.lc_transport(river_manifold, y, x, there)
    np.testing.assert_allclose(back.vec, u, atol=1e-10)


def test_barycentre_identity_is_mean(identity2):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3, 3, (12, 2))
    np.testing.assert_allclose(ig.closed_form_barycentre(identity2, pts),
                               pts.mean(axis=0), atol=1e-12)


def test_barycentre_river_axis(river_manifold):
    got = ig.closed_form_barycentre(river_manifold, [[0.0, 0.0], [2.0, 0.0]])
    np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-14)


def test_barycentre_single_and_empty(river_manifold):
    p = np.array([0.3, -1.2])
    np.testing.assert_allclose(
        ig.closed_form_barycentre(river_manifold, [p]), p, atol=1e-12)
    with pytest.raises(ValueError):
        ig.closed_form_barycentre(river_manifold, [])


def test_barycentre_equals_point_by_point_formula(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(8)
    pts = [sample_point(name, M, rng) for _ in range(9)]
    images = np.stack([M.diffeo.forward(p) for p in pts])
    want = M.diffeo.inverse(images.mean(axis=0))
    assert np.array_equal(ig.closed_form_barycentre(M, pts), want)
    assert np.array_equal(ig.closed_form_barycentre(M, np.array(pts)), want)


def test_barycentre_rejects_bad_shapes(river_manifold):
    with pytest.raises(DimensionError):
        ig.closed_form_barycentre(river_manifold, np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        ig.closed_form_barycentre(river_manifold, np.zeros(2))
    with pytest.raises(DimensionError):
        ig.closed_form_barycentre(river_manifold, np.zeros((2, 3, 2)))


def test_barycentre_minimizes_squared_distance(sinh_manifold):
    # Grid-search oracle for the Eq.-14 optimality property in 1D.
    pts = [np.array([v]) for v in (-1.0, 0.5, 2.0)]
    bary = ig.closed_form_barycentre(sinh_manifold, pts)
    grid = np.linspace(-2.0, 3.0, 2001)
    cost = [sum(ig.lc_distance(sinh_manifold, [g], p) ** 2 for p in pts)
            for g in grid]
    best = grid[int(np.argmin(cost))]
    assert abs(bary[0] - best) <= (grid[1] - grid[0])
