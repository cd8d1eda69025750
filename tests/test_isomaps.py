"""Iso mappings: arc length, reparameterization, exp/log/transport, speed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isogeo as ig
from isogeo.errors import DegenerateCurveError, DomainError
from isogeo.isomaps import _knot_lengths
from isogeo.quadrature import unit_rule

from conftest import make_manifold, safe_tangent, sample_pairs

coord = st.floats(-4.0, 4.0)


def test_iso_distance_identity(identity2):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        assert ig.iso_distance(identity2, x, y) == pytest.approx(
            np.linalg.norm(x - y), abs=1e-12)


def test_iso_distance_1d_is_absolute_difference(sinh_manifold):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1)
        assert ig.iso_distance(sinh_manifold, x, y) == pytest.approx(
            abs(x[0] - y[0]), abs=1e-8)


def test_iso_distance_river_axis(river_manifold):
    assert ig.iso_distance(river_manifold, [0, 0], [3, 0]) == pytest.approx(
        3.0, abs=1e-10)
    assert ig.iso_distance(river_manifold, [1.0, 2.0], [1.0, 2.0]) == 0.0


def test_iso_distance_symmetry(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(2)
    for x, y in sample_pairs(name, M, rng, 30):
        d1, d2 = ig.iso_distance(M, x, y), ig.iso_distance(M, y, x)
        assert abs(d1 - d2) < 1e-8 * (1 + d1)


def test_iso_distance_quadrature_convergence(river_manifold):
    # Doubling the panel count moves the value by < 1e-8 relative.
    rng = np.random.default_rng(3)
    fine = ig.PullbackManifold(river_manifold.diffeo,
                               ig.QuadratureConfig(panels=128))
    for x, y in sample_pairs("river", river_manifold, rng, 20):
        d64 = ig.iso_distance(river_manifold, x, y)
        d128 = ig.iso_distance(fine, x, y)
        assert abs(d64 - d128) <= 1e-8 * (1 + d128)


def _pair_table(M, x, y):
    """Cumulative arc length of the geodesic from x to y at the panel knots."""
    a = M.diffeo.forward(x)
    return _knot_lengths(M, a, M.diffeo.forward(y) - a)


def test_arc_length_table_identity(identity2):
    x, y = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    cumlen = _pair_table(identity2, x, y)
    knots = unit_rule(identity2.quad)[2]
    np.testing.assert_allclose(cumlen, 5.0 * knots, atol=1e-12)
    assert cumlen[-1] == pytest.approx(5.0, abs=1e-12)


def test_arc_length_table_degenerate_and_quad_override(river_manifold):
    x = np.array([1.0, 1.0])
    cumlen = _pair_table(river_manifold, x, x)
    assert cumlen[-1] == 0.0
    np.testing.assert_array_equal(cumlen, np.zeros_like(cumlen))
    coarse = ig.PullbackManifold(river_manifold.diffeo,
                                 ig.QuadratureConfig(panels=8))
    cumlen = _pair_table(coarse, x, np.array([2.0, 0.5]))
    assert len(unit_rule(coarse.quad)[2]) == 9 and cumlen.shape == (9,)
    assert np.all(np.diff(cumlen) > 0)


def test_timechange_endpoints_and_monotonicity(river_manifold):
    x, y = np.array([-2.0, -1.5]), np.array([3.0, 2.0])
    assert ig.timechange(river_manifold, x, y, 0.0) == 0.0
    assert ig.timechange(river_manifold, x, y, 1.0) == 1.0
    ts = np.linspace(0.0, 1.0, 21)
    ss = [ig.timechange(river_manifold, x, y, t) for t in ts]
    assert np.all(np.diff(ss) > 0)


def test_timechange_identity_is_identity(identity2):
    x, y = np.array([0.0, 1.0]), np.array([2.0, -1.0])
    for t in (0.125, 0.5, 0.875):
        assert ig.timechange(identity2, x, y, t) == pytest.approx(t, abs=1e-13)


def test_timechange_sinh_midpoint(sinh_manifold):
    # Constant l2 speed on R: the half-arc time maps to the Euclidean midpoint.
    tp = ig.timechange(sinh_manifold, [0.0], [2.0], 0.5)
    mid = ig.lc_geodesic(sinh_manifold, [0.0], [2.0], tp)
    assert mid[0] == pytest.approx(1.0, abs=1e-9)


def test_timechange_errors(river_manifold):
    x = np.array([1.0, 2.0])
    with pytest.raises(DegenerateCurveError):
        ig.timechange(river_manifold, x, x, 0.5)
    with pytest.raises(ValueError):
        ig.timechange(river_manifold, x, np.array([2.0, 2.0]), 1.5)


def test_iso_geodesic_identity_line(identity2):
    x, y = np.array([1.0, 1.0]), np.array([-2.0, 5.0])
    for t in (0.2, 0.7):
        np.testing.assert_allclose(ig.iso_geodesic(identity2, x, y, t),
                                   (1 - t) * x + t * y, atol=1e-12)


def test_iso_geodesic_1d_linear(sinh_manifold):
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y = rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1)
        if abs(x[0] - y[0]) < 1e-6:
            continue
        t = rng.uniform(0, 1)
        got = ig.iso_geodesic(sinh_manifold, x, y, t)
        np.testing.assert_allclose(got, (1 - t) * x + t * y, atol=1e-8)


def test_iso_geodesic_midpoint_splits_arc(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(5)
    for x, y in sample_pairs(name, M, rng, 10):
        mid = ig.iso_geodesic(M, x, y, 0.5)
        left = ig.iso_distance(M, x, mid)
        right = ig.iso_distance(M, mid, y)
        assert abs(left - right) < 1e-8 * (1 + left + right)


def test_vectorchange_identity_and_zero(identity2):
    x = np.array([0.5, -0.5])
    assert ig.vectorchange(identity2, ig.TangentVector(x, np.array([2.0, 1.0]))) == 1.0
    assert ig.vectorchange(identity2, ig.TangentVector(x, np.zeros(2))) == 0.0


def test_vectorchange_validates_its_base_as_iso_exp_does(river_manifold):
    # Vectors of 3 coordinates on the 2-D river manifold, a zero one too.
    base = np.array([0.5, -1.0, 2.0])
    for vec in (np.array([1.0, 0.5, 0.0]), np.zeros(3)):
        xi = ig.TangentVector(base, vec)
        for mapping in (ig.vectorchange, ig.iso_exp):
            with pytest.raises(ig.DimensionError, match="base has dimension 3, expected 2"):
                mapping(river_manifold, xi)


def test_vectorchange_1d_exponential_is_translation(sinh_manifold):
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.uniform(-2, 2, 1)
        v = rng.uniform(-2, 2, 1)
        if abs(v[0]) < 1e-9:
            continue
        xi = ig.TangentVector(x, v)
        ell = ig.vectorchange(sinh_manifold, xi)
        got = ig.lc_exp(sinh_manifold, ig.TangentVector(x, ell * v))
        np.testing.assert_allclose(got, x + v, atol=1e-8)


def test_vectorchange_domain_truncation(spiral_manifold):
    # A long inward ray runs out of manifold before covering the arc length.
    x = spiral_manifold.diffeo.inverse(np.array([2.0, 3.0]))
    inward = -5.0 * x / np.linalg.norm(x)
    with pytest.raises(DomainError):
        ig.iso_exp(spiral_manifold, ig.TangentVector(x, inward))


def test_vectorchange_bracket_exhaustion(sinh_manifold):
    # Covering arc length 20 on this pullback needs phi-scale e^20.  The
    # exact 1-D arc length reaches it: the iso-exponential is x + v.
    xi = ig.TangentVector(np.array([1.0]), np.array([-20.0]))
    assert ig.iso_exp(sinh_manifold, xi)[0] == pytest.approx(-19.0, abs=1e-13)
    # The same map on each axis of R^2 has no arc_length, and the
    # fixed-panel quadrature cannot certify it within the doubling budget.
    from isogeo.errors import NonConvergenceError

    sinh = sinh_manifold.diffeo
    plane = ig.PullbackManifold(ig.Diffeomorphism(2, sinh.forward, sinh.inverse,
                                                  sinh.jvp, sinh.inv_jvp))
    assert plane.diffeo.arc_length is None
    xi = ig.TangentVector(np.array([1.0, 1.0]), np.array([-20.0, 0.0]))
    with pytest.raises(NonConvergenceError):
        ig.vectorchange(plane, xi)


def test_vectorchange_long_sinh_ray_is_exact(sinh_manifold):
    # The fixed 64x4 rule's arc length on [0, T] is 1.9 % short on this ray,
    # which put the scale at 35.19.  The true one solves
    # arcsinh(a + T w) = x + v + 1.
    x, v = 0.22354409, -8.01590051
    xi = ig.TangentVector(np.array([x]), np.array([v]))
    a, w = np.sinh(x + 1.0), np.cosh(x + 1.0) * v
    want = (np.sinh(x + v + 1.0) - a) / w
    got = ig.vectorchange(sinh_manifold, xi)
    assert got == pytest.approx(30.2005331562, abs=1e-9)
    assert got == pytest.approx(want, rel=1e-13)
    assert ig.iso_exp(sinh_manifold, xi)[0] == pytest.approx(x + v, abs=1e-14)


# iso_exp(iso_log) on river(5, 0.25) from the origin to (3, x2).  The fixed
# 64x4 rule resolves the ray's speed, which peaks near its start, up to
# x2 = 20; beyond it the scale is wrong and nothing is raised (1 024
# panels mend x2 = 25 and 30, not 40).
RIVER_RAY_ORIGIN = np.array([0.0, 0.0])


@pytest.mark.parametrize("x2", [6.0, 10.0, 16.0, 20.0])
def test_iso_exp_returns_along_river_rays_the_rule_resolves(river_manifold, x2):
    y = np.array([3.0, x2])
    back = ig.iso_exp(river_manifold, ig.iso_log(river_manifold, RIVER_RAY_ORIGIN, y))
    assert np.linalg.norm(back - y) <= 1e-12


@pytest.mark.xfail(strict=True, reason="the fixed 64x4 rule misses long river rays "
                   "silently (ROADMAP item 7)")
@pytest.mark.parametrize("x2", [25.0, 30.0, 40.0])
def test_iso_exp_returns_along_long_river_rays(river_manifold, x2):
    y = np.array([3.0, x2])
    back = ig.iso_exp(river_manifold, ig.iso_log(river_manifold, RIVER_RAY_ORIGIN, y))
    assert np.linalg.norm(back - y) <= 1e-12


def test_iso_exp_zero_and_identity(identity2, river_manifold):
    x = np.array([1.0, 2.0])
    np.testing.assert_array_equal(
        ig.iso_exp(river_manifold, ig.TangentVector(x, np.zeros(2))), x)
    v = np.array([0.3, -0.4])
    np.testing.assert_allclose(
        ig.iso_exp(identity2, ig.TangentVector(x, v)), x + v, atol=1e-12)


def test_iso_exp_sinh_is_translation(sinh_manifold):
    for x0 in (-2.0, 0.0, 2.0):
        for v0 in (-1.0, 0.5, 3.0):
            got = ig.iso_exp(sinh_manifold,
                             ig.TangentVector([x0], np.array([v0])))
            np.testing.assert_allclose(got, [x0 + v0], atol=1e-8)


def test_iso_log_values(identity2, sinh_manifold):
    x, y = np.array([1.0, 0.0]), np.array([3.0, -1.0])
    np.testing.assert_allclose(ig.iso_log(identity2, x, y).vec, y - x,
                               atol=1e-12)
    got = ig.iso_log(sinh_manifold, [0.5], [-1.5])
    np.testing.assert_allclose(got.vec, [-2.0], atol=1e-8)
    zero = ig.iso_log(sinh_manifold, [0.5], [0.5])
    np.testing.assert_array_equal(zero.vec, [0.0])


def test_iso_log_norm_equals_iso_distance(river_manifold):
    rng = np.random.default_rng(7)
    for x, y in sample_pairs("river", river_manifold, rng, 100):
        v = ig.iso_log(river_manifold, x, y)
        d = ig.iso_distance(river_manifold, x, y)
        assert abs(v.norm - d) < 1e-8 * (1 + d)


def test_iso_transport_reductions(identity2, sinh_manifold):
    x, y, v = np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([0.5, -1.0])
    out = ig.iso_transport(identity2, x, y, ig.TangentVector(x, v))
    np.testing.assert_allclose(out.vec, v, atol=1e-12)
    np.testing.assert_array_equal(out.base, y)
    out1 = ig.iso_transport(sinh_manifold, [0.0], [2.0],
                            ig.TangentVector([0.0], np.array([0.7])))
    np.testing.assert_allclose(out1.vec, [0.7], atol=1e-10)
    same = ig.iso_transport(identity2, x, x, ig.TangentVector(x, v))
    np.testing.assert_array_equal(same.vec, v)


def test_iso_transport_preserves_velocity_norm(river_manifold):
    rng = np.random.default_rng(8)
    for x, y in sample_pairs("river", river_manifold, rng, 100):
        moved = ig.iso_transport(river_manifold, x, y,
                                 ig.iso_log(river_manifold, x, y))
        d = ig.iso_distance(river_manifold, x, y)
        assert abs(moved.norm - d) < 1e-8 * (1 + d)


def test_speed_profile_identity_constant(identity2):
    x, y = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    prof = ig.speed_profile(identity2, x, y, 15)
    np.testing.assert_allclose(prof[:, 1], 5.0, rtol=1e-7)


def test_speed_profile_stencil_past_the_ends_reads_the_endpoints(identity2):
    # With h >= 1 / (n_samples + 1) the stencil leaves [0, 1]; those times
    # read the endpoints instead of raising.
    x, y = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    prof = ig.speed_profile(identity2, x, y, 3, h=0.3)
    lo, hi = np.array([0.0, 0.2, 0.45]), np.array([0.55, 0.8, 1.0])
    np.testing.assert_allclose(prof[:, 1], 5.0 * (hi - lo) / 0.6, rtol=1e-12)


@pytest.mark.parametrize("kwargs", [{"h": 0.0}, {"h": -1e-5}, {"h": np.nan}, {"h": np.inf},
                                    {"n_samples": -1}, {"n_samples": 2.5},
                                    {"n_samples": True}, {"n_samples": np.inf},
                                    {"n_samples": -np.inf}, {"n_samples": np.nan}])
def test_speed_profile_rejects_a_bad_step_or_count(identity2, kwargs):
    with pytest.raises(ValueError):
        ig.speed_profile(identity2, np.zeros(2), np.array([3.0, 4.0]), **kwargs)


def test_speed_profile_counts(identity2):
    x, y = np.zeros(2), np.array([3.0, 4.0])
    assert ig.speed_profile(identity2, x, y, 0).shape == (0, 2)
    np.testing.assert_array_equal(ig.speed_profile(identity2, x, y, 3.0),
                                  ig.speed_profile(identity2, x, y, 3))


def test_speed_profile_river_nearly_constant(river_manifold):
    rng = np.random.default_rng(9)
    for x, y in sample_pairs("river", river_manifold, rng, 10):
        prof = ig.speed_profile(river_manifold, x, y, 25)
        assert prof[:, 1].max() / prof[:, 1].min() < 1.001


def test_levi_civita_speed_not_constant(sinh_manifold):
    # The uncorrected geodesic speeds up and slows down (ratio > 1.5).
    speeds = [np.linalg.norm(
        ig.lc_geodesic_velocity(sinh_manifold, [0.0], [2.0], t).vec)
        for t in np.linspace(0.05, 0.95, 19)]
    assert max(speeds) / min(speeds) > 1.5


def test_speed_profile_constant_speed_invariant(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(10)
    for x, y in sample_pairs(name, M, rng, 50):
        prof = ig.speed_profile(M, x, y, 19)
        assert prof[:, 1].std() / prof[:, 1].mean() < 1e-3


def test_round_trip_invariant(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(11)
    for x, y in sample_pairs(name, M, rng, 100):
        back = ig.iso_exp(M, ig.iso_log(M, x, y))
        assert np.linalg.norm(back - y) < 1e-6 * (1 + np.linalg.norm(y))


def test_radial_isometry_invariant(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(12)
    for x, y in sample_pairs(name, M, rng, 50):
        xi = safe_tangent(name, M, rng, x, y)
        if xi.norm < 1e-9:
            continue
        d = ig.iso_distance(M, x, ig.iso_exp(M, xi))
        assert abs(d - xi.norm) < 1e-6 * (1 + xi.norm)


def test_iso_distance_matches_polyline_oracle(any_manifold):
    # Independent oracle: chord lengths of a dense geodesic polyline converge
    # to the arc length from below at O(1/n^2); 20k segments give ~1e-8 of
    # headroom against the quadrature value on these test boxes.
    name, M = any_manifold
    rng = np.random.default_rng(77)
    n = 20000
    ts = np.linspace(0.0, 1.0, n + 1)
    for x, y in sample_pairs(name, M, rng, 5):
        a, b = M.diffeo.forward(x), M.diffeo.forward(y)
        pts = M.diffeo.inverse(a + ts[:, None] * (b - a))
        polyline = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=-1)))
        d = ig.iso_distance(M, x, y)
        assert abs(d - polyline) < 1e-6 * (1 + d)


@settings(max_examples=20, deadline=None)
@given(x1=coord, x2=coord, y1=coord, y2=coord,
       ks=st.lists(st.integers(1, 97), min_size=2, max_size=6, unique=True))
def test_hypothesis_timechange_monotone(x1, x2, y1, y2, ks):
    M = make_manifold("banana")
    x, y = np.array([x1, x2]), np.array([y1, y2])
    if ig.lc_distance(M, x, y) < 1e-6:
        return
    ss = [ig.timechange(M, x, y, k / 98.0) for k in sorted(ks)]
    assert all(s2 > s1 for s1, s2 in zip(ss, ss[1:]))


@settings(max_examples=25, deadline=None)
@given(x1=coord, x2=coord, y1=coord, y2=coord)
def test_hypothesis_river_round_trip(x1, x2, y1, y2):
    M = make_manifold("river")
    x, y = np.array([x1, x2]), np.array([y1, y2])
    back = ig.iso_exp(M, ig.iso_log(M, x, y))
    assert np.linalg.norm(back - y) < 1e-6 * (1 + np.linalg.norm(y))


@settings(max_examples=25, deadline=None)
@given(x1=coord, x2=coord, y1=coord, y2=coord)
def test_hypothesis_banana_distance_symmetry(x1, x2, y1, y2):
    M = make_manifold("banana")
    x, y = np.array([x1, x2]), np.array([y1, y2])
    d1, d2 = ig.iso_distance(M, x, y), ig.iso_distance(M, y, x)
    assert abs(d1 - d2) < 1e-8 * (1 + d1)
