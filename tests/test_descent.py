"""Descent steps, Algorithm-1 barycentres, ratio and isometry diagnostics."""

import math
import warnings

import numpy as np
import pytest

import isogeo as ig
from isogeo.errors import StallError

from conftest import sample_pairs, sample_point


def barycentre_field(M, pts):
    return lambda x: ig.iso_barycentre_field(M, x, pts)


def test_ird_step_trivial_and_identity(identity2, river_manifold):
    x = np.array([1.0, -2.0])
    np.testing.assert_array_equal(
        ig.ird_step(river_manifold, x, ig.TangentVector(x, np.zeros(2)), 1.0), x)
    v = np.array([0.5, 0.25])
    np.testing.assert_allclose(
        ig.ird_step(identity2, x, ig.TangentVector(x, v), 2.0), x - 2.0 * v,
        atol=1e-12)
    with pytest.raises(ValueError):
        ig.ird_step(identity2, x, ig.TangentVector(x + 1.0, v), 1.0)
    with pytest.raises(ValueError):
        ig.ird_step(identity2, x, ig.TangentVector(x, v), 0.0)


def test_ird_step_length_is_radially_isometric(river_manifold):
    rng = np.random.default_rng(0)
    for x, y in sample_pairs("river", river_manifold, rng, 20):
        v = ig.TangentVector(x, 0.3 * (y - x))
        if v.norm < 1e-9:
            continue
        r = rng.uniform(0.2, 1.5)
        stepped = ig.ird_step(river_manifold, x, v, r)
        assert ig.iso_distance(river_manifold, x, stepped) == pytest.approx(
            r * v.norm, abs=1e-6 * (1 + r * v.norm))


def test_barycentre_field_values(sinh_manifold, river_manifold):
    p = np.array([1.0, 2.0])
    field = ig.iso_barycentre_field(river_manifold, p, [p])
    np.testing.assert_array_equal(field.vec, np.zeros(2))
    pts = [np.array([v]) for v in (-1.0, 0.5, 2.0)]
    for x0 in (-2.0, 0.5, 3.0):
        field = ig.iso_barycentre_field(sinh_manifold, [x0], pts)
        np.testing.assert_allclose(field.vec, [x0 - 0.5], atol=1e-8)
    with pytest.raises(ValueError):
        ig.iso_barycentre_field(river_manifold, p, [])


def test_two_point_field_vanishes_at_midpoint(river_manifold):
    rng = np.random.default_rng(1)
    for x, y in sample_pairs("river", river_manifold, rng, 10):
        mid = ig.iso_geodesic(river_manifold, x, y, 0.5)
        field = ig.iso_barycentre_field(river_manifold, mid, [x, y])
        assert field.norm < 1e-6


def test_iso_barycentre_1d_example(sinh_manifold):
    # With r0 = 1 the first trial lands on the mean: one accepted step.  The
    # point 7 pushes phi to sinh(8), so resolving the arc-length integrand to
    # that exactness needs a finer panel budget than the default.
    pts = [np.array([v]) for v in (0.0, 2.0, 7.0)]
    bary, _ = ig.iso_barycentre(sinh_manifold, pts,
                                ig.LineSearchConfig(r0=1.0, tol=1e-6))
    np.testing.assert_allclose(bary, [3.0], atol=1e-6)
    fine = ig.PullbackManifold(sinh_manifold.diffeo,
                               ig.QuadratureConfig(panels=1024))
    bary, trace = ig.iso_barycentre(fine, pts,
                                    ig.LineSearchConfig(r0=1.0, tol=1e-6))
    np.testing.assert_allclose(bary, [3.0], atol=1e-9)
    assert len(trace) == 2 and trace.converged
    np.testing.assert_array_equal(trace.step_sizes, [1.0, 1.0])


def test_iso_barycentre_single_point_and_empty(river_manifold):
    p = np.array([0.5, 0.5])
    bary, trace = ig.iso_barycentre(river_manifold, [p])
    np.testing.assert_allclose(bary, p, atol=1e-12)
    assert len(trace) == 1 and trace.converged
    with pytest.raises(ValueError):
        ig.iso_barycentre(river_manifold, [])


def test_iso_barycentre_trace_strictly_decreasing(river_manifold):
    rng = np.random.default_rng(2)
    pts = river_manifold.diffeo.inverse(
        rng.uniform([-3.0, -1.5], [3.0, 1.5], (40, 2)))
    _, trace = ig.iso_barycentre(river_manifold, pts,
                                 ig.LineSearchConfig(tol=1e-8))
    assert trace.converged
    assert np.all(np.diff(trace.field_norms) < 0)


def test_iso_barycentre_two_point_matches_midpoint(river_manifold):
    rng = np.random.default_rng(3)
    for x, y in sample_pairs("river", river_manifold, rng, 10):
        mid = ig.iso_geodesic(river_manifold, x, y, 0.5)
        bary, _ = ig.iso_barycentre(river_manifold, [x, y],
                                    ig.LineSearchConfig(tol=1e-9))
        assert np.linalg.norm(bary - mid) < 1e-5


def test_iso_barycentre_unique_zero_across_inits(sinh_manifold):
    rng = np.random.default_rng(4)
    pts = [rng.uniform(-2, 2, 1) for _ in range(10)]
    results = []
    for x0 in np.linspace(-4.0, 4.0, 20):
        bary, _ = ig.iso_barycentre(sinh_manifold, pts,
                                    ig.LineSearchConfig(tol=1e-9), x0=[x0])
        results.append(bary[0])
    assert np.ptp(results) < 1e-6


def test_iso_barycentre_stall_carries_best(sinh_manifold):
    # Every backtracked trial overshoots (r stays > 2), so no step decreases
    # the field norm and the solver reports a stall.
    pts = [np.array([0.0]), np.array([2.0])]
    cfg = ig.LineSearchConfig(r0=8.0, c=0.95, max_backtracks=3, tol=1e-12)
    with pytest.raises(StallError) as excinfo:
        ig.iso_barycentre(sinh_manifold, pts, cfg)
    stall = excinfo.value
    assert stall.best.shape == (1,)
    assert stall.trace.stalled and len(stall.trace) >= 1


def test_fixed_step_rate_1d(sinh_manifold):
    rng = np.random.default_rng(5)
    pts = [rng.uniform(-2, 2, 1) for _ in range(10)]
    x0 = ig.closed_form_barycentre(sinh_manifold, pts)
    for r in (0.25, 0.5):
        _, trace = ig.ird_descent(sinh_manifold, barycentre_field(sinh_manifold, pts),
                                  x0, r, tol=1e-9, max_iters=40)
        fn = np.asarray(trace.field_norms)
        ratios = fn[1:] / fn[:-1]
        ratios = ratios[fn[:-1] > 1e-8]
        assert np.all(ratios <= np.sqrt(1 + r * (r - 2)) + 0.02)


def test_fixed_step_window_boundary_1d(sinh_manifold):
    # The admissible window is 0 < r < 2 (alpha = L = 1): r = 1.9 still
    # contracts at sqrt(1 + r(r-2)); r = 2.5 makes the field norm grow.
    pts = [np.array([v]) for v in (-0.6, 0.1, 0.5)]
    field = barycentre_field(sinh_manifold, pts)
    x0 = np.array([0.2])
    _, good = ig.ird_descent(sinh_manifold, field, x0, 1.9, tol=1e-10,
                             max_iters=30)
    fn = np.asarray(good.field_norms)
    ratios = (fn[1:] / fn[:-1])[fn[:-1] > 1e-8]
    assert np.all(ratios <= np.sqrt(1 + 1.9 * (1.9 - 2)) + 0.02)
    _, bad = ig.ird_descent(sinh_manifold, field, np.array([0.01]), 2.5,
                            tol=1e-12, max_iters=3)
    fn = np.asarray(bad.field_norms)
    assert not bad.converged
    assert np.all(np.diff(fn) > 0)


@pytest.mark.parametrize("max_iters", [2.5, math.inf, -math.inf, math.nan, True, -1])
def test_ird_descent_max_iters_follows_the_integer_rule(sinh_manifold, max_iters):
    field = barycentre_field(sinh_manifold, [np.array([v]) for v in (-0.6, 0.1, 0.5)])
    with pytest.raises(ValueError, match="^max_iters must be"):
        ig.ird_descent(sinh_manifold, field, np.array([0.2]), 0.5, max_iters=max_iters)
    # An integral float is the count it equals.
    got = ig.ird_descent(sinh_manifold, field, np.array([0.2]), 0.5, max_iters=3.0)[1]
    want = ig.ird_descent(sinh_manifold, field, np.array([0.2]), 0.5, max_iters=3)[1]
    assert got.field_norms == want.field_norms and len(got) == 4


def test_monotonicity_ratio_identity(identity2):
    rng = np.random.default_rng(6)
    pts = rng.uniform(-2, 2, (8, 2))
    mean = pts.mean(axis=0)
    for _ in range(10):
        x = rng.uniform(-3, 3, 2)
        if np.linalg.norm(x - mean) < 1e-6:
            continue
        field = ig.TangentVector(x, x - mean)
        assert ig.iso_monotonicity_ratio(identity2, x, mean, field) == pytest.approx(1.0, abs=1e-10)
        assert ig.iso_lipschitz_ratio(identity2, x, mean, field) == pytest.approx(1.0, abs=1e-10)


def test_ratios_are_one_on_1d_pullbacks(sinh_manifold):
    rng = np.random.default_rng(7)
    pts = [rng.uniform(-2, 2, 1) for _ in range(6)]
    xbar = ig.closed_form_barycentre(sinh_manifold, pts)
    xbar, _ = ig.iso_barycentre(sinh_manifold, pts,
                                ig.LineSearchConfig(tol=1e-11), x0=xbar)
    for x0 in (-2.5, -0.3, 1.7, 3.0):
        x = np.array([x0])
        field = ig.barycentre_ratio_field(sinh_manifold, x, pts)
        mono = ig.iso_monotonicity_ratio(sinh_manifold, x, xbar, field)
        lips = ig.iso_lipschitz_ratio(sinh_manifold, x, xbar, field)
        assert mono == pytest.approx(1.0, abs=1e-6)
        assert lips == pytest.approx(1.0, abs=1e-6)


def test_lc_log_ratio_field_equals_point_by_point_loop(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(11)
    pts = [sample_point(name, M, rng) for _ in range(8)]
    x = sample_point(name, M, rng)
    acc = np.zeros(M.dim)
    for p in pts:
        acc = acc + ig.lc_log(M, x, p).vec
    field = ig.barycentre_ratio_field(M, x, pts, use_iso_log=False)
    assert np.array_equal(field.base, x)
    assert np.array_equal(field.vec, -acc / len(pts))
    with pytest.raises(ValueError):
        ig.barycentre_ratio_field(M, x, [], use_iso_log=False)


def test_lc_log_ratio_field_on_identity_points_to_the_mean(identity2):
    rng = np.random.default_rng(12)
    pts = rng.uniform(-3, 3, (10, 2))
    x = rng.uniform(-3, 3, 2)
    field = ig.barycentre_ratio_field(identity2, x, pts, use_iso_log=False)
    np.testing.assert_allclose(
        field.vec, x - ig.closed_form_barycentre(identity2, pts), atol=1e-14)


def test_iso_transport_requires_base_at_x(identity2):
    x = np.array([1.0, 2.0])
    for y in (x, np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="based at x"):
            ig.iso_transport(identity2, x, y, ig.TangentVector(x + 1.0, x))


def test_ratio_undefined_at_barycentre(identity2):
    x = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        ig.iso_monotonicity_ratio(identity2, x, x, ig.TangentVector(x, x))


def test_river_ratios_spread_beyond_one(river_manifold):
    # Qualitative check: alpha witnesses fall well below 1 and Lipschitz
    # witnesses rise well above 1 on a grid around river band data.
    rng = np.random.default_rng(8)
    pts = river_manifold.diffeo.inverse(
        rng.uniform([-4.0, -1.0], [4.0, 1.0], (60, 2)))
    xbar, _ = ig.iso_barycentre(river_manifold, pts,
                                ig.LineSearchConfig(tol=1e-8))
    monos, lipss = [], []
    for gx in np.linspace(-4, 4, 7):
        for gy in np.linspace(-4, 4, 7):
            x = np.array([gx, gy])
            if ig.iso_distance(river_manifold, xbar, x) < 0.3:
                continue
            field = ig.barycentre_ratio_field(river_manifold, x, pts)
            monos.append(ig.iso_monotonicity_ratio(river_manifold, x, xbar, field))
            lipss.append(ig.iso_lipschitz_ratio(river_manifold, x, xbar, field))
    assert min(monos) < 0.9
    assert max(lipss) > 1.1


def test_restricted_isometry_identity_and_scaling(banana_manifold):
    rng = np.random.default_rng(9)
    pairs = sample_pairs("banana", banana_manifold, rng, 10)
    lo, hi = ig.restricted_isometry_check(banana_manifold, np.eye(2), pairs)
    assert abs(lo) < 1e-12 and abs(hi) < 1e-12
    lo2, hi2 = ig.restricted_isometry_check(banana_manifold, 2.0 * np.eye(2), pairs)
    assert lo2 == pytest.approx(3.0, abs=1e-10)
    assert hi2 == pytest.approx(3.0, abs=1e-10)


def test_restricted_isometry_matches_direct_recomputation(banana_manifold):
    rng = np.random.default_rng(10)
    pairs = sample_pairs("banana", banana_manifold, rng, 20)
    A = rng.standard_normal((3, 2))
    lo, hi = ig.restricted_isometry_check(banana_manifold, A, pairs)
    ratios = []
    for x, y in pairs:
        v = ig.iso_log(banana_manifold, x, y).vec
        ratios.append(np.dot(A @ v, A @ v)
                      / ig.iso_distance(banana_manifold, x, y) ** 2)
    assert lo == pytest.approx(min(ratios) - 1.0, abs=1e-8)
    assert hi == pytest.approx(max(ratios) - 1.0, abs=1e-8)


def test_restricted_isometry_skips_coincident(banana_manifold):
    p = np.array([1.0, 1.0])
    q = np.array([2.0, 0.5])
    with pytest.warns(UserWarning):
        lo, hi = ig.restricted_isometry_check(banana_manifold, np.eye(2),
                                              [(p, p), (p, q)])
    assert abs(lo) < 1e-12 and abs(hi) < 1e-12
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ig.restricted_isometry_check(banana_manifold, np.eye(2), [(p, p), (p, q), (q, q)])
    assert [str(w.message) for w in caught] == [
        "isometry check: 2 coincident pair(s) skipped"]
    with pytest.raises(ValueError), pytest.warns(UserWarning):
        ig.restricted_isometry_check(banana_manifold, np.eye(2), [(p, p)])


def test_trace_csv_round_trip(tmp_path, sinh_manifold):
    pts = [np.array([v]) for v in (0.0, 2.0, 7.0)]
    _, trace = ig.iso_barycentre(sinh_manifold, pts)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,field_norm,step_size,objective,x0"
    assert len(lines) == len(trace) + 1
