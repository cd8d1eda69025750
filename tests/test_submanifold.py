"""Geodesic submanifolds: projections, projected descent, rank-r bases."""

import numpy as np
import pytest

import isogeo as ig
from isogeo.errors import DegenerateBasisError, DomainError, StallError

E2 = np.array([[0.0], [1.0]])


def xaxis_submanifold(M):
    return ig.GeodesicSubmanifold(M, np.zeros(2), np.array([[1.0], [0.0]]))


def banana_offset_manifold(offset, M=None):
    M = M or ig.PullbackManifold(ig.banana())
    base = M.diffeo.inverse(np.array([offset, 0.0]))
    return ig.GeodesicSubmanifold(M, base, E2)


def test_constructor_validates_basis(identity2):
    with pytest.raises(ValueError):
        ig.GeodesicSubmanifold(identity2, np.zeros(2), np.array([[1.0], [1.0]]))
    with pytest.raises(ValueError):
        ig.GeodesicSubmanifold(identity2, np.zeros(2), np.ones((2, 2)))


def test_membership_and_parameterization(banana_manifold):
    S = banana_offset_manifold(4.0, banana_manifold)
    for s in (-3.0, 0.0, 2.5):
        p = S.point_at(s)
        assert S.contains(p)
        assert S.params_of(p)[0] == pytest.approx(s, abs=1e-12)
    assert not S.contains(S.point_at(1.0) + np.array([0.5, 0.0]))
    batch = S.points_at(np.array([-3.0, 0.0, 2.5]))
    np.testing.assert_allclose(batch[2], S.point_at(2.5), atol=1e-14)


def test_tangent_projection_identity_axis(identity2):
    S = xaxis_submanifold(identity2)
    out = ig.tangent_projection(S, np.array([2.0, 0.0]), np.array([3.0, 4.0]))
    np.testing.assert_allclose(out.vec, [3.0, 0.0], atol=1e-14)


def test_tangent_projection_idempotent_and_fixes_tangents(banana_manifold):
    S = banana_offset_manifold(4.0, banana_manifold)
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = S.point_at(rng.uniform(-3, 3))
        v = rng.uniform(-2, 2, 2)
        once = ig.tangent_projection(S, x, v)
        twice = ig.tangent_projection(S, x, once.vec)
        np.testing.assert_allclose(twice.vec, once.vec, atol=1e-10)
    x = S.point_at(1.0)
    tangent = S.tangent_basis(x)[:, 0]
    kept = ig.tangent_projection(S, x, tangent)
    np.testing.assert_allclose(kept.vec, tangent, atol=1e-10)


def test_tangent_projection_requires_membership(identity2):
    S = xaxis_submanifold(identity2)
    with pytest.raises(DomainError):
        ig.tangent_projection(S, np.array([0.0, 1.0]), np.array([1.0, 0.0]))


def test_degenerate_transported_basis_detected():
    # A rank-deficient inverse-Jacobian stub collapses the transported basis.
    rank1 = ig.Diffeomorphism(
        2, lambda x: np.asarray(x, float).copy(),
        lambda y: np.asarray(y, float).copy(),
        jvp=lambda x, v: np.asarray(v, float).copy(),
        inv_jvp=lambda y, w: np.stack(
            [w[..., 0] + w[..., 1], w[..., 0] + w[..., 1]], axis=-1))
    M = ig.PullbackManifold(rank1)
    S = ig.GeodesicSubmanifold(M, np.zeros(2), np.eye(2))
    with pytest.raises(DegenerateBasisError):
        ig.tangent_projection(S, np.zeros(2), np.array([1.0, 0.0]))


def test_l2pg_identity_axis_quadratic(identity2):
    S = xaxis_submanifold(identity2)
    target = np.array([3.0, 4.0])
    sol, trace = ig.l2pg_ird(
        S, lambda x: 0.5 * np.sum((x - target) ** 2), lambda x: x - target,
        np.array([-2.0, 0.0]), ig.LineSearchConfig(tol=1e-10))
    np.testing.assert_allclose(sol, [3.0, 0.0], atol=1e-8)
    assert trace.converged
    assert trace.objectives is not None
    assert np.all(np.diff(trace.objectives) < 0)


def test_l2pg_banana_matches_grid_oracle(banana_manifold):
    # Well-conditioned operator: the quartic restriction has a single basin.
    S = banana_offset_manifold(4.0, banana_manifold)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2, 2))
    b = A @ S.point_at(1.5)
    f = lambda x: 0.5 * np.sum((A @ x - b) ** 2)
    grad = lambda x: A.T @ (A @ x - b)
    sol, trace = ig.l2pg_ird(S, f, grad, S.point_at(-2.0),
                             ig.LineSearchConfig(tol=1e-8))
    grid = np.linspace(-6, 6, 20001)
    values = 0.5 * np.sum((S.points_at(grid) @ A.T - b) ** 2, axis=1)
    s_grid = grid[int(values.argmin())]
    assert abs(S.params_of(sol)[0] - s_grid) <= grid[1] - grid[0]
    for it in trace.iterates:
        assert S.contains(it, tol=1e-8)


def test_l2pg_requires_feasible_start(identity2):
    S = xaxis_submanifold(identity2)
    with pytest.raises(DomainError):
        ig.l2pg_ird(S, lambda x: 0.0, lambda x: np.zeros(2),
                    np.array([0.0, 1.0]), ig.LineSearchConfig())


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_l2pg_rejects_a_non_finite_first_objective(banana_manifold, value):
    # At f(x0) = +inf the stopping test |P grad f| / f(x0) would read 0 at once.
    S = ig.GeodesicSubmanifold(banana_manifold, [4.0, 0.0], [[0.0], [1.0]])
    with pytest.raises(ValueError, match=r"f\(x0\) is not finite: (inf|nan)"):
        ig.l2pg_ird(S, lambda x: value, lambda x: np.ones(2), S.point_at(2.0),
                    ig.LineSearchConfig())


def test_l2pg_stall(identity2):
    S = xaxis_submanifold(identity2)
    target = np.array([3.0, 0.0])
    cfg = ig.LineSearchConfig(r0=8.0, c=0.95, max_backtracks=3, tol=1e-12)
    with pytest.raises(StallError) as excinfo:
        ig.l2pg_ird(S, lambda x: 0.5 * np.sum((x - target) ** 2),
                    lambda x: x - target, np.array([-2.0, 0.0]), cfg)
    assert excinfo.value.trace.stalled


def test_rank_r_recovers_plane(banana_manifold):
    rng = np.random.default_rng(5)
    phi_pts = np.stack([np.full(40, 2.0), rng.uniform(-3, 3, 40)], axis=-1)
    pts = banana_manifold.diffeo.inverse(phi_pts)
    base = ig.closed_form_barycentre(banana_manifold, pts)
    logs = np.stack(
        [ig.iso_log(banana_manifold, base, p).vec for p in pts], axis=1)
    svals = np.linalg.svd(logs, compute_uv=False)
    assert svals[1] < 1e-8
    S = ig.submanifold_from_rank_r(banana_manifold, pts, base, 1)
    for p in pts:
        assert S.contains(p, tol=1e-6)


def test_rank_r_identity_is_pca(identity2):
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((30, 2)) @ np.diag([3.0, 0.5])
    base = pts.mean(axis=0)
    U = ig.iso_rank_r_approx(identity2, pts, base, 2)
    ref, _, _ = np.linalg.svd((pts - base).T)
    for j in range(2):
        assert abs(abs(np.dot(U[:, j], ref[:, j])) - 1.0) < 1e-10
    np.testing.assert_allclose(U.T @ U, np.eye(2), atol=1e-10)


def test_rank_r_full_rank_and_errors(banana_manifold):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, (10, 2))
    base = np.zeros(2)
    U = ig.iso_rank_r_approx(banana_manifold, pts, base, 2)
    np.testing.assert_allclose(U.T @ U, np.eye(2), atol=1e-10)
    with pytest.raises(ValueError):
        ig.iso_rank_r_approx(banana_manifold, pts, base, 3)
    with pytest.raises(ValueError):
        ig.iso_rank_r_approx(banana_manifold, [], base, 1)


def test_rank_r_eckart_young(river_manifold):
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2, 2, (15, 2))
    base = np.zeros(2)
    logs = np.stack([ig.iso_log(river_manifold, base, p).vec for p in pts],
                    axis=1)
    U = ig.iso_rank_r_approx(river_manifold, pts, base, 1)
    resid = logs - U @ (U.T @ logs)
    svals = np.linalg.svd(logs, compute_uv=False)
    assert np.sum(resid ** 2) == pytest.approx(np.sum(svals[1:] ** 2), abs=1e-8)


def test_convexity_bounds_identity_line(identity2):
    S = xaxis_submanifold(identity2)
    rows = ig.convexity_bounds_1d(
        S, lambda x: x, np.array([-2.0, 0.0]), np.array([2.0, 0.0]),
        np.linspace(0.1, 0.9, 9), hvp=lambda x, v: v)
    np.testing.assert_allclose(rows[:, 1], 1.0, atol=1e-12)
    np.testing.assert_allclose(rows[:, 2], 0.0, atol=1e-8)


def test_convexity_bounds_sinh_sum_is_one(sinh_manifold):
    S = ig.GeodesicSubmanifold(sinh_manifold, np.zeros(1), np.eye(1))
    rows = ig.convexity_bounds_1d(
        S, lambda x: x, np.array([-2.0]), np.array([2.0]),
        np.linspace(0.05, 0.95, 19), hvp=lambda x, v: v)
    np.testing.assert_allclose(rows[:, 1] + rows[:, 2], 1.0, atol=1e-10)


def test_convexity_bounds_banana_offsets(banana_manifold):
    # Same quadratic objective; shifting the constraint parabola flips the
    # worst-case curvature term from mildly negative to convexity-breaking.
    target = np.array([5.0, 0.0])
    grad = lambda x: x - target
    hvp = lambda x, v: v
    sums = {}
    for name, offset in (("convex", 4.0), ("nonconvex", 0.0)):
        S = banana_offset_manifold(offset, banana_manifold)
        rows = ig.convexity_bounds_1d(S, grad, S.point_at(-6.0),
                                      S.point_at(6.0), np.linspace(0, 1, 121),
                                      hvp=hvp)
        sums[name] = rows[:, 1] + rows[:, 2]
    assert sums["convex"].min() > 0.0
    assert sums["nonconvex"].min() < 0.0


def test_convexity_bounds_fd_hessian_fallback(banana_manifold):
    S = banana_offset_manifold(4.0, banana_manifold)
    target = np.array([5.0, 0.0])
    grad = lambda x: x - target
    with_hvp = ig.convexity_bounds_1d(S, grad, S.point_at(-2.0),
                                      S.point_at(2.0), [0.25, 0.75],
                                      hvp=lambda x, v: v)
    without = ig.convexity_bounds_1d(S, grad, S.point_at(-2.0),
                                     S.point_at(2.0), [0.25, 0.75])
    np.testing.assert_allclose(without, with_hvp, rtol=1e-6, atol=1e-7)


def test_convexity_bounds_requires_1d(identity2):
    S = ig.GeodesicSubmanifold(identity2, np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        ig.convexity_bounds_1d(S, lambda x: x, np.zeros(2), np.ones(2), [0.5])
