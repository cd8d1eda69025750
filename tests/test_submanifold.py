"""Geodesic submanifolds: projections, projected descent, rank-r bases."""

from pathlib import Path

import numpy as np
import pytest

import isogeo as ig
from isogeo import experiments, submanifold
from isogeo.config import load_config
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
    for basis, shape in ((np.ones(2), "(2,)"), (np.eye(3)[:, :1], "(3, 1)")):
        with pytest.raises(ValueError) as excinfo:
            ig.GeodesicSubmanifold(identity2, np.zeros(2), basis)
        assert str(excinfo.value) == f"phi_basis must be (2, m), got shape {shape}"


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


def per_time_bounds(S, grad_f, x, y, t_grid, hvp=None, gamma_h=1e-4):
    """The rows of convexity_bounds_1d from its former per-time loop: the oracle."""
    M = S.manifold
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        p = ig.lc_geodesic(M, x, y, t)
        vel = ig.lc_geodesic_velocity(M, x, y, t).vec
        speed2 = float(np.dot(vel, vel))
        acc = (ig.lc_geodesic_velocity(M, x, y, t + gamma_h).vec
               - ig.lc_geodesic_velocity(M, x, y, t - gamma_h).vec) / (2.0 * gamma_h)
        if hvp is not None:
            hess_term = float(np.dot(hvp(p, vel), vel)) / speed2
        else:
            h = 1e-6 * (1.0 + np.linalg.norm(p))
            unit = vel / np.sqrt(speed2)
            dgrad = (grad_f(p + h * unit) - grad_f(p - h * unit)) / (2.0 * h)
            hess_term = float(np.dot(dgrad, unit))
        grad = grad_f(p)
        normal = grad - ig.tangent_projection(S, p, grad).vec
        rows.append((float(t), hess_term, float(np.dot(normal, acc)) / speed2))
    return np.asarray(rows)


def bounds_cases():
    """(name, S, x, y, grad_f, hvp) on banana offsets 4 and 0, sinh and identity(2).

    Each objective is batch-first: a quadratic, and a quartic whose Hessian
    varies along the curve.
    """
    banana, sinh = ig.PullbackManifold(ig.banana()), ig.PullbackManifold(ig.sinh_shift_1d())
    lines = [(f"banana_{offset:g}", banana_offset_manifold(offset, banana), -6.0, 6.0)
             for offset in (4.0, 0.0)]
    lines.append(("sinh", ig.GeodesicSubmanifold(sinh, np.zeros(1), np.eye(1)), -2.0, 2.0))
    lines.append(("identity", ig.GeodesicSubmanifold(
        ig.PullbackManifold(ig.identity(2)), np.array([0.0, 1.0]), np.array([[0.6], [0.8]])),
        -3.0, 3.0))
    for name, S, s0, s1 in lines:
        target = np.full(S.manifold.dim, 0.5)
        target[0] = 5.0
        yield (f"{name}_quadratic", S, S.point_at(s0), S.point_at(s1),
               lambda P, c=target: P - c, lambda P, V: V)
        yield (f"{name}_quartic", S, S.point_at(s0), S.point_at(s1),
               lambda P, c=target: (P - c) ** 3, lambda P, V, c=target: 3.0 * (P - c) ** 2 * V)


BOUNDS_CASES = {case[0]: case[1:] for case in bounds_cases()}


@pytest.mark.parametrize("name", BOUNDS_CASES)
def test_convexity_bounds_match_the_per_time_loop(name):
    S, x, y, grad_f, hvp = BOUNDS_CASES[name]
    t = np.linspace(0.0, 1.0, 61)
    for with_hvp, rtol in ((True, 1e-12), (False, 1e-8)):
        action = hvp if with_hvp else None
        want = per_time_bounds(S, grad_f, x, y, t, hvp=action)
        got = ig.convexity_bounds_1d(S, grad_f, x, y, t, hvp=action)
        assert got.shape == (61, 3) and np.array_equal(got[:, 0], t)
        # Relative to the largest term: a term that is zero in exact
        # arithmetic (a normal component on a line through all of R^1) is
        # rounding noise in both.
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want[:, 1:]).max())
        # A scalar time is a one-row grid.
        assert np.array_equal(ig.convexity_bounds_1d(S, grad_f, x, y, t[7], hvp=action),
                              got[7:8])


@pytest.mark.parametrize("n", [0, 1, 241])
def test_convexity_bounds_maps_the_ends_through_phi_once(banana_manifold, monkeypatch, n):
    S = banana_offset_manifold(4.0, banana_manifold)
    x, y = S.point_at(-6.0), S.point_at(6.0)
    forward, shapes = banana_manifold.diffeo.forward, []

    def counted(p):
        shapes.append(np.shape(p))
        return forward(p)

    monkeypatch.setattr(banana_manifold.diffeo, "forward", counted)
    t = np.linspace(0.0, 1.0, n)
    for hvp in (lambda P, V: V, None):
        shapes.clear()
        rows = ig.convexity_bounds_1d(S, lambda P: P - 5.0, x, y, t, hvp=hvp)
        assert shapes == [(2,), (2,)]
        assert rows.shape == (n, 3)


def test_convexity_bounds_checks_the_ends(banana_manifold):
    S = banana_offset_manifold(4.0, banana_manifold)
    with pytest.raises(DomainError, match="y is not on the submanifold"):
        ig.convexity_bounds_1d(S, lambda P: P, S.point_at(0.0), np.zeros(2), [0.5])


def shear_manifold(d):
    """An elementwise map of R^d whose inverse Jacobian varies from point to point."""
    return ig.PullbackManifold(ig.Diffeomorphism(
        d, np.sinh, np.arcsinh, lambda x, v: np.cosh(x) * v,
        lambda y, w: w / np.sqrt(1.0 + y * y)))


@pytest.mark.parametrize("d", [2, 3, 16])
@pytest.mark.parametrize("m", [1, 2])
def test_batch_tangent_projection_has_the_one_point_bits(d, m):
    M = shear_manifold(d)
    rng = np.random.default_rng(10 * d + m)
    S = ig.GeodesicSubmanifold(M, rng.standard_normal(d),
                               np.linalg.qr(rng.standard_normal((d, m)))[0])
    a = S._phi_base + rng.standard_normal((12, m)) @ S.phi_basis.T
    v = rng.standard_normal((12, d))
    one = np.array([submanifold._tangent_projection(S, ai, vi) for ai, vi in zip(a, v)])
    assert np.array_equal(submanifold._tangent_projection(S, a, v), one)
    assert np.array_equal(submanifold._tangent_projection(S, a.reshape(3, 4, d),
                                                          v.reshape(3, 4, d)),
                          one.reshape(3, 4, d))
    # The public one-point call is the one-point helper at phi(x).
    x = M.diffeo.inverse(a[0])
    assert np.array_equal(ig.tangent_projection(S, x, v[0]).vec,
                          submanifold._tangent_projection(S, M.diffeo.forward(x), v[0]))


def test_batch_tangent_projection_raises_on_any_singular_gram():
    # The inverse Jacobian vanishes where the first phi-coordinate exceeds 1.
    M = ig.PullbackManifold(ig.Diffeomorphism(
        2, lambda x: x + 0.0, lambda y: y + 0.0, lambda x, v: v + 0.0 * x,
        lambda y, w: w * (y[..., :1] <= 1.0)))
    S = xaxis_submanifold(M)
    a = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
    v = np.ones((3, 2))
    np.testing.assert_array_equal(submanifold._tangent_projection(S, a[:2], v[:2]),
                                  [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateBasisError):
        submanifold._tangent_projection(S, a, v)


def test_rank_r_follows_the_integer_rule(banana_manifold):
    pts = np.random.default_rng(7).uniform(-2, 2, (10, 2))
    base = np.zeros(2)
    U = ig.iso_rank_r_approx(banana_manifold, pts, base, 2)
    assert np.array_equal(ig.iso_rank_r_approx(banana_manifold, pts, base, 2.0), U)
    for r in (1.5, True, np.inf, -np.inf, np.nan):
        for rank_r in (ig.iso_rank_r_approx, ig.submanifold_from_rank_r):
            with pytest.raises(ValueError, match="rank r must be an integer"):
                rank_r(banana_manifold, pts, base, r)


def test_rankr_run_computes_its_iso_log_matrix_once(tmp_path, monkeypatch):
    monkeypatch.setenv("ISOGEO_OUTPUT_DIR", str(tmp_path))
    config = load_config(Path(__file__).resolve().parent.parent / "configs"
                         / "banana_rankr.ini")
    calls = []
    for module in (experiments, submanifold):
        iso_log_vecs = module._iso_log_vecs
        monkeypatch.setattr(module, "_iso_log_vecs", lambda *args, f=iso_log_vecs: (
            calls.append("iso_log"), f(*args))[1])
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: (
        calls.append(f"svd {kwargs.get('compute_uv', True)}"), svd(*args, **kwargs))[1])
    assert experiments.run(config) == 0
    assert calls == ["iso_log", "svd True", "svd False"]
