"""K-means variants and the adjusted Rand index."""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isogeo as ig
from isogeo import clustering
from isogeo.config import load_config
from isogeo.experiments import build_manifold

from conftest import sample_point

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def two_blobs(rng, n=30, spread=0.4, offset=5.0):
    a = rng.normal(0.0, spread, (n, 2))
    b = rng.normal(offset, spread, (n, 2))
    labels = np.concatenate([np.ones(n, dtype=int), np.full(n, 2)])
    return np.concatenate([a, b]), labels


def test_euclidean_kmeans_separated_blobs():
    rng = np.random.default_rng(0)
    pts, truth = two_blobs(rng)
    res = ig.euclidean_kmeans(pts, 2, seed=1)
    assert ig.adjusted_rand_index(res.labels, truth) == 1.0
    assert res.converged
    assert set(res.labels) == {1, 2}


def test_euclidean_kmeans_k_equals_n():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3, 3, (8, 2))
    res = ig.euclidean_kmeans(pts, 8, seed=2)
    assert sorted(res.labels) == list(range(1, 9))
    reordered = res.centroids[res.labels - 1]
    np.testing.assert_allclose(reordered, pts, atol=1e-12)


def test_euclidean_kmeans_k_one_is_mean():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-3, 3, (20, 2))
    res = ig.euclidean_kmeans(pts, 1, seed=0)
    np.testing.assert_allclose(res.centroids[0], pts.mean(axis=0), atol=1e-12)


@pytest.mark.parametrize("kmeans", ["euclidean", "riemannian", "iso"])
def test_kmeans_points_must_be_a_finite_stack_of_the_manifold_dim(river_manifold, kmeans):
    M = river_manifold
    run = {"euclidean": lambda pts, K=2: ig.euclidean_kmeans(pts, K, seed=0),
           "riemannian": lambda pts, K=2: ig.riemannian_kmeans(M, pts, K, seed=0),
           "iso": lambda pts, K=2: ig.iso_kmeans(M, pts, K, seed=0)}[kmeans]
    rng = np.random.default_rng(4)
    pts = rng.uniform(-3.0, 3.0, (20, 2))
    bad = pts.copy()
    bad[5, 1] = np.nan
    with pytest.raises(ValueError, match="points has non-finite entries"):
        run(bad)
    with pytest.raises(ig.DimensionError,
                       match=r"points must be an \(n, d\) stack, got shape \(40,\)"):
        run(pts.ravel())
    with pytest.raises(ValueError, match="K must satisfy 1 <= K <= N = 20, got 21"):
        run(pts, K=21)
    if kmeans != "euclidean":
        with pytest.raises(ig.DimensionError, match="points has dimension 3, expected 2"):
            run(rng.uniform(-3.0, 3.0, (20, 3)))


@pytest.mark.parametrize("kmeans", [ig.riemannian_kmeans, ig.iso_kmeans])
def test_kmeans_names_non_finite_phi_images(banana_manifold, kmeans):
    # Finite points whose phi-image overflows are reported as phi(points),
    # not as points.
    pts = np.random.default_rng(5).uniform(-3.0, 3.0, (20, 2))
    pts[5, 1] = 1e200
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"phi\(points\) has non-finite entries"):
        kmeans(banana_manifold, pts, 2, seed=0)


@pytest.mark.parametrize("kmeans", ["euclidean", "riemannian", "iso"])
def test_kmeans_k_and_seed_follow_the_integer_rule(river_manifold, kmeans):
    M = river_manifold
    run = {"euclidean": lambda K, seed: ig.euclidean_kmeans(pts, K, seed),
           "riemannian": lambda K, seed: ig.riemannian_kmeans(M, pts, K, seed),
           "iso": lambda K, seed: ig.iso_kmeans(M, pts, K, seed)}[kmeans]
    pts = np.random.default_rng(14).uniform(-3.0, 3.0, (20, 2))
    for key, value in [(key, value) for key in ("K", "seed")
                       for value in (1.5, math.inf, -math.inf, math.nan, True)]:
        args = {"K": 2, "seed": 3, key: value}
        with pytest.raises(ValueError) as excinfo:
            run(**args)
        assert str(excinfo.value) == f"{key} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        run(2, -1)
    # An integral float is the count it equals.
    want, got = run(2, 3), run(2.0, 3.0)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.centroids, want.centroids)


def test_euclidean_kmeans_invalid_k():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        ig.euclidean_kmeans(pts, 4, seed=0)
    with pytest.raises(ValueError):
        ig.euclidean_kmeans(pts, 0, seed=0)


def test_riemannian_equals_euclidean_on_identity(identity2):
    rng = np.random.default_rng(3)
    pts, _ = two_blobs(rng)
    eucl = ig.euclidean_kmeans(pts, 2, seed=5)
    riem = ig.riemannian_kmeans(identity2, pts, 2, seed=5)
    np.testing.assert_array_equal(eucl.labels, riem.labels)
    np.testing.assert_allclose(eucl.centroids, riem.centroids, atol=1e-12)


def test_riemannian_kmeans_is_euclidean_in_phi(river_manifold):
    rng = np.random.default_rng(4)
    pts = river_manifold.diffeo.inverse(rng.uniform(-3, 3, (40, 2)))
    riem = ig.riemannian_kmeans(river_manifold, pts, 3, seed=6)
    phi_res = ig.euclidean_kmeans(river_manifold.diffeo.forward(pts), 3, seed=6)
    np.testing.assert_array_equal(riem.labels, phi_res.labels)
    np.testing.assert_allclose(
        river_manifold.diffeo.forward(riem.centroids), phi_res.centroids,
        atol=1e-12)


def test_riemannian_kmeans_k_one(river_manifold):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, (15, 2))
    res = ig.riemannian_kmeans(river_manifold, pts, 1, seed=0)
    np.testing.assert_allclose(
        res.centroids[0], ig.closed_form_barycentre(river_manifold, pts),
        atol=1e-12)


def test_iso_kmeans_identity_matches_euclidean(identity2):
    rng = np.random.default_rng(6)
    pts, _ = two_blobs(rng)
    eucl = ig.euclidean_kmeans(pts, 2, seed=7)
    iso = ig.iso_kmeans(identity2, pts, 2, seed=7)
    np.testing.assert_array_equal(eucl.labels, iso.labels)
    assert iso.converged


def test_iso_kmeans_k_equals_n(river_manifold):
    rng = np.random.default_rng(7)
    pts = river_manifold.diffeo.inverse(rng.uniform(-2, 2, (6, 2)))
    res = ig.iso_kmeans(river_manifold, pts, 6, seed=8)
    assert sorted(res.labels) == list(range(1, 7))
    assert res.converged and res.iterations == 1


def test_iso_kmeans_two_cluster_river(river_manifold):
    spec = ig.DatasetSpec(kind="two_clusters", n=80, seed=7, noise_sigma=0.1,
                          t_min=-8.0, t_max=8.0, gap=6.0)
    data = ig.generate_dataset(spec, river_manifold)
    iso = ig.iso_kmeans(river_manifold, data.points, 2, seed=7,
                        cfg=ig.LineSearchConfig(tol=1e-5))
    riem = ig.riemannian_kmeans(river_manifold, data.points, 2, seed=7)
    ari_iso = ig.adjusted_rand_index(iso.labels, data.labels)
    ari_riem = ig.adjusted_rand_index(riem.labels, data.labels)
    assert ari_iso == 1.0
    assert ari_iso >= ari_riem
    assert iso.converged


def test_iso_kmeans_assignment_optimal_at_convergence(river_manifold):
    spec = ig.DatasetSpec(kind="two_clusters", n=40, seed=9, noise_sigma=0.1,
                          t_min=-8.0, t_max=8.0, gap=6.0)
    data = ig.generate_dataset(spec, river_manifold)
    res = ig.iso_kmeans(river_manifold, data.points, 2, seed=9)
    assert res.converged
    for i, p in enumerate(data.points):
        dists = [ig.iso_distance(river_manifold, p, c) for c in res.centroids]
        assert dists[res.labels[i] - 1] <= min(dists) + 1e-10


def test_iso_kmeans_labels_match_returned_centroids_when_capped(
        river_manifold, monkeypatch):
    # One outer iteration leaves the scheme unconverged; the labels must
    # still come from the centroids it returns, not the ones it replaced.
    monkeypatch.setattr(clustering, "ISO_KMEANS_MAX_OUTER", 1)
    spec = ig.DatasetSpec(kind="two_clusters", n=40, seed=0, noise_sigma=1.0,
                          t_min=-8.0, t_max=8.0, gap=3.0)
    pts = ig.generate_dataset(spec, river_manifold).points
    res = ig.iso_kmeans(river_manifold, pts, 2, seed=0)
    assert res.iterations == 1 and not res.converged
    for p, label in zip(pts, res.labels):
        dists = [ig.iso_distance(river_manifold, p, c) for c in res.centroids]
        assert label == int(np.argmin(dists)) + 1


def test_empty_cluster_policies_with_duplicates(identity2):
    # More clusters than distinct values forces the empty-cluster branches:
    # Euclidean reseeds at the farthest point, iso keeps the old centroid.
    pts = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]])
    eucl = ig.euclidean_kmeans(pts, 3, seed=0)
    assert eucl.converged
    assert set(eucl.labels) <= {1, 2, 3}
    assert eucl.centroids.shape == (3, 2)
    iso = ig.iso_kmeans(identity2, pts, 3, seed=0)
    assert iso.converged
    assert set(iso.labels) <= {1, 2, 3}
    for i, label in enumerate(iso.labels):
        dists = np.linalg.norm(iso.centroids - pts[i], axis=1)
        assert dists[label - 1] <= dists.min() + 1e-12


def test_clustering_determinism(river_manifold):
    spec = ig.DatasetSpec(kind="two_clusters", n=40, seed=10, noise_sigma=0.1,
                          t_min=-8.0, t_max=8.0, gap=6.0)
    pts = ig.generate_dataset(spec, river_manifold).points
    a = ig.iso_kmeans(river_manifold, pts, 2, seed=11)
    b = ig.iso_kmeans(river_manifold, pts, 2, seed=11)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.iterations == b.iterations


def movement_only_iso_kmeans(M, points, K, seed, cfg=None,
                             movement_tol=clustering.CENTROID_MOVEMENT_TOL):
    # Oracle: the loop that stopped only on centroid movement or at the cap,
    # re-solving every barycentre once an assignment repeated.
    cfg = cfg or ig.LineSearchConfig(tol=1e-6)
    points = np.asarray(points, dtype=float)
    init = ig.riemannian_kmeans(M, points, K, seed)
    centroids = np.array(init.centroids, dtype=float)
    converged = False
    iterations = 0
    for iterations in range(1, clustering.ISO_KMEANS_MAX_OUTER + 1):
        labels = clustering._nearest(M, points, centroids)
        new_centroids = centroids.copy()
        for j in range(K):
            members = points[labels == j]
            if len(members) == 0:
                continue
            try:
                new_centroids[j], _ = clustering.iso_barycentre(M, members, cfg)
            except ig.StallError as stall:
                new_centroids[j] = stall.best
        movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2)))
        centroids = new_centroids
        if movement < movement_tol:
            converged = True
            break
    labels = clustering._nearest(M, points, centroids)
    return clustering.ClusteringResult(labels + 1, centroids, iterations, converged)


def assert_same_as_movement_only(M, pts, K, seed, cfg=None):
    got = ig.iso_kmeans(M, pts, K, seed, cfg)
    want = movement_only_iso_kmeans(M, pts, K, seed, cfg)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.centroids, want.centroids)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    return got


def two_cluster_points(M, seed, n=40, noise=0.1, t_min=-8.0, t_max=8.0,
                       gap=6.0, **extra):
    spec = ig.DatasetSpec(kind="two_clusters", n=n, seed=seed, noise_sigma=noise,
                          t_min=t_min, t_max=t_max, gap=gap, **extra)
    return ig.generate_dataset(spec, M).points


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("seed", [2, 5, 9])
def test_iso_kmeans_bit_identical_to_movement_only_loop(
        identity2, river_manifold, spiral_manifold, K, seed):
    # River and spiral stop at a repeated assignment, identity on movement.
    river_pts = two_cluster_points(river_manifold, seed, n=16, noise=0.5, gap=3.0)
    spiral_pts = two_cluster_points(spiral_manifold, seed, n=30, t_min=2.0,
                                    t_max=8.0, gap=3.0, center=np.pi)
    blobs, _ = two_blobs(np.random.default_rng(seed), n=15, spread=1.0, offset=2.0)
    for M, pts in ((river_manifold, river_pts), (spiral_manifold, spiral_pts),
                   (identity2, blobs)):
        assert_same_as_movement_only(M, pts, K, seed)


@pytest.mark.parametrize("cap", [1, 2])
def test_iso_kmeans_bit_identical_when_capped(river_manifold, monkeypatch, cap):
    monkeypatch.setattr(clustering, "ISO_KMEANS_MAX_OUTER", cap)
    pts = two_cluster_points(river_manifold, 0, noise=1.0, gap=3.0)
    res = assert_same_as_movement_only(river_manifold, pts, 2, 0)
    assert res.iterations == cap and not res.converged


def test_iso_kmeans_bit_identical_with_empty_clusters(identity2):
    pts = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]])
    assert_same_as_movement_only(identity2, pts, 3, 0)


def recorded_stalls(monkeypatch):
    stalls = []
    solve = clustering.iso_barycentre

    def recording(M, members, cfg=None, x0=None):
        try:
            return solve(M, members, cfg, x0)
        except ig.StallError:
            stalls.append(len(members))
            raise

    monkeypatch.setattr(clustering, "iso_barycentre", recording)
    return stalls


def test_iso_kmeans_bit_identical_through_a_stall(river_manifold, monkeypatch):
    stalls = recorded_stalls(monkeypatch)
    pts = two_cluster_points(river_manifold, 3, n=20, noise=1.0, gap=3.0)
    assert_same_as_movement_only(river_manifold, pts, 2, 3)
    assert stalls


def test_iso_kmeans_stops_at_repeated_assignment(monkeypatch):
    config = load_config(CONFIG_DIR / "spiral_kmeans.ini")
    M = build_manifold(config)
    pts = ig.generate_dataset(config.dataset, M).points
    barycentre = mock.Mock(wraps=clustering.iso_barycentre)
    nearest = mock.Mock(wraps=clustering._nearest)
    monkeypatch.setattr(clustering, "iso_barycentre", barycentre)
    monkeypatch.setattr(clustering, "_nearest", nearest)
    res = ig.iso_kmeans(M, pts, config.extras["k"], config.dataset.seed,
                        config.solver)
    assert (barycentre.call_count, nearest.call_count) == (2, 2)
    assert res.converged and res.iterations == 2


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
def test_iso_kmeans_movement_tol_must_be_positive(identity2, tol):
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
    with pytest.raises(ValueError, match="movement_tol"):
        ig.iso_kmeans(identity2, pts, 2, seed=0, movement_tol=tol)


def test_iso_kmeans_tiny_movement_tol_still_runs(identity2):
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
    res = ig.iso_kmeans(identity2, pts, 2, seed=0, movement_tol=1e-300)
    assert res.converged


def brute_force_nearest(M, points, centroids):
    # The full n x K iso-distance matrix; the movement-only oracle calls
    # clustering._nearest itself, so it cannot check the pruned search.
    return ig.iso_distance(M, points[:, None, :], centroids[None, :, :]).argmin(axis=1)


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_nearest_equals_brute_force_argmin(any_manifold, K):
    name, M = any_manifold
    rng = np.random.default_rng(100 + K)
    for n in (1, 7, 23):
        pts = np.array([sample_point(name, M, rng) for _ in range(n)])
        centroids = np.array([sample_point(name, M, rng) for _ in range(K)])
        assert np.array_equal(clustering._nearest(M, pts, centroids),
                              brute_force_nearest(M, pts, centroids))
        # A point on a centroid, and a duplicate centroid ahead of it.
        pts[0] = centroids[-1]
        duplicated = np.concatenate([centroids[-1:], centroids])
        for cs in (centroids, duplicated):
            got = clustering._nearest(M, pts, cs)
            assert np.array_equal(got, brute_force_nearest(M, pts, cs))
        assert got[0] == 0


def test_nearest_ties_go_to_the_lowest_index(river_manifold):
    rng = np.random.default_rng(3)
    pts = np.array([sample_point("river", river_manifold, rng) for _ in range(12)])
    c = sample_point("river", river_manifold, rng)
    centroids = np.stack([pts[3] + 9.0, c, c, pts[3] + 9.0, c])
    got = clustering._nearest(river_manifold, pts, centroids)
    assert np.array_equal(got, brute_force_nearest(river_manifold, pts, centroids))
    assert set(got) <= {0, 1}


def test_nearest_keeps_domain_errors(spiral_manifold):
    pts = np.array([[1.0, 1.0], [0.0, 0.0]])
    centroids = np.array([[1.0, 1.0]])
    with pytest.raises(ig.DomainError):
        brute_force_nearest(spiral_manifold, pts, centroids)
    with pytest.raises(ig.DomainError):
        clustering._nearest(spiral_manifold, pts, centroids)


def arc_length_rows(monkeypatch):
    rows = []
    lengths = clustering._arc_lengths

    def counting(M, a, w):
        rows.append(int(np.prod(np.broadcast_shapes(np.shape(a), np.shape(w))[:-1])))
        return lengths(M, a, w)

    monkeypatch.setattr(clustering, "_arc_lengths", counting)
    return rows


def test_nearest_integrates_one_line_per_point_at_k_one(river_manifold, monkeypatch):
    rows = arc_length_rows(monkeypatch)
    pts = two_cluster_points(river_manifold, 4)
    clustering._nearest(river_manifold, pts, pts[:1])
    assert sum(rows) == len(pts)


def test_nearest_prunes_separated_clusters(river_manifold, monkeypatch):
    pts = two_cluster_points(river_manifold, 9)
    centroids = ig.iso_kmeans(river_manifold, pts, 2, seed=9).centroids
    rows = arc_length_rows(monkeypatch)
    labels = clustering._nearest(river_manifold, pts, centroids)
    assert np.array_equal(labels, brute_force_nearest(river_manifold, pts, centroids))
    assert sum(rows) < 0.6 * len(pts) * 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nearest_non_finite_first_distance_prunes_nothing(river_manifold, monkeypatch, bad):
    pts = two_cluster_points(river_manifold, 9)
    centroids = ig.iso_kmeans(river_manifold, pts, 2, seed=9).centroids
    rows = arc_length_rows(monkeypatch)
    counted = clustering._arc_lengths

    def spoiled_first_batch(M, a, w):
        lengths = counted(M, a, w)
        if len(rows) == 1:
            lengths[:] = bad
        return lengths

    monkeypatch.setattr(clustering, "_arc_lengths", spoiled_first_batch)
    clustering._nearest(river_manifold, pts, centroids)
    assert rows == [len(pts), len(pts)]


@pytest.mark.parametrize("seed", [0, 3])
def test_iso_kmeans_same_with_brute_force_assignments(river_manifold, monkeypatch, seed):
    pts = two_cluster_points(river_manifold, seed, n=20, noise=1.0, gap=3.0)
    got = ig.iso_kmeans(river_manifold, pts, 2, seed)
    monkeypatch.setattr(clustering, "_nearest", brute_force_nearest)
    want = ig.iso_kmeans(river_manifold, pts, 2, seed)
    assert np.array_equal(got.labels, want.labels)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert (got.iterations, got.converged, got.stalls) == (
        want.iterations, want.converged, want.stalls)


def test_iso_kmeans_counts_swallowed_stalls(river_manifold, monkeypatch):
    stalls = recorded_stalls(monkeypatch)
    pts = two_cluster_points(river_manifold, 0, n=20, noise=1.0, gap=3.0)
    res = ig.iso_kmeans(river_manifold, pts, 2, seed=0)
    assert stalls and res.stalls == len(stalls)
    clean = ig.iso_kmeans(river_manifold, two_cluster_points(river_manifold, 7), 2, seed=7)
    assert clean.stalls == 0


DUPLICATES = np.array([[0, 0], [1, 2], [1, 2], [0, 0], [2, 2], [0, 0]], dtype=float)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_more_clusters_than_distinct_points_stay_finite(identity2, river_manifold, seed):
    # Five clusters over three distinct points: a reseed must not take a
    # point another reseed just took, nor a cluster's sole member.
    for res in (ig.euclidean_kmeans(DUPLICATES, 5, seed),
                ig.riemannian_kmeans(river_manifold, DUPLICATES, 5, seed),
                ig.iso_kmeans(identity2, DUPLICATES, 5, seed),
                ig.iso_kmeans(river_manifold, DUPLICATES, 5, seed)):
        assert np.all(np.isfinite(res.centroids))
        assert res.converged
        assert set(res.labels) <= set(range(1, 6))


def test_euclidean_reseeds_keep_every_cluster_nonempty():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        distinct = rng.integers(0, 3, (int(rng.integers(1, n)), 2)).astype(float)
        pts = distinct[rng.integers(0, len(distinct), n)]
        K = int(rng.integers(1, n + 1))
        res = ig.euclidean_kmeans(pts, K, seed=int(rng.integers(100)))
        assert np.all(np.isfinite(res.centroids)) and res.converged
        assert sorted(set(res.labels)) == list(range(1, K + 1))


def ari_from_pair_counts(a, b):
    # Brute-force oracle: count agreeing/disagreeing pairs directly.
    n = len(a)
    same_a = np.equal.outer(a, a)
    same_b = np.equal.outer(b, b)
    iu = np.triu_indices(n, k=1)
    n11 = int(np.sum(same_a[iu] & same_b[iu]))
    n00 = int(np.sum(~same_a[iu] & ~same_b[iu]))
    n10 = int(np.sum(same_a[iu] & ~same_b[iu]))
    n01 = int(np.sum(~same_a[iu] & same_b[iu]))
    total = n11 + n00 + n10 + n01
    expected = (n11 + n10) * (n11 + n01) / total
    maximum = 0.5 * ((n11 + n10) + (n11 + n01))
    if maximum == expected:
        return 1.0
    return (n11 - expected) / (maximum - expected)


def test_ari_identical_and_permuted():
    labels = np.array([1, 1, 2, 2, 3, 3, 3])
    assert ig.adjusted_rand_index(labels, labels) == 1.0
    permuted = np.array([3, 3, 1, 1, 2, 2, 2])
    assert ig.adjusted_rand_index(labels, permuted) == 1.0


def test_ari_constant_versus_balanced():
    constant = np.ones(100, dtype=int)
    balanced = np.repeat([1, 2], 50)
    got = ig.adjusted_rand_index(constant, balanced)
    assert got == pytest.approx(ari_from_pair_counts(constant, balanced))
    assert got == 0.0


def test_ari_matches_pair_count_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.integers(1, 4, 30)
        b = rng.integers(1, 5, 30)
        assert ig.adjusted_rand_index(a, b) == pytest.approx(
            ari_from_pair_counts(a, b), abs=1e-12)


def test_ari_of_one_item_is_one():
    assert ig.adjusted_rand_index([1], [2]) == 1.0


def test_ari_of_empty_labelings_raises():
    with pytest.raises(ValueError, match="empty"):
        ig.adjusted_rand_index([], [])


def test_ari_length_mismatch():
    with pytest.raises(ValueError):
        ig.adjusted_rand_index([1, 2], [1, 2, 3])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=40))
def test_hypothesis_ari_self_and_symmetry(labels):
    a = np.asarray(labels)
    assert ig.adjusted_rand_index(a, a) == 1.0
    b = a[::-1].copy()
    assert ig.adjusted_rand_index(a, b) == pytest.approx(
        ig.adjusted_rand_index(b, a), abs=1e-12)
