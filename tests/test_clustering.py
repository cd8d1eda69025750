"""K-means variants and the adjusted Rand index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isogeo as ig
from isogeo import clustering


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
