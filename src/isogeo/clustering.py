"""Lloyd-style K-means under Euclidean, pullback, and iso geometries.

Riemannian K-means is exactly Euclidean K-means in phi-coordinates mapped
back through phi^-1; iso-K-means initializes from it and then alternates
iso-distance assignments with iso-barycentre centroid updates.  All seeding
is deterministic under a fixed seed.
"""

from dataclasses import dataclass

import numpy as np

from .descent import LineSearchConfig, iso_barycentre
from .errors import StallError
from .isomaps import iso_distance

KMEANS_MAX_ITERS = 300
ISO_KMEANS_MAX_OUTER = 100
CENTROID_MOVEMENT_TOL = 1e-4


@dataclass
class ClusteringResult:
    """Labels take values 1..K; centroids[j] belongs to label j + 1."""

    labels: np.ndarray
    centroids: np.ndarray
    iterations: int
    converged: bool


def _kmeans_pp_init(points, K, rng):
    # Standard D^2 seeding; degenerate (all-duplicate) remainders fall back
    # to uniform choice so K centroids always exist.
    n = len(points)
    centroids = [points[rng.integers(n)]]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for _ in range(1, K):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids.append(points[idx])
        d2 = np.minimum(d2, np.sum((points - centroids[-1]) ** 2, axis=1))
    return np.stack(centroids)


def _assign(points, centroids):
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=-1)
    return d2.argmin(axis=1), d2


def euclidean_kmeans(points, K, seed):
    """Lloyd iterations with l2 distances, arithmetic means, k-means++ seeding.

    Empty clusters are reseeded at the point farthest from its assigned
    centroid.  Ties in assignment break toward the lowest cluster index.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if not 1 <= K <= n:
        raise ValueError(f"K must satisfy 1 <= K <= N = {n}, got {K}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, K, rng)
    labels = np.full(n, -1)
    converged = False
    iterations = 0
    for iterations in range(1, KMEANS_MAX_ITERS + 1):
        new_labels, d2 = _assign(points, centroids)
        for j in range(K):
            if not np.any(new_labels == j):
                farthest = d2[np.arange(n), new_labels].argmax()
                centroids[j] = points[farthest]
                new_labels[farthest] = j
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        for j in range(K):
            centroids[j] = points[labels == j].mean(axis=0)
    return ClusteringResult(labels + 1, centroids, iterations, converged)


def riemannian_kmeans(M, points, K, seed):
    """K-means under the pullback metric: Euclidean K-means in phi-coordinates.

    Assignments by pullback distance and closed-form barycentre updates are
    exactly Lloyd's algorithm on phi(points); centroids map back via phi^-1.
    """
    points = np.asarray(points, dtype=float)
    result = euclidean_kmeans(M.diffeo.forward(points), K, seed)
    return ClusteringResult(result.labels,
                            M.diffeo.inverse(result.centroids),
                            result.iterations, result.converged)


def _nearest(M, points, centroids):
    """Index of the iso-nearest centroid of each point; ties go to the lowest."""
    return iso_distance(M, points[:, None, :], centroids[None, :, :]).argmin(axis=1)


def iso_kmeans(M, points, K, seed, cfg=None, movement_tol=CENTROID_MOVEMENT_TOL):
    """Lloyd's algorithm with iso-distances and iso-barycentre updates.

    Initialized from Riemannian K-means.  Stops when an assignment repeats,
    as euclidean_kmeans does, since the updates would rebuild the same
    centroids; once the root-sum-square centroid movement drops below
    movement_tol (> 0); or at the outer-iteration cap, as convergence of the
    scheme is an open question.  Empty clusters keep their centroids, stalled
    barycentre solves their best iterates; labels match the returned centroids.
    """
    cfg = cfg or LineSearchConfig(tol=1e-6)
    points = np.asarray(points, dtype=float)
    n = len(points)
    if not 1 <= K <= n:
        raise ValueError(f"K must satisfy 1 <= K <= N = {n}, got {K}")
    if not movement_tol > 0.0:
        raise ValueError(f"movement_tol must be > 0, got {movement_tol}")
    init = riemannian_kmeans(M, points, K, seed)
    centroids = np.array(init.centroids, dtype=float)
    converged = False
    iterations = 0
    labels = np.full(n, -1)
    for iterations in range(1, ISO_KMEANS_MAX_OUTER + 1):
        new_labels = _nearest(M, points, centroids)
        if np.array_equal(new_labels, labels):
            return ClusteringResult(labels + 1, centroids, iterations, True)
        labels = new_labels
        new_centroids = centroids.copy()
        for j in range(K):
            members = points[labels == j]
            if len(members) == 0:
                continue
            try:
                new_centroids[j], _ = iso_barycentre(M, members, cfg)
            except StallError as stall:
                new_centroids[j] = stall.best
        movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2)))
        centroids = new_centroids
        if movement < movement_tol:
            converged = True
            break
    labels = _nearest(M, points, centroids)
    return ClusteringResult(labels + 1, centroids, iterations, converged)


def adjusted_rand_index(labels_a, labels_b):
    """Chance-corrected agreement between two labelings, from the contingency table."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(
            f"labelings must be equal-length vectors, got {a.shape} and {b.shape}")
    n = len(a)
    if n == 0:
        raise ValueError("labelings are empty")
    if n == 1:
        return 1.0
    _, a_ids = np.unique(a, return_inverse=True)
    _, b_ids = np.unique(b, return_inverse=True)
    contingency = np.zeros((a_ids.max() + 1, b_ids.max() + 1), dtype=np.int64)
    np.add.at(contingency, (a_ids, b_ids), 1)

    def comb2(m):
        return m * (m - 1) // 2

    sum_cells = comb2(contingency).sum()
    sum_rows = comb2(contingency.sum(axis=1)).sum()
    sum_cols = comb2(contingency.sum(axis=0)).sum()
    expected = sum_rows * sum_cols / comb2(n)
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))
