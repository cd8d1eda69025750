"""Lloyd-style K-means under Euclidean, pullback, and iso geometries.

Riemannian K-means is exactly Euclidean K-means in phi-coordinates mapped
back through phi^-1; iso-K-means initializes from it and then alternates
iso-distance assignments with iso-barycentre centroid updates.  All seeding
is deterministic under a fixed seed.
"""

from dataclasses import dataclass

import numpy as np

from .descent import LineSearchConfig, _solve, iso_barycentre
from .errors import DimensionError
from .isomaps import _arc_lengths
from .pullback import as_point
from .quadrature import _count

KMEANS_MAX_ITERS = 300
ISO_KMEANS_MAX_OUTER = 100
CENTROID_MOVEMENT_TOL = 1e-4

# An iso-distance is the l2 length of a curve from x to y, so it is at least
# the chord |x - y|.  _nearest skips a centroid whose chord exceeds
# PRUNE_FACTOR times the computed distance d0 to the point's chord-nearest
# centroid: if that centroid's arc length is under-estimated by less than
# half, its computed distance exceeds chord / 2 > d0, so it could not have
# been the argmin, nor tied with it.  The exact arc lengths of spiral, banana
# and 1-D maps meet this at rounding level; on maps without an arc_length it
# is a premise on the 64x4 rule, which river lines meet (1.3e-10 relative
# against a 512x8 rule) but a sharply peaked speed need not.
PRUNE_FACTOR = 2.0


@dataclass
class ClusteringResult:
    """Labels take values 1..K; centroids[j] belongs to label j + 1."""

    labels: np.ndarray
    centroids: np.ndarray
    iterations: int
    converged: bool
    stalls: int = 0


def _point_stack(points, dim=None):
    """The points as a validated finite ``(n, d)`` float array, d = dim when given."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DimensionError(f"points must be an (n, d) stack, got shape {points.shape}")
    return as_point(points, dim, "points", batch=True)


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
    centroid among those that are not the sole member of their cluster, so a
    reseed never empties another cluster.  Ties in assignment break toward
    the lowest cluster index.
    """
    return _euclidean_kmeans(_point_stack(points), K, seed)


def _euclidean_kmeans(points, K, seed):
    """euclidean_kmeans of a validated ``(n, d)`` float array."""
    n = len(points)
    K = _count("K", K, 1)
    if K > n:
        raise ValueError(f"K must satisfy 1 <= K <= N = {n}, got {K}")
    rng = np.random.default_rng(_count("seed", seed, 0))
    centroids = _kmeans_pp_init(points, K, rng)
    labels = np.full(n, -1)
    converged = False
    iterations = 0
    for iterations in range(1, KMEANS_MAX_ITERS + 1):
        new_labels, d2 = _assign(points, centroids)
        counts = np.bincount(new_labels, minlength=K)
        spread = d2[np.arange(n), new_labels]
        for j in np.flatnonzero(counts == 0):
            # A point reseeded here is its cluster's sole member from now on.
            # K <= n leaves some cluster with two members to take from.
            spread[counts[new_labels] == 1] = -np.inf
            farthest = spread.argmax()
            counts[new_labels[farthest]] -= 1
            counts[j] = 1
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
    images = M.diffeo.forward(_point_stack(points, M.dim))
    result = _euclidean_kmeans(as_point(images, name="phi(points)", batch=True), K, seed)
    return ClusteringResult(result.labels,
                            M.diffeo.inverse(result.centroids),
                            result.iterations, result.converged)


def _nearest(M, points, centroids):
    """Index of the iso-nearest centroid of each point; ties go to the lowest.

    Exact two-phase search: one batch of arc lengths to each point's
    chord-nearest centroid gives d0, and a second batch covers only the
    centroids whose chord is at most PRUNE_FACTOR * d0 (a non-finite d0
    prunes nothing).  Every other centroid is farther by the chord bound, so
    the labels equal the argmin of the full n x K iso-distance matrix
    whenever no pruned arc length is under-estimated by half or more.
    Per-line values do not depend on the batch, so the distances keep their
    bits.  On the datasets of configs/{river,spiral}_kmeans.ini the search
    integrates 54-57 % of the n * K lines at K = 2, 30 % at K = 4 and
    15-16 % at K = 8.  points and centroids are validated float arrays.
    """
    a = M.diffeo.forward(points)
    b = M.diffeo.forward(centroids)
    chord = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=-1)
    rows = np.arange(len(points))
    first = chord.argmin(axis=1)
    d0 = _arc_lengths(M, a, b[first] - a)
    dist = np.full(chord.shape, np.inf)
    dist[rows, first] = d0
    left = ~(chord > PRUNE_FACTOR * d0[:, None])
    left[rows, first] = False
    i, j = np.nonzero(left)
    if i.size:
        dist[i, j] = _arc_lengths(M, a[i], b[j] - a[i])
    return dist.argmin(axis=1)


def iso_kmeans(M, points, K, seed, cfg=None, movement_tol=CENTROID_MOVEMENT_TOL):
    """Lloyd's algorithm with iso-distances and iso-barycentre updates.

    Initialized from Riemannian K-means.  Stops when an assignment repeats,
    as euclidean_kmeans does, since the updates would rebuild the same
    centroids; once the root-sum-square centroid movement drops below
    movement_tol (> 0); or at the outer-iteration cap, as convergence of the
    scheme is an open question.  Empty clusters keep their centroids, stalled
    barycentre solves their best iterates (counted in ``stalls``); labels
    match the returned centroids.
    """
    if not movement_tol > 0.0:
        raise ValueError(f"movement_tol must be > 0, got {movement_tol}")
    points = _point_stack(points, M.dim)
    # riemannian_kmeans checks K and the seed.
    init = riemannian_kmeans(M, points, K, seed)
    return _iso_kmeans(M, points, init,
                       cfg or LineSearchConfig(tol=1e-6), movement_tol)


def _iso_kmeans(M, points, init, cfg, movement_tol=CENTROID_MOVEMENT_TOL):
    """iso_kmeans of the float points from their Riemannian K-means result init."""
    centroids = np.array(init.centroids, dtype=float)
    K = len(centroids)
    converged = False
    iterations = 0
    stalls = 0
    labels = np.full(len(points), -1)
    for iterations in range(1, ISO_KMEANS_MAX_OUTER + 1):
        new_labels = _nearest(M, points, centroids)
        if np.array_equal(new_labels, labels):
            return ClusteringResult(labels + 1, centroids, iterations, True, stalls)
        labels = new_labels
        new_centroids = centroids.copy()
        for j in range(K):
            members = points[labels == j]
            if len(members) == 0:
                continue
            new_centroids[j], trace = _solve(iso_barycentre, M, members, cfg)
            stalls += trace.stalled
        movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2)))
        centroids = new_centroids
        if movement < movement_tol:
            converged = True
            break
    labels = _nearest(M, points, centroids)
    return ClusteringResult(labels + 1, centroids, iterations, converged, stalls)


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
