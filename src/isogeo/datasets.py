"""Seeded synthetic dataset generators for the experiment runner.

Band datasets sample an interval of the first phi-coordinate, hold the
remaining coordinate at a fixed center, add Gaussian noise in
phi-coordinates, and map through phi^-1.  Two-cluster variants place two
such bands on separated parameter ranges and carry ground-truth labels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _count

DATASET_KINDS = ("river_band", "spiral_band", "two_clusters", "grid")

# Safe default for the spiral angle coordinate: well clear of the 0/2pi cut.
_SPIRAL_CENTER = math.pi


@dataclass
class DatasetSpec:
    """Generator name plus the seed and shape of the sample.

    For band kinds, (t_min, t_max) bounds the first phi-coordinate and
    ``center`` fixes the second (defaults: 0 for river bands, pi for spiral
    bands).  ``gap`` separates the two parameter ranges of two_clusters.
    ``box`` bounds grid datasets, with n points per axis.
    """

    kind: str
    n: int = 100
    seed: int = 0
    noise_sigma: float = 0.0
    t_min: float = -5.0
    t_max: float = 5.0
    center: float = None
    gap: float = 4.0
    box: tuple = ((-8.0, 8.0), (-8.0, 8.0))

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(
                f"unknown dataset kind {self.kind!r}; known: {DATASET_KINDS}")
        for key in ("noise_sigma", "t_min", "t_max", "center", "gap"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        self.n = _count("n", self.n, 1)
        self.seed = _count("seed", self.seed, 0)
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.kind == "two_clusters" and self.t_max - self.t_min - self.gap <= 0:
            raise ValueError("two_clusters needs t_max - t_min > gap")


@dataclass
class Dataset:
    points: np.ndarray
    labels: np.ndarray = None


def _band(M, rng, n, t_min, t_max, center, sigma):
    t = rng.uniform(t_min, t_max, size=n)
    if M.dim == 1:
        coords = t[:, None]
    else:
        coords = np.zeros((n, M.dim))
        coords[:, 0] = t
        coords[:, 1] = center
    coords += sigma * rng.standard_normal(coords.shape) if sigma > 0 else 0.0
    return M.diffeo.inverse(coords)


def _default_center(spec, M):
    if spec.center is not None:
        return spec.center
    if spec.kind == "spiral_band" or M.diffeo.name == "spiral":
        return _SPIRAL_CENTER
    return 0.0


def generate_dataset(spec, M):
    """Deterministic sample of points (and labels, for two_clusters) on M."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind in ("river_band", "spiral_band"):
        pts = _band(M, rng, spec.n, spec.t_min, spec.t_max,
                    _default_center(spec, M), spec.noise_sigma)
        return Dataset(pts)
    if spec.kind == "two_clusters":
        half = (spec.t_max - spec.t_min - spec.gap) / 2.0
        center = _default_center(spec, M)
        n1 = spec.n // 2
        band1 = _band(M, rng, n1, spec.t_min, spec.t_min + half,
                      center, spec.noise_sigma)
        band2 = _band(M, rng, spec.n - n1, spec.t_max - half, spec.t_max,
                      center, spec.noise_sigma)
        labels = np.concatenate([np.ones(n1, dtype=int),
                                 np.full(spec.n - n1, 2, dtype=int)])
        return Dataset(np.concatenate([band1, band2]), labels)
    # kind == "grid"; extra box axes beyond M.dim are ignored
    if len(spec.box) < M.dim:
        raise ValueError(f"a grid spans {len(spec.box)} axes, "
                         f"the geometry has {M.dim} dimensions")
    axes = [np.linspace(lo, hi, spec.n) for lo, hi in spec.box[:M.dim]]
    mesh = np.meshgrid(*axes, indexing="ij")
    return Dataset(np.stack([m.ravel() for m in mesh], axis=-1))
