"""Synthetic dataset generators: determinism, constraints, labels."""

import math

import numpy as np
import pytest

import isogeo as ig
from isogeo.quadrature import _count


def test_band_determinism(river_manifold):
    spec = ig.DatasetSpec(kind="river_band", n=50, seed=3, noise_sigma=0.2)
    a = ig.generate_dataset(spec, river_manifold)
    b = ig.generate_dataset(spec, river_manifold)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.labels is None


def test_band_noise_free_points_on_constraint(river_manifold):
    spec = ig.DatasetSpec(kind="river_band", n=40, seed=4, noise_sigma=0.0,
                          center=0.5)
    data = ig.generate_dataset(spec, river_manifold)
    phi = river_manifold.diffeo.forward(data.points)
    np.testing.assert_allclose(phi[:, 1], 0.5, atol=1e-12)


def test_band_single_point(river_manifold):
    spec = ig.DatasetSpec(kind="river_band", n=1, seed=5, noise_sigma=0.0)
    data = ig.generate_dataset(spec, river_manifold)
    assert data.points.shape == (1, 2)


def test_band_1d_geometry(sinh_manifold):
    spec = ig.DatasetSpec(kind="river_band", n=25, seed=6, noise_sigma=0.1,
                          t_min=-2.0, t_max=2.0)
    data = ig.generate_dataset(spec, sinh_manifold)
    assert data.points.shape == (25, 1)
    assert np.all(np.isfinite(data.points))


def test_spiral_band_defaults_respect_cut(spiral_manifold):
    spec = ig.DatasetSpec(kind="spiral_band", n=60, seed=7, noise_sigma=0.2,
                          t_min=2.0, t_max=7.0)
    data = ig.generate_dataset(spec, spiral_manifold)
    phi = spiral_manifold.diffeo.forward(data.points)
    assert np.all(phi[:, 0] > 0)
    assert np.all((phi[:, 1] > 0.5) & (phi[:, 1] < 2 * math.pi - 0.5))


def test_two_clusters_labels_and_split(river_manifold):
    spec = ig.DatasetSpec(kind="two_clusters", n=31, seed=8, noise_sigma=0.0,
                          t_min=-8.0, t_max=8.0, gap=6.0)
    data = ig.generate_dataset(spec, river_manifold)
    assert data.points.shape == (31, 2)
    assert np.array_equal(np.unique(data.labels), [1, 2])
    assert np.sum(data.labels == 1) == 15
    t = river_manifold.diffeo.forward(data.points)[:, 0]
    assert t[data.labels == 1].max() < t[data.labels == 2].min() - 5.9


def test_two_clusters_needs_room(river_manifold):
    with pytest.raises(ValueError):
        ig.generate_dataset(
            ig.DatasetSpec(kind="two_clusters", n=10, seed=0, t_min=0.0,
                           t_max=1.0, gap=4.0), river_manifold)


def test_grid_dataset(banana_manifold, sinh_manifold):
    spec = ig.DatasetSpec(kind="grid", n=5, box=((-1.0, 1.0), (0.0, 2.0)))
    data = ig.generate_dataset(spec, banana_manifold)
    assert data.points.shape == (25, 2)
    assert data.points[:, 0].min() == -1.0 and data.points[:, 1].max() == 2.0
    line = ig.generate_dataset(
        ig.DatasetSpec(kind="grid", n=7, box=((-2.0, 2.0),)), sinh_manifold)
    assert line.points.shape == (7, 1)


def test_grid_box_needs_an_axis_per_dimension():
    # The default box has two axes: a 3-D geometry must not get 2-D points.
    M = ig.PullbackManifold(ig.identity(3))
    with pytest.raises(ValueError, match="a grid spans 2 axes, the geometry has 3"):
        ig.generate_dataset(ig.DatasetSpec(kind="grid", n=3), M)
    box = ((-1.0, 1.0),) * 3
    assert ig.generate_dataset(ig.DatasetSpec(kind="grid", n=3, box=box),
                               M).points.shape == (27, 3)


def test_invalid_specs():
    with pytest.raises(ValueError):
        ig.DatasetSpec(kind="mystery", n=5)
    with pytest.raises(ValueError):
        ig.DatasetSpec(kind="river_band", n=0)
    with pytest.raises(ValueError):
        ig.DatasetSpec(kind="river_band", n=5, noise_sigma=-0.1)


def test_a_numpy_bool_is_no_count():
    for value in (True, np.True_, np.False_):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {value!r}$"):
            _count("n", value, 0)
        with pytest.raises(ValueError, match="^n must be an integer"):
            ig.DatasetSpec("river_band", n=value)


def test_dataset_counts_follow_the_integer_rule(river_manifold):
    spec = ig.DatasetSpec("river_band", n=3.0, seed=2.0)
    assert (spec.n, spec.seed) == (3, 2) and type(spec.n) is int and type(spec.seed) is int
    assert ig.generate_dataset(spec, river_manifold).points.shape == (3, 2)
    for kwargs in ({"n": 2.5}, {"n": True}, {"seed": 1.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            ig.DatasetSpec("river_band", **kwargs)
    for key in ("n", "seed"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value}$"):
                ig.DatasetSpec("river_band", **{key: value})
