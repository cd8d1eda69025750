"""The batched ratio grid equals the one-node ratio calls bit for bit."""

import numpy as np
import pytest

import isogeo as ig
from isogeo.errors import DegenerateCurveError, DomainError
from isogeo.experiments import _batch_ratio_rows, ratio_grid_rows

from conftest import SPIRAL_PHI_HI, SPIRAL_PHI_LO, sample_point


def per_node_rows(M, points, xbar, grid):
    """The ratio grid as one-node calls: the oracle of the batched grid."""
    rows = []
    for node in grid:
        try:
            field = ig.barycentre_ratio_field(M, node, points)
            mono = ig.iso_monotonicity_ratio(M, node, xbar, field)
            lips = ig.iso_lipschitz_ratio(M, node, xbar, field)
        except (ValueError, DomainError, DegenerateCurveError):
            mono = lips = float("nan")
        rows.append([*node, mono, lips])
    return rows


def _samples(name, M, rng, n):
    if name == "spiral":
        return M.diffeo.inverse(rng.uniform(SPIRAL_PHI_LO, SPIRAL_PHI_HI, (n, 2)))
    if name == "sinh":
        return rng.uniform(-3.0, 3.0, (n, 1))
    return rng.uniform(-4.0, 4.0, (n, 2))


def _pow_nodes(name, M, rng, xbar, count=3):
    """Nodes whose distance from xbar squares differently under libm pow.

    A Python float's ``** 2`` calls pow, numpy's array ``** 2`` multiplies;
    the two differ by an ulp on about one value in a thousand, so a grid
    computing the ratio denominators as an array fails on these nodes.
    """
    candidates = _samples(name, M, rng, 8000)
    dists = ig.iso_distance(M, xbar, candidates).tolist()
    picked = [i for i, d in enumerate(dists) if d ** 2 != d * d][:count]
    assert len(picked) == count, "no pow-sensitive distance among the candidates"
    return candidates[picked]


def _assert_rows_equal(got, want):
    assert np.array_equal(np.array(got), np.array(want), equal_nan=True)


def test_ratio_grid_equals_per_node_calls(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(50)
    pts = _samples(name, M, rng, 7)
    xbar = ig.closed_form_barycentre(M, pts)
    grid = np.concatenate([_samples(name, M, rng, 9), [xbar, pts[3]],
                           _pow_nodes(name, M, rng, xbar)])
    want = per_node_rows(M, pts, xbar, grid)
    assert np.isnan(want[9][-2:]).all()
    assert np.isfinite(np.delete(np.array(want), 9, axis=0)).all()
    _assert_rows_equal(_batch_ratio_rows(M, pts, xbar, grid), want)
    _assert_rows_equal(ratio_grid_rows(M, pts, xbar, grid), want)


def test_ratio_grid_through_spiral_origin_is_nan_in_that_row_only(spiral_manifold):
    M = spiral_manifold
    rng = np.random.default_rng(51)
    pts = _samples("spiral", M, rng, 5)
    xbar = ig.closed_form_barycentre(M, pts)
    origin = [[0.0, 0.0]]
    grid = np.concatenate([origin, _samples("spiral", M, rng, 4), origin,
                           _samples("spiral", M, rng, 3), origin])
    with pytest.raises(DomainError):
        _batch_ratio_rows(M, pts, xbar, grid)
    rows = ratio_grid_rows(M, pts, xbar, grid)
    _assert_rows_equal(rows, per_node_rows(M, pts, xbar, grid))
    ratios = np.array(rows)[:, 2:]
    failing = [0, 5, 9]
    assert np.isnan(ratios[failing]).all()
    assert np.isfinite(np.delete(ratios, failing, axis=0)).all()


def test_ratio_grid_without_points_is_all_nan(river_manifold):
    rng = np.random.default_rng(52)
    grid = _samples("river", river_manifold, rng, 3)
    rows = ratio_grid_rows(river_manifold, [], sample_point("river", river_manifold, rng), grid)
    assert np.isnan(np.array(rows)[:, 2:]).all()
