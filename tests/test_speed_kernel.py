"""The component-major speed kernel equals the point-major formula bit for bit."""

import numpy as np
import pytest

import isogeo as ig
from isogeo.isomaps import PASS_BYTES, _arc_table, _speeds
from isogeo.quadrature import panel_integrals, unit_rule

from conftest import make_manifold, sample_point

# More lines than one _arc_table pass takes at any d (d = 1 passes take the most).
BATCH = PASS_BYTES // (8 * len(unit_rule(ig.QuadratureConfig())[0])) + 7


def aos_speeds(M, a, w, ts):
    """The point-major formula: (..., n, d) points, norms over the last axis."""
    p = a[..., None, :] + ts[:, None] * w[..., None, :]
    return np.linalg.norm(M.diffeo.inv_jvp(p, np.broadcast_to(w[..., None, :], p.shape)),
                          axis=-1)


def aos_arc_table(M, a, w):
    ts, weights, _ = unit_rule(M.quad)
    per_panel = panel_integrals(aos_speeds(M, a, w, ts) * weights,
                                M.quad.panels, M.quad.nodes_per_panel)
    return np.concatenate([np.zeros((len(w), 1)), np.cumsum(per_panel, axis=-1)], axis=-1)


def stencil_times(rng):
    # The shape _invert passes: Gauss nodes of a few sub-panels, flattened.
    nodes = np.polynomial.legendre.leggauss(4)[0]
    lo = np.sort(rng.uniform(0.0, 1.0, 3))
    half = 0.5 * rng.uniform(0.0, 1.0 - lo)
    return ((lo + half)[:, None] + half[:, None] * nodes).ravel()


def assert_kernel_matches(M, a, w, rng):
    ts = unit_rule(M.quad)[0]
    got = _speeds(M, a, w, ts)
    assert got.shape == (len(a), len(ts))
    assert np.array_equal(got, aos_speeds(M, a, w, ts))
    assert np.array_equal(_arc_table(M, a, w), aos_arc_table(M, a, w))
    for i in (0, len(a) - 1):
        for times in (stencil_times(rng), ts):
            one = _speeds(M, a[i], w[i], times)
            assert one.shape == times.shape
            assert np.array_equal(one, aos_speeds(M, a[i], w[i], times))


def phi_lines(name, M, rng):
    x = np.array([sample_point(name, M, rng) for _ in range(BATCH)])
    y = np.array([sample_point(name, M, rng) for _ in range(BATCH)])
    a = M.diffeo.forward(x)
    return a, M.diffeo.forward(y) - a


def test_builtin_geometries(any_manifold):
    name, M = any_manifold
    rng = np.random.default_rng(70)
    assert_kernel_matches(M, *phi_lines(name, M, rng), rng)


@pytest.mark.parametrize("dim", range(1, 13))
def test_identity_in_every_dimension_up_to_12(dim):
    rng = np.random.default_rng(71 + dim)
    M = ig.PullbackManifold(ig.identity(dim))
    a, w = rng.standard_normal((2, BATCH, dim))
    assert_kernel_matches(M, a, w, rng)


@pytest.mark.parametrize("dim", [2, 5, 7, 8, 9])
def test_linear_map_with_mixing_components(dim):
    # inv_jvp mixes every coordinate into every component, unlike the identity.
    rng = np.random.default_rng(90 + dim)
    B = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
    B_inv = np.linalg.inv(B)
    diffeo = ig.Diffeomorphism(dim, lambda x: x @ B_inv.T, lambda y: y @ B.T,
                               jvp=lambda x, v: v @ B_inv.T,
                               inv_jvp=lambda y, w: w @ B.T)
    M = ig.PullbackManifold(diffeo)
    a, w = rng.standard_normal((2, BATCH, dim))
    assert_kernel_matches(M, a, w, rng)


def test_finite_difference_fallback_reads_the_transposed_view():
    river = ig.river()
    M = ig.PullbackManifold(ig.Diffeomorphism(2, river.forward, river.inverse))
    rng = np.random.default_rng(100)
    a, w = phi_lines("river", make_manifold("river"), rng)
    assert_kernel_matches(M, a, w, rng)
