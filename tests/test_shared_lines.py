"""Coupling batches whose lines share their (a_rest, w_rest) evaluate the
factors once per key and equal the per-line passes bit for bit."""

import numpy as np
import pytest

import isogeo as ig
from isogeo import clustering, isomaps
from isogeo.experiments import ratio_grid_rows
from isogeo.isomaps import SHARED_PASSES, _arc_lengths, _knot_lengths, _shared_keys
from isogeo.quadrature import unit_rule

from test_pass_split import (bits, knot_totals, lines_per_pass, per_line_pass, random_lines,
                             serial_table)
from test_ratio_grid import per_node_rows

NODES = len(unit_rule(ig.QuadratureConfig())[0])


def fused_river_speed(beta, eta):
    """River's speed kernel before the coupling hook, as it was written."""
    def speed(y, w):
        y2 = y[..., 1]
        dx = np.divide(w[..., 1], eta * np.sqrt(1.0 + y2 ** 2),
                       out=np.empty(np.broadcast(y, w).shape[:-1]))
        sq = np.square(dx)
        t = np.cos(np.arcsinh(y2) / eta)
        t *= beta
        dx *= t
        dx += w[..., 0]
        np.square(dx, out=dx)
        dx += sq
        return np.sqrt(dx, out=dx)
    return speed


def tanh_shear(hook=True):
    """(x1 - tanh x2, x2), a custom coupling, with or without its hook."""
    def forward(x):
        return np.stack([x[..., 0] - np.tanh(x[..., 1]), x[..., 1]], axis=-1)

    def inverse(y):
        return np.stack([y[..., 0] + np.tanh(y[..., 1]), y[..., 1]], axis=-1)

    def inv_jvp(y, w):
        g = (1.0 - np.tanh(y[..., 1]) ** 2) * w[..., 1]
        return np.stack([w[..., 0] + g, w[..., 1]], axis=-1)

    def factors(y_rest, w_rest):
        return (1.0 - np.tanh(y_rest[..., 0]) ** 2) * w_rest[..., 0], np.square(w_rest[..., 0])

    return ig.Diffeomorphism(2, forward, inverse, inv_jvp=inv_jvp,
                             coupling=factors if hook else None)


def shear_3d(hook=True):
    """A 3-D coupling that shears its first coordinate by tanh(x1 + x2).

    Its factors unpack exactly two rest coordinates.  Without the hook, the
    same map has the same operations as a speed set on the instance.
    """
    def shear(x, sign):
        return np.stack([x[..., 0] + sign * np.tanh(x[..., 1] + x[..., 2]), x[..., 1],
                         x[..., 2]], axis=-1)

    def factors(y_rest, w_rest):
        (y1, y2), (w1, w2) = np.moveaxis(y_rest, -1, 0), np.moveaxis(w_rest, -1, 0)
        slope = 1.0 - np.tanh(y1 + y2) ** 2
        return slope * (w1 + w2), np.square(w1) + np.square(w2)

    def inv_jvp(y, w):
        g = factors(y[..., 1:], w[..., 1:])[0]
        return np.stack([w[..., 0] + g, w[..., 1], w[..., 2]], axis=-1)

    def speed(y, w):
        g, s = factors(y[..., 1:], w[..., 1:])
        return np.sqrt(np.square(g + w[..., 0]) + s)

    diffeo = ig.Diffeomorphism(3, lambda x: shear(x, -1.0), lambda y: shear(y, 1.0),
                               inv_jvp=inv_jvp, coupling=factors if hook else None)
    if not hook:
        diffeo.speed = speed
    return diffeo


def signed_map():
    """A coupling whose factors read the sign of a zero w_rest."""
    def factors(y_rest, w_rest):
        return np.copysign(0.5, w_rest[..., 0]) + y_rest[..., 0], np.square(w_rest[..., 0])

    return ig.Diffeomorphism(2, lambda x: x, lambda y: y, coupling=factors)


def shared_lines(M, n, group, seed=0):
    """n lines whose (a_rest, w_rest) repeat in groups of ``group``, shuffled."""
    rng = np.random.default_rng(seed)
    a, w = rng.uniform(-4.0, 4.0, (2, n, M.dim))
    keys = rng.permutation(np.arange(n) // group)
    a[:, 1:], w[:, 1:] = a[keys, 1:], w[keys, 1:]
    return a, w


def count_factor_points(monkeypatch, M):
    """The points of each call of M's coupling factors, as a list."""
    factors = M.diffeo.coupling
    points = []

    def counted(y_rest, w_rest):
        points.append(np.broadcast(y_rest, w_rest).size // y_rest.shape[-1])
        return factors(y_rest, w_rest)

    monkeypatch.setattr(M.diffeo, "coupling", counted)
    return points


def test_river_speed_is_the_fused_kernel():
    rng = np.random.default_rng(280)
    for beta, eta in ((5.0, 0.25), (0.3, 2.0)):
        river, fused = ig.river(beta, eta), fused_river_speed(beta, eta)
        y, w = rng.standard_normal((2, 40, 17, 2)) * [3.0, 30.0]
        for args in ((y, w), (y, w[0, 0]), (y[0, 0], w), (y[0, 0], w[0, 0])):
            assert bits(np.asarray(river.speed(*args))) == bits(fused(*args))


def test_river_factors_are_its_inv_jvp_at_zero_w1():
    # inv_jvp and the coupling factors run one kernel: at w1 = -0.0, the
    # additive identity, inv_jvp is (g, dx2) and s = dx2^2, bit for bit,
    # signed zeros of y and w2 included.
    rng = np.random.default_rng(281)
    for beta, eta in ((5.0, 0.25), (0.3, 2.0)):
        river = ig.river(beta, eta)
        factors = river.coupling
        y, w = rng.standard_normal((2, 40, 17, 2)) * [3.0, 30.0]
        y[rng.uniform(size=y.shape) < 0.1] = -0.0
        w[..., 1][rng.uniform(size=w.shape[:-1]) < 0.1] = -0.0
        w[..., 0] = -0.0
        for args in ((y, w), (y, w[0, 0]), (y[0, 0], w), (y[0, 0], w[0, 0])):
            g, s = factors(args[0][..., 1:], args[1][..., 1:])
            want = river.inv_jvp(*args)
            assert bits(np.asarray(g)) == bits(want[..., 0])
            assert bits(np.asarray(s)) == bits(np.square(want[..., 1]))


def test_river_never_falls_back_to_its_speed(monkeypatch):
    # Every rule path reads river's coupling factors, never Diffeomorphism.speed,
    # whose (..., d) inv_jvp temporary makes the slower default path.
    river = ig.river()
    M = ig.PullbackManifold(river)
    calls, speed = [], river.speed
    monkeypatch.setattr(river, "speed", lambda y, w: calls.append(y.shape) or speed(y, w))
    rng = np.random.default_rng(292)
    x, y = rng.uniform(-4.0, 4.0, (2, 300, 2))
    nodes = np.stack(np.meshgrid(np.linspace(-4.0, 4.0, 8), np.linspace(-3.0, 3.0, 8)),
                     axis=-1).reshape(-1, 2)
    # Per-line passes, and a grid field whose 384 lines share 48 keys.
    assert (ig.iso_distance(M, x, y) > 0.0).all()
    assert (ig.iso_distance(M, nodes[:, None], y[None, :6]) > 0.0).all()
    ig.timechange(M, x[0], y[0], np.linspace(0.0, 1.0, 9))
    ig.iso_geodesic(M, x[1], y[1], np.linspace(0.0, 1.0, 9))
    ig.iso_exp(M, ig.TangentVector(x[2], y[2] - x[2]))
    clustering._nearest(M, x[:40], y[:3])
    assert calls == []


@pytest.mark.parametrize("passes", [SHARED_PASSES - 1, SHARED_PASSES, SHARED_PASSES + 1])
def test_river_tables_either_side_of_the_gate(passes, monkeypatch):
    # A batch of `passes` whole-point passes, the last one full or of one line
    # (at SHARED_PASSES, 192 and 169 lines at d = 2; the shared passes of 193
    # lines end in one line).
    M = ig.PullbackManifold(ig.river())
    step = lines_per_pass(M)
    points = count_factor_points(monkeypatch, M)
    for n in (passes * step, (passes - 1) * step + 1):
        a, w = shared_lines(M, n, group=6)
        want = serial_table(M, a, w)
        points.clear()
        lengths = _arc_lengths(M, a, w)
        assert bits(lengths) == bits(want[:, -1]), n
        # Below the gate every line evaluates the factors; from it on, each
        # key once, and a key that straddles two passes once in each.
        shared = passes >= SHARED_PASSES
        assert sum(points) < n * NODES / 4 if shared else sum(points) == n * NODES, n
        assert bits(lengths) == bits(knot_totals(M, a, w)), n


@pytest.mark.parametrize("group", [2, 7, 47, 49, 200])
def test_groups_across_pass_boundaries(group, monkeypatch):
    M = ig.PullbackManifold(ig.river())
    n = 20 * lines_per_pass(M) + 5
    a, w = shared_lines(M, n, group, seed=group)
    assert bits(_arc_lengths(M, a, w)) == bits(serial_table(M, a, w)[:, -1])
    # More keys than half the lines: the per-line passes.
    a, w = shared_lines(M, n, 1, seed=group)
    a[1::3, 1:], w[1::3, 1:] = a[::3, 1:], w[::3, 1:]
    want = serial_table(M, a, w)
    points = count_factor_points(monkeypatch, M)
    assert bits(_arc_lengths(M, a, w)) == bits(want[:, -1]) and sum(points) == n * NODES


def test_signed_zeros_are_different_keys():
    M = ig.PullbackManifold(signed_map())
    n = 2 * SHARED_PASSES * lines_per_pass(M)
    a, w = shared_lines(M, n, group=n)
    # Speed |1 + 0.5| on a line with w2 = +0.0, |1 - 0.5| on one with -0.0.
    a[:, 1], w[:, 0], w[:, 1] = 0.0, 1.0, np.where(np.arange(n) % 2, 0.0, -0.0)
    order, key, heads = _shared_keys(a[:, 1:], w[:, 1:])
    assert len(heads) == 2 and np.array_equal(np.signbit(w[order, 1]), key == 0)
    lengths = _arc_lengths(M, a, w)
    assert bits(lengths) == bits(serial_table(M, a, w)[:, -1])
    assert bits(lengths) == bits(knot_totals(M, a, w))
    assert lengths[0] == 0.5 and lengths[1] == 1.5


@pytest.mark.parametrize("group", [1, 8])
def test_a_custom_coupling_with_and_without_its_hook(group, monkeypatch):
    hooked, plain = ig.PullbackManifold(tanh_shear()), ig.PullbackManifold(tanh_shear(False))
    points = count_factor_points(monkeypatch, hooked)
    for passes in (SHARED_PASSES - 1, SHARED_PASSES, 3 * SHARED_PASSES):
        a, w = shared_lines(hooked, passes * lines_per_pass(hooked), group, seed=passes)
        assert bits(_arc_lengths(hooked, a, w)) == bits(_arc_lengths(plain, a, w))
        assert bits(_knot_lengths(hooked, a[0], w[0])) == bits(_knot_lengths(plain, a[0], w[0]))
    assert points


def test_a_3d_coupling_on_shared_keys():
    M = ig.PullbackManifold(shear_3d())
    a, w = shared_lines(M, 12 * lines_per_pass(M) + 3, group=9)
    lengths = _arc_lengths(M, a, w)
    assert bits(lengths) == bits(serial_table(M, a, w)[:, -1])
    # The norm of inv_jvp sums the three squares in another order.
    d = M.diffeo
    plain = ig.PullbackManifold(ig.Diffeomorphism(3, d.forward, d.inverse, inv_jvp=d.inv_jvp))
    np.testing.assert_allclose(lengths, _arc_lengths(plain, a, w), rtol=1e-14, atol=0.0)


def test_ratio_grid_rows_split_and_retry_on_shared_tables(monkeypatch):
    M = ig.PullbackManifold(ig.river())
    rng = np.random.default_rng(281)
    pts = rng.uniform(-4.0, 4.0, (6, 2))
    xbar = ig.closed_form_barycentre(M, pts)
    box = ((-6.0, 6.0), (-4.0, 4.0))
    grid = ig.generate_dataset(ig.DatasetSpec("grid", n=8, box=box), M).points
    grid[37] = np.nan   # the whole grid fails, then its half, then its quarter
    want = per_node_rows(M, pts, xbar, grid)
    grouped, keys = [], _shared_keys

    def counted(a_rest, w_rest):
        found = keys(a_rest, w_rest)
        grouped.append((len(found[2]), len(a_rest)))
        return found

    monkeypatch.setattr(isomaps, "_shared_keys", counted)
    rows = ratio_grid_rows(M, pts, xbar, grid)
    assert np.array_equal(rows, np.array(want), equal_nan=True)
    assert np.isnan(rows[37, 2:]).all() and np.isfinite(np.delete(rows, 37, axis=0)).all()
    # The field table of the good half, 32 nodes x 6 points in 8 passes, has
    # 8 x2-values x 6 points as keys.
    assert grouped == [(48, 192)]


def old_river_factors(beta, eta):
    """River's factors before they worked in two buffers, as they were written."""
    def factors(y_rest, w_rest):
        y2 = y_rest[..., 0]
        dx = np.divide(w_rest[..., 0], eta * np.sqrt(1.0 + y2 ** 2),
                       out=np.empty(np.broadcast(y_rest, w_rest).shape[:-1]))
        s = np.square(dx)
        t = np.cos(np.arcsinh(y2) / eta)
        t *= beta
        dx *= t
        return dx, s
    return factors


def test_river_factors_are_the_old_expression():
    rng = np.random.default_rng(290)
    for beta, eta in ((5.0, 0.25), (0.3, 2.0)):
        new, old = ig.river(beta, eta).coupling, old_river_factors(beta, eta)
        y, w = rng.standard_normal((2, 3000, 1)) * [[[3.0]], [[30.0]]]
        pairs = [(y[k], w[k]) for k in range(300)]   # one point: 0-d factors
        pairs += [(y, w), (y, w[0]), (y.reshape(60, 50, 1), w[:60, None]),
                  (y[0], w.reshape(60, 50, 1))]
        for pair in pairs:
            assert [bits(np.asarray(f)) for f in new(*pair)] == \
                [bits(np.asarray(f)) for f in old(*pair)]


STEP_3D = per_line_pass(ig.PullbackManifold(shear_3d()))


@pytest.mark.parametrize("lines", sorted({1, 29, 30, 31, 60, 121, 20 * SHARED_PASSES, STEP_3D - 1,
                                          STEP_3D, STEP_3D + 1, 2 * STEP_3D + 1}))
def test_the_coupled_path_reads_only_the_rest_coordinates(lines, monkeypatch):
    hooked = ig.PullbackManifold(shear_3d())
    plain = ig.PullbackManifold(shear_3d(hook=False))
    a, w = random_lines(hooked, lines, seed=lines)
    passes, speeds = [], isomaps._speeds
    monkeypatch.setattr(isomaps, "_speeds",
                        lambda M, a, w, ts: passes.append(len(a)) or speeds(M, a, w, ts))
    lengths = _arc_lengths(hooked, a, w)
    # Per-line passes, as many lines as the live heap of a coupling pass allows.
    assert passes == [STEP_3D] * (lines // STEP_3D) + [lines % STEP_3D] * (lines % STEP_3D > 0)
    assert bits(lengths) == bits(_arc_lengths(plain, a, w))


def test_coupled_timechange_and_vectorchange_equal_a_plain_speed():
    hooked = ig.PullbackManifold(shear_3d())
    plain = ig.PullbackManifold(shear_3d(hook=False))
    rng = np.random.default_rng(291)
    t = np.linspace(0.0, 1.0, 9)
    for _ in range(6):
        x, y, v = rng.uniform(-2.0, 2.0, (3, 3))
        assert bits(ig.timechange(hooked, x, y, t)) == bits(ig.timechange(plain, x, y, t))
        xi = ig.TangentVector(x, v)
        assert ig.vectorchange(hooked, xi) == ig.vectorchange(plain, xi)
