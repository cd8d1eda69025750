"""Exact arc lengths: the ``arc_length`` hook of 1-D maps, spiral and banana.

Every 1-D diffeomorphism is monotone, so its iso maps are Euclidean: the
iso-distance is |x - y|, the iso-geodesic (1 - t) x + t y and the
iso-exponential x + v.  Spiral and banana integrate their speed in closed
form; against a fine self-rule they are never worse than the 64x4 rule.
No iso map on these three maps reaches that rule.
"""

import numpy as np
import pytest

import isogeo as ig
from isogeo import isomaps
from isogeo.diffeos import _line_length
from isogeo.errors import DomainError
from isogeo.isomaps import _arc_lengths, _arc_table, _speeds
from isogeo.quadrature import composite_nodes

from conftest import make_manifold, sample_point

EPS = np.finfo(float).eps


def sinh_rounding_scale(x, y):
    """The rounding scale of sinh_shift_1d's iso maps between x and y.

    phi-coordinates of size |a| + |b| carry an absolute rounding error of
    about eps (|a| + |b|); the inverse map scales it by 1 / sqrt(1 + p^2)
    at the phi-point p, largest where the phi-line comes closest to 0.
    """
    a, b = np.sinh(x + 1.0), np.sinh(y + 1.0)
    nearest = np.where(a * b <= 0.0, 0.0, np.minimum(np.abs(a), np.abs(b)))
    return 1.0 + np.abs(x) + np.abs(y) + (np.abs(a) + np.abs(b)) / np.sqrt(1.0 + nearest ** 2)


def test_sinh_iso_distance_is_the_coordinate_gap(sinh_manifold):
    # The 64x4 rule was off by up to 74 % on these pairs.
    rng = np.random.default_rng(130)
    x, y = rng.uniform(-8.0, 8.0, (2, 20000))
    got = ig.iso_distance(sinh_manifold, x[:, None], y[:, None])
    assert (np.abs(got - np.abs(x - y)) <= 4.0 * EPS * sinh_rounding_scale(x, y)).all()
    assert ig.iso_distance(sinh_manifold, [-8.0], [8.0]) == pytest.approx(16.0, rel=1e-15)


def test_sinh_iso_geodesic_and_iso_exp_are_linear(sinh_manifold):
    rng = np.random.default_rng(131)
    for _ in range(300):
        x, y = rng.uniform(-8.0, 8.0, (2, 1))
        bound = 4.0 * EPS * sinh_rounding_scale(x[0], y[0])
        t = rng.uniform(0.0, 1.0, 5)
        got = ig.iso_geodesic(sinh_manifold, x, y, t)[:, 0]
        assert (np.abs(got - ((1.0 - t) * x[0] + t * y[0])) <= bound).all()
        back = ig.iso_exp(sinh_manifold, ig.TangentVector(x, y - x))
        assert abs(back[0] - y[0]) <= bound


def test_default_arc_length_is_for_one_dimension_only():
    sinh = ig.sinh_shift_1d()
    custom = ig.Diffeomorphism(1, sinh.forward, sinh.inverse)
    y, w = np.array([[-3.0], [0.5]]), np.array([[40.0], [-2.0]])
    want = np.abs(sinh.inverse(y + w) - sinh.inverse(y))[:, 0]
    assert np.array_equal(custom.arc_length(y, w), want)
    assert ig.Diffeomorphism(2, sinh.forward, sinh.inverse).arc_length is None
    assert ig.river().arc_length is None and ig.identity(2).arc_length is None


@pytest.mark.parametrize("name", ["spiral", "banana", "sinh"])
def test_arc_length_broadcasts_and_is_zero_on_a_point(name):
    M = make_manifold(name)
    rng = np.random.default_rng(132)
    a = M.diffeo.forward(np.array([sample_point(name, M, rng) for _ in range(5)]))
    b = M.diffeo.forward(np.array([sample_point(name, M, rng) for _ in range(5)]))
    w = b - a
    hook = M.diffeo.arc_length
    assert hook(a[0], w[0]).shape == ()
    assert hook(a, w).shape == (5,)
    assert np.array_equal(hook(a[0], b - a[0]), [hook(a[0], v) for v in b - a[0]])
    assert np.array_equal(hook(a, np.zeros_like(w)), np.zeros(5))
    assert np.array_equal(_arc_lengths(M, a, w), hook(a, w))


def test_lines_without_the_hook_keep_the_rule(river_manifold):
    rng = np.random.default_rng(133)
    a = river_manifold.diffeo.forward(rng.uniform(-4.0, 4.0, (7, 2)))
    w = rng.standard_normal((7, 2))
    assert np.array_equal(_arc_lengths(river_manifold, a, w),
                          _arc_table(river_manifold, a, w)[:, -1])


def test_line_length_where_the_speed_nearly_vanishes():
    # With c = 0 the integral of |u0 + q t| is (u0^2 + u1^2) / (2 |q|) on a
    # line where u changes sign, and c below 1e-12 |u| changes it by less
    # than 1e-20 relative.  Reflected, such a line can end at u1 < 0 with
    # u1 + S1 rounding to 0, where a log1p over u0 + S0 gives inf.
    rng = np.random.default_rng(136)
    u0 = rng.uniform(-1.0, 1.0, 2000) * 10.0 ** rng.uniform(-6.0, 3.0, 2000)
    u1 = -np.sign(u0) * np.abs(u0) * rng.uniform(0.01, 100.0, 2000)
    q = u1 - u0
    want = (u0 * u0 + u1 * u1) / (2.0 * np.abs(q))
    for c in (0.0, 1e-12 * np.minimum(np.abs(u0), np.abs(u1))):
        got = _line_length(u0, q, c)
        np.testing.assert_allclose(got, want, rtol=4.0 * EPS, atol=0.0)
    assert _line_length(40.46308663533944, -48.803965311463244,
                        3.2114477742477923e-12) == pytest.approx(17.486608170626408, rel=1e-15)


def reference_speeds(M, a, w, ts):
    """The speeds of the (L, d) phi-lines a + t w at the times ts, (L, n).

    The spiral's inv_jvp rotates beta (w_r, r (w_r + w_theta)) by the angle
    r + theta, so its norm is beta sqrt(w_r^2 + (r (w_r + w_theta))^2), free
    of the rounding of cos and sin; the other maps take their own speed.
    """
    if M.diffeo.name != "spiral":
        return _speeds(M, a, w, ts)
    wr = w[:, :1]
    r = wr * ts + a[:, :1]
    return M.diffeo.params["beta"] * np.sqrt(np.square(r * (wr + w[:, 1:])) + np.square(wr))


def self_rule(M, a, w):
    """512x8 Gauss-Legendre lengths, summed in extended precision."""
    ts, weights, _ = composite_nodes(0.0, 1.0, 512, 8)
    out = np.empty(len(a))
    for start in range(0, len(a), 250):
        part = slice(start, start + 250)
        speeds = reference_speeds(M, a[part], w[part], ts).astype(np.longdouble)
        out[part] = (speeds * weights.astype(np.longdouble)).sum(axis=-1)
    return out


def random_lines(rng, n, phi_lo, phi_hi):
    """n phi-lines from a box, in random directions, 1e-12 to 1e3 long."""
    a = rng.uniform(phi_lo, phi_hi, (n, 2))
    direction = rng.standard_normal((n, 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return a, direction * 10.0 ** rng.uniform(-12.0, 3.0, (n, 1))


def assert_never_worse_than_the_rule(M, a, w):
    ref = self_rule(M, a, w)
    err_exact = np.abs(M.diffeo.arc_length(a, w) - ref) / ref
    err_rule = np.abs(_arc_table(M, a, w)[:, -1] - ref) / ref
    # 4 eps covers the rounding of the reference and of the closed form.
    assert (err_exact <= err_rule + 4.0 * EPS).all()
    assert err_exact.max() <= 4.0 * EPS


def test_spiral_closed_form_against_a_fine_rule():
    M = make_manifold("spiral")
    rng = np.random.default_rng(134)
    a, w = random_lines(rng, 6000, [0.5, 0.0], [30.0, 2.0 * np.pi])
    inside = a[:, 0] + w[:, 0] > 0.0
    a, w, outside = a[inside], w[inside], (a[~inside], w[~inside])
    assert len(a) >= 5000 and len(outside[0]) >= 100
    n = len(a) // 8
    w[:n, 1] = -w[:n, 0]            # radial only: r (w_r + w_theta) = 0
    w[n:2 * n, 0] = 0.0             # w_r = 0: constant r
    assert_never_worse_than_the_rule(M, a, w)
    # A line that ends, or starts, at r <= 0 leaves the domain, as the speed does.
    for p, v in zip(*outside):
        with pytest.raises(DomainError):
            M.diffeo.arc_length(p, v)
        with pytest.raises(DomainError):
            M.diffeo.arc_length(p + v, -v)
    with pytest.raises(DomainError):
        M.diffeo.arc_length(np.array([2.0, 1.0]), np.array([-2.0, 0.5]))
    with pytest.raises(DomainError):
        M.diffeo.arc_length(np.concatenate([a[:3], outside[0][:1]]),
                            np.concatenate([w[:3], outside[1][:1]]))


def test_banana_closed_form_against_a_fine_rule():
    M = make_manifold("banana")
    rng = np.random.default_rng(135)
    a, w = random_lines(rng, 5000, [-10.0, -10.0], [10.0, 10.0])
    w[:len(a) // 8, 1] = 0.0        # w2 = 0: constant speed |w1|
    assert_never_worse_than_the_rule(M, a, w)


def test_an_overflowing_closed_form_is_not_read_as_zero():
    # Both phi-images are finite, but u0 = -inf and q = +inf leave u1 NaN: a
    # length of 0 there would fall below the chord, a bound _nearest prunes by.
    x = np.array([7.94627791e152, 9.50898036e153])
    y = np.array([-3.69282820e152, 1.87267499e153])
    with np.errstate(over="ignore", invalid="ignore"):
        d = ig.iso_distance(make_manifold("spiral"), x, y)
    assert not (d < np.linalg.norm(x - y))


SUBNORMAL_LINE = np.zeros(2), np.array([0.0, 2.2250738585e-313])


def test_a_subnormal_line_warns_of_no_overflow():
    # On a banana line of length 2.2e-313, 1 / (u0 + S0) overflows to inf in
    # a branch np.where discards: no RuntimeWarning, and the length is
    # finite, positive and symmetric.
    M = make_manifold("banana")
    x, y = SUBNORMAL_LINE
    d = ig.iso_distance(M, x, y)
    assert d == ig.iso_distance(M, y, x) and np.isfinite(d) and d > 0.0


def test_a_subnormal_line_has_its_length():
    x, y = SUBNORMAL_LINE
    assert ig.iso_distance(make_manifold("banana"), x, y) == pytest.approx(y[1], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("c", [1e-160, 1e-200, 2.2250738585e-313, 1e-320, 5e-324])
def test_a_tiny_vertical_banana_line_is_exactly_its_length(c):
    # The line's phi-direction is (0, c): its speed is c all along.
    assert ig.iso_distance(make_manifold("banana"), np.zeros(2), np.array([0.0, c])) == c


def unscaled_line_length(u0, q, c):
    """``_line_length`` without its rescaling of short lines: the formula it kept."""
    u1 = u0 + q
    s0 = np.hypot(u0, c)
    s = s0 + np.hypot(u1, c)
    u = u0 + u1
    sign = np.copysign(1.0, u)
    u0, u1, q, u = sign * u0, sign * u1, sign * q, np.abs(u)
    c2 = c * c
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (1.0 + u / s) / (u0 + s0)
        b = np.where(q != 0.0, np.log1p(q * x) / q, x)
        crossing = u0 * u1 < 0.0
        b = np.where(crossing, (np.arcsinh(u1 / c) - np.arcsinh(u0 / c)) / q, b)
        length = 0.5 * (0.5 * s + 0.5 * u * u / s + np.where(c2 > 0.0, c2 * b, 0.0))
    return np.where(s == 0.0, 0.0, length)


def test_lines_from_the_rescaling_boundary_up_keep_their_bits():
    # Lines whose largest of |u0|, |u1| and c is at least 2^-500, some of
    # them at the boundary and some with zeros: they keep the formula's bits.
    rng = np.random.default_rng(139)
    n = 20000
    top = 2.0 ** np.concatenate([np.full(n // 4, -500.0), rng.uniform(-500.0, 500.0, n - n // 4)])
    u0, q, c = rng.uniform(-1.0, 1.0, (3, n)) * top
    c = np.abs(c)
    for v in (u0, q, c):
        v[rng.random(n) < 0.1] = 0.0
    pick = rng.integers(0, 3, n)
    u0[pick == 0] = np.copysign(top, u0)[pick == 0]
    c[pick == 1] = top[pick == 1]
    q[pick == 2] = (np.copysign(top, u0) - u0)[pick == 2]
    assert (np.maximum(np.maximum(np.abs(u0), np.abs(u0 + q)), c) >= 2.0 ** -500).all()
    # One short line, which the rescaling takes, and one zero line.
    tiny = (np.array([0.0, 0.0]), np.array([0.0, 0.0]), np.array([1e-200, 0.0]))
    u0, q, c = (np.concatenate([v, t]) for v, t in zip((u0, q, c), tiny))
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _line_length(u0, q, c), unscaled_line_length(u0, q, c)
    assert np.array_equal(got[:-2], want[:-2], equal_nan=True)
    # The formula loses the c^2 B term there: half the length.
    assert want[-2] == 5e-201 and got[-2] == 1e-200
    assert got[-1] == want[-1] == 0.0
    assert _line_length(np.zeros(3), np.zeros(3), np.zeros(3)).tolist() == [0.0] * 3


@pytest.mark.parametrize("name", ["spiral", "banana", "sinh"])
def test_maps_with_exact_lengths_never_reach_the_rule(name, monkeypatch):
    M = make_manifold(name)
    rng = np.random.default_rng(137)
    points = np.array([sample_point(name, M, rng) for _ in range(12)])

    def rule(*args):
        raise AssertionError("the Gauss-Legendre rule was reached")

    monkeypatch.setattr(isomaps, "_speeds", rule)
    monkeypatch.setattr(isomaps, "_arc_table", rule)
    x, y = points[0], points[1]
    assert ig.iso_distance(M, points[:6, None], points[None, 6:]).shape == (6, 6)
    xi = ig.iso_log(M, x, y)
    assert ig.iso_geodesic(M, x, y, np.linspace(0.0, 1.0, 5)).shape == (5, M.dim)
    assert ig.iso_exp(M, ig.TangentVector(x, 0.5 * xi.vec)).shape == (M.dim,)
    ig.iso_barycentre(M, points)
    ig.iso_kmeans(M, points, 2, seed=0)
    assert ig.speed_profile(M, x, y).shape == (33, 2)
