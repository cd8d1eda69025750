"""The root solvers: the scalar Brent port equals scipy's brentq bitwise, and
every lane of the lockstep solver equals its own scalar solve."""

import numpy as np
import pytest
from scipy.optimize import brentq

import isogeo as ig
from isogeo import quadrature
from isogeo.errors import NonConvergenceError
from isogeo.isomaps import _arc_table, _invert, _speeds
from isogeo.quadrature import (REFINE_RTOL, REFINE_XTOL, composite_nodes,
                               refine_root, refine_roots, unit_rule)

from conftest import make_manifold, sample_pairs

GEOMETRIES = ["identity", "river", "spiral", "banana", "sinh"]


def _scalar_invert(M, a, w, cumlen, target):
    """One time inverted on its own: a scalar residual and refine_root."""
    knots = unit_rule(M.quad)[2]
    total = float(cumlen[-1])
    if target <= 0.0:
        return 0.0
    if target >= total:
        return 1.0
    idx = min(max(int(np.searchsorted(cumlen, target, side="left")), 1),
              len(knots) - 1)
    lo, hi = knots[idx - 1], knots[idx]
    c_lo, c_hi = cumlen[idx - 1], cumlen[idx]
    guess = lo + (hi - lo) * (target - c_lo) / max(c_hi - c_lo, 1e-300)

    def g(tp):
        k = int(np.searchsorted(knots, tp, side="right")) - 1
        k = min(max(k, 0), len(knots) - 2)
        if tp <= knots[k]:
            return float(cumlen[k]) - target
        ts, weights, _ = composite_nodes(knots[k], tp, 1, M.quad.nodes_per_panel)
        return float(cumlen[k] + np.dot(_speeds(M, a, w, ts), weights)) - target

    return refine_root(g, lo, hi, g_lo=c_lo - target, guess=guess, scale=total)


@pytest.mark.parametrize("panels", [64, 8, 3])
@pytest.mark.parametrize("name", GEOMETRIES)
def test_lockstep_invert_equals_scalar_refine_root(name, panels):
    M = make_manifold(name, ig.QuadratureConfig(panels=panels))
    rng = np.random.default_rng(40 + panels)
    for x, y in sample_pairs(name, M, rng, 3):
        a = M.diffeo.forward(x)
        w = M.diffeo.forward(y) - a
        cumlen = _arc_table(M, a, w)
        total = float(cumlen[-1])
        shares = np.concatenate([[0.0, 1.0, 1e-14, 1.0 - 1e-14],
                                 rng.uniform(size=60)])
        targets = shares * total
        got = _invert(M, a, w, cumlen, targets)
        want = [_scalar_invert(M, a, w, cumlen, s) for s in targets]
        assert np.array_equal(got, want)
        assert got[0] == 0.0 and got[1] == 1.0


def _cubic(rng, lo, hi):
    """Strictly increasing cubics (c2^2 < 3 c1 c3) with a root in each (lo, hi)."""
    n = len(lo)
    c3 = 10.0 ** rng.uniform(-3, 3, n)
    c1 = 10.0 ** rng.uniform(-3, 3, n)
    c2 = rng.uniform(-1, 1, n) * np.sqrt(3 * c1 * c3)
    r = lo + (hi - lo) * rng.uniform(0.01, 0.99, n)
    c0 = -((c3 * r + c2) * r + c1) * r
    return lambda i, x: ((c3[i] * x + c2[i]) * x + c1[i]) * x + c0[i]


def _tanh(rng, lo, hi):
    """Steep increasing sigmoids, which push Brent onto its bisection steps."""
    n = len(lo)
    k = 10.0 ** rng.uniform(-2, 3, n)
    r = lo + (hi - lo) * rng.uniform(0.01, 0.99, n)
    return lambda i, x: np.tanh(k[i] * (x - r[i])) + 1e-3 * (x - r[i])


@pytest.mark.parametrize("family", [_cubic, _tanh])
def test_refine_roots_equals_brentq_on_monotone_functions(family):
    rng = np.random.default_rng(41)
    n = 2000
    lo = rng.uniform(-20, 5, n)
    hi = lo + 10.0 ** rng.uniform(-3, 1.5, n)
    g = family(rng, lo, hi)
    lanes = np.arange(n)
    g_lo = g(lanes, lo)

    def lane(i):
        return lambda x: float(g(np.array([i]), np.array([x]))[0])

    # Guesses outside the bracket skip the prologue: every lane runs Brent.
    got = refine_roots(g, lo, hi, g_lo, lo - 1.0, 1.0)
    want = [brentq(lane(i), lo[i], hi[i], xtol=REFINE_XTOL, rtol=REFINE_RTOL)
            for i in lanes]
    assert np.array_equal(got, want)
    scalar = [refine_root(lane(i), lo[i], hi[i], g_lo=g_lo[i], guess=lo[i] - 1.0)
              for i in lanes]
    assert np.array_equal(scalar, want)
    # Interpolated guesses and residual-scale acceptance, lane by lane.
    guess = lo + (hi - lo) * rng.uniform(size=n)
    guess[::7] = hi[::7]
    scale = 10.0 ** rng.uniform(-2, 16, n)
    got = refine_roots(g, lo, hi, g_lo, guess, scale)
    want = [refine_root(lane(i), lo[i], hi[i], g_lo=g_lo[i], guess=guess[i],
                        scale=scale[i]) for i in lanes]
    assert np.array_equal(got, want)


def test_refine_roots_prologue_accepts_guess_lo_and_hi_exactly():
    lo, hi = np.zeros(4), np.ones(4)
    roots = np.array([0.25, 0.0, 1.0, 0.5])
    calls = []

    def g(i, x):
        calls.append(len(i))
        return x - roots[i]

    guess = np.array([0.25, 2.0, 2.0, 2.0])
    got = refine_roots(g, lo, hi, lo - roots, guess, 1.0)
    assert np.array_equal(got, roots)
    # Guess of lane 0, hi of lanes 2 and 3, then one Brent step of lane 3.
    assert calls[:2] == [1, 2]


def test_refine_roots_nan_lane_raises_nonconvergence():
    lo, hi = np.zeros(5), np.ones(5)
    roots = np.array([0.1, 0.3, 0.5, 0.7, 0.9])

    def g(i, x):
        r = x**3 - roots[i] ** 3
        return np.where((i == 3) & (x > 0.0) & (x < 1.0), np.nan, r)

    with pytest.raises(NonConvergenceError, match="nan"):
        refine_roots(g, lo, hi, g(np.arange(5), lo), np.full(5, -1.0), 1.0)
    # A NaN at hi is reported before any Brent step.
    with pytest.raises(NonConvergenceError):
        refine_roots(lambda i, x: np.where(i == 0, np.nan, x - 0.5), lo, hi,
                     lo - 0.5, np.full(5, -1.0), 1.0)
    # The scalar solver, inside the bracket and at hi.
    with pytest.raises(NonConvergenceError, match="nan"):
        refine_root(lambda x: np.nan if 0.0 < x < 1.0 else x**3 - 0.7**3, 0.0, 1.0)
    with pytest.raises(NonConvergenceError, match="nan at x = 1.0"):
        refine_root(lambda x: np.nan, 0.0, 1.0, g_lo=-0.5)


def test_refine_roots_without_sign_change_raises_nonconvergence():
    lo, hi = np.zeros(2), np.ones(2)
    with pytest.raises(NonConvergenceError, match="sign change"):
        refine_roots(lambda i, x: x + 1.0, lo, hi, lo + 1.0, np.full(2, 5.0), 1.0)
    with pytest.raises(NonConvergenceError, match="sign change"):
        refine_root(lambda x: x + 1.0, 0.0, 1.0, guess=5.0)


def test_refine_roots_iteration_cap_raises_nonconvergence():
    # A step residual on a huge bracket needs more than BRENT_MAXITER
    # halvings; scalar brentq gives up on it too.
    def step(i, x):
        return np.where(x < 0.3, -1.0, 1.0)

    lo, hi = np.array([-1e30, 0.0]), np.array([1e30, 1.0])
    with pytest.raises(NonConvergenceError, match="1 of 2 lanes open"):
        refine_roots(step, lo, hi, np.array([-1.0, -1.0]), np.full(2, 5.0), 1.0)
    with pytest.raises(NonConvergenceError, match="1 of 1 lanes open"):
        refine_root(lambda x: -1.0 if x < 0.3 else 1.0, -1e30, 1e30)
    with pytest.raises(RuntimeError):
        brentq(lambda x: -1.0 if x < 0.3 else 1.0, -1e30, 1e30,
               xtol=REFINE_XTOL, rtol=REFINE_RTOL, maxiter=quadrature.BRENT_MAXITER)
