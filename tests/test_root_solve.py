"""The safeguarded Newton solver: roots within REFINE_XTOL of scipy's brentq,
safe steps where Newton's leave the bracket or stall, typed failures, and
arc-length inversions that do not depend on the batch."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import isogeo as ig
from isogeo import isomaps, quadrature
from isogeo.errors import NonConvergenceError
from isogeo.isomaps import _invert, _knot_lengths
from isogeo.quadrature import NEWTON_MAXITER, REFINE_XTOL, newton_root, newton_roots

from conftest import make_manifold, sample_pairs

GEOMETRIES = ["identity", "river", "spiral", "banana", "sinh"]


@pytest.mark.parametrize("panels", [64, 8, 3])
@pytest.mark.parametrize("name", GEOMETRIES)
def test_lockstep_invert_equals_scalar_refine_root(name, panels):
    # Each lane of a lockstep inversion equals its own one-target inversion.
    M = make_manifold(name, ig.QuadratureConfig(panels=panels))
    rng = np.random.default_rng(40 + panels)
    for x, y in sample_pairs(name, M, rng, 3):
        a = M.diffeo.forward(x)
        w = M.diffeo.forward(y) - a
        cumlen = _knot_lengths(M, a, w)
        total = float(cumlen[-1])
        shares = np.concatenate([[0.0, 1.0, 1e-14, 1.0 - 1e-14],
                                 rng.uniform(size=60)])
        targets = shares * total
        got = _invert(M, a, w, cumlen, targets)
        want = [_invert(M, a, w, cumlen, np.array([s]))[0] for s in targets]
        assert np.array_equal(got, want)
        assert got[0] == 0.0 and got[1] == 1.0


def captured_residual(monkeypatch, M, a, w, cumlen, targets):
    """The residual ``_invert`` hands to ``newton_roots``, with its brackets."""
    seen = {}

    def capture(g, lo, hi, *args):
        seen.update(g=g, lo=lo, hi=hi)
        return newton_roots(g, lo, hi, *args)

    monkeypatch.setattr(isomaps, "newton_roots", capture)
    roots = _invert(M, a, w, cumlen, targets)
    return roots, seen["g"], seen["lo"], seen["hi"]


@pytest.mark.parametrize("name", GEOMETRIES)
def test_invert_residual_derivative_is_its_slope(name, monkeypatch):
    # Newton is fed the derivative of the residual it solves.
    M = make_manifold(name)
    rng = np.random.default_rng(44)
    h = 1e-6
    for x, y in sample_pairs(name, M, rng, 3):
        a = M.diffeo.forward(x)
        w = M.diffeo.forward(y) - a
        cumlen = _knot_lengths(M, a, w)
        targets = rng.uniform(0.01, 0.99, 40) * cumlen[-1]
        roots, g, lo, hi = captured_residual(monkeypatch, M, a, w, cumlen, targets)
        lanes = np.arange(len(lo))
        tp = lo + (hi - lo) * rng.uniform(0.1, 0.9, len(lo))
        speed = g(lanes, tp)[1]
        slope = (g(lanes, tp + h)[0] - g(lanes, tp - h)[0]) / (2 * h)
        np.testing.assert_allclose(speed, slope, rtol=1e-6)
        # The roots are those of the same residual by brentq.
        want = [brentq(lambda t, i=i: float(g(np.array([i]), np.array([t]))[0][0]),
                       lo[i], hi[i], xtol=REFINE_XTOL) for i in lanes]
        assert np.abs(roots - want).max() <= REFINE_XTOL


def _cubic(rng, lo, hi):
    """Strictly increasing cubics (c2^2 < 3 c1 c3) with a root in each (lo, hi)."""
    n = len(lo)
    c3 = 10.0 ** rng.uniform(-3, 3, n)
    c1 = 10.0 ** rng.uniform(-3, 3, n)
    c2 = rng.uniform(-1, 1, n) * np.sqrt(3 * c1 * c3)
    r = lo + (hi - lo) * rng.uniform(0.01, 0.99, n)
    c0 = -((c3 * r + c2) * r + c1) * r
    return lambda i, x: (((c3[i] * x + c2[i]) * x + c1[i]) * x + c0[i],
                         (3 * c3[i] * x + 2 * c2[i]) * x + c1[i])


def _tanh(rng, lo, hi):
    """Steep increasing sigmoids, whose Newton steps from the flanks leave the bracket."""
    n = len(lo)
    k = 10.0 ** rng.uniform(-2, 3, n)
    r = lo + (hi - lo) * rng.uniform(0.01, 0.99, n)

    def g(i, x):
        th = np.tanh(k[i] * (x - r[i]))
        return th + 1e-3 * (x - r[i]), k[i] * (1.0 - th * th) + 1e-3
    return g


@pytest.mark.parametrize("family", [_cubic, _tanh])
def test_refine_roots_equals_brentq_on_monotone_functions(family):
    rng = np.random.default_rng(41)
    n = 2000
    lo = rng.uniform(-20, 5, n)
    hi = lo + 10.0 ** rng.uniform(-3, 1.5, n)
    g = family(rng, lo, hi)
    lanes = np.arange(n)
    f_lo, f_hi = g(lanes, lo)[0], g(lanes, hi)[0]

    def lane(i):
        return lambda x: float(g(np.array([i]), np.array([x]))[0][0])

    want = np.array([brentq(lane(i), lo[i], hi[i], xtol=REFINE_XTOL) for i in lanes])
    # A lane also leaves at a residual within 2e-15 (scale 1), which on a
    # flat lane is a parameter error of up to 2e-15 / slope.
    bound = REFINE_XTOL + 2e-15 / g(lanes, want)[1]
    for share in (0.0, 0.5, 1.0, rng.uniform(size=n)):
        start = lo + (hi - lo) * share
        got = newton_roots(g, lo, hi, f_lo, f_hi, start, 1.0)
        assert (np.abs(got - want) <= bound).all()
        assert np.median(np.abs(got - want)) <= 1e-3 * REFINE_XTOL
        # A lane's root does not depend on the other lanes.
        some = lanes[::7]
        alone = newton_roots(lambda i, x: g(some[i], x), lo[some], hi[some],
                             f_lo[some], f_hi[some], start[some], 1.0)
        assert np.array_equal(alone, got[some])
    # A start whose residual is within 1e-15 (1 + |scale|) is returned as it is.
    start = lo + (hi - lo) * rng.uniform(size=n)
    scale = 10.0 ** rng.uniform(-2, 16, n)
    got = newton_roots(g, lo, hi, f_lo, f_hi, start, scale)
    accepted = np.abs(g(lanes, start)[0]) <= 1e-15 * (1.0 + scale)
    assert accepted.any() and not accepted.all()
    assert np.array_equal(got[accepted], start[accepted])


def recording(g):
    """g, recording the points of each call."""
    calls = []

    def recorded(i, x):
        calls.append(np.array(x))
        return g(i, x)
    return recorded, calls


def test_step_leaving_the_bracket_takes_regula_falsi():
    # arctan's Newton step from far out overshoots the whole bracket.
    r = 0.5
    g, calls = recording(lambda i, x: (np.arctan(x - r), 1.0 / (1.0 + (x - r) ** 2)))
    lo, hi, start = np.array([-10.0]), np.array([10.0]), np.array([5.0])
    f_lo = np.arctan(lo - r)
    root = newton_roots(g, lo, hi, f_lo, np.arctan(hi - r), start, 1.0)
    assert abs(root[0] - r) <= REFINE_XTOL
    f, df = np.arctan(start - r), 1.0 / (1.0 + (start - r) ** 2)
    assert start - f / df < lo
    # After the first probe the bracket is [lo, start]: its regula falsi point.
    assert calls[1] == lo - f_lo * (start - lo) / (f - f_lo)


def test_step_rounding_onto_the_bracket_end_converges_there():
    # The Newton step is below half an ulp of x, so it lands on x, now a
    # bracket end: inside, so the lane converges instead of taking regula falsi.
    g, calls = recording(lambda i, x: (np.full(len(x), 1e-9), np.full(len(x), 1e9)))
    root = newton_roots(g, np.array([0.0]), np.array([1.0]), np.array([-1.0]),
                        np.array([1.0]), np.array([0.75]), 1.0)
    assert root[0] == 0.75 and len(calls) == 1


def test_zero_derivative_start_converges_without_nan():
    roots = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    lo, hi = np.zeros(5), np.ones(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = newton_roots(lambda i, x: (x**3 - roots[i] ** 3, 3 * x**2), lo, hi,
                           -roots**3, 1.0 - roots**3, lo, 1.0)
    assert np.isfinite(got).all()
    assert np.abs(got - roots).max() <= REFINE_XTOL


def test_stalled_newton_takes_the_secant():
    # The derivative handed in is four times the residual's slope, as where a
    # coarse rule's sum drifts from its integral: plain Newton would close
    # a quarter of the distance per step and hit the cap.
    r = np.array([0.3, 0.55])
    g, calls = recording(lambda i, x: (x - r[i], np.full(len(x), 4.0)))
    got = newton_roots(g, np.zeros(2), np.ones(2), -r, 1.0 - r, np.ones(2), 1.0)
    assert np.abs(got - r).max() <= REFINE_XTOL
    assert len(calls) < 10


def test_refine_roots_nan_lane_raises_nonconvergence():
    lo, hi = np.zeros(5), np.ones(5)
    roots = np.array([0.1, 0.3, 0.5, 0.7, 0.9])

    def g(i, x):
        r = x**3 - roots[i] ** 3
        return np.where((i == 3) & (x > 0.0) & (x < 1.0), np.nan, r), 3 * x**2

    lanes = np.arange(5)
    with pytest.raises(NonConvergenceError, match="nan"):
        newton_roots(g, lo, hi, g(lanes, lo)[0], g(lanes, hi)[0], lo + 0.5, 1.0)
    # A NaN at a bracket end is reported before any step.
    g_end, calls = recording(g)
    with pytest.raises(NonConvergenceError, match="nan at x = 1.0"):
        newton_roots(g_end, lo, hi, g(lanes, lo)[0], np.where(lanes == 2, np.nan, 1.0),
                     lo + 0.5, 1.0)
    assert calls == []


def test_refine_roots_without_sign_change_raises_nonconvergence():
    lo, hi = np.zeros(2), np.ones(2)
    with pytest.raises(NonConvergenceError, match="sign change"):
        newton_roots(lambda i, x: (x + 1.0, np.ones(len(x))), lo, hi, lo + 1.0,
                     hi + 1.0, lo + 0.5, 1.0)


def test_refine_roots_iteration_cap_raises_nonconvergence():
    # A step residual has no slope, so every step is regula falsi, here a
    # bisection: the huge bracket needs more than NEWTON_MAXITER of them,
    # and scalar brentq gives up on it too.
    def step(i, x):
        return np.where(x < 0.3, -1.0, 1.0), np.zeros(len(x))

    lo, hi = np.array([-1e30, 0.0]), np.array([1e30, 1.0])
    with pytest.raises(NonConvergenceError, match="1 of 2 lanes open"):
        newton_roots(step, lo, hi, np.array([-1.0, -1.0]), np.ones(2),
                     np.array([5.0, 0.5]), 1.0)
    with pytest.raises(RuntimeError):
        brentq(lambda x: -1.0 if x < 0.3 else 1.0, -1e30, 1e30,
               xtol=REFINE_XTOL, maxiter=quadrature.NEWTON_MAXITER)
    assert NEWTON_MAXITER == 100


def oracle_newton_roots(g, lo, hi, f_lo, f_hi, x, scale, exits=None):
    """The earlier lockstep loop of ``newton_roots``, kept as its oracle.

    It recomputed half the last residual each step, took the regula falsi
    point of every lane and compacted with separate hit and small-step
    masks.  ``exits`` collects (iteration, lane, how) for each lane that
    leaves, where how is "hit" or "small", plus "secant" and "falsi" for the
    lanes that took those steps on the way.
    """
    def check_finite(x, residual):
        if not np.isfinite(residual).all():
            bad = ~np.isfinite(residual)
            raise NonConvergenceError(
                f"root solve: residual {residual[bad][0]} at x = {x[bad][0]}")

    exits = [] if exits is None else exits
    lo, hi, f_lo, f_hi, x = (np.array(v, dtype=float) for v in
                             np.broadcast_arrays(lo, hi, f_lo, f_hi, x))
    eps = 1e-15 * (1.0 + np.abs(np.broadcast_to(scale, lo.shape)))
    check_finite(lo, f_lo)
    check_finite(hi, f_hi)
    wrong = (f_lo > 0.0) | (f_hi < 0.0)
    if wrong.any():
        raise NonConvergenceError(
            f"root solve: no sign change on [{lo[wrong][0]}, {hi[wrong][0]}]")
    root = np.empty(len(lo))
    live = np.arange(len(lo))
    x_prev, f_prev = x, np.full(len(lo), np.inf)
    for it in range(NEWTON_MAXITER):
        if not live.size:
            return root
        f, df = g(live, x)
        check_finite(x, f)
        size = np.abs(f)
        hit = size <= eps
        left = f < 0.0
        lo, f_lo = np.where(left, x, lo), np.where(left, f, f_lo)
        hi, f_hi = np.where(left, hi, x), np.where(left, f_hi, f)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            stalled = size > 0.5 * np.abs(f_prev)
            if stalled.any():
                df = np.where(stalled, (f - f_prev) / (x - x_prev), df)
            step = x - f / df
            falsi = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        inside = (step >= lo) & (step <= hi)
        exits += [(it, lane, "secant") for lane in live[stalled & ~hit]]
        exits += [(it, lane, "falsi") for lane in live[~inside & ~hit]]
        step = np.where(inside, step, falsi)
        small = np.abs(step - x) < REFINE_XTOL
        root[live[hit]] = x[hit]
        root[live[small & ~hit]] = step[small & ~hit]
        exits += [(it, lane, "hit") for lane in live[hit]]
        exits += [(it, lane, "small") for lane in live[small & ~hit]]
        keep = ~(hit | small)
        x_prev, f_prev = x, f
        if not keep.all():
            live, lo, hi, f_lo, f_hi, step, eps, x_prev, f_prev = (
                v[keep] for v in (live, lo, hi, f_lo, f_hi, step, eps, x_prev, f_prev))
        x = step
    if not live.size:
        return root
    raise NonConvergenceError(
        f"root solve: {len(live)} of {len(root)} lanes open after "
        f"{NEWTON_MAXITER} Newton iterations")


def _drifting(rng, lo, hi):
    """Cubics whose derivative is off by a lane factor, as a coarse rule's is."""
    g = _cubic(rng, lo, hi)
    factor = rng.choice([0.25, 1.0, 4.0], len(lo))

    def drifting(i, x):
        f, df = g(i, x)
        return f, factor[i] * df
    return drifting


def _exact_start(rng, lo, hi):
    """Lines through the starts of the test, so a share of lanes hit at once."""
    n = len(lo)
    slope = 10.0 ** rng.uniform(-3, 3, n)
    r = np.where(rng.uniform(size=n) < 0.3, 0.5 * (lo + hi),
                 lo + (hi - lo) * rng.uniform(0.01, 0.99, n))
    return lambda i, x: (slope[i] * (x - r[i]), slope[i] + 0.0 * x)


def _against_the_earlier_loop(family):
    """Roots of seeded lanes of a family from several starts and scales, each
    asserted equal bit for bit to the oracle's; returns the oracle's exits."""
    rng = np.random.default_rng(45)
    n = 500
    lo = rng.uniform(-20, 5, n)
    hi = lo + 10.0 ** rng.uniform(-3, 1.5, n)
    g = family(rng, lo, hi)
    lanes = np.arange(n)
    f_lo, f_hi = g(lanes, lo)[0], g(lanes, hi)[0]
    exits = []
    for start, scale in ((0.5 * (lo + hi), 1.0), (lo, 1.0), (hi, 1.0),
                         (lo + (hi - lo) * rng.uniform(size=n), 1.0),
                         (lo + (hi - lo) * rng.uniform(size=n),
                          10.0 ** rng.uniform(-2, 16, n))):
        want = oracle_newton_roots(g, lo, hi, f_lo, f_hi, start, scale, exits)
        got = newton_roots(g, lo, hi, f_lo, f_hi, start, scale)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return exits


FAMILIES = [_cubic, _tanh, _drifting, _exact_start]


@pytest.mark.parametrize("family", FAMILIES)
def test_newton_roots_equal_the_earlier_loop_bit_for_bit(family):
    _against_the_earlier_loop(family)


def test_newton_oracle_families_cover_every_exit():
    exits = [e for family in FAMILIES for e in _against_the_earlier_loop(family)]
    assert {how for _, _, how in exits} == {"hit", "small", "secant", "falsi"}
    for how in ("hit", "small"):
        assert len({it for it, _, seen in exits if seen == how}) >= 2
    assert len({it for it, _, how in exits if how in ("hit", "small")}) >= 4


@pytest.mark.parametrize("case", ["nan lane", "nan end", "no sign change", "cap"])
def test_newton_roots_errors_equal_the_earlier_loop(case):
    lo, hi = np.zeros(5), np.ones(5)
    roots = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    lanes = np.arange(5)

    def cube(i, x):
        r = x**3 - roots[i] ** 3
        return np.where((i == 3) & (x > 0.0) & (x < 1.0), np.nan, r), 3 * x**2

    def step(i, x):
        return np.where(x < 0.3, -1.0, 1.0), np.zeros(len(x))

    args = {
        "nan lane": (cube, lo, hi, cube(lanes, lo)[0], cube(lanes, hi)[0], lo + 0.5, 1.0),
        "nan end": (cube, lo, hi, cube(lanes, lo)[0], np.where(lanes == 2, np.nan, 1.0),
                    lo + 0.5, 1.0),
        "no sign change": (lambda i, x: (x + 1.0, np.ones(len(x))), lo, hi, lo + 1.0,
                           hi + 1.0, lo + 0.5, 1.0),
        "cap": (step, np.array([-1e30, 0.0]), np.array([1e30, 1.0]),
                np.array([-1.0, -1.0]), np.ones(2), np.array([5.0, 0.5]), 1.0),
    }[case]
    with pytest.raises(NonConvergenceError) as want:
        oracle_newton_roots(*args)
    with pytest.raises(NonConvergenceError) as got:
        newton_roots(*args)
    assert str(got.value) == str(want.value)


def one_root(g, i, steps=None):
    """Lane i of a lockstep residual g as the ``g(x)`` of ``newton_root``.

    ``steps`` counts each probe after the first as a Newton, secant or
    regula falsi step, by the rule ``newton_roots`` states.
    """
    probes = []

    def lane(x):
        f, df = (float(v[0]) for v in g(np.array([i]), np.array([x])))
        if steps is not None and probes:
            x1, f1, df1 = probes[-1]
            x0, f0, _ = probes[-2] if len(probes) > 1 else (x1, math.inf, df1)
            secant = abs(f1) > 0.5 * abs(f0)
            slope = (f1 - f0) / (x1 - x0) if secant else df1
            newton = x1 - f1 / slope if slope != 0.0 else None
            steps["secant" if secant else "newton"] += x == newton
            steps["regula falsi"] += x != newton
        probes.append((x, f, df))
        return f, df

    lane.probes = probes
    return lane


def both_loops(g, i, lo, hi, f_lo, scale, steps=None):
    """``newton_root`` and one-lane ``newton_roots`` on lane i of g from hi: each
    root, or the message of its NonConvergenceError, and the points it probed."""
    def solve(fn):
        try:
            return fn()
        except NonConvergenceError as exc:
            return str(exc)

    lane = one_root(g, i, steps)
    f_hi, df_hi = lane(hi)
    alone = solve(lambda: newton_root(lane, lo, hi, f_lo, f_hi, df_hi, scale))
    alone = alone, [x for x, _, _ in lane.probes]
    lane = one_root(g, i)
    lockstep = solve(lambda: float(newton_roots(
        lambda _, x: tuple(np.array([v]) for v in lane(float(x[0]))),
        [lo], [hi], [f_lo], [f_hi], [hi], scale)[0]))
    return alone, (lockstep, [x for x, _, _ in lane.probes])


def test_newton_root_is_newton_roots_on_one_lane_bit_for_bit():
    steps = {"newton": 0, "secant": 0, "regula falsi": 0}
    rng = np.random.default_rng(46)
    n = 150
    for family in FAMILIES:
        lo = rng.uniform(-20, 5, n)
        hi = lo + 10.0 ** rng.uniform(-3, 1.5, n)
        g = family(rng, lo, hi)
        f_lo = g(np.arange(n), lo)[0]
        scales = np.where(rng.uniform(size=n) < 0.5, 1.0, 10.0 ** rng.uniform(-2, 16, n))
        for i in range(n):
            (alone, probes), (lockstep, lockstep_probes) = both_loops(
                g, i, float(lo[i]), float(hi[i]), float(f_lo[i]), float(scales[i]), steps)
            assert type(alone) is float and probes == lockstep_probes
            assert np.float64(alone).view(np.int64) == np.float64(lockstep).view(np.int64)
    assert min(steps.values()) >= 100


def test_newton_root_fails_as_newton_roots_does():
    # A NaN inside the bracket, and a step residual whose regula falsi
    # bisections of a huge bracket need more than NEWTON_MAXITER steps.
    def nan_inside(i, x):
        return np.where((x > 0.0) & (x < 1.0), np.nan, x ** 3 - 0.125), 3 * x ** 2

    def step(i, x):
        return np.where(x < 0.3, -1.0, 1.0), np.zeros(len(x))

    for g, lo, hi, f_lo, message in (
            (nan_inside, 0.0, 1.0, -0.125, "root solve: residual nan at x = "),
            (step, -1e30, 1e30, -1.0,
             f"root solve: 1 of 1 lanes open after {NEWTON_MAXITER} Newton iterations")):
        alone, lockstep = both_loops(g, 0, lo, hi, f_lo, 1.0)
        assert alone == lockstep and alone[0].startswith(message)
