"""The solvers' array paths equal loops over the public, validating calls.

``iso_barycentre``, ``l2pg_ird`` and ``iso_kmeans`` iterate on validated
float arrays through private helpers.  The reference loops here are the
solvers as loops over ``ird_step``, ``iso_barycentre_field``,
``tangent_projection`` and the iso-exponential as ``lc_exp`` of the
``vectorchange``-scaled vector; every point, trace entry and stall must
match bit for bit.
"""

import numpy as np
import pytest

import isogeo as ig
from isogeo import clustering, descent, experiments, isomaps, pullback, submanifold
from isogeo.descent import ConvergenceTrace
from isogeo.errors import DomainError, StallError
from isogeo.quadrature import _leggauss, _linspace_chunk, composite_nodes

from conftest import make_manifold

GEOMETRIES = ["identity", "river", "spiral", "banana", "sinh"]


def lc_iso_exp(M, xi):
    """The iso-exponential as lc_exp of the vectorchange-scaled vector."""
    scale = ig.vectorchange(M, xi)
    if scale == 0.0:
        return xi.base.copy()
    return ig.lc_exp(M, ig.TangentVector(xi.base, scale * xi.vec))


def reference_step(M, x, xi, r):
    trial = ig.ird_step(M, x, xi, r)
    assert np.array_equal(trial, lc_iso_exp(M, ig.TangentVector(x, -r * xi.vec)))
    return trial


def reference_barycentre(M, points, cfg=None, x0=None):
    cfg = cfg or ig.LineSearchConfig()
    pts = np.asarray(points, dtype=float).reshape(-1, M.dim)
    x = ig.closed_form_barycentre(M, pts) if x0 is None else np.asarray(x0, dtype=float)
    xi = ig.iso_barycentre_field(M, x, pts)
    trace = ConvergenceTrace()
    trace.append(x, xi.norm, cfg.r0)
    for _ in range(cfg.max_iters):
        if xi.norm < cfg.tol:
            trace.converged = True
            return x, trace
        r = cfg.r0
        for _ in range(cfg.max_backtracks):
            trial = reference_step(M, x, xi, r)
            xi_trial = ig.iso_barycentre_field(M, trial, pts)
            if xi_trial.norm < xi.norm:
                break
            r *= cfg.c
        else:
            trace.stalled = True
            raise StallError(f"line search stalled at field norm {xi.norm:.3e}", x, trace)
        x, xi = trial, xi_trial
        trace.append(x, xi.norm, r)
    trace.converged = xi.norm < cfg.tol
    return x, trace


def reference_l2pg(S, f, grad_f, x0, cfg):
    M = S.manifold
    x = np.asarray(x0, dtype=float)
    if not S.contains(x):
        raise DomainError("x0 is not on the submanifold")
    fx = f_ref = float(f(x))
    denom = f_ref if f_ref > 0.0 else 1.0
    xi = ig.tangent_projection(S, x, grad_f(x))
    trace = ConvergenceTrace()
    trace.append(x, xi.norm, cfg.r0, objective=fx)
    for _ in range(cfg.max_iters):
        if xi.norm / denom < cfg.tol:
            trace.converged = True
            return x, trace
        r = cfg.r0
        for _ in range(cfg.max_backtracks):
            trial = lc_iso_exp(M, ig.TangentVector(x, -r * xi.vec))
            f_trial = float(f(trial))
            if f_trial < fx:
                break
            r *= cfg.c
        else:
            trace.stalled = True
            raise StallError(f"line search stalled at objective {fx:.6e}", x, trace)
        if not S.contains(trial):
            raise DomainError("iterate drifted off the submanifold")
        x, fx = trial, f_trial
        xi = ig.tangent_projection(S, x, grad_f(x))
        trace.append(x, xi.norm, r, objective=fx)
    trace.converged = xi.norm / denom < cfg.tol
    return x, trace


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def trace_bits(trace):
    return ([bits(x) for x in trace.iterates], bits(trace.field_norms),
            bits(trace.step_sizes), trace.objectives and bits(trace.objectives),
            trace.converged, trace.stalled)


def outcome(fn):
    """A solve's point and trace, or its failure, as comparable bytes."""
    try:
        x, trace = fn()
    except StallError as stall:
        return "stall", str(stall), bits(stall.best), trace_bits(stall.trace)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return "solved", bits(x), trace_bits(trace)


def band(name, M, seed, n, noise):
    shape = {"spiral": {"kind": "spiral_band", "t_min": 3.0, "t_max": 8.0},
             "sinh": {"kind": "river_band", "t_min": -3.0, "t_max": 3.0}
             }.get(name, {"kind": "river_band", "t_min": -6.0, "t_max": 6.0})
    spec = ig.DatasetSpec(n=n, seed=seed, noise_sigma=noise, **shape)
    return ig.generate_dataset(spec, M).points


BARYCENTRE_CASES = [
    ({}, None),
    ({"tol": 1e-9, "max_iters": 3}, None),
    ({"r0": 4.0, "c": 0.3, "tol": 1e-8}, None),
    ({"r0": 9.0, "c": 0.9, "max_backtracks": 2, "tol": 1e-12}, None),
    ({"r0": 9.0, "c": 0.9, "max_backtracks": 2, "tol": 1e-12}, "first"),
    ({"tol": 1e-7}, "first"),
]


@pytest.mark.parametrize("name", GEOMETRIES)
def test_iso_barycentre_equals_the_public_loop(name):
    M = make_manifold(name)
    outcomes = set()
    for seed in (1, 2):
        pts = band(name, M, seed, 30, 0.25 if name != "spiral" else 0.5)
        for kwargs, start in BARYCENTRE_CASES:
            cfg = ig.LineSearchConfig(**kwargs)
            x0 = pts[0] if start == "first" else None
            want = outcome(lambda: reference_barycentre(M, pts, cfg, x0))
            assert outcome(lambda: ig.iso_barycentre(M, pts, cfg, x0)) == want
            outcomes.add(want[0])
    # Solves that converge, run out of iterations and stall are all covered.
    assert {"solved", "stall"} <= outcomes


def test_iso_barycentre_stall_on_the_river_band_equals_the_public_loop():
    # The river band that stalls at tol 1e-6 (seed 29, n = 60, noise 0.5).
    M = make_manifold("river")
    spec = ig.DatasetSpec(kind="river_band", n=60, seed=29, noise_sigma=0.5,
                          t_min=-6.0, t_max=6.0)
    pts = ig.generate_dataset(spec, M).points
    cfg = ig.LineSearchConfig(tol=1e-6)
    want = outcome(lambda: reference_barycentre(M, pts, cfg))
    assert want[0] == "stall" and len(want[3][0]) > 5
    assert outcome(lambda: ig.iso_barycentre(M, pts, cfg)) == want


@pytest.mark.parametrize("name", ["identity", "river", "spiral", "banana"])
def test_iso_kmeans_equals_the_public_loop(name, monkeypatch):
    M = make_manifold(name)
    shape = ({"t_min": 2.0, "t_max": 8.0, "gap": 3.0, "center": np.pi}
             if name == "spiral" else {"t_min": -8.0, "t_max": 8.0, "gap": 3.0})
    results = []
    stalls = 0
    for seed in (3, 4):
        spec = ig.DatasetSpec(kind="two_clusters", n=24, seed=seed, noise_sigma=1.0,
                              **shape)
        pts = ig.generate_dataset(spec, M).points
        cfg = ig.LineSearchConfig(tol=1e-7)
        got = ig.iso_kmeans(M, pts, 2, seed, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(clustering, "iso_barycentre", reference_barycentre)
            want = ig.iso_kmeans(M, pts, 2, seed, cfg)
        results.append((got, want))
        stalls += got.stalls
    for got, want in results:
        assert bits(got.centroids) == bits(want.centroids)
        assert np.array_equal(got.labels, want.labels)
        assert ((got.iterations, got.converged, got.stalls)
                == (want.iterations, want.converged, want.stalls))
    if name == "river":
        assert stalls   # a swallowed stall is covered too


def inverse_cases(name, M):
    """(S, f, grad, x0) problems on a geodesic line of the geometry."""
    if name == "sinh":
        S = ig.GeodesicSubmanifold(M, np.array([0.0]), np.array([[1.0]]))
        for target in (-1.5, 0.7, 2.5):
            yield (S, lambda x, t=target: 0.5 * float((x[0] - t) ** 2),
                   lambda x, t=target: x - t, np.array([1.0]))
        return
    for op_seed, rows, s0 in ((0, 2, 2.0), (1, 3, 1.0), (2, 1, 2.5)):
        extras = {"offset": 4.0, "op_seed": op_seed, "rows": rows, "s_true": 1.5,
                  "noise": 0.0}
        S, _, _, _, f, grad = experiments.inverse_problem(M, extras)
        yield S, f, grad, S.point_at(s0)


L2PG_CASES = [{"tol": 1e-6}, {"tol": 1e-12, "max_iters": 2},
              {"r0": 40.0, "max_backtracks": 1, "tol": 1e-12}]


@pytest.mark.parametrize("name", GEOMETRIES)
def test_l2pg_ird_equals_the_public_loop(name):
    M = make_manifold(name)
    outcomes = set()
    for S, f, grad, x0 in inverse_cases(name, M):
        for kwargs in L2PG_CASES:
            cfg = ig.LineSearchConfig(**kwargs)
            want = outcome(lambda: reference_l2pg(S, f, grad, x0, cfg))
            assert outcome(lambda: ig.l2pg_ird(S, f, grad, x0, cfg)) == want
            outcomes.add(want[0])
    assert "solved" in outcomes and len(outcomes) > 1


def test_l2pg_ird_off_the_submanifold_and_bad_gradient():
    M = make_manifold("banana")
    S, _, _, _, f, grad = experiments.inverse_problem(
        M, {"offset": 4.0, "op_seed": 0, "rows": 2, "s_true": 1.5, "noise": 0.0})
    cfg = ig.LineSearchConfig()
    with pytest.raises(DomainError, match="x0 is not on the submanifold"):
        ig.l2pg_ird(S, f, grad, np.array([0.0, 0.0]), cfg)
    with pytest.raises(ValueError, match="v has non-finite entries"):
        ig.l2pg_ird(S, f, lambda x: np.array([np.nan, 0.0]), S.point_at(2.0), cfg)


def test_l2pg_ird_drift_off_the_submanifold():
    # phi is the identity but jvp shears, so an iso-exponential step along the
    # vertical phi-line lands off it, and the first accepted trial drifts.
    def ident(x):
        return np.asarray(x, dtype=float) + 0.0

    def jvp(x, v):
        v = np.asarray(v, dtype=float)
        return np.stack([v[..., 0] + 0.5 * v[..., 1], v[..., 1]], axis=-1)

    M = ig.PullbackManifold(ig.Diffeomorphism(2, ident, ident, jvp,
                                              lambda y, w: ident(w)))
    S = ig.GeodesicSubmanifold(M, np.zeros(2), np.array([[0.0], [1.0]]))
    f = lambda x: 0.5 * (x[1] - 3.0) ** 2
    grad = lambda x: np.array([0.0, x[1] - 3.0])
    cfg = ig.LineSearchConfig()
    for solve in (ig.l2pg_ird, reference_l2pg):
        with pytest.raises(DomainError, match="iterate drifted off the submanifold"):
            solve(S, f, grad, S.point_at(0.0), cfg)


def counted_as_point(monkeypatch):
    calls = []
    original = pullback.as_point

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (pullback, descent, isomaps, submanifold, clustering):
        monkeypatch.setattr(module, "as_point", counting)
    return calls


def test_barycentre_validations_do_not_grow_with_iterations(monkeypatch):
    M = make_manifold("river")
    pts = band("river", M, 5, 30, 0.25)
    calls = counted_as_point(monkeypatch)
    counts = {}
    for max_iters in (1, 2, 5):
        calls.clear()
        _, trace = ig.iso_barycentre(M, pts, ig.LineSearchConfig(tol=1e-14,
                                                                 max_iters=max_iters))
        counts[len(trace) - 1] = len(calls)
    # One validation of the data points per solve, however many iterations.
    assert counts == {1: 1, 2: 1, 5: 1}
    # The public field and step still validate every call.
    calls.clear()
    ig.ird_step(M, pts[0], ig.iso_barycentre_field(M, pts[0], pts), 0.5)
    assert len(calls) > 2


def linspace_rule(a, b, panels, nodes_per_panel):
    """composite_nodes with np.linspace panel edges: the rule it must equal."""
    nodes, weights = _leggauss(nodes_per_panel)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = mid[:, None] + half[:, None] * nodes[None, :]
    return t.ravel(), (half[:, None] * weights[None, :]).ravel(), edges


def spans(rng, count):
    tiny = np.finfo(float).tiny
    fixed = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1.0, 1.0), (0.0, 5e-324),
             (0.0, 3 * tiny), (-2.0, 2.0), (3.0, -1.5), (1e-300, 1e-300 + 1e-310),
             (0.0, 1e300), (-1e300, 1e300), (0.1, 0.7)]
    ends = rng.standard_normal((count, 2)) * 10.0 ** rng.integers(-320, 300, (count, 2))
    return fixed + [tuple(e) for e in ends.tolist()]


def test_composite_nodes_equal_the_linspace_rule():
    rng = np.random.default_rng(91)
    for a, b in spans(rng, 400):
        for panels, npp in ((64, 4), (1, 3), (7, 8)):
            got = composite_nodes(a, b, panels, npp)
            want = linspace_rule(a, b, panels, npp)
            with np.errstate(over="ignore", invalid="ignore"):
                assert [bits(v) for v in got] == [bits(v) for v in want], (a, b, panels)


def test_linspace_chunks_equal_linspace_slices():
    rng = np.random.default_rng(92)
    for a, b in spans(rng, 100):
        for num in (2, 3, 17):
            whole = np.linspace(a, b, num)
            for i0, i1 in ((0, num), (0, 1), (1, num), (num - 1, num), (1, 2)):
                assert bits(_linspace_chunk(a, b, num, i0, i1)) == bits(whole[i0:i1])


def matmul_points(S, s):
    """points_at as phi_base + s @ B.T, the form its component-major path must equal."""
    s = np.asarray(s, dtype=float)
    s = s[:, None] if s.ndim == 1 else s
    return S.manifold.diffeo.inverse(S._phi_base + s @ S.phi_basis.T)


@pytest.mark.parametrize("name, base, basis", [
    ("identity", [-0.0, 1.5], [[0.0], [1.0]]),
    ("identity", [-0.0, -0.0], [[-0.0], [-1.0]]),
    ("identity", [0.0, -0.0], [[0.6], [-0.8]]),
    ("banana", [4.0, -0.0], [[0.0], [1.0]]),
    ("banana", [-0.0, 0.0], [[1.0], [-0.0]]),
    ("river", [0.3, -0.0], [[0.0], [1.0]]),
])
def test_points_at_component_major_keeps_the_matmul_bits(name, base, basis):
    M = make_manifold(name)
    S = ig.GeodesicSubmanifold(M, np.array(base), np.array(basis))
    rng = np.random.default_rng(93)
    zeros = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324])
    for s in (rng.standard_normal(500) * 5.0, zeros, np.linspace(-6.0, 6.0, 6144)):
        assert bits(S.points_at(s)) == bits(matmul_points(S, s))
        assert bits(S.points_at(s[:, None])) == bits(matmul_points(S, s[:, None]))
    # A two-dimensional subspace keeps the matmul.
    S2 = ig.GeodesicSubmanifold(M, np.array(base), np.eye(2))
    s2 = rng.standard_normal((40, 2))
    assert bits(S2.points_at(s2)) == bits(matmul_points(S2, s2))
    with pytest.raises(ValueError):
        S.points_at(s2)
