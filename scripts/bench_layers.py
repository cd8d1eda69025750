#!/usr/bin/env python3
"""Time the arc-length engine and the one-pair iso maps, layer by layer.

Prints one JSON object:

- ``arc_table_ms``: best-of-N time of one ``isomaps._arc_table`` call for
  each built-in geometry at 1, 30, 128, 192, 256 and 480 phi-lines
  (default 64x4 rule; the lines join seeded random points of the
  geometry).  At d = 2 a table of 192 lines or more has
  ``isomaps.SPLIT_PASSES`` passes and, on 2 or more CPUs, shares them with
  the helper thread if its first pass took ``isomaps.SPLIT_PASS_S`` or
  longer (river's do, identity's do not); these are hot-loop times, with
  the helper awake;
- ``arc_table_minflt``: minor page faults (``ru_minflt``) per warm
  480-line ``_arc_table`` call of each geometry, over 5 calls.  They follow
  the process's heap history (whether glibc has trimmed the heap top since
  the last call), not the geometry or the code under test: the same code
  reads 0 in one run and over 100 in the next, so these rows cannot tell
  two checkouts apart;
- ``arc_lengths_ms``: the same as ``arc_table_ms`` for the whole lengths of
  those lines, one ``isomaps._arc_lengths`` call (the map's exact
  ``arc_length`` where it has one, else the rule);
- ``jacobian_us``: best of 5 x 2000 calls, the time per call (µs) of
  ``forward``, ``inverse``, ``jvp``, ``inv_jvp`` and ``speed`` of each
  built-in at 1 (a ``(d,)`` point), 60 and 480 points, with one vector per
  point (the inverse side at the forward images of the points);
- ``per_call_us``: best of 5 x 50 calls of ``lc_distance``,
  ``iso_distance``, ``iso_log``, ``iso_transport``, scalar-t
  ``iso_geodesic`` and ``iso_exp`` on river(5, 0.25), (0,-8) -> (3,8);
- ``iso_exp_quadratures``: full quadratures (``composite_nodes`` rules
  built by ``isomaps``) per ``iso_exp`` call, over 50 seeded river
  tangents at (0,-8): median, min, max and total;
- ``identity_batch``: for d = 2, 64 and 256, one 480-line
  ``iso_distance`` batch on ``identity(d)`` in a fresh child process: its
  rise of peak RSS over the process after a one-pair warm-up call, and its
  time;
- ``root_solve_us``: best of 5 passes over 2000 seeded increasing cubics,
  the time per solve of one lockstep ``quadrature.newton_roots`` call on
  all of them (each started at its bracket's regula falsi point) and of
  scipy's ``brentq`` on each bracket;
- ``invert_us``: best of 5 x 50 calls, the time per call (µs) of one
  ``isomaps._invert`` of 118 and of 160 arc-length targets, evenly spaced
  inside the whole length of one seeded line of each built-in geometry
  (the interior samples of a 120-sample iso-geodesic and the stencil of an
  80-sample speed profile, as ``geodesic_sampling`` runs them);
- ``output_us``: best of 5 x 50 calls of ``serialize.write_csv`` of a
  120-sample iso geodesic table (t, x0, x1) on river(5, 0.25), of
  ``experiments._write_points`` of a 120-point k-means ``points.csv``
  (two coordinates, the truth and three label columns), of one
  ``serialize.write_json`` of the run manifest of
  ``configs/river_kmeans.ini``, and of ``experiments._versions``, the
  package-version lookup each run manifest makes;
- ``rewrite_us``: the median and p90 of 200 back-to-back rewrites of an
  existing file: the 120x3 ``geodesic.csv`` and the run manifest of
  ``output_us``.  Unlike best-of timings, these keep any wait that
  rewriting a path pays for the write before it (on ext4, an ``O_TRUNC``
  open waits for the flush that closing the truncated file started);
- ``kmeans``: for the datasets of ``configs/river_kmeans.ini`` and
  ``configs/spiral_kmeans.ini``, the best-of-5 time (ms) of one
  ``iso_kmeans`` call with the config's K, seed and solver settings, its
  outer iterations, the ``clustering._nearest`` and
  ``clustering.iso_barycentre`` calls it makes, and the arc-length lines
  those ``_nearest`` calls measure (``nearest_lines``) next to n * K per
  call (``nearest_lines_all_pairs``); ``river_kmeans.ini k=4`` runs the
  river dataset at K = 4;
- ``ird_iteration_us``: the best-of-5 time of one ``iso_barycentre`` solve
  divided by its iterations, with the iterations, on the barycentre bands
  of the ``perfbench`` ``solver_loop`` workload (seed 7, tol 1e-6): river(5,
  0.25) at n = 30 and 60 and spiral(0.25) at n = 60;
- ``grid_oracle``: the best-of-5 time (ms) of one 100 001-point
  ``experiments.grid_search_1d`` on the inverse problem of
  ``configs/banana_inverse.ini``, screened by
  ``experiments.least_squares_screen`` as its run is, and the number of
  grid points passed to the exact objective (``f_points``) next to
  ``grid_points``;
- ``split_crossover``: for river(5, 0.25) and identity(2) tables of 2 to 20
  passes, the median time (ms, 200 samples each) of one ``_arc_table`` call
  kept on the calling thread (``serial``), always shared with the helper
  thread (``split``: ``isomaps.SPLIT_PASSES`` 1 and ``SPLIT_PASS_S`` 0) and
  shared as the shipped gate decides (``gated``), the three in rotating
  order, and the split and gated times over the serial one.  Each call
  follows 1 ms of other library work (``_iso_transport_vecs`` batches on
  river), so the helper is idle and asleep when the table starts, as between
  the tables of a workload pass; this sets the gate;
- ``cold_start``: in fresh child interpreters, the median time of
  ``import isogeo, isogeo.cli`` inside the child and whether it loaded
  scipy, and for each ``configs/*.ini`` the median whole-process time of
  ``python -m isogeo.cli run`` (output into a temporary directory) with
  its exit code.

It uses public functions, ``_arc_table``, ``isomaps.composite_nodes``,
``isomaps._knot_lengths``, ``isomaps._invert``, ``isomaps._arc_lengths``,
``experiments._write_points``, ``experiments._versions``,
``experiments.least_squares_screen``, ``clustering._nearest``,
``clustering._arc_lengths``, ``isomaps._iso_transport_vecs``,
``isomaps.unit_rule``, ``isomaps.PASS_BYTES``, ``isomaps.SPLIT_PASSES``,
``isomaps.SPLIT_PASS_S`` and the quadrature constants only, and imports
``isogeo`` from the ``src/`` next to this script, so a copy placed in
another checkout that has these names measures that checkout.  scipy, the
oracle of the root-solve timing, is imported there only.

Usage:
    python scripts/bench_layers.py > layers.json
"""

import contextlib
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import isogeo as ig  # noqa: E402
from isogeo import clustering, experiments, isomaps, serialize  # noqa: E402
from isogeo.config import load_config  # noqa: E402
from isogeo.isomaps import _arc_table  # noqa: E402
from isogeo.quadrature import REFINE_XTOL, newton_roots  # noqa: E402

LINE_COUNTS = (1, 30, 128, 192, 256, 480)
JACOBIAN_POINTS = (1, 60, 480)
SPLIT_PASS_COUNTS = (2, 3, 4, 5, 6, 8, 12, 20)
BATCH_DIMS = (2, 64, 256)
COLD_SAMPLES = 5
REWRITES = 200
IMPORT_PROBE = ("import sys, time; started = time.perf_counter(); "
                "import isogeo, isogeo.cli; elapsed = time.perf_counter() - started; "
                "print(elapsed, any(m.startswith('scipy') for m in sys.modules))")
GEOMETRIES = {
    "identity": lambda: ig.identity(2),
    "river": ig.river,
    "spiral": ig.spiral,
    "banana": ig.banana,
    "sinh_shift_1d": ig.sinh_shift_1d,
}


def _points(name, M, rng, n):
    if name == "spiral":
        # phi-box clear of the origin and of the 0/2pi branch cut
        return M.diffeo.inverse(rng.uniform([1.5, 1.0], [6.0, 5.3], (n, 2)))
    if name == "sinh_shift_1d":
        return rng.uniform(-3.0, 3.0, (n, 1))
    return rng.uniform(-4.0, 4.0, (n, 2))


def _best(fn, number, repeat=5):
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def arc_table_times():
    """Table and whole-length times per line count, and minor faults per warm
    table call at the most lines."""
    rng = np.random.default_rng(0)
    times, lengths, faults = {}, {}, {}
    for name, make in GEOMETRIES.items():
        M = ig.PullbackManifold(make())
        n = max(LINE_COUNTS)
        a = M.diffeo.forward(_points(name, M, rng, n))
        w = M.diffeo.forward(_points(name, M, rng, n)) - a
        for out, fn in ((times, _arc_table), (lengths, isomaps._arc_lengths)):
            out[name] = {
                str(lines): 1e3 * _best(lambda: fn(M, a[:lines], w[:lines]),
                                        number=max(1, 960 // lines))
                for lines in LINE_COUNTS}
        _arc_table(M, a, w)
        before = _minflt()
        for _ in range(5):
            _arc_table(M, a, w)
        faults[name] = (_minflt() - before) / 5
    return times, lengths, faults


def jacobian_times():
    rng = np.random.default_rng(0)
    times = {}
    for name, make in GEOMETRIES.items():
        M = ig.PullbackManifold(make())
        d = M.diffeo
        x = _points(name, M, rng, max(JACOBIAN_POINTS))
        y, v = d.forward(x), rng.standard_normal(x.shape)
        times[name] = {fn: {} for fn in ("forward", "inverse", "jvp", "inv_jvp", "speed")}
        for n in JACOBIAN_POINTS:
            part = 0 if n == 1 else slice(n)
            xs, ys, vs = x[part], y[part], v[part]
            calls = {"forward": lambda: d.forward(xs), "inverse": lambda: d.inverse(ys),
                     "jvp": lambda: d.jvp(xs, vs), "inv_jvp": lambda: d.inv_jvp(ys, vs),
                     "speed": lambda: d.speed(ys, vs)}
            for fn, call in calls.items():
                times[name][fn][str(n)] = 1e6 * _best(call, number=2000)
    return times


def per_call_times():
    M = ig.PullbackManifold(ig.river(5.0, 0.25))
    x, y = np.array([0.0, -8.0]), np.array([3.0, 8.0])
    xi = ig.iso_log(M, x, y)
    v = ig.TangentVector(x, np.array([0.5, -0.25]))
    calls = {
        "lc_distance": lambda: ig.lc_distance(M, x, y),
        "iso_distance": lambda: ig.iso_distance(M, x, y),
        "iso_log": lambda: ig.iso_log(M, x, y),
        "iso_transport": lambda: ig.iso_transport(M, x, y, v),
        "iso_geodesic_scalar_t": lambda: ig.iso_geodesic(M, x, y, 0.3),
        "iso_exp": lambda: ig.iso_exp(M, xi),
    }
    return {name: 1e6 * _best(fn, number=50) for name, fn in calls.items()}


def iso_exp_quadratures():
    M = ig.PullbackManifold(ig.river(5.0, 0.25))
    x = np.array([0.0, -8.0])
    rng = np.random.default_rng(1)
    built = []
    rule = isomaps.composite_nodes

    def counted(*args):
        built.append(1)
        return rule(*args)

    isomaps.composite_nodes = counted
    try:
        counts = []
        for _ in range(50):
            built.clear()
            ig.iso_exp(M, ig.TangentVector(x, rng.standard_normal(2)))
            counts.append(len(built))
    finally:
        isomaps.composite_nodes = rule
    return {"median": statistics.median(counts), "min": min(counts),
            "max": max(counts), "total": sum(counts)}


def identity_batch(dim):
    """Peak-RSS rise (MB) and time (ms) of one 480-line identity(dim) batch."""
    M = ig.PullbackManifold(ig.identity(dim))
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, max(LINE_COUNTS), dim))
    ig.iso_distance(M, x[0], y[0])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    ig.iso_distance(M, x, y)
    elapsed = time.perf_counter() - started
    rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    return {"peak_rss_rise_mb": rise / 1024.0, "ms": 1e3 * elapsed}


def identity_batches():
    out = {}
    for dim in BATCH_DIMS:
        done = subprocess.run([sys.executable, __file__, "--identity-batch", str(dim)],
                              capture_output=True, text=True, check=True, timeout=300)
        out[str(dim)] = json.loads(done.stdout)
    return out


def _cubic(c3, c2, c1, c0):
    return lambda x: ((c3 * x + c2) * x + c1) * x + c0


def root_solve_times():
    """Per-solve time (us) of newton_roots and of brentq on the same brackets."""
    from scipy.optimize import brentq
    rng = np.random.default_rng(3)
    problems = []
    for _ in range(2000):
        # Strictly increasing cubics with a root inside (lo, hi).
        lo, width, share, c2, c3, c1 = rng.uniform(
            [-20, -3, 0.01, -1, -3, -3], [5, 1.5, 0.99, 1, 3, 3]).tolist()
        hi = lo + 10.0 ** width
        c3, c1 = 10.0 ** c3, 10.0 ** c1
        c2 *= (3 * c1 * c3) ** 0.5
        r = lo + (hi - lo) * share
        problems.append((lo, hi, c3, c2, c1, -((c3 * r + c2) * r + c1) * r))
    lo, hi, c3, c2, c1, c0 = np.array(problems).T

    def g(i, x):
        return (((c3[i] * x + c2[i]) * x + c1[i]) * x + c0[i],
                (3 * c3[i] * x + 2 * c2[i]) * x + c1[i])

    lanes = np.arange(len(problems))
    f_lo, f_hi = g(lanes, lo)[0], g(lanes, hi)[0]
    # Start at the bracket's regula falsi point, as _invert starts at the
    # interpolated guess of its panel.
    start = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    scalar = [(_cubic(*coeffs), a, b) for a, b, *coeffs in problems]
    solvers = {
        "newton_roots": lambda: newton_roots(g, lo, hi, f_lo, f_hi, start, 1.0),
        "brentq": lambda: [brentq(f, a, b, xtol=REFINE_XTOL) for f, a, b in scalar],
    }
    return {name: 1e6 * _best(fn, number=1) / len(problems)
            for name, fn in solvers.items()}


INVERT_TARGETS = (118, 160)


def invert_times():
    """Per-call time (us) of one _invert of 118 and of 160 targets per geometry."""
    rng = np.random.default_rng(5)
    times = {}
    for name, make in GEOMETRIES.items():
        M = ig.PullbackManifold(make())
        a, b = M.diffeo.forward(_points(name, M, rng, 2))
        w = b - a
        cumlen = isomaps._knot_lengths(M, a, w)
        times[name] = {}
        for n in INVERT_TARGETS:
            target = np.linspace(0.0, cumlen[-1], n + 2)[1:-1]
            times[name][str(n)] = 1e6 * _best(
                lambda: isomaps._invert(M, a, w, cumlen, target), number=50)
    return times


def _output_calls(out):
    """The outputs the experiments write, as calls writing into ``out``."""
    M = ig.PullbackManifold(ig.river(5.0, 0.25))
    rows = experiments.geodesic_rows(M, np.array([0.0, -3.0]),
                                     np.array([1.0, 3.0]), 120, True)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-4.0, 4.0, (120, 2))
    labels = rng.integers(1, 3, 120)
    extra = [(f"label_{name}", rng.integers(1, 3, 120))
             for name in ("euclidean", "riemannian", "iso")]
    config = load_config(ROOT / "configs" / "river_kmeans.ini")
    manifest = {"config": config.echo(), "versions": experiments._versions(),
                "status": "ok", "wall_time_s": 0.123456789}
    return {
        "geodesic_csv_120x3": lambda: serialize.write_csv(
            os.path.join(out, "geodesic.csv"), ["t", "x0", "x1"], rows),
        "kmeans_points_csv_120": lambda: experiments._write_points(
            os.path.join(out, "points.csv"), pts, labels, extra),
        "manifest_json": lambda: serialize.write_json(
            os.path.join(out, "run_manifest.json"), manifest),
        "versions": experiments._versions,
    }


def output_times():
    """Per-call time (us) of each output the experiments write."""
    with tempfile.TemporaryDirectory() as out:
        calls = _output_calls(out)
        return {name: 1e6 * _best(fn, number=50) for name, fn in calls.items()}


def rewrite_times():
    """Median and p90 (us) of back-to-back rewrites of one existing file."""
    result = {}
    with tempfile.TemporaryDirectory() as out:
        calls = _output_calls(out)
        for name in ("geodesic_csv_120x3", "manifest_json"):
            calls[name]()
            times = []
            for _ in range(REWRITES):
                started = time.perf_counter()
                calls[name]()
                times.append(time.perf_counter() - started)
            result[name] = {"p50": 1e6 * statistics.median(times),
                            "p90": 1e6 * statistics.quantiles(times, n=10)[-1]}
    return result


@contextlib.contextmanager
def _nearest_counts():
    """Count ``clustering._nearest`` calls and the arc-length lines they measure.

    The lines are those of ``clustering._arc_lengths``, counted only while a
    ``_nearest`` call runs, so barycentre lines are left out.
    """
    counts = {"calls": 0, "lines": 0}
    inside = [False]
    nearest, lengths = clustering._nearest, clustering._arc_lengths

    def counting(M, a, w):
        if inside[0]:
            counts["lines"] += int(np.prod(np.broadcast_shapes(np.shape(a), np.shape(w))[:-1]))
        return lengths(M, a, w)

    def counted(*args):
        counts["calls"] += 1
        inside[0] = True
        try:
            return nearest(*args)
        finally:
            inside[0] = False

    with mock.patch.object(clustering, "_arc_lengths", counting), \
            mock.patch.object(clustering, "_nearest", counted):
        yield counts


def kmeans_times():
    """iso_kmeans time (ms), solver calls and assignment lines on k-means config datasets."""
    result = {}
    for name, K in (("river_kmeans.ini", None), ("spiral_kmeans.ini", None),
                    ("river_kmeans.ini", 4)):
        config = load_config(ROOT / "configs" / name)
        M = experiments.build_manifold(config)
        pts = ig.generate_dataset(config.dataset, M).points
        key = f"{name} k={K}" if K else name
        K = K or config.extras["k"]
        run = functools.partial(ig.iso_kmeans, M, pts, K,
                                config.dataset.seed, config.solver)
        with _nearest_counts() as nearest, \
                mock.patch.object(clustering, "iso_barycentre",
                                  wraps=clustering.iso_barycentre) as barycentre:
            res = run()
        calls = {"_nearest": nearest["calls"], "iso_barycentre": barycentre.call_count}
        result[key] = {"ms": 1e3 * _best(run, number=3), "iterations": res.iterations,
                       "converged": res.converged, "calls": calls,
                       "nearest_lines": nearest["lines"],
                       "nearest_lines_all_pairs": len(pts) * K * nearest["calls"]}
    return result


IRD_BANDS = (
    ("river n=30", ig.river(5.0, 0.25), 30,
     {"kind": "river_band", "noise_sigma": 0.25, "t_min": -6.0, "t_max": 6.0}),
    ("river n=60", ig.river(5.0, 0.25), 60,
     {"kind": "river_band", "noise_sigma": 0.25, "t_min": -6.0, "t_max": 6.0}),
    ("spiral n=60", ig.spiral(0.25), 60,
     {"kind": "spiral_band", "noise_sigma": 0.5, "t_min": 3.0, "t_max": 8.0}),
)


def ird_iteration_times():
    """Time (us) per iteration of one iso_barycentre solve on solver_loop's bands."""
    result = {}
    cfg = ig.LineSearchConfig(r0=1.0, c=0.5, max_iters=200, tol=1e-6)
    for key, diffeo, n, band in IRD_BANDS:
        M = ig.PullbackManifold(diffeo)
        pts = ig.generate_dataset(ig.DatasetSpec(n=n, seed=7, **band), M).points
        iterations = len(ig.iso_barycentre(M, pts, cfg)[1]) - 1
        solve = 1e6 * _best(lambda: ig.iso_barycentre(M, pts, cfg), number=20)
        result[key] = {"us": solve / max(1, iterations), "iterations": iterations}
    return result


def grid_oracle():
    """Time (ms) of the banana_inverse.ini grid oracle and the points its f evaluates."""
    config = load_config(ROOT / "configs" / "banana_inverse.ini")
    extras = config.extras
    S, A, b, _, f, _ = experiments.inverse_problem(
        experiments.build_manifold(config), extras)
    screen = experiments.least_squares_screen(A, b)
    grid = (extras["grid_min"], extras["grid_max"], extras["grid_points"])
    sizes = []

    def counted(X):
        sizes.append(len(X))
        return f(X)

    experiments.grid_search_1d(S, counted, *grid, screen=screen)
    return {"ms": 1e3 * _best(lambda: experiments.grid_search_1d(S, f, *grid, screen=screen),
                              number=5),
            "f_points": sum(sizes), "grid_points": extras["grid_points"]}


def split_crossover():
    """One-thread, split and gated table times between bursts of other work."""
    R = ig.PullbackManifold(ig.river())
    rng = np.random.default_rng(0)
    xs, ys = _points("river", R, rng, 30), _points("river", R, rng, 30)

    def other_work(seconds=1e-3):
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            isomaps._iso_transport_vecs(R, xs, ys, ys - xs)

    shipped = isomaps.SPLIT_PASSES, isomaps.SPLIT_PASS_S
    modes = {"serial": (sys.maxsize, 0.0), "split": (1, 0.0), "gated": shipped}
    result = {}
    try:
        for name in ("river", "identity"):
            M = ig.PullbackManifold(GEOMETRIES[name]())
            step = isomaps.PASS_BYTES // (8 * len(isomaps.unit_rule(M.quad)[0]) * M.dim)
            a = M.diffeo.forward(_points(name, M, rng, step * max(SPLIT_PASS_COUNTS)))
            w = M.diffeo.forward(_points(name, M, rng, len(a))) - a
            result[name] = {}
            for passes in SPLIT_PASS_COUNTS:
                lines = passes * step
                times = {mode: [] for mode in modes}
                for i in range(200):
                    for mode in list(modes)[i % 3:] + list(modes)[:i % 3]:
                        isomaps.SPLIT_PASSES, isomaps.SPLIT_PASS_S = modes[mode]
                        other_work()
                        started = time.perf_counter()
                        _arc_table(M, a[:lines], w[:lines])
                        times[mode].append(time.perf_counter() - started)
                ms = {mode: 1e3 * statistics.median(t) for mode, t in times.items()}
                result[name][str(passes)] = {
                    **ms, "split_ratio": ms["split"] / ms["serial"],
                    "gated_ratio": ms["gated"] / ms["serial"], "lines": lines}
    finally:
        isomaps.SPLIT_PASSES, isomaps.SPLIT_PASS_S = shipped
    return result


def cold_start():
    """Import time and whole-process config runs, each in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    imports, loaded_scipy = [], set()
    for _ in range(COLD_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        elapsed, scipy_seen = done.stdout.split()
        imports.append(float(elapsed))
        loaded_scipy.add(scipy_seen == "True")
    runs = {}
    with tempfile.TemporaryDirectory() as out:
        env["ISOGEO_OUTPUT_DIR"] = out
        for config in sorted((ROOT / "configs").glob("*.ini")):
            times, codes = [], set()
            for _ in range(COLD_SAMPLES):
                started = time.perf_counter()
                done = subprocess.run([sys.executable, "-m", "isogeo.cli", "run", str(config)],
                                      env=env, capture_output=True, timeout=300)
                times.append(time.perf_counter() - started)
                codes.add(done.returncode)
            runs[config.name] = {"process_s": statistics.median(times),
                                 "exit_codes": sorted(codes)}
    return {"import_s": statistics.median(imports),
            "import_loads_scipy": sorted(loaded_scipy), "run": runs}


def main(argv):
    if argv[:1] == ["--identity-batch"]:
        print(json.dumps(identity_batch(int(argv[1]))))
        return 0
    times, lengths, faults = arc_table_times()
    result = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "arc_table_ms": times,
        "arc_table_minflt": faults,
        "arc_lengths_ms": lengths,
        "jacobian_us": jacobian_times(),
        "per_call_us": per_call_times(),
        "iso_exp_quadratures": iso_exp_quadratures(),
        "identity_batch": identity_batches(),
        "root_solve_us": root_solve_times(),
        "invert_us": invert_times(),
        "output_us": output_times(),
        "rewrite_us": rewrite_times(),
        "kmeans": kmeans_times(),
        "ird_iteration_us": ird_iteration_times(),
        "grid_oracle": grid_oracle(),
        "split_crossover": split_crossover(),
        "cold_start": cold_start(),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
