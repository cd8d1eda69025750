"""The benchmark's seeded workloads and the checks on their outputs.

A workload is a list of tasks plus a list of accuracy probe pairs.  A task
is one ``isogeo.experiments.run`` call on a generated INI config, or one
top-level library call; its check reads what the call produced and returns
a list of problems (empty when the output is correct).  Everything is drawn
from the workload seed, so the same seed gives the same inputs, configs and
outputs.  Why each workload exists is written down in ``README.md``.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import isogeo as ig
from isogeo import experiments
from isogeo.config import load_config

RIVER = {"beta": 5.0, "eta": 0.25}
SPIRAL = {"beta": 0.25}
BANANA = {"a": 1.0 / 9.0, "z": 0.0}


@dataclass
class Task:
    name: str
    call: object          # () -> result, the timed part
    check: object         # result -> list of problems
    outdir: str = None    # experiment output directory, hashed for determinism


@dataclass
class Workload:
    tasks: list
    probes: list          # (geometry, manifold, x, y) accuracy probe pairs
    manifolds: list       # manifolds built during set-up that tasks call into


def manifold(name, params):
    return ig.PullbackManifold(ig.make_diffeomorphism(name, params))


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, np.ndarray):
        return ",".join(repr(float(c)) for c in value)
    return str(value)


def _ini(sections):
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_fmt(value)}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def _experiment(workdir, name, sections, check):
    """Write an INI config, load it with ISOGEO_OUTPUT_DIR set, wrap it in a task."""
    os.makedirs(os.path.join(workdir, "configs"), exist_ok=True)
    path = os.path.join(workdir, "configs", name + ".ini")
    with open(path, "w") as fh:
        fh.write(_ini(sections))
    outdir = os.path.join(workdir, "out", name)
    previous = os.environ.get("ISOGEO_OUTPUT_DIR")
    os.environ["ISOGEO_OUTPUT_DIR"] = outdir
    try:
        config = load_config(path)
    finally:
        if previous is None:
            del os.environ["ISOGEO_OUTPUT_DIR"]
        else:
            os.environ["ISOGEO_OUTPUT_DIR"] = previous

    def checked(code):
        if code != experiments.EXIT_OK:
            return [f"exit code {code}"]
        return check(outdir)

    return Task(name, lambda: experiments.run(config), checked, outdir)


def output_digest(outdir):
    """sha256 of every CSV and summary.json an experiment wrote.

    run_manifest.json is left out: it records a wall time.
    """
    digest = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv") or name == "summary.json":
            digest.update(name.encode())
            with open(os.path.join(outdir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _csv_rows(outdir, name):
    """Data rows of a CSV as floats (an empty cell reads as NaN)."""
    with open(os.path.join(outdir, name), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(v) if v else math.nan for v in row] for row in rows]


def _summary(outdir):
    with open(os.path.join(outdir, "summary.json")) as fh:
        return json.load(fh)


# ---- output checks -------------------------------------------------------

def _check_ratios(n_nodes, identity):
    """Ratio grid complete; on a 1-D pullback both ratios are exactly 1."""
    def check(outdir):
        rows = _csv_rows(outdir, "ratios.csv")
        problems = []
        if len(rows) != n_nodes:
            problems.append(f"ratios.csv has {len(rows)} rows, expected {n_nodes}")
        finite = [r[-2:] for r in rows if all(map(math.isfinite, r[-2:]))]
        if not finite:
            problems.append("no finite ratio on the grid")
        if identity:
            worst = max((abs(v - 1.0) for r in finite for v in r), default=0.0)
            if worst > 1e-6:
                problems.append(f"1-D ratios deviate from 1 by {worst:.2e}")
        if _summary(outdir)["monotonicity_min"] is None:
            problems.append("summary has no monotonicity_min")
        return problems
    return check


# Every GEODESIC_CHECK_STRIDE-th sample is checked against iso-distances.  Both
# distances carry the quadrature's relative error, up to 2e-8 on the longest
# river geodesics over 40 seeds.  A missing or unrefined arc-length inversion
# is off by 1e-4 to 1e-1 on some pair of every seed tried.
GEODESIC_CHECK_STRIDE = 8
GEODESIC_T_TOL = 1e-6


def _check_geodesic(M, start, end):
    """Sampled iso-geodesic: exact endpoints and constant speed inside.

    The endpoints only test that the CSV round-trips, since the experiment
    writes them itself.  The interior samples test ``iso_geodesic``: the
    iso-distance from the start to the sample at time t must be t times the
    whole iso-distance.
    """
    def check(outdir):
        rows = _csv_rows(outdir, "geodesic.csv")
        if len(rows) != GEODESIC_SAMPLES:
            return [f"geodesic.csv has {len(rows)} rows, expected {GEODESIC_SAMPLES}"]
        problems = []
        if rows[0][1:] != list(start) or rows[-1][1:] != list(end):
            problems.append("iso-geodesic endpoints are not exact")
        if rows[0][0] != 0.0 or rows[-1][0] != 1.0:
            problems.append("geodesic times do not span [0, 1]")
        total = ig.iso_distance(M, start, end)
        worst = max(abs(ig.iso_distance(M, start, np.array(row[1:])) / total - row[0])
                    for row in rows[GEODESIC_CHECK_STRIDE:-1:GEODESIC_CHECK_STRIDE])
        if not worst <= GEODESIC_T_TOL:
            problems.append(f"iso-geodesic sample times are off by up to {worst:.2e} "
                            f"in arc-length share")
        return problems
    return check


SPEED_CV_LIMIT = 1e-3


def speed_cv(profile):
    speeds = np.asarray(profile)[:, 1]
    return float(np.std(speeds) / np.mean(speeds))


def _check_speed(profile):
    cv = speed_cv(profile)
    if not cv < SPEED_CV_LIMIT:
        return [f"speed profile cv {cv:.2e} >= {SPEED_CV_LIMIT}"]
    return []


def _check_kmeans(outdir):
    ari = _summary(outdir)["iso"]["ari"]
    return [] if ari == 1.0 else [f"iso-K-means ARI {ari} != 1"]


def _check_barycentre(tol):
    def check(outdir):
        summary = _summary(outdir)
        if not (summary["converged"] and summary["final_field_norm"] < tol):
            return [f"barycentre not converged to {tol}: "
                    f"field norm {summary['final_field_norm']:.3e}"]
        return []
    return check


def _check_inverse(outdir):
    summary = _summary(outdir)
    problems = [] if summary["converged"] else ["l2PG-IRD did not converge"]
    if not summary["param_gap"] <= summary["grid_cell"]:
        problems.append(f"param gap {summary['param_gap']:.2e} exceeds "
                        f"grid cell {summary['grid_cell']:.2e}")
    return problems


# ---- inputs ---------------------------------------------------------------

def _seed(rng):
    return int(rng.integers(2 ** 31))


def _box(rng, bounds):
    return np.array([rng.uniform(lo, hi) for lo, hi in bounds])


def _spiral_point(rng, M):
    # Drawn in phi-coordinates, clear of the origin and of the 0/2pi cut.
    return M.diffeo.inverse(np.array([rng.uniform(6.0, 24.0), rng.uniform(1.0, 5.2)]))


PROBE_SEED = 20251021
PROBES_PER_GEOMETRY = 8


def _probes(name, M, bounds):
    """Fixed accuracy probe pairs over a box: its diagonals plus random pairs.

    They do not depend on the workload seed, so the accuracy metrics repeat
    exactly from run to run and compare code versions on the same pairs.
    """
    rng = np.random.default_rng(PROBE_SEED)
    if name == "spiral":
        pairs = [(M.diffeo.inverse(np.array([6.0, 1.0])),
                  M.diffeo.inverse(np.array([24.0, 5.2])))]
        pairs += [(_spiral_point(rng, M), _spiral_point(rng, M))
                  for _ in range(PROBES_PER_GEOMETRY)]
    else:
        lo, hi = np.array(bounds, dtype=float).T
        pairs = [(lo, hi)]
        if len(bounds) == 2:
            pairs.append((np.array([lo[0], hi[1]]), np.array([hi[0], lo[1]])))
        pairs += [(_box(rng, bounds), _box(rng, bounds))
                  for _ in range(PROBES_PER_GEOMETRY)]
    return [(name, M, x, y) for x, y in pairs]


# ---- workloads ------------------------------------------------------------

RIVER_GRID = {"x1_min": -6.0, "x1_max": 6.0, "x2_min": -4.0, "x2_max": 4.0}
RIVER_GRID_BOX = ((RIVER_GRID["x1_min"], RIVER_GRID["x1_max"]),
                  (RIVER_GRID["x2_min"], RIVER_GRID["x2_max"]))
SINH_BOX = ((-2.5, 2.5),)


RIVER_RATIO_TASKS = 8
SINH_RATIO_TASKS = 4
RIVER_GRID_N = 4
SINH_GRID_N = 41


def ratio_grid(seed, workdir):
    """Ratio experiments on a river 2-D grid and on a sinh 1-D grid."""
    rng = np.random.default_rng(seed)
    river = manifold("river", RIVER)
    sinh = manifold("sinh_shift_1d", {})
    tasks = []
    for i in range(RIVER_RATIO_TASKS):
        sections = {"geometry": {"name": "river", **RIVER},
                    "experiment": {"kind": "ratios", "grid_n": RIVER_GRID_N,
                                   **RIVER_GRID},
                    "dataset": {"kind": "river_band", "n": 30, "seed": _seed(rng),
                                "noise_sigma": 0.25, "t_min": -5.0, "t_max": 5.0},
                    "solver": {"tol": 1e-6}}
        tasks.append(_experiment(workdir, f"river_ratios_{i}", sections,
                                 _check_ratios(RIVER_GRID_N ** 2, identity=False)))
    for i in range(SINH_RATIO_TASKS):
        sections = {"geometry": {"name": "sinh_shift_1d"},
                    "experiment": {"kind": "ratios", "grid_n": SINH_GRID_N,
                                   "x1_min": SINH_BOX[0][0], "x1_max": SINH_BOX[0][1]},
                    "dataset": {"kind": "river_band", "n": 12, "seed": _seed(rng),
                                "noise_sigma": 0.4, "t_min": -2.0, "t_max": 2.0},
                    "solver": {"tol": 1e-8}}
        tasks.append(_experiment(workdir, f"sinh_ratios_{i}", sections,
                                 _check_ratios(SINH_GRID_N, identity=True)))
    probes = (_probes("river", river, RIVER_GRID_BOX)
              + _probes("sinh", sinh, SINH_BOX))
    return Workload(tasks, probes, [])


GEODESIC_BOXES = {"river": ((-4.0, 4.0), (-6.0, 6.0)),
                  "spiral": None,
                  "banana": ((-4.0, 4.0), (-4.0, 4.0)),
                  "sinh_shift_1d": SINH_BOX}
GEOMETRIES = {"river": RIVER, "spiral": SPIRAL, "banana": BANANA,
              "sinh_shift_1d": {}}


PAIRS_PER_GEOMETRY = 4
GEODESIC_SAMPLES = 120
PROFILE_SAMPLES = 80


def geodesic_sampling(seed, workdir):
    """Iso-geodesic experiments and speed profiles on seeded endpoint pairs."""
    rng = np.random.default_rng(seed)
    tasks, probes, manifolds = [], [], []
    for name, bounds in GEODESIC_BOXES.items():
        M = manifold(name, GEOMETRIES[name])
        manifolds.append(M)
        for i in range(PAIRS_PER_GEOMETRY):
            if name == "spiral":
                x, y = _spiral_point(rng, M), _spiral_point(rng, M)
            else:
                x, y = _box(rng, bounds), _box(rng, bounds)
            sections = {"geometry": {"name": name, **GEOMETRIES[name]},
                        "experiment": {"kind": "geodesic", "from": x, "to": y,
                                       "samples": GEODESIC_SAMPLES, "iso": True}}
            tasks.append(_experiment(workdir, f"{name}_geodesic_{i}", sections,
                                     _check_geodesic(M, x, y)))
            tasks.append(Task(
                f"{name}_speed_profile_{i}",
                lambda M=M, x=x, y=y: ig.speed_profile(M, x, y, PROFILE_SAMPLES),
                _check_speed))
        probes += _probes(name, M, bounds)
    return Workload(tasks, probes, manifolds)


SOLVER_REPEATS = 2
KMEANS_N = 120
BAND_N = 60
BARYCENTRE_TOL = 1e-6


def solver_loop(seed, workdir):
    """iso-K-means, tight-tolerance iso-barycentres and l2PG-IRD inverse problems."""
    rng = np.random.default_rng(seed)
    river = manifold("river", RIVER)
    spiral = manifold("spiral", SPIRAL)
    banana = manifold("banana", BANANA)
    clusters = {"river": {"t_min": -8.0, "t_max": 8.0, "gap": 6.0},
                "spiral": {"t_min": 2.0, "t_max": 8.0, "gap": 3.0,
                           "center": math.pi}}
    bands = {"river": {"kind": "river_band", "noise_sigma": 0.25,
                       "t_min": -6.0, "t_max": 6.0},
             "spiral": {"kind": "spiral_band", "noise_sigma": 0.5,
                        "t_min": 3.0, "t_max": 8.0, "center": math.pi}}
    tasks = []
    for i in range(SOLVER_REPEATS):
        for name, shape in clusters.items():
            sections = {"geometry": {"name": name, **GEOMETRIES[name]},
                        "experiment": {"kind": "kmeans", "k": 2},
                        "dataset": {"kind": "two_clusters", "n": KMEANS_N,
                                    "seed": _seed(rng), "noise_sigma": 0.05, **shape},
                        "solver": {"tol": 1e-5}}
            tasks.append(_experiment(workdir, f"{name}_kmeans_{i}", sections,
                                     _check_kmeans))
        for name, shape in bands.items():
            sections = {"geometry": {"name": name, **GEOMETRIES[name]},
                        "experiment": {"kind": "barycentre"},
                        "dataset": {"n": BAND_N, "seed": _seed(rng), **shape},
                        "solver": {"r0": 1.0, "c": 0.5, "max_iters": 200,
                                   "tol": BARYCENTRE_TOL}}
            tasks.append(_experiment(workdir, f"{name}_barycentre_{i}", sections,
                                     _check_barycentre(BARYCENTRE_TOL)))
        sections = {"geometry": {"name": "banana", **BANANA},
                    "experiment": {"kind": "inverse", "rows": 2 + i % 2,
                                   "op_seed": _seed(rng), "noise": 0.0,
                                   "offset": 4.0, "s_true": 1.5, "s0": 2.0,
                                   "grid_points": 100001, "grid_min": -6.0,
                                   "grid_max": 6.0},
                    "solver": {"r0": 1.0, "c": 0.5, "tol": 1e-6}}
        tasks.append(_experiment(workdir, f"banana_inverse_{i}", sections,
                                 _check_inverse))
    probes = (_probes("river", river, ((-8.0, 8.0), (-6.0, 6.0)))
              + _probes("spiral", spiral, None)
              + _probes("banana", banana, ((-4.0, 8.0), (-6.0, 6.0))))
    return Workload(tasks, probes, [])


WORKLOADS = {"ratio_grid": ratio_grid,
             "geodesic_sampling": geodesic_sampling,
             "solver_loop": solver_loop}
