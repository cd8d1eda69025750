"""Config-driven experiment dispatch behind the command line.

Each experiment reads its settings from an ExperimentConfig, writes
plot-ready CSVs into the output directory and returns a JSON summary (None
for a geodesic) that ``run`` writes; ``run`` also always leaves a run
manifest behind, even when the experiment fails.  Exit codes: 0 success,
2 usage/config error, 3 stall or non-convergence (partial traces are still
written), 4 any other exception, whose traceback the manifest records.
"""

import functools
import math
import os
import time
import traceback

import numpy as np

from .clustering import _iso_kmeans, adjusted_rand_index, euclidean_kmeans, riemannian_kmeans
from .config import ConfigError, _parse_point
from .datasets import DatasetSpec, generate_dataset
from .descent import _field_points, _mean_vecs, _solve, iso_barycentre
from .diffeos import make_diffeomorphism
from .errors import (DegenerateBasisError, DegenerateCurveError, DomainError,
                     NonConvergenceError, StallError)
from .isomaps import PASS_BYTES, _iso_log_vecs, _iso_transport_vecs, iso_geodesic
from .pullback import PullbackManifold, as_point, closed_form_barycentre, lc_geodesic
from .quadrature import _linspace_chunk
from .serialize import _csv_text, _write_text, write_csv, write_json
from .submanifold import GeodesicSubmanifold, _frame_submanifold, _rank_r_frame, l2pg_ird

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STALL = 3
EXIT_INTERNAL = 4

# Typed numerical failures of the library; they exit with EXIT_STALL.
NUMERICAL_FAILURES = (StallError, NonConvergenceError, DomainError,
                      DegenerateCurveError, DegenerateBasisError)


@functools.cache
def _versions():
    # Looked up on the first run, not at import: importlib.metadata is slow
    # to import, and the lookup scans sys.path when isogeo is not installed.
    from importlib import metadata
    try:
        own = metadata.version("isogeo")
    except metadata.PackageNotFoundError:
        own = "unreleased"
    return {"isogeo": own, "numpy": np.__version__}


def build_manifold(config):
    diffeo = make_diffeomorphism(config.geometry_name, config.geometry_params)
    return PullbackManifold(diffeo, config.quad)


def geodesic_rows(M, start, end, samples, iso):
    """The ``(samples, 1 + d)`` float table of times t and geodesic points."""
    ts = np.linspace(0.0, 1.0, samples)
    if not iso:
        return np.column_stack([ts, lc_geodesic(M, start, end, ts[:, None])])
    # The endpoints are written as given; the interior times share one
    # table, and with none (samples <= 2) coincident endpoints are fine.
    points = np.where((ts == 0.0)[:, None], start, end).astype(float)
    inner = (ts > 0.0) & (ts < 1.0)
    if inner.any():
        points[inner] = iso_geodesic(M, start, end, ts[inner])
    return np.column_stack([ts, points])


def geodesic_csv(M, start, end, samples, iso):
    """The CSV text of ``geodesic_rows`` under a ``t, x0..x{d-1}`` header."""
    header = ["t"] + [f"x{i}" for i in range(M.dim)]
    return _csv_text(header, geodesic_rows(M, start, end, samples, iso))


def _run_geodesic(config, M, outdir):
    start = _parse_point(config.extras["from"], M.dim, "experiment.from")
    end = _parse_point(config.extras["to"], M.dim, "experiment.to")
    _write_text(os.path.join(outdir, "geodesic.csv"), geodesic_csv(
        M, start, end, config.extras["samples"], config.extras["iso"]))
    return EXIT_OK, None


def _stall_code(summary, stalled):
    """EXIT_STALL, with ``"stalled": true`` in the summary, if the solver stalled."""
    if stalled:
        summary["stalled"] = True
    return EXIT_STALL if stalled else EXIT_OK


def _write_points(path, points, labels=None, extra=()):
    columns = [] if labels is None else [("truth", labels)]
    columns += extra
    header = [f"x{i}" for i in range(points.shape[1])] + [name for name, _ in columns]
    write_csv(path, header, np.column_stack([points, *(values for _, values in columns)]))


def _run_barycentre(config, M, outdir):
    data = generate_dataset(config.dataset, M)
    pts = data.points
    _write_points(os.path.join(outdir, "points.csv"), pts, data.labels)
    euclidean_mean = pts.mean(axis=0)
    riemannian = closed_form_barycentre(M, pts)
    summary = {"euclidean_mean": euclidean_mean, "riemannian_barycentre": riemannian}
    summary["iso_barycentre"], trace = _solve(
        iso_barycentre, M, pts, config.solver)
    summary["converged"] = trace.converged
    trace.write_csv(os.path.join(outdir, "trace.csv"))
    summary["iterations"] = len(trace) - 1
    summary["final_field_norm"] = trace.field_norms[-1]
    return _stall_code(summary, trace.stalled), summary


def _run_kmeans(config, M, outdir):
    data = generate_dataset(config.dataset, M)
    pts = data.points
    K = config.extras["k"]
    seed = config.dataset.seed
    results = {
        "euclidean": euclidean_kmeans(pts, K, seed),
        "riemannian": riemannian_kmeans(M, pts, K, seed),
    }
    results["iso"] = _iso_kmeans(M, pts, results["riemannian"], config.solver)
    extra = [(f"label_{name}", res.labels) for name, res in results.items()]
    _write_points(os.path.join(outdir, "points.csv"), pts, data.labels, extra)
    summary = {}
    for name, res in results.items():
        entry = {"centroids": res.centroids, "iterations": res.iterations,
                 "converged": res.converged}
        if res.stalls:
            entry["stalls"] = res.stalls
        if data.labels is not None:
            entry["ari"] = adjusted_rand_index(res.labels, data.labels)
        summary[name] = entry
    return EXIT_OK, summary


def _vertical_line_submanifold(M, offset):
    basis = np.zeros((M.dim, 1))
    basis[1, 0] = 1.0
    phi_base = np.zeros(M.dim)
    phi_base[0] = offset
    return GeodesicSubmanifold(M, M.diffeo.inverse(phi_base), basis)


def inverse_problem(M, extras):
    """Seeded least-squares problem constrained to a phi-vertical line.

    The Gaussian operator is rescaled so its action on the unit tangent at
    the solution has norm one, i.e. the problem satisfies approximate
    restricted isometry along the manifold.
    """
    S = _vertical_line_submanifold(M, extras["offset"])
    rng = np.random.default_rng(extras["op_seed"])
    A = rng.standard_normal((extras["rows"], M.dim))
    x_true = S.point_at(extras["s_true"])
    tangent = S.tangent_basis(x_true)[:, 0]
    A = A / np.linalg.norm(A @ (tangent / np.linalg.norm(tangent)))
    b = A @ x_true + extras["noise"] * rng.standard_normal(extras["rows"])

    def f(x):
        # Batch-first: a float for one (d,) point, an (...) array for
        # (..., d).  The stacked matvec is bitwise A @ x for every point
        # (``x @ A.T`` is not), and vecdot runs the dot kernel of np.dot.
        r = (A @ x[..., None])[..., 0] - b
        value = 0.5 * np.vecdot(r, r)
        return float(value) if value.ndim == 0 else value

    def grad(x):
        # Batch-first as f is: stacked matvecs with the bits of A.T @ (A @ x - b).
        return (A.T @ ((A @ x[..., None])[..., 0] - b)[..., None])[..., 0]

    return S, A, b, x_true, f, grad


def least_squares_screen(A, b):
    """Screen for ``grid_search_1d`` of f(x) = 0.5 |A x - b|^2.

    ``screen(XT)`` takes a chunk of points component-major, ``(d, n)``.  It
    returns the values 0.5 sum_i r_i^2 from one gemm ``A @ XT`` and a
    row-by-row sum of squares, and a bound on their distance from the
    values of any other rounded evaluation of f, such as the stacked matvec
    of ``inverse_problem``.

    The bound is a-priori and holds for any summation order, with or
    without FMA.  Let u = 2^-53 and gamma_n = n u / (1 - n u) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, section 3.1).
    For a chunk, C_i = sum_k |a_ik| max |x_k| + |b_i|, so |r_i| <= C_i at
    each of its points.

    - A residual is an inner product of length d + 1 (the last term is
      -b_i times 1), so its rounded value errs by |e_i| <= g C_i, where
      g = gamma_{d+1}.
    - As r_hat^2 - r^2 = e (2 r + e), the squares of the rounded
      residuals sum to within (2 g + g^2) sum C_i^2 of sum r_i^2.
    - The rounded sum of m squares errs by at most
      gamma_m sum r_hat_i^2 <= gamma_m (1 + g)^2 sum C_i^2.
    - Together an evaluation is within (gamma_m + 3 g) sum C_i^2 of the
      exact sum, as gamma_m, g <= 1/4, and halving it is exact.  Two
      evaluations of f are thus within (gamma_m + 3 g) sum C_i^2 of each
      other.  The coefficient is doubled to cover the rounding of the
      bound itself.
    - Higham's model assumes no underflow.  A rounding that underflows
      errs by at most 2^-1075 absolutely, so a residual gains at most
      (d + 1) 2^-1075 <= tiny, the smallest normal number.  Through the
      squares and sums of two evaluations that adds less than
      ``tiny * (4 sum C_i + 2 m)``.
    - The bound is inf when 2 sum C_i^2 overflows, so no evaluation of f
      overflows where it is finite.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, d = A.shape
    u = np.finfo(float).eps / 2.0

    def gamma(n):
        return n * u / (1.0 - n * u)

    coef = 2.0 * (gamma(m) + 3.0 * gamma(d + 1))
    tiny = np.finfo(float).tiny
    abs_A, abs_b, column = np.abs(A), np.abs(b), b[:, None]
    # The residuals of every chunk go into one buffer: a fresh (m, n) array
    # per chunk is over glibc's mmap threshold at m = 3 and faults its pages
    # in on every chunk.  The values a call returns live in it until the next.
    work = np.empty(0)

    def screen(XT):
        nonlocal work
        n = XT.shape[1]
        if work.size < m * n:
            work = np.empty(m * n)
        R = np.matmul(A, XT, out=work[:m * n].reshape(m, n))
        R -= column
        np.square(R, out=R)
        values = R[0]
        for row in R[1:]:
            values += row
        values *= 0.5
        C = abs_A @ np.abs(XT).max(axis=1) + abs_b
        total = float(C @ C)
        if not math.isfinite(2.0 * total):
            return values, np.inf
        return values, coef * total + tiny * (4.0 * float(C.sum()) + 2.0 * m)

    return screen


def grid_search_1d(S, f, s_min, s_max, n_points, screen=None):
    """Brute-force minimizer of a batch-first f over the 1D submanifold parameter.

    The grid is built, mapped and evaluated in chunks of PASS_BYTES of
    points, and only the running minimum is kept, so memory stays small at
    any n_points.  The result equals an argmin over the whole
    ``np.linspace`` grid: the first minimum wins, and a NaN value wins.
    f must map a batch of points as it maps each one.

    ``screen(XT)``, if given, maps a chunk's points component-major,
    ``(d, n)``, to approximate values and a bound on their distance from
    f, as ``least_squares_screen`` does.  f then runs, in index order, only
    on the candidates: the points whose value minus the bound is at most
    the smallest value plus the bound.  Every other point has a larger f
    than the point of the smallest value, so the result is unchanged.  A
    chunk with a non-finite value or bound goes to f whole.
    """
    if n_points < 2:
        raise ValueError(f"grid search needs n_points >= 2, got {n_points}")
    s_min, s_max = float(s_min), float(s_max)
    chunk = max(1, PASS_BYTES // (8 * S.manifold.dim))
    best = None
    for start in range(0, n_points, chunk):
        s = _linspace_chunk(s_min, s_max, n_points, start,
                            min(start + chunk, n_points))
        X = S.points_at(s)
        if screen is not None:
            approx, bound = screen(np.ascontiguousarray(X.T))
            if np.isfinite(bound) and np.isfinite(approx).all():
                # v - bound <= v_min + bound; rounding is monotone, so the
                # rounded test keeps every point the exact one keeps.
                cand = np.flatnonzero(approx <= approx.min() + 2.0 * bound)
                s, X = s[cand], X[cand]
        values = f(X)
        i = int(values.argmin())
        if best is None or values[i] < best[1] or (
                np.isnan(values[i]) and not np.isnan(best[1])):
            best = s[i], values[i]
    s_best, f_best = best
    first = _linspace_chunk(s_min, s_max, n_points, 0, 2)
    return s_best, S.points_at(np.array([s_best]))[0], f_best, first[1] - first[0]


def _run_inverse(config, M, outdir):
    extras = config.extras
    S, A, b, x_true, f, grad = inverse_problem(M, extras)
    x0 = S.point_at(extras["s0"])
    summary = {"A": A, "b": b, "x_true": x_true, "s_true": extras["s_true"],
               "offset": extras["offset"]}
    solution, trace = _solve(l2pg_ird, S, f, grad, x0, config.solver)
    summary["converged"] = trace.converged
    trace.write_csv(os.path.join(outdir, "trace.csv"))
    s_grid, x_grid, f_grid, cell = grid_search_1d(
        S, f, extras["grid_min"], extras["grid_max"], extras["grid_points"],
        screen=least_squares_screen(A, b))
    s_solution = float(S.params_of(solution)[0])
    summary.update({
        "solution": solution, "s_solution": s_solution,
        "objective": f(solution), "grid_minimizer": x_grid,
        "s_grid": s_grid, "grid_objective": f_grid, "grid_cell": cell,
        "param_gap": abs(s_solution - s_grid),
    })
    return _stall_code(summary, trace.stalled), summary


# Failures that make a node's ratios undefined: its row reads NaN.
RATIO_UNDEFINED = (ValueError, DomainError, DegenerateCurveError)


def _batch_ratio_rows(M, points, xbar, grid):
    nodes = as_point(grid, M.dim, "grid", batch=True).reshape(-1, M.dim)
    xbar = as_point(xbar, M.dim, "xbar")
    pts = _field_points(M, points)
    fields = _mean_vecs(_iso_log_vecs(M, nodes[:, None], pts[None])[0])
    logs, dists = _iso_log_vecs(M, xbar, nodes)
    moved = _iso_transport_vecs(M, xbar, nodes, logs)
    # Non-finite vectors are a ValueError, as for one node's TangentVector.
    for name, vecs in [("field", fields), ("log", logs), ("transport", moved)]:
        as_point(vecs, M.dim, name, batch=True)
    # Python floats, as in the one-node ratios: float ** 2 calls libm pow,
    # which can differ by an ulp from numpy's squaring of an array.
    squares = np.array([dist ** 2 for dist in dists.tolist()])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        table = np.column_stack([nodes, np.vecdot(fields, moved) / squares,
                                 np.sqrt(np.vecdot(fields, fields)) / dists])
    table[dists == 0.0, M.dim:] = np.nan
    return table


def ratio_grid_rows(M, points, xbar, grid):
    """(G, d + 2) float rows of coords, monotonicity, lipschitz; NaN where undefined.

    The whole grid is one batch, with the values of one-node ratio calls.
    A batch that fails (a node off the domain, say) is split in half and
    each half retried, so only a node that fails on its own gets NaN ratios.
    """
    try:
        return _batch_ratio_rows(M, points, xbar, grid)
    except RATIO_UNDEFINED:
        if len(grid) > 1:
            half = len(grid) // 2
            return np.concatenate([ratio_grid_rows(M, points, xbar, grid[:half]),
                                   ratio_grid_rows(M, points, xbar, grid[half:])])
        return np.concatenate([grid, np.full((len(grid), 2), np.nan)], axis=1)


def _run_ratios(config, M, outdir):
    data = generate_dataset(config.dataset, M)
    pts = data.points
    _write_points(os.path.join(outdir, "points.csv"), pts, data.labels)
    xbar, trace = _solve(iso_barycentre, M, pts, config.solver)
    extras = config.extras
    box = ((extras["x1_min"], extras["x1_max"]), (extras["x2_min"], extras["x2_max"]))
    grid = generate_dataset(DatasetSpec("grid", n=extras["grid_n"], box=box), M).points
    rows = ratio_grid_rows(M, pts, xbar, grid)
    header = [f"x{i}" for i in range(M.dim)] + ["monotonicity", "lipschitz"]
    write_csv(os.path.join(outdir, "ratios.csv"), header, rows)
    finite = rows[np.isfinite(rows[:, M.dim:]).all(axis=1), M.dim:]
    summary = {"iso_barycentre": xbar,
               "monotonicity_min": finite[:, 0].min() if len(finite) else None,
               "lipschitz_max": finite[:, 1].max() if len(finite) else None}
    return _stall_code(summary, trace.stalled), summary


def _run_rankr(config, M, outdir):
    pts = generate_dataset(config.dataset, M).points
    r = config.extras["r"]
    base, logs, U = _rank_r_frame(M, pts, closed_form_barycentre(M, pts), r)
    # Not the full SVD's values: this call's differ from them in bits.
    svals = np.linalg.svd(logs, compute_uv=False)
    write_csv(os.path.join(outdir, "basis.csv"), [f"u{j}" for j in range(r)], U)
    write_csv(os.path.join(outdir, "phi_basis.csv"), [f"b{j}" for j in range(r)],
              _frame_submanifold(M, base, U).phi_basis)
    summary = {"base": base, "singular_values": svals,
               "tail_energy": float(np.sum(svals[r:] ** 2))}
    return EXIT_OK, summary


_RUNNERS = {
    "geodesic": _run_geodesic,
    "barycentre": _run_barycentre,
    "kmeans": _run_kmeans,
    "inverse": _run_inverse,
    "ratios": _run_ratios,
    "rankr": _run_rankr,
}


def run(config):
    """Dispatch an experiment config; returns the process exit code.  An output
    directory that cannot be made raises ConfigError, with no manifest."""
    outdir = config.output_dir
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"output.dir: {exc}"]) from None
    manifest = {"config": config.echo(), "versions": dict(_versions()),
                "status": "running"}
    started = time.perf_counter()
    try:
        M = build_manifold(config)
        code, summary = _RUNNERS[config.experiment](config, M, outdir)
        if summary is not None:
            write_json(os.path.join(outdir, "summary.json"), summary)
        manifest["status"] = "ok" if code == EXIT_OK else "stalled"
    except ConfigError as exc:
        manifest["status"] = "error"
        manifest["error"] = str(exc)
        code = EXIT_USAGE
    except Exception as exc:  # manifest still records the failure
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, NUMERICAL_FAILURES):
            code = EXIT_STALL
        else:
            manifest["traceback"] = traceback.format_exc()
            code = EXIT_INTERNAL
    finally:
        manifest["wall_time_s"] = time.perf_counter() - started
        write_json(os.path.join(outdir, "run_manifest.json"), manifest)
    return code
