"""Config parsing, experiment runner, and the isogeo command line."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo import clustering, experiments, iso_barycentre
from isogeo.cli import main
from isogeo.config import ConfigError, load_config
from isogeo.datasets import generate_dataset
from isogeo.diffeos import Diffeomorphism, identity
from isogeo.errors import DegenerateCurveError, DomainError, NonConvergenceError, StallError
from isogeo.pullback import PullbackManifold

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BARY_CONFIG = """
[geometry]
name = river
beta = 5.0
eta = 0.25

[experiment]
kind = barycentre

[dataset]
kind = river_band
n = 30
seed = 7
noise_sigma = 0.4
t_min = -4.0
t_max = 4.0

[solver]
tol = 1e-2
max_iters = 100

[output]
dir = {out}
"""


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_values(tmp_path):
    path = write_config(tmp_path, BARY_CONFIG.format(out=tmp_path / "out"))
    cfg = load_config(path)
    assert cfg.geometry_name == "river"
    assert cfg.geometry_params == {"beta": 5.0, "eta": 0.25}
    assert cfg.experiment == "barycentre"
    assert cfg.dataset.n == 30 and cfg.dataset.seed == 7
    assert cfg.solver.tol == 1e-2 and cfg.solver.max_iters == 100
    assert cfg.quad.panels == 64


def test_config_diagnostics(tmp_path):
    bad = """
[geometry]
name = escher
beta = fast

[experiment]
kind = mystery

[dataset]
kind = river_band
n = 10

[typo_section]
x = 1
"""
    path = write_config(tmp_path, bad)
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    text = "\n".join(excinfo.value.problems)
    assert "geometry.name" in text
    assert "geometry.beta" in text
    assert "experiment.kind" in text
    assert "dataset.seed" in text
    assert "typo_section" in text


def test_config_rejects_refine_tol(tmp_path):
    text = BARY_CONFIG.format(out=tmp_path / "out") + "\n[quadrature]\nrefine_tol = 1e-10\n"
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert excinfo.value.problems == ["quadrature.refine_tol: unknown key"]
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == experiments.EXIT_USAGE


def test_config_rejects_max_bracket_doublings(tmp_path):
    text = (BARY_CONFIG.format(out=tmp_path / "out")
            + "\n[quadrature]\nmax_bracket_doublings = 12\n")
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert excinfo.value.problems == ["quadrature.max_bracket_doublings: unknown key"]
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == experiments.EXIT_USAGE


def test_config_requires_sections(tmp_path):
    path = write_config(tmp_path, "[output]\ndir = x\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert any("geometry" in p for p in excinfo.value.problems)
    assert any("experiment" in p for p in excinfo.value.problems)


def test_shipped_configs_validate(monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    for path in sorted(CONFIG_DIR.glob("*.ini")):
        cfg = load_config(path)
        assert cfg.experiment in experiments._RUNNERS


def test_output_dir_env_override(tmp_path, monkeypatch):
    path = write_config(tmp_path, BARY_CONFIG.format(out="ignored"))
    monkeypatch.setenv("ISOGEO_OUTPUT_DIR", str(tmp_path / "forced"))
    cfg = load_config(path)
    assert cfg.output_dir == str(tmp_path / "forced")


def test_run_barycentre_writes_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    path = write_config(tmp_path, BARY_CONFIG.format(out=out))
    code = experiments.run(load_config(path))
    assert code == 0
    for name in ("points.csv", "trace.csv", "summary.json",
                 "run_manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["experiment"]["kind"] == "barycentre"
    assert "wall_time_s" in manifest
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] and summary["final_field_norm"] < 1e-2


def test_run_kmeans_writes_labels_and_ari(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    text = f"""
[geometry]
name = river

[experiment]
kind = kmeans
k = 2

[dataset]
kind = two_clusters
n = 20
seed = 7
noise_sigma = 0.05
t_min = -8.0
t_max = 8.0
gap = 6.0

[solver]
tol = 1e-4

[output]
dir = {out}
"""
    assert experiments.run(load_config(write_config(tmp_path, text))) == 0
    header = (out / "points.csv").read_text().splitlines()[0]
    assert header == ("x0,x1,truth,label_euclidean,label_riemannian,"
                      "label_iso")
    summary = json.loads((out / "summary.json").read_text())
    for method in ("euclidean", "riemannian", "iso"):
        assert {"ari", "centroids", "iterations", "converged"} <= set(
            summary[method])
    assert summary["iso"]["ari"] == 1.0


def test_run_kmeans_of_one_point_writes_valid_json(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    text = f"""
[geometry]
name = river

[experiment]
kind = kmeans
k = 1

[dataset]
kind = two_clusters
n = 1
seed = 7

[output]
dir = {out}
"""
    path = write_config(tmp_path, text)
    runner = CliRunner()
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
    assert runner.invoke(main, ["run", str(path)]).exit_code == 0

    def reject(name):
        raise ValueError(f"summary.json holds {name}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert [summary[m]["ari"] for m in ("euclidean", "riemannian", "iso")] == [1.0] * 3


STALLING_KMEANS_CONFIG = """
[geometry]
name = river

[experiment]
kind = kmeans
k = 2

[dataset]
kind = two_clusters
n = 20
seed = 0
noise_sigma = 1.0
t_min = -8.0
t_max = 8.0
gap = 3.0

[output]
dir = {out}
"""


def test_run_kmeans_reports_swallowed_stalls(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    stalls = []
    solve = clustering.iso_barycentre

    def recording(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except StallError:
            stalls.append(1)
            raise

    monkeypatch.setattr(clustering, "iso_barycentre", recording)
    out = tmp_path / "out"
    path = write_config(tmp_path, STALLING_KMEANS_CONFIG.format(out=out))
    assert experiments.run(load_config(path)) == experiments.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert stalls and summary["iso"]["stalls"] == len(stalls)
    assert "stalls" not in summary["euclidean"] and "stalls" not in summary["riemannian"]


def test_run_kmeans_without_stalls_writes_no_stall_count(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("ISOGEO_OUTPUT_DIR", str(out))
    config = load_config(CONFIG_DIR / "river_kmeans.ini")
    riemannian = mock.Mock(wraps=clustering.riemannian_kmeans)
    monkeypatch.setattr(clustering, "riemannian_kmeans", riemannian)
    monkeypatch.setattr(experiments, "riemannian_kmeans", riemannian)
    assert experiments.run(config) == experiments.EXIT_OK
    assert riemannian.call_count == 1
    summary = json.loads((out / "summary.json").read_text())
    assert all("stalls" not in entry for entry in summary.values())


def test_run_ratios_sinh_restriction_is_one(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    text = f"""
[geometry]
name = sinh_shift_1d

[experiment]
kind = ratios
grid_n = 11
x1_min = -2.0
x1_max = 2.0

[dataset]
kind = river_band
n = 8
seed = 3
noise_sigma = 0.4
t_min = -1.5
t_max = 1.5

[solver]
tol = 1e-8

[output]
dir = {out}
"""
    assert experiments.run(load_config(write_config(tmp_path, text))) == 0
    rows = np.genfromtxt(out / "ratios.csv", delimiter=",", names=True)
    mono = rows["monotonicity"][np.isfinite(rows["monotonicity"])]
    lips = rows["lipschitz"][np.isfinite(rows["lipschitz"])]
    assert len(mono) >= 9
    np.testing.assert_allclose(mono, 1.0, atol=1e-6)
    np.testing.assert_allclose(lips, 1.0, atol=1e-6)


def test_run_inverse_with_noise(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    text = f"""
[geometry]
name = banana

[experiment]
kind = inverse
rows = 3
op_seed = 2
noise = 0.05
offset = 4.0
s_true = 1.5
s0 = 2.0
grid_points = 2001
grid_min = -6.0
grid_max = 6.0

[solver]
tol = 1e-2

[output]
dir = {out}
"""
    assert experiments.run(load_config(write_config(tmp_path, text))) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    assert summary["param_gap"] <= 2 * summary["grid_cell"]
    assert (out / "trace.csv").exists()


@pytest.mark.parametrize("rows", [2, 3])
def test_inverse_objective_batch_equals_point_by_point(banana_manifold, rows):
    for op_seed in (2, 5, 11, 23):
        extras = {"rows": rows, "op_seed": op_seed, "noise": 0.05, "offset": 4.0,
                  "s_true": 1.5}
        S, A, b, _, f, _ = experiments.inverse_problem(banana_manifold, extras)
        X = S.points_at(np.linspace(-6.0, 6.0, 2001))
        one = [f(x) for x in X]
        assert all(type(v) is float for v in one)
        assert np.array_equal(f(X), one)
        # Each value is the plain per-point residual norm, bit for bit.
        assert one == [0.5 * float(np.dot(A @ x - b, A @ x - b)) for x in X]
        assert np.array_equal(f(X.reshape(1, -1, 1, 2)), f(X).reshape(1, -1, 1))
        s, x, value, _ = experiments.grid_search_1d(S, f, -6.0, 6.0, 2001)
        assert value == min(one) and np.array_equal(x, X[int(np.argmin(one))])


@pytest.mark.parametrize("d", [2, 3, 16, 64])
@pytest.mark.parametrize("rows", [1, 2, 5])
def test_inverse_gradient_batch_equals_point_by_point(rows, d):
    extras = {"rows": rows, "op_seed": 3, "noise": 0.05, "offset": 1.0, "s_true": 0.5}
    _, A, b, _, _, grad = experiments.inverse_problem(PullbackManifold(identity(d)), extras)
    X = np.random.default_rng(d).standard_normal((40, d))
    G = grad(X)
    assert G.shape == X.shape
    for x, g in zip(X, G):
        assert np.array_equal(g, A.T @ (A @ x - b))
        assert np.array_equal(grad(x), g)
    assert np.array_equal(grad(X.reshape(4, 10, d)), G.reshape(4, 10, d))


def test_grid_search_in_chunks_equals_one_shot_search(banana_manifold):
    extras = {"rows": 3, "op_seed": 5, "noise": 0.05, "offset": 4.0, "s_true": 1.5}
    S, A, b, _, f, _ = experiments.inverse_problem(banana_manifold, extras)
    screen = experiments.least_squares_screen(A, b)
    chunk = experiments.PASS_BYTES // (8 * banana_manifold.dim)
    objectives = [
        f,
        # The screened least-squares search: f runs on the candidates only.
        (f, screen),
        # Ties inside and across chunks: the first minimum wins.
        lambda X: np.floor(np.abs(np.sin(3.0 * X[..., 1])) * 2.0),
        lambda X: np.zeros(X.shape[:-1]),
        # The minimum at the last point, which linspace sets to s_max.
        lambda X: -X[..., 1],
        # A NaN wins, as in argmin.
        lambda X: np.where(X[..., 1] > 2.0, np.nan, f(X)),
    ]
    # The last range has a step that underflows to zero.
    for s_min, s_max in ((-6.0, 6.0), (-0.3, 1.7), (2.5, 2.5), (0.0, 1.5e-323)):
        for n_points in (2 * chunk + 123, chunk + 1, chunk, 3, 2):
            # The one-shot search: the whole grid mapped and evaluated at once.
            s = np.linspace(s_min, s_max, n_points)
            chunks = [experiments._linspace_chunk(s_min, s_max, n_points, i,
                                                  min(i + chunk, n_points))
                      for i in range(0, n_points, chunk)]
            assert np.array_equal(np.concatenate(chunks), s)
            X = S.points_at(s)
            for objective in objectives:
                objective, screen = (objective if isinstance(objective, tuple)
                                     else (objective, None))
                values = objective(X)
                best = int(values.argmin())
                got = experiments.grid_search_1d(S, objective, s_min, s_max, n_points,
                                                 screen=screen)
                want = (s[best], X[best], values[best], s[1] - s[0])
                for g, w in zip(got, want):
                    assert np.array_equal(g, w, equal_nan=True)
                    assert type(g) is type(w)
    with pytest.raises(ValueError, match="n_points >= 2"):
        experiments.grid_search_1d(S, f, -6.0, 6.0, 1)


def _counting(f):
    """f, and the list of the batch sizes it was called with."""
    sizes = []

    def counted(X):
        sizes.append(len(X))
        return f(X)
    return counted, sizes


@pytest.mark.parametrize("tie", [(100, 101), (6143, 6144)])
def test_screened_search_keeps_the_first_of_tied_minima(identity2, tie):
    # f = 0.5 (s - c)^2 + 2 (s - c)^2 with c halfway between two grid points
    # of a dyadic grid, so the residuals there are exactly +-h/2 and the two
    # values tie bit for bit; the second tie is across a chunk boundary.
    S = experiments._vertical_line_submanifold(identity2, 4.0)
    n_points = 16385
    h = 1.0 / (n_points - 1)
    c = (tie[0] + 0.5) * h
    A = np.array([[0.0, 1.0], [0.0, -2.0]])
    b = np.array([c, -2.0 * c])

    def f(X):
        r = (A @ X[..., None])[..., 0] - b
        return 0.5 * np.vecdot(r, r)

    s = np.linspace(0.0, 1.0, n_points)
    values = f(S.points_at(s))
    assert values[tie[0]] == values[tie[1]] == values.min()
    counted, sizes = _counting(f)
    got = experiments.grid_search_1d(S, counted, 0.0, 1.0, n_points,
                                     screen=experiments.least_squares_screen(A, b))
    want = experiments.grid_search_1d(S, f, 0.0, 1.0, n_points)
    assert got[0] == s[tie[0]]
    for g, w in zip(got, want):
        assert np.array_equal(g, w) and type(g) is type(w)
    # f still runs on a few points per chunk.
    assert sum(sizes) < 3 * len(sizes)


def _sqrt_map():
    """(x1, x2^2), whose inverse (y1, sqrt(y2)) is NaN where y2 < 0."""
    return Diffeomorphism(
        2, lambda x: np.stack([x[..., 0], x[..., 1] ** 2], axis=-1),
        lambda y: np.stack([y[..., 0], np.sqrt(y[..., 1])], axis=-1))


@pytest.mark.parametrize("manifold, s_min, s_max", [
    # The banana's a s^2 overflows: the screen reads inf, with an inf bound.
    ("banana", -1e200, 1e200),
    # NaN points in the first chunk: the screen reads NaN there, and the
    # first NaN value wins.
    ("sqrt", -1.0, 1.0),
])
def test_screened_search_falls_back_on_non_finite_values(banana_manifold, manifold,
                                                         s_min, s_max):
    extras = {"rows": 2, "op_seed": 5, "noise": 0.0, "offset": 4.0, "s_true": 1.5}
    _, A, b, _, f, _ = experiments.inverse_problem(banana_manifold, extras)
    M = banana_manifold if manifold == "banana" else PullbackManifold(_sqrt_map())
    S = experiments._vertical_line_submanifold(M, 4.0)
    screen = experiments.least_squares_screen(A, b)
    chunk = experiments.PASS_BYTES // (8 * M.dim)
    n_points = chunk + 7
    with np.errstate(over="ignore", invalid="ignore"):
        X = S.points_at(np.linspace(s_min, s_max, n_points)[:chunk])
        approx, bound = screen(np.ascontiguousarray(X.T))
        assert not np.isfinite(approx).all()
        counted, sizes = _counting(f)
        got = experiments.grid_search_1d(S, counted, s_min, s_max, n_points,
                                         screen=screen)
        want = experiments.grid_search_1d(S, f, s_min, s_max, n_points)
    # The first chunk goes to f whole.
    assert sizes[0] == chunk
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True) and type(g) is type(w)
    assert np.isnan(got[2]) == (manifold == "sqrt")


def test_screened_search_of_the_shipped_config(banana_manifold):
    # The 100 001-point oracle of configs/banana_inverse.ini runs f on a few
    # points per chunk, with the result of the unscreened search.
    cfg = load_config(CONFIG_DIR / "banana_inverse.ini")
    M = experiments.build_manifold(cfg)
    S, A, b, _, f, _ = experiments.inverse_problem(M, cfg.extras)
    args = (cfg.extras["grid_min"], cfg.extras["grid_max"], cfg.extras["grid_points"])
    counted, sizes = _counting(f)
    got = experiments.grid_search_1d(S, counted, *args,
                                     screen=experiments.least_squares_screen(A, b))
    want = experiments.grid_search_1d(S, f, *args)
    for g, w in zip(got, want):
        assert np.array_equal(g, w) and type(g) is type(w)
    assert len(sizes) == 17 and sum(sizes) <= 2 * len(sizes)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 4), rows=st.integers(1, 6), op_seed=st.integers(0, 10**6),
       noise=st.sampled_from([0.0, 0.05, 3.0]),
       offset=st.floats(-1e3, 1e3), center=st.floats(-1e3, 1e3),
       log_scale=st.integers(-12, 6), n=st.integers(1, 64),
       point_seed=st.integers(0, 10**6))
def test_screen_is_within_its_bound_of_f(dim, rows, op_seed, noise, offset, center,
                                         log_scale, n, point_seed):
    M = PullbackManifold(identity(dim))
    extras = {"rows": rows, "op_seed": op_seed, "noise": noise, "offset": offset,
              "s_true": 1.5}
    _, A, b, _, f, _ = experiments.inverse_problem(M, extras)
    rng = np.random.default_rng(point_seed)
    X = center + 10.0 ** log_scale * rng.standard_normal((n, dim))
    approx, bound = experiments.least_squares_screen(A, b)(np.ascontiguousarray(X.T))
    assert approx.shape == (n,) and np.isfinite(bound)
    assert np.all(np.abs(approx - f(X)) <= bound)
    # Each is within half the bound of the exact value.
    exact = [sum((sum(Fraction(a) * Fraction(x) for a, x in zip(row, point))
                  - Fraction(bi)) ** 2 for row, bi in zip(A.tolist(), b.tolist())) / 2
             for point in X[:3].tolist()]
    for value, want in zip(approx.tolist(), exact):
        assert abs(Fraction(value) - want) <= Fraction(bound) / 2


def test_import_loads_no_scipy():
    # scipy is a test oracle only: the library and the CLI start without it.
    src = Path(experiments.__file__).resolve().parents[1]
    code = ("import sys, isogeo, isogeo.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == "[]\n"


def test_run_determinism_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        path = write_config(tmp_path, BARY_CONFIG.format(out=out),
                            name=f"{sub}.ini")
        assert experiments.run(load_config(path)) == 0
        outs.append(out)
    for name in ("points.csv", "trace.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_versions_looked_up_once_across_runs(tmp_path, monkeypatch):
    from importlib import metadata
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    lookups = []
    version = metadata.version
    monkeypatch.setattr(metadata, "version",
                        lambda name: lookups.append(name) or version(name))
    experiments._versions.cache_clear()
    try:
        for sub in ("a", "b", "c"):
            out = tmp_path / sub
            path = write_config(tmp_path, BARY_CONFIG.format(out=out),
                                name=f"{sub}.ini")
            assert experiments.run(load_config(path)) == 0
            versions = json.loads((out / "run_manifest.json").read_text())["versions"]
            assert versions["numpy"] == np.__version__
            assert versions["isogeo"]
    finally:
        experiments._versions.cache_clear()
    assert lookups == ["isogeo"]


def test_run_stall_exit_code_and_partial_trace(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    stall = BARY_CONFIG.format(out=out).replace(
        "tol = 1e-2", "tol = 1e-12\nr0 = 8.0\nc = 0.95\nmax_backtracks = 3")
    path = write_config(tmp_path, stall)
    code = experiments.run(load_config(path))
    assert code == experiments.EXIT_STALL
    assert (out / "trace.csv").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "stalled"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stalled"] is True


def test_run_stalled_ratios_flags_its_summary(tmp_path, monkeypatch):
    # The ratios grid is taken around the stalled solve's best iterate, and
    # the summary says so, as a stalled barycentre run's does.
    out = tmp_path / "out"
    monkeypatch.setenv("ISOGEO_OUTPUT_DIR", str(out))
    text = (CONFIG_DIR / "river_ratios.ini").read_text().replace(
        "tol = 1e-6", "tol = 1e-12\nr0 = 8.0\nc = 0.95\nmax_backtracks = 3")
    config = load_config(write_config(tmp_path, text))
    M = experiments.build_manifold(config)
    with pytest.raises(StallError) as stall:
        iso_barycentre(M, generate_dataset(config.dataset, M).points, config.solver)
    assert experiments.run(config) == experiments.EXIT_STALL
    assert json.loads((out / "run_manifest.json").read_text())["status"] == "stalled"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stalled"] is True
    assert summary["iso_barycentre"] == stall.value.best.tolist()
    assert (out / "ratios.csv").exists()


def test_manifest_written_on_error(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"

    def failing(config, M, outdir):
        raise ValueError("no points")

    monkeypatch.setitem(experiments._RUNNERS, "barycentre", failing)
    path = write_config(tmp_path, BARY_CONFIG.format(out=out))
    code = experiments.run(load_config(path))
    assert code != 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "error" in manifest


@pytest.mark.parametrize("error, code", [
    (TypeError("bad operand"), experiments.EXIT_INTERNAL),
    (KeyError("missing"), experiments.EXIT_INTERNAL),
    (NonConvergenceError("no bracket"), experiments.EXIT_STALL),
    (DomainError("left the chart"), experiments.EXIT_STALL),
    (DegenerateCurveError("coinciding endpoints"), experiments.EXIT_STALL),
])
def test_run_exit_code_by_exception_type(tmp_path, monkeypatch, error, code):
    # Only the library's typed numerical failures count as stalls; anything
    # else is an internal error and its traceback goes into the manifest.
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"

    def failing(config, M, outdir):
        raise error

    monkeypatch.setitem(experiments._RUNNERS, "barycentre", failing)
    path = write_config(tmp_path, BARY_CONFIG.format(out=out))
    assert experiments.run(load_config(path)) == code
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"].startswith(type(error).__name__)
    if code == experiments.EXIT_INTERNAL:
        assert "in failing" in manifest["traceback"]
    else:
        assert "traceback" not in manifest


def test_cli_validate_and_run(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    runner = CliRunner()
    path = write_config(tmp_path, BARY_CONFIG.format(out=tmp_path / "out"))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 0 and "ok:" in result.output
    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == 0
    assert result.output == f"config.ini: ok -> {tmp_path / 'out'}\n"


def test_cli_run_several_configs_exits_with_highest_code(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    good = write_config(tmp_path, BARY_CONFIG.format(out=tmp_path / "good"),
                        name="good.ini")
    stall = write_config(tmp_path, BARY_CONFIG.format(out=tmp_path / "stall").replace(
        "tol = 1e-2", "tol = 1e-12\nr0 = 8.0\nc = 0.95\nmax_backtracks = 3"),
        name="stall.ini")
    bad = write_config(tmp_path, "[geometry]\nname = escher\n", name="bad.ini")
    runner = CliRunner()
    result = runner.invoke(main, ["run", str(bad), str(good)])
    assert result.exit_code == experiments.EXIT_USAGE
    assert result.stdout.splitlines() == [
        "bad.ini: config error", f"good.ini: ok -> {tmp_path / 'good'}"]
    assert "error: geometry.name" in result.stderr
    assert (tmp_path / "good" / "summary.json").exists()
    result = runner.invoke(main, ["run", str(stall), str(bad), str(good)])
    assert result.exit_code == experiments.EXIT_STALL
    assert result.stdout.splitlines()[0] == f"stall.ini: stalled -> {tmp_path / 'stall'}"


@pytest.mark.parametrize("outdir, error", [("outfile", "[Errno 17] File exists"),
                                           ("outfile/sub", "[Errno 20] Not a directory")],
                         ids=["a-file", "under-a-file"])
def test_cli_run_reports_an_output_dir_it_cannot_make_and_goes_on(tmp_path, monkeypatch,
                                                                  outdir, error):
    # The config's error, with no traceback and no manifest; the next config runs.
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    (tmp_path / "outfile").touch()
    a = write_config(tmp_path, BARY_CONFIG.format(out=tmp_path / outdir), name="a.ini")
    b = write_config(tmp_path, BARY_CONFIG.format(out=tmp_path / "b"), name="b.ini")
    result = CliRunner().invoke(main, ["run", str(a), str(b)])
    assert result.exit_code == experiments.EXIT_USAGE
    assert result.stdout.splitlines() == ["a.ini: config error",
                                          f"b.ini: ok -> {tmp_path / 'b'}"]
    assert result.stderr == f"error: output.dir: {error}: '{tmp_path / outdir}'\n"
    assert (tmp_path / "outfile").read_bytes() == b""
    assert (tmp_path / "b" / "run_manifest.json").exists()


@pytest.mark.parametrize("outdir", ["outfile", "outfile/sub"],
                         ids=["a-file", "under-a-file"])
def test_cli_validate_reports_an_output_dir_below_a_file(tmp_path, monkeypatch, outdir):
    # validate exits 2 with one error line, as run does, and makes nothing.
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    (tmp_path / "outfile").touch()
    path = write_config(tmp_path, BARY_CONFIG.format(out=tmp_path / outdir))
    before = sorted(tmp_path.rglob("*"))
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == experiments.EXIT_USAGE
    assert result.stdout == ""
    assert result.stderr == (f"error: output.dir: '{tmp_path / 'outfile'}' "
                             f"is not a directory\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_validate_makes_no_output_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    path = write_config(tmp_path, BARY_CONFIG.format(out=tmp_path / "new" / "sub"))
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == 0 and "ok:" in result.stdout
    assert not (tmp_path / "new").exists()


def test_cli_rejects_bad_config(tmp_path):
    runner = CliRunner()
    path = write_config(tmp_path, "[geometry]\nname = escher\n")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == experiments.EXIT_USAGE
    assert "error:" in result.output
    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == experiments.EXIT_USAGE


def test_cli_geodesic_stdout_and_file(tmp_path):
    runner = CliRunner()
    args = ["geodesic", "--geometry", "river", "--beta", "5", "--eta", "0.25",
            "--from", "0,0", "--to", "3,0", "--samples", "5", "--iso"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "t,x0,x1"
    assert lines[1] == "0,0,0"
    assert lines[-1] == "1,3,0"
    dest = tmp_path / "geo.csv"
    result = runner.invoke(main, args + ["--output", str(dest)])
    assert result.exit_code == 0
    assert dest.read_text().strip().splitlines()[0] == "t,x0,x1"
    # A rerun over a longer file leaves exactly the stdout bytes.
    dest.write_text("stale," * 1000)
    result = runner.invoke(main, args + ["--output", str(dest)])
    assert result.exit_code == 0
    assert dest.read_text() == runner.invoke(main, args).stdout


def test_cli_geodesic_output_to_dev_null():
    result = CliRunner().invoke(main, [
        "geodesic", "--geometry", "river", "--from", "0,0", "--to", "3,0",
        "--samples", "5", "--output", os.devnull])
    assert result.exit_code == 0 and result.output == ""


def test_cli_geodesic_output_into_a_missing_directory_is_a_usage_error(tmp_path):
    dest = tmp_path / "nodir" / "x.csv"
    result = CliRunner().invoke(main, [
        "geodesic", "--geometry", "river", "--from", "0,0", "--to", "3,0",
        "--samples", "5", "--output", str(dest)])
    assert result.exit_code == experiments.EXIT_USAGE
    assert result.stderr == f"error: --output: [Errno 2] No such file or directory: '{dest}'\n"
    assert result.stdout == "" and not dest.parent.exists()


def test_cli_geodesic_argument_validation():
    # Bad points exit 2 with the diagnostic of the [experiment] from/to parser,
    # and a negative sample count as for [experiment] samples.
    runner = CliRunner()
    for args, want in [
            (["--from", "0,0,0"], "--from: expected 2 comma-separated coordinates, got 3"),
            (["--from", "zero"], "--from: could not convert string to float: 'zero'"),
            (["--from", "nan,0"], "--from: coordinates must be finite, got nan,0"),
            (["--from", "0,-inf"], "--from: coordinates must be finite, got 0,-inf"),
            (["--from", "0,0", "--samples", "-1"],
             "Invalid value for '--samples': -1 is not in the range x>=0.")]:
        result = runner.invoke(main, ["geodesic", "--geometry", "river", "--to", "1,1", *args])
        assert result.exit_code == experiments.EXIT_USAGE
        assert result.stderr.endswith(f"Error: {want}\n")
        assert result.stdout == ""


def test_cli_geodesic_rejects_out_of_range_geometry_parameters():
    result = CliRunner().invoke(main, ["geodesic", "--geometry", "river", "--beta", "-1",
                                       "--from", "0,0", "--to", "1,1"])
    assert result.exit_code == 2
    assert ("bad parameters for river: river requires beta, eta > 0, got -1.0, 0.25"
            in result.stderr)


def test_cli_geodesic_rejects_non_finite_geometry_parameters():
    result = CliRunner().invoke(main, ["geodesic", "--geometry", "river", "--beta", "nan",
                                       "--from", "0,-3", "--to", "1,3"])
    assert result.exit_code == 2
    assert "bad parameters for river: river requires a finite beta, got nan" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("args, error", [
    (["--geometry", "spiral", "--from", "0,0", "--to", "1,1"],
     "DomainError: spiral map is undefined at the origin"),
    (["--geometry", "river", "--from", "1,1", "--to", "1,1", "--samples", "5", "--iso"],
     "DegenerateCurveError: the time change is undefined for coinciding endpoints")])
def test_cli_geodesic_numerical_failure_exits_stalled(args, error):
    # A typed numerical failure exits as from isogeo run: one line, no traceback.
    result = CliRunner().invoke(main, ["geodesic", *args])
    assert result.exit_code == experiments.EXIT_STALL
    assert result.stderr == f"error: {error}\n"
    assert result.stdout == ""


@pytest.mark.parametrize("samples", [1, 2])
def test_geodesic_rows_coincident_endpoints_without_interior(river_manifold, samples):
    x = np.array([1.0, -2.0])
    rows = experiments.geodesic_rows(river_manifold, x, x.copy(), samples, True)
    assert rows.tolist() == [[t, 1.0, -2.0] for t in np.linspace(0.0, 1.0, samples)]
    with pytest.raises(DegenerateCurveError):
        experiments.geodesic_rows(river_manifold, x, x.copy(), 3, True)


def test_geodesic_experiment_config(tmp_path, monkeypatch):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    text = f"""
[geometry]
name = banana

[experiment]
kind = geodesic
from = -2.0,-3.0
to = 2.0,3.0
samples = 20
iso = true

[output]
dir = {out}
"""
    path = write_config(tmp_path, text)
    assert experiments.run(load_config(path)) == 0
    rows = np.genfromtxt(out / "geodesic.csv", delimiter=",", names=True)
    assert rows.shape == (20,)
    np.testing.assert_allclose([rows["x0"][0], rows["x1"][0]], [-2.0, -3.0])
    np.testing.assert_allclose([rows["x0"][-1], rows["x1"][-1]], [2.0, 3.0])


@pytest.mark.parametrize("end", ["from", "to"])
def test_geodesic_experiment_non_finite_point_is_config_error(tmp_path, monkeypatch, end):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    points = {"from": "-2.0,-3.0", "to": "2.0,3.0"}
    text = f"""
[geometry]
name = banana

[experiment]
kind = geodesic
from = {{from}}
to = {{to}}

[output]
dir = {out}
"""
    want = f"experiment.{end}: coordinates must be finite, got nan,-3.0"
    bad = write_config(tmp_path, text.format(**{**points, end: "nan,-3.0"}), "bad.ini")
    with pytest.raises(ConfigError) as excinfo:
        load_config(bad)
    assert excinfo.value.problems == [want]
    # A config edited after loading still fails in the run, as a config error.
    config = load_config(write_config(tmp_path, text.format(**points)))
    config.extras[end] = "nan,-3.0"
    code = experiments.run(config)
    assert code == experiments.EXIT_USAGE
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["error"].endswith(want)
    assert not (out / "geodesic.csv").exists()


GEODESIC_POINT_TEXT = """
[geometry]
name = banana

[experiment]
kind = geodesic
{lines}
[output]
dir = {out}
"""


@pytest.mark.parametrize("lines, want", [
    ("to = 2.0,3.0\n", "experiment.from: key is required"),
    ("from = -2.0,-3.0\n", "experiment.to: key is required"),
    ("from = zero\nto = 2.0,3.0\n",
     "experiment.from: could not convert string to float: 'zero'"),
    ("from = -2.0,-3.0\nto = 1.0\n",
     "experiment.to: expected 2 comma-separated coordinates, got 1"),
    ("from = -2.0,-3.0,0.0\nto = 2.0,3.0\n",
     "experiment.from: expected 2 comma-separated coordinates, got 3"),
    ("from = -2.0,-3.0\nto = 2.0,inf\n",
     "experiment.to: coordinates must be finite, got 2.0,inf"),
])
def test_geodesic_points_are_checked_at_load(tmp_path, monkeypatch, lines, want):
    # validate and run agree: both exit 2 with the same problem, before any output.
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    path = str(write_config(tmp_path, GEODESIC_POINT_TEXT.format(lines=lines, out=out)))
    runner = CliRunner()
    for command in ("validate", "run"):
        result = runner.invoke(main, [command, path])
        assert result.exit_code == experiments.EXIT_USAGE
        assert result.stderr == f"error: {want}\n"
    assert not out.exists()


def test_ratios_on_more_than_two_dimensions_is_config_error(tmp_path, monkeypatch):
    # The ratio grid spans x1 and x2 only: at d = 3 every row would be NaN.
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    text = f"""
[geometry]
name = identity
dim = {{dim}}

[experiment]
kind = ratios
grid_n = 3

[dataset]
kind = two_clusters
n = 6
seed = 1

[output]
dir = {out}
"""
    want = "experiment.kind: a ratios grid spans 2 axes, the geometry has 3 dimensions"
    path = str(write_config(tmp_path, text.format(dim=3)))
    runner = CliRunner()
    for command in ("validate", "run"):
        result = runner.invoke(main, [command, path])
        assert result.exit_code == experiments.EXIT_USAGE
        assert result.stderr == f"error: {want}\n"
    assert not out.exists()
    assert experiments.run(load_config(write_config(tmp_path, text.format(dim=2)))) == 0
    assert (out / "ratios.csv").read_text().startswith("x0,x1,monotonicity,lipschitz\n")


def test_inverse_on_one_dimension_is_config_error(tmp_path, monkeypatch):
    # The constraint line runs along phi's second axis, which a 1-D map lacks.
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    path = str(write_config(tmp_path, f"""
[geometry]
name = sinh_shift_1d

[experiment]
kind = inverse

[output]
dir = {out}
"""))
    want = ("experiment.kind: an inverse problem's line runs along the second phi-axis, "
            "the geometry has 1 dimension")
    runner = CliRunner()
    for command in ("validate", "run"):
        result = runner.invoke(main, [command, path])
        assert result.exit_code == experiments.EXIT_USAGE
        assert result.stderr == f"error: {want}\n"
    assert not out.exists()
