"""Config loading: the exact diagnostics of each section, defaults, round trips."""

import dataclasses

import pytest
from click.testing import CliRunner

from isogeo import experiments
from isogeo.cli import main
from isogeo.config import _EXPERIMENT_FIELDS, ConfigError, load_config
from isogeo.datasets import DatasetSpec
from isogeo.descent import LineSearchConfig
from isogeo.diffeos import make_diffeomorphism
from isogeo.quadrature import QuadratureConfig

BASE = {
    "geometry": {"name": "river", "beta": "5.0", "eta": "0.25"},
    "experiment": {"kind": "kmeans", "k": "2"},
    "dataset": {"kind": "two_clusters", "n": "40", "seed": "7",
                "noise_sigma": "0.1", "t_min": "-8.0", "t_max": "8.0",
                "gap": "6.0"},
    "solver": {"tol": "1e-5"},
    "quadrature": {"panels": "32"},
    "output": {"dir": "out/config_test"},
}


def render(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def write(tmp_path, edits=None, drop=()):
    """BASE with per-section key edits (None deletes a key) and dropped sections."""
    sections = {name: dict(keys) for name, keys in BASE.items() if name not in drop}
    for name, keys in (edits or {}).items():
        section = sections.setdefault(name, {})
        for key, value in keys.items():
            if value is None:
                section.pop(key, None)
            else:
                section[key] = value
    path = tmp_path / "config.ini"
    path.write_text(render(sections))
    return path


def problems(tmp_path, edits=None, drop=()):
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, edits, drop))
    return excinfo.value.problems


def assert_config_error(tmp_path, edits, want):
    """The one problem ``want`` at load, and a usage exit of validate and run."""
    assert problems(tmp_path, edits) == [want]
    path = str(write(tmp_path, edits))
    runner = CliRunner()
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == experiments.EXIT_USAGE
    assert result.stderr == f"error: {want}\n"
    result = runner.invoke(main, ["run", path])
    assert result.exit_code == experiments.EXIT_USAGE


@pytest.mark.parametrize("edits, want", [
    ({"experiment": {"k": "two"}},
     ["experiment.k: invalid literal for int() with base 10: 'two'"]),
    ({"experiment": {"kk": "3"}}, ["experiment.kk: unknown key"]),
    ({"experiment": {"kind": "mystery"}},
     ["experiment.kind: must be one of geodesic, barycentre, kmeans, inverse, "
      "ratios, rankr, got 'mystery'", "experiment.k: unknown key"]),
    ({"experiment": {"kind": "geodesic", "k": None, "iso": "maybe"}},
     ["experiment.iso: expected a boolean, got 'maybe'"]),
    ({"dataset": {"n": "ten"}},
     ["dataset.n: invalid literal for int() with base 10: 'ten'"]),
    ({"dataset": {"colour": "red"}}, ["dataset.colour: unknown key"]),
    ({"dataset": {"n": "0"}}, ["dataset: n must be >= 1, got 0"]),
    ({"solver": {"tol": "small"}},
     ["solver.tol: could not convert string to float: 'small'"]),
    ({"solver": {"tolerance": "1e-3"}}, ["solver.tolerance: unknown key"]),
    ({"solver": {"c": "2"}}, ["solver: c must lie in (0, 1), got 2.0"]),
    ({"quadrature": {"panels": "many"}},
     ["quadrature.panels: invalid literal for int() with base 10: 'many'"]),
    ({"quadrature": {"order": "3"}}, ["quadrature.order: unknown key"]),
    ({"quadrature": {"panels": "0"}}, ["quadrature: panels must be >= 1, got 0"]),
    # The dataset is built only when no earlier key has a problem, the solver
    # and quadrature settings only when no key has one; key problems are
    # listed section by section.
    ({"dataset": {"n": "0"}, "solver": {"c": "2"}, "quadrature": {"panels": "0"}},
     ["dataset: n must be >= 1, got 0"]),
    ({"solver": {"c": "2"}, "quadrature": {"panels": "0"}},
     ["solver: c must lie in (0, 1), got 2.0",
      "quadrature: panels must be >= 1, got 0"]),
    ({"quadrature": {"panels": "0", "order": "3"}, "solver": {"c": "x"},
      "output": {"format": "csv"}, "extra": {"a": "1"}},
     ["solver.c: could not convert string to float: 'x'",
      "quadrature.order: unknown key", "output.format: unknown key",
      "extra: unknown section"]),
    ({"dataset": {"kind": "river_band", "seed": None, "n": "0"}},
     ["dataset.seed: required for stochastic generator 'river_band'"]),
    ({"geometry": {"name": "escher", "beta": "fast"}},
     ["geometry.name: unknown geometry 'escher'; registered: banana, identity, "
      "river, sinh_shift_1d, spiral",
      "geometry.beta: could not convert string to float: 'fast'"]),
    ({"dataset": {"kind": "lattice"}},
     ["dataset.kind: unknown kind 'lattice'; known: river_band, spiral_band, "
      "two_clusters, grid"]),
    # The grid oracle needs two points for its cell width.
    ({"experiment": {"kind": "inverse", "k": None, "grid_points": "1"}},
     ["experiment.grid_points: must be >= 2, got 1"]),
    ({"experiment": {"kind": "inverse", "k": None, "grid_points": "0"}},
     ["experiment.grid_points: must be >= 2, got 0"]),
    ({"experiment": {"kind": "inverse", "k": None, "grid_points": "-5"}},
     ["experiment.grid_points: must be >= 2, got -5"]),
])
def test_config_problems_are_exact(tmp_path, edits, want):
    assert problems(tmp_path, edits) == want


@pytest.mark.parametrize("text, want", [
    (render(BASE).replace("k = 2\n", "k = 2\nk = 3\n"),
     "While reading from '{path}' [line  8]: option 'k' in section "
     "'experiment' already exists"),
    ("kind = kmeans\n" + render(BASE),
     "File contains no section headers. file: '{path}', line: 1 "
     "'kind = kmeans\\n'"),
], ids=["duplicate key", "no section header"])
def test_malformed_ini_is_a_config_error(tmp_path, monkeypatch, text, want):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    path = tmp_path / "config.ini"
    path.write_text(text)
    want = want.format(path=path)
    with pytest.raises(ConfigError) as excinfo:
        load_config(str(path))
    assert excinfo.value.problems == [want]
    runner = CliRunner()
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == experiments.EXIT_USAGE
    assert result.stderr == f"error: {want}\n"
    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == experiments.EXIT_USAGE
    assert result.stdout == "config.ini: config error\n"


def test_config_missing_sections_are_exact(tmp_path):
    assert problems(tmp_path, drop=("geometry", "experiment")) == [
        "geometry: section is required", "experiment: section is required"]
    assert problems(tmp_path, drop=("dataset",)) == [
        "dataset: section is required for 'kmeans'"]
    assert problems(tmp_path, {"geometry": {"name": None}, "dataset": {"kind": None}}) == [
        "geometry.name: key is required", "dataset.kind: key is required"]


# A geodesic needs its from and to (checked at load), so its case sets both.
@pytest.mark.parametrize("kind, want", [
    ("geodesic", {"from": "0,0", "to": "1,1", "samples": 100, "iso": True}),
    ("barycentre", {}),
    ("kmeans", {"k": 2}),
    ("inverse", {"rows": 2, "op_seed": 0, "noise": 0.0, "offset": 4.0,
                 "s_true": 1.5, "s0": 2.0, "grid_points": 100001,
                 "grid_min": -6.0, "grid_max": 6.0}),
    ("ratios", {"grid_n": 41, "x1_min": -8.0, "x1_max": 8.0, "x2_min": -8.0,
                "x2_max": 8.0}),
    ("rankr", {"r": 2}),
])
def test_omitted_extras_take_their_defaults(tmp_path, kind, want):
    ends = {"from": "0,0", "to": "1,1"} if kind == "geodesic" else {}
    cfg = load_config(write(tmp_path, {"experiment": {"kind": kind, "k": None, **ends}}))
    assert cfg.extras == want
    assert list(cfg.echo()["experiment"]) == ["kind", *want]


# A non-default value for every int, float and str field of each settings
# dataclass; the test fails when a field is added without a value here.
ROUND_TRIP = {
    ("solver", LineSearchConfig): {"r0": 2.5, "c": 0.25, "max_backtracks": 7,
                                   "max_iters": 33, "tol": 1e-3},
    ("quadrature", QuadratureConfig): {"panels": 16, "nodes_per_panel": 8},
    ("dataset", DatasetSpec): {"kind": "spiral_band", "n": 17, "seed": 3,
                               "noise_sigma": 0.125, "t_min": -2.5,
                               "t_max": 3.5, "center": 1.75, "gap": 1.5},
}


def test_every_schema_field_round_trips(tmp_path):
    edits = {}
    for (section, cls), values in ROUND_TRIP.items():
        scalar = [f for f in dataclasses.fields(cls) if f.type in (int, float, str)]
        assert list(values) == [f.name for f in scalar]
        assert all(values[f.name] != f.default for f in scalar)
        edits[section] = {key: repr(v) if isinstance(v, float) else str(v)
                          for key, v in values.items()}
    cfg = load_config(write(tmp_path, edits))
    for (section, _), values in ROUND_TRIP.items():
        loaded = {"solver": cfg.solver, "quadrature": cfg.quad,
                  "dataset": cfg.dataset}[section]
        for key, value in values.items():
            got = getattr(loaded, key)
            assert got == value and type(got) is type(value), key


@pytest.mark.parametrize("edits, want", [
    ({"geometry": {"betta": "5.0"}},
     "geometry: river() got an unexpected keyword argument 'betta'"),
    ({"geometry": {"beta": "-1"}},
     "geometry: river requires beta, eta > 0, got -1.0, 0.25"),
    ({"geometry": {"name": "identity", "beta": None, "eta": None, "dim": "0"}},
     "geometry: dim must be a positive integer, got 0"),
    ({"geometry": {"name": "identity", "beta": None, "eta": None, "dim": "inf"}},
     "geometry: dim must be a positive integer, got inf"),
    ({"geometry": {"name": "sinh_shift_1d", "eta": None}},
     "geometry: sinh_shift_1d() got an unexpected keyword argument 'beta'"),
    ({"geometry": {"name": "identity", "beta": None, "eta": None, "dim": "2.5"}},
     "geometry: dim must be a positive integer, got 2.5"),
    ({"geometry": {"beta": "nan"}}, "geometry: river requires a finite beta, got nan"),
    ({"geometry": {"eta": "inf"}}, "geometry: river requires a finite eta, got inf"),
    ({"geometry": {"name": "spiral", "beta": "nan", "eta": None}},
     "geometry: spiral requires a finite beta, got nan"),
    ({"geometry": {"name": "banana", "beta": None, "eta": None, "a": "nan"}},
     "geometry: banana requires a finite a, got nan"),
    ({"geometry": {"name": "banana", "beta": None, "eta": None, "z": "-inf"}},
     "geometry: banana requires a finite z, got -inf"),
])
def test_geometry_parameters_are_checked_at_load(tmp_path, monkeypatch, edits, want):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    # Newer Pythons may append a "Did you mean" hint to a keyword TypeError.
    [problem] = problems(tmp_path, edits)
    assert problem.startswith(want)
    path = str(write(tmp_path, edits))
    runner = CliRunner()
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == experiments.EXIT_USAGE
    assert result.stderr == f"error: {problem}\n"
    result = runner.invoke(main, ["run", path])
    assert result.exit_code == experiments.EXIT_USAGE
    assert result.stdout == "config.ini: config error\n"


# Values that load into settings no run can use: each is a config error (exit 2
# from validate and run alike), never an internal error of the run.
@pytest.mark.parametrize("edits, want", [
    ({"dataset": {"seed": "-3"}}, "dataset: seed must be >= 0, got -3"),
    ({"dataset": {"gap": "16.0"}}, "dataset: two_clusters needs t_max - t_min > gap"),
    ({"dataset": {"kind": "custom_points"}},
     "dataset.kind: unknown kind 'custom_points'; known: river_band, spiral_band, "
     "two_clusters, grid"),
    ({"experiment": {"kind": "inverse", "k": None, "op_seed": "-1"}},
     "experiment.op_seed: must be >= 0, got -1"),
    ({"experiment": {"kind": "inverse", "k": None, "rows": "0"}},
     "experiment.rows: must be >= 1, got 0"),
    ({"experiment": {"k": "0"}}, "experiment.k: must be >= 1, got 0"),
    ({"experiment": {"k": "500"}, "dataset": {"n": "20"}},
     "experiment.k: must be <= 20 for 20 data points in 2 dimensions, got 500"),
    ({"experiment": {"k": "17"}, "dataset": {"kind": "grid", "n": "4"}},
     "experiment.k: must be <= 16 for 16 data points in 2 dimensions, got 17"),
    ({"experiment": {"kind": "rankr", "k": None, "r": "0"}},
     "experiment.r: must be >= 1, got 0"),
    ({"experiment": {"kind": "rankr", "k": None, "r": "3"}},
     "experiment.r: must be <= 2 for 40 data points in 2 dimensions, got 3"),
    ({"experiment": {"kind": "ratios", "k": None, "grid_n": "0"}},
     "experiment.grid_n: must be >= 1, got 0"),
    ({"experiment": {"kind": "geodesic", "k": None, "samples": "-1",
                     "from": "0,0", "to": "1,1"}},
     "experiment.samples: must be >= 0, got -1"),
    # The grid spans the axes of its box, two by default.
    ({"geometry": {"name": "identity", "beta": None, "eta": None, "dim": "3"},
      "dataset": {"kind": "grid", "n": "3"}},
     "dataset.kind: a grid spans 2 axes, the geometry has 3 dimensions"),
    # Without a backtrack every barycentre stalls on its first step.
    ({"solver": {"max_backtracks": "0"}},
     "solver: max_backtracks must be >= 1, got 0"),
    ({"solver": {"max_iters": "-1"}}, "solver: max_iters must be >= 0, got -1"),
    # A geodesic's points are parsed at load, not when the run starts.
    ({"experiment": {"kind": "geodesic", "k": None, "to": "1,1"}},
     "experiment.from: key is required"),
    ({"experiment": {"kind": "geodesic", "k": None, "from": "zero", "to": "1,1"}},
     "experiment.from: could not convert string to float: 'zero'"),
    ({"experiment": {"kind": "geodesic", "k": None, "from": "nan,-3.0", "to": "1,1"}},
     "experiment.from: coordinates must be finite, got nan,-3.0"),
    ({"experiment": {"kind": "geodesic", "k": None, "from": "0,0", "to": "1,1,1"}},
     "experiment.to: expected 2 comma-separated coordinates, got 3"),
    # The ratio grid spans x1 and x2 only.
    ({"geometry": {"name": "identity", "beta": None, "eta": None, "dim": "3"},
      "experiment": {"kind": "ratios", "k": None}},
     "experiment.kind: a ratios grid spans 2 axes, the geometry has 3 dimensions"),
])
def test_values_no_run_can_use_are_config_errors(tmp_path, monkeypatch, edits, want):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    assert_config_error(tmp_path, edits, want)


# Every float [experiment] key: a NaN or an infinity would reach the run as a
# NaN grid, invalid JSON or an internal error.
FLOAT_EXTRAS = [(kind, key) for kind, schema in _EXPERIMENT_FIELDS.items()
                for key, (typ, _) in schema.items() if typ is float]


def test_float_extras_cover_inverse_and_ratios():
    assert FLOAT_EXTRAS == [
        ("inverse", key) for key in ("noise", "offset", "s_true", "s0",
                                     "grid_min", "grid_max")
    ] + [("ratios", key) for key in ("x1_min", "x1_max", "x2_min", "x2_max")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind, key", FLOAT_EXTRAS)
def test_non_finite_experiment_floats_are_config_errors(tmp_path, monkeypatch,
                                                         kind, key, value):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    edits = {"experiment": {"kind": kind, "k": None, key: value}}
    want = f"experiment.{key}: must be finite, got {float(value)}"
    assert_config_error(tmp_path, edits, want)


# Every float [solver] and [dataset] key: a NaN or an infinity would run as no
# noise, never converge, or end in a traceback or a NaN residual.
SETTINGS_FLOATS = [(section, f.name) for section, cls in (("solver", LineSearchConfig),
                                                           ("dataset", DatasetSpec))
                   for f in dataclasses.fields(cls) if f.type is float]


def test_settings_floats_cover_solver_and_dataset():
    assert SETTINGS_FLOATS == [("solver", key) for key in ("r0", "c", "tol")] + [
        ("dataset", key) for key in ("noise_sigma", "t_min", "t_max", "center", "gap")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", SETTINGS_FLOATS)
def test_non_finite_settings_floats_are_config_errors(tmp_path, monkeypatch,
                                                      section, key, value):
    monkeypatch.delenv("ISOGEO_OUTPUT_DIR", raising=False)
    assert_config_error(tmp_path, {section: {key: value}},
                        f"{section}: {key} must be finite, got {float(value)}")


@pytest.mark.parametrize("edits", [
    {"experiment": {"k": "20"}, "dataset": {"n": "20"}},
    {"experiment": {"k": "16"}, "dataset": {"kind": "grid", "n": "4"}},
    {"experiment": {"kind": "rankr", "k": None, "r": "2"}},
    {"experiment": {"kind": "ratios", "k": None, "grid_n": "1"}},
    {"experiment": {"kind": "geodesic", "k": None, "samples": "0",
                    "from": "0,0", "to": "1,1"}},
    {"experiment": {"kind": "inverse", "k": None, "op_seed": "0", "rows": "1"}},
    {"dataset": {"seed": "0", "gap": "15.5"}},
    {"geometry": {"name": "sinh_shift_1d", "beta": None, "eta": None},
     "dataset": {"kind": "grid", "n": "3"}},
    {"solver": {"max_backtracks": "1", "max_iters": "0"}},
])
def test_limit_values_load(tmp_path, edits):
    load_config(write(tmp_path, edits))


def test_identity_dim_read_as_a_float_loads(tmp_path):
    # INI geometry values are floats: an integral dim = 3 is the 3-D identity.
    cfg = load_config(write(tmp_path, {"geometry": {
        "name": "identity", "beta": None, "eta": None, "dim": "3"}}))
    assert cfg.geometry_params == {"dim": 3.0}
    diffeo = make_diffeomorphism(cfg.geometry_name, cfg.geometry_params)
    assert diffeo.dim == 3 and diffeo.params == {"dim": 3}


@pytest.mark.parametrize("kwargs, want", [
    ({"panels": 2.5}, "panels must be an integer, got 2.5"),
    ({"nodes_per_panel": 3.5}, "nodes_per_panel must be an integer, got 3.5"),
    ({"panels": True}, "panels must be an integer, got True"),
    ({"nodes_per_panel": False}, "nodes_per_panel must be an integer, got False"),
    ({"panels": "4"}, "panels must be an integer, got '4'"),
    ({"panels": -2.0}, "panels must be >= 1, got -2.0"),
    *[({key: value}, f"{key} must be an integer, got {value}")
      for key in ("panels", "nodes_per_panel")
      for value in (float("inf"), float("-inf"), float("nan"))],
])
def test_quadrature_counts_must_be_integers(kwargs, want):
    with pytest.raises(ValueError) as excinfo:
        QuadratureConfig(**kwargs)
    assert str(excinfo.value) == want


@pytest.mark.parametrize("kwargs, want", [
    ({"max_iters": 1.5}, "max_iters must be an integer, got 1.5"),
    ({"max_backtracks": 2.5}, "max_backtracks must be an integer, got 2.5"),
    ({"max_iters": True}, "max_iters must be an integer, got True"),
    ({"max_backtracks": False}, "max_backtracks must be an integer, got False"),
    ({"max_iters": "4"}, "max_iters must be an integer, got '4'"),
    *[({key: value}, f"{key} must be an integer, got {value}")
      for key in ("max_iters", "max_backtracks")
      for value in (float("inf"), float("-inf"), float("nan"))],
])
def test_line_search_counts_must_be_integers(kwargs, want):
    with pytest.raises(ValueError) as excinfo:
        LineSearchConfig(**kwargs)
    assert str(excinfo.value) == want


def test_integral_float_line_search_counts_become_ints():
    cfg = LineSearchConfig(max_backtracks=2.0, max_iters=3.0)
    assert (cfg.max_backtracks, cfg.max_iters) == (2, 3)
    assert type(cfg.max_backtracks) is int and type(cfg.max_iters) is int
    assert cfg == LineSearchConfig(max_backtracks=2, max_iters=3)


def test_integral_float_quadrature_counts_become_ints():
    # As a dim does: the rule is built from ints, so a 3.0 runs as 3.
    quad = QuadratureConfig(panels=8.0, nodes_per_panel=3.0)
    assert (quad.panels, quad.nodes_per_panel) == (8, 3)
    assert type(quad.panels) is int and type(quad.nodes_per_panel) is int
    assert quad == QuadratureConfig(panels=8, nodes_per_panel=3)
