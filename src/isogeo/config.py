"""INI experiment configuration: parsing, validation, diagnostics.

A config is a flat-section key-value file::

    [geometry]
    name = river
    beta = 5.0
    eta = 0.25

    [experiment]
    kind = barycentre

    [dataset]
    kind = river_band
    n = 200
    seed = 7
    noise_sigma = 0.1

    [solver]
    tol = 1e-2

    [output]
    dir = out/river_barycentre

Unknown sections or keys are reported with their location; every value error
names the section and key it came from.
"""

import configparser
import os
from dataclasses import dataclass, field

from .datasets import DATASET_KINDS, DatasetSpec
from .descent import LineSearchConfig
from .diffeos import registered_names
from .quadrature import QuadratureConfig

EXPERIMENT_KINDS = ("geodesic", "barycentre", "kmeans", "inverse", "ratios",
                    "rankr")

_SOLVER_FIELDS = {"r0": float, "c": float, "max_backtracks": int,
                  "max_iters": int, "tol": float}
_QUAD_FIELDS = {"panels": int, "nodes_per_panel": int,
                "max_bracket_doublings": int}
_DATASET_FIELDS = {"kind": str, "n": int, "seed": int, "noise_sigma": float,
                   "t_min": float, "t_max": float, "center": float,
                   "gap": float}
# Per-experiment extra keys accepted in [experiment], with type and default.
_EXPERIMENT_FIELDS = {
    "geodesic": {"from": (str, None), "to": (str, None),
                 "samples": (int, 100), "iso": (bool, True)},
    "barycentre": {},
    "kmeans": {"k": (int, 2)},
    "inverse": {"rows": (int, 2), "op_seed": (int, 0), "noise": (float, 0.0),
                "offset": (float, 4.0), "s_true": (float, 1.5),
                "s0": (float, 2.0), "grid_points": (int, 100001),
                "grid_min": (float, -6.0), "grid_max": (float, 6.0)},
    "ratios": {"grid_n": (int, 41), "x1_min": (float, -8.0),
               "x1_max": (float, 8.0), "x2_min": (float, -8.0),
               "x2_max": (float, 8.0)},
    "rankr": {"r": (int, 2)},
}
_STOCHASTIC_KINDS = ("river_band", "spiral_band", "two_clusters")


class ConfigError(ValueError):
    """Malformed experiment config; ``problems`` lists section.key diagnostics."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(self.problems))


@dataclass
class ExperimentConfig:
    geometry_name: str
    geometry_params: dict
    experiment: str
    dataset: DatasetSpec
    solver: LineSearchConfig
    quad: QuadratureConfig
    output_dir: str
    extras: dict = field(default_factory=dict)

    def echo(self):
        """Plain-dict snapshot for the run manifest."""
        return {
            "geometry": {"name": self.geometry_name, **self.geometry_params},
            "experiment": {"kind": self.experiment, **self.extras},
            "dataset": None if self.dataset is None else {
                k: v for k, v in vars(self.dataset).items() if v is not None},
            "solver": vars(self.solver),
            "quadrature": vars(self.quad),
            "output_dir": self.output_dir,
        }


def _convert(raw, typ):
    if typ is bool:
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return typ(raw)


def _take(section, key, typ, problems, where, default=None):
    if key not in section:
        return default
    try:
        return _convert(section.pop(key), typ)
    except ValueError as exc:
        problems.append(f"{where}.{key}: {exc}")
        return default


def load_config(path):
    """Parse and validate an experiment config file.

    Raises ConfigError carrying one diagnostic line per problem.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError([f"cannot read config file {path!r}"])
    problems = []
    sections = {name: dict(parser[name]) for name in parser.sections()}

    geometry = sections.pop("geometry", None)
    if geometry is None:
        problems.append("geometry: section is required")
        geometry_name, geometry_params = None, {}
    else:
        geometry_name = geometry.pop("name", None)
        if geometry_name is None:
            problems.append("geometry.name: key is required")
        elif geometry_name not in registered_names():
            problems.append(
                f"geometry.name: unknown geometry {geometry_name!r}; "
                f"registered: {', '.join(registered_names())}")
        geometry_params = {}
        for key, raw in geometry.items():
            try:
                geometry_params[key] = _convert(raw, float)
            except ValueError as exc:
                problems.append(f"geometry.{key}: {exc}")

    experiment_section = sections.pop("experiment", None)
    experiment, extras = None, {}
    if experiment_section is None:
        problems.append("experiment: section is required")
    else:
        experiment = experiment_section.pop("kind", None)
        if experiment not in EXPERIMENT_KINDS:
            problems.append(
                f"experiment.kind: must be one of {', '.join(EXPERIMENT_KINDS)}, "
                f"got {experiment!r}")
        else:
            for key, (typ, default) in _EXPERIMENT_FIELDS[experiment].items():
                extras[key] = _take(experiment_section, key, typ, problems,
                                    "experiment", default)
        for key in experiment_section:
            problems.append(f"experiment.{key}: unknown key")

    dataset_section = sections.pop("dataset", None)
    dataset = None
    if dataset_section is not None:
        kwargs = {}
        for key, typ in _DATASET_FIELDS.items():
            value = _take(dataset_section, key, typ, problems, "dataset")
            if value is not None:
                kwargs[key] = value
        for key in dataset_section:
            problems.append(f"dataset.{key}: unknown key")
        kind = kwargs.get("kind")
        if kind is None:
            problems.append("dataset.kind: key is required")
        elif kind not in DATASET_KINDS:
            problems.append(
                f"dataset.kind: unknown kind {kind!r}; known: "
                f"{', '.join(DATASET_KINDS)}")
        elif kind in _STOCHASTIC_KINDS and "seed" not in kwargs:
            problems.append(
                f"dataset.seed: required for stochastic generator {kind!r}")
        if not problems:
            try:
                dataset = DatasetSpec(**kwargs)
            except (TypeError, ValueError) as exc:
                problems.append(f"dataset: {exc}")
    elif experiment not in (None, "geodesic", "inverse"):
        problems.append(f"dataset: section is required for {experiment!r}")

    solver_kwargs = {}
    solver_section = sections.pop("solver", {})
    for key, typ in _SOLVER_FIELDS.items():
        value = _take(solver_section, key, typ, problems, "solver")
        if value is not None:
            solver_kwargs[key] = value
    for key in solver_section:
        problems.append(f"solver.{key}: unknown key")

    quad_kwargs = {}
    quad_section = sections.pop("quadrature", {})
    for key, typ in _QUAD_FIELDS.items():
        value = _take(quad_section, key, typ, problems, "quadrature")
        if value is not None:
            quad_kwargs[key] = value
    for key in quad_section:
        problems.append(f"quadrature.{key}: unknown key")

    output = sections.pop("output", {})
    output_dir = output.pop("dir", "out")
    for key in output:
        problems.append(f"output.{key}: unknown key")
    output_dir = os.environ.get("ISOGEO_OUTPUT_DIR", output_dir)

    for name in sections:
        problems.append(f"{name}: unknown section")

    solver = quad = None
    if not problems:
        try:
            solver = LineSearchConfig(**solver_kwargs)
        except ValueError as exc:
            problems.append(f"solver: {exc}")
        try:
            quad = QuadratureConfig(**quad_kwargs)
        except ValueError as exc:
            problems.append(f"quadrature: {exc}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(geometry_name, geometry_params, experiment,
                            dataset, solver, quad, output_dir, extras)
