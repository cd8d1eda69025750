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

The [dataset], [solver] and [quadrature] keys are the int, float and str
fields of DatasetSpec, LineSearchConfig and QuadratureConfig; the [geometry]
keys are checked by building the named diffeomorphism.
Unknown sections or keys are reported with their location; every value error
names the section and key it came from.
"""

import configparser
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .datasets import DATASET_KINDS, DatasetSpec
from .descent import LineSearchConfig
from .diffeos import make_diffeomorphism, registered_names
from .quadrature import QuadratureConfig

# Per-experiment extra keys accepted in [experiment], with type and default:
# the one schema that no settings dataclass owns.
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
EXPERIMENT_KINDS = tuple(_EXPERIMENT_FIELDS)
# The smallest value of each integer [experiment] key that can run.
_EXPERIMENT_MINIMUMS = {"samples": 0, "op_seed": 0, "k": 1, "r": 1, "rows": 1,
                        "grid_n": 1, "grid_points": 2}
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


def _schema(cls):
    """The INI keys of a settings dataclass: its int, float and str fields."""
    return {f.name: f.type for f in fields(cls) if f.type in (int, float, str)}


def _read(section, where, schema, problems):
    """Typed values of the schema keys present in a section.

    Reports ``where.key: <message>`` for a value that does not convert, and
    ``where.key: unknown key`` for every key outside the schema.
    """
    values = {}
    for key, typ in schema.items():
        if key in section:
            try:
                values[key] = _convert(section.pop(key), typ)
            except ValueError as exc:
                problems.append(f"{where}.{key}: {exc}")
    problems.extend(f"{where}.{key}: unknown key" for key in section)
    return values


def _build(make, kwargs, where, problems):
    """make(**kwargs), or None after reporting ``where: <message>``."""
    try:
        return make(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def _parse_point(raw, dim, where):
    """The finite ``(dim,)`` point of comma-separated coordinates, else ConfigError."""
    if raw is None:
        raise ConfigError([f"{where}: key is required"])
    try:
        coords = [float(part) for part in str(raw).split(",")]
    except ValueError as exc:
        raise ConfigError([f"{where}: {exc}"]) from exc
    if len(coords) != dim:
        raise ConfigError([f"{where}: expected {dim} comma-separated "
                           f"coordinates, got {len(coords)}"])
    if not all(map(math.isfinite, coords)):
        raise ConfigError([f"{where}: coordinates must be finite, got {raw}"])
    return np.asarray(coords)


def load_config(path):
    """Parse and validate an experiment config file.

    Raises ConfigError carrying one diagnostic line per problem.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        # A duplicate section or key, text before the first section or a line
        # that is no key (the message names the file and line), or a bad %
        # interpolation (named by its key here).
        where = (f"{exc.section}.{exc.option}: "
                 if isinstance(exc, configparser.InterpolationError) else "")
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError([where + message]) from exc
    if not read:
        raise ConfigError([f"cannot read config file {path!r}"])
    problems = []

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
        geometry_params = _read(geometry, "geometry",
                                dict.fromkeys(geometry, float), problems)

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
        schema = _EXPERIMENT_FIELDS.get(experiment, {})
        extras = {key: default for key, (_, default) in schema.items()}
        extras.update(_read(experiment_section, "experiment",
                            {key: typ for key, (typ, _) in schema.items()},
                            problems))
        problems.extend(
            f"experiment.{key}: must be >= {low}, got {extras[key]}"
            for key, low in _EXPERIMENT_MINIMUMS.items()
            if key in extras and extras[key] < low)
        problems.extend(
            f"experiment.{key}: must be finite, got {extras[key]}"
            for key, (typ, _) in schema.items()
            if typ is float and not math.isfinite(extras[key]))

    dataset_section = sections.pop("dataset", None)
    dataset = None
    if dataset_section is not None:
        kwargs = _read(dataset_section, "dataset", _schema(DatasetSpec), problems)
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
            dataset = _build(DatasetSpec, kwargs, "dataset", problems)
    elif experiment not in (None, "geodesic", "inverse"):
        problems.append(f"dataset: section is required for {experiment!r}")

    solver_kwargs = _read(sections.pop("solver", {}), "solver",
                          _schema(LineSearchConfig), problems)
    quad_kwargs = _read(sections.pop("quadrature", {}), "quadrature",
                        _schema(QuadratureConfig), problems)
    output = _read(sections.pop("output", {}), "output", {"dir": str}, problems)
    output_dir = os.environ.get("ISOGEO_OUTPUT_DIR", output.get("dir", "out"))

    for name in sections:
        problems.append(f"{name}: unknown section")

    solver = quad = None
    if not problems:
        # The factory names a misspelled or out-of-range parameter.
        diffeo = _build(make_diffeomorphism, {"name": geometry_name,
                                              "params": geometry_params},
                        "geometry", problems)
        if (diffeo is not None and dataset is not None and dataset.kind == "grid"
                and diffeo.dim > len(dataset.box)):
            problems.append(f"dataset.kind: a grid spans {len(dataset.box)} axes, "
                            f"the geometry has {diffeo.dim} dimensions")
        elif diffeo is not None and experiment in ("kmeans", "rankr"):
            n = dataset.n ** diffeo.dim if dataset.kind == "grid" else dataset.n
            key, most = (("k", n) if experiment == "kmeans"
                         else ("r", min(diffeo.dim, n)))
            if extras[key] > most:
                problems.append(f"experiment.{key}: must be <= {most} for {n} data "
                                f"points in {diffeo.dim} dimensions, got {extras[key]}")
        if diffeo is not None and experiment == "geodesic":
            for key in ("from", "to"):
                try:
                    _parse_point(extras[key], diffeo.dim, f"experiment.{key}")
                except ConfigError as exc:
                    problems.extend(exc.problems)
        if diffeo is not None and experiment == "ratios" and diffeo.dim > 2:
            # No key sets a third axis of the ratio grid.
            problems.append(f"experiment.kind: a ratios grid spans 2 axes, "
                            f"the geometry has {diffeo.dim} dimensions")
        if diffeo is not None and experiment == "inverse" and diffeo.dim < 2:
            # The constraint line runs along the second phi-axis.
            problems.append("experiment.kind: an inverse problem's line runs along the "
                            "second phi-axis, the geometry has 1 dimension")
        solver = _build(LineSearchConfig, solver_kwargs, "solver", problems)
        quad = _build(QuadratureConfig, quad_kwargs, "quadrature", problems)

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(geometry_name, geometry_params, experiment,
                            dataset, solver, quad, output_dir, extras)
