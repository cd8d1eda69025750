#!/usr/bin/env python3
"""Time the arc-length engine and the one-pair iso maps, layer by layer.

Prints one JSON object:

- ``arc_table_ms``: best-of-N time of one ``isomaps._arc_table`` call for
  each built-in geometry at 1, 30, 128 and 480 phi-lines (default 64x4
  rule; the lines join seeded random points of the geometry);
- ``per_call_us``: best of 5 x 50 calls of ``lc_distance``,
  ``iso_distance``, ``iso_log``, ``iso_transport``, scalar-t
  ``iso_geodesic`` and ``iso_exp`` on river(5, 0.25), (0,-8) -> (3,8).

It uses public functions and ``_arc_table`` only, and imports ``isogeo``
from the ``src/`` next to this script, so a copy placed in an older
checkout times that checkout.

Usage:
    python scripts/bench_layers.py > layers.json
"""

import json
import platform
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import isogeo as ig  # noqa: E402
from isogeo.isomaps import _arc_table  # noqa: E402

LINE_COUNTS = (1, 30, 128, 480)
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


def arc_table_times():
    rng = np.random.default_rng(0)
    out = {}
    for name, make in GEOMETRIES.items():
        M = ig.PullbackManifold(make())
        n = max(LINE_COUNTS)
        a = M.diffeo.forward(_points(name, M, rng, n))
        w = M.diffeo.forward(_points(name, M, rng, n)) - a
        out[name] = {
            str(lines): 1e3 * _best(lambda: _arc_table(M, a[:lines], w[:lines]),
                                    number=max(1, 960 // lines))
            for lines in LINE_COUNTS}
    return out


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


def main():
    result = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "arc_table_ms": arc_table_times(),
        "per_call_us": per_call_times(),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
