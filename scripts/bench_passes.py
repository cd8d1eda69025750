#!/usr/bin/env python3
"""Minor page faults, wall time, quadratures and map traffic per warm workload pass.

Builds one ``perfbench`` workload at a seed, runs every task once to warm
up, then runs ``--passes`` more passes and prints one JSON object with, per
pass:

- ``minflt``: minor page faults (``resource.getrusage(...).ru_minflt``);
- ``wall_s``: the pass time as measured (not scaled to host speed);
- ``quadratures``: full quadrature rules built by ``isomaps`` (one per
  ``vectorchange`` probe that integrates, so none on a map with an
  ``arc_length``), counted through ``isomaps.composite_nodes``;
- ``diffeo_calls`` and ``diffeo_points``: for each ``Diffeomorphism``
  callable (``forward``, ``inverse``, ``jvp``, ``inv_jvp``, ``speed`` and
  ``arc_length`` where the map has one), the calls it took and the points
  (for ``arc_length``, the lines) they carried, where a call on ``(..., d)``
  arrays carries the size of their broadcast ``(...)`` shape.  Every
  ``Diffeomorphism`` built after start-up has its callables wrapped, which
  adds a few microseconds per call to ``wall_s``.  ``factors`` counts the
  ``coupling`` factors of a map that has one (river), wherever they run:
  in every pass, root-solve stencil and ``vectorchange`` probe of the rule,
  which call them on the d - 1 other coordinates and not ``speed``, once
  per shared (y_rest, w_rest) key in the batches that ``_arc_lengths``
  shares, and inside a direct ``speed`` call (0 in a checkout without the
  hook);

and the process's peak RSS.  ``--pass-bytes`` sets ``isomaps.PASS_BYTES``
for a sweep of the pass size.  ``main`` puts back what it patches, so a
test can call it in-process.

It imports ``isogeo`` from the ``src/`` and the workloads from the
``perfbench/`` next to this script, so a copy placed in another checkout
with the same names measures that checkout.  Outputs go to a temporary directory, removed at
the end.

Usage:
    python scripts/bench_passes.py --workload ratio_grid --seed 7 --passes 15
"""

import argparse
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from isogeo import diffeos, isomaps  # noqa: E402

DIFFEO_CALLABLES = ("forward", "inverse", "jvp", "inv_jvp", "speed", "arc_length", "factors")


def count_diffeo_traffic(calls, points):
    """Count into ``calls`` and ``points`` what every later Diffeomorphism is asked."""
    init = diffeos.Diffeomorphism.__init__

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            points[name] += math.prod(np.broadcast_shapes(*map(np.shape, args))[:-1])
            return fn(*args)
        return call

    def counting_init(self, *args, **kwargs):
        if kwargs.get("coupling") is not None:
            j, factors = kwargs["coupling"]
            kwargs["coupling"] = (j, counted("factors", factors))
        init(self, *args, **kwargs)
        current = (self.forward, self.inverse, self.jvp, self.inv_jvp, self.speed,
                   self.arc_length)
        for name, fn in zip(DIFFEO_CALLABLES, current):
            # A map without an arc_length keeps None, which selects the rule.
            if fn is not None:
                setattr(self, name, counted(name, fn))

    diffeos.Diffeomorphism.__init__ = counting_init


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=15)
    parser.add_argument("--pass-bytes", type=int, default=None)
    args = parser.parse_args(argv)
    # What is patched below is put back at the end, for a caller in the same process.
    patched = isomaps.PASS_BYTES, isomaps.composite_nodes, diffeos.Diffeomorphism.__init__
    if args.pass_bytes is not None:
        isomaps.PASS_BYTES = args.pass_bytes
    pass_bytes = isomaps.PASS_BYTES

    built = []
    rule = isomaps.composite_nodes

    def counted(*rule_args):
        built.append(1)
        return rule(*rule_args)

    isomaps.composite_nodes = counted
    calls, points = Counter(), Counter()
    count_diffeo_traffic(calls, points)
    workdir = tempfile.mkdtemp(prefix="bench-passes-")
    try:
        tasks = workloads.WORKLOADS[args.workload](args.seed, workdir).tasks
        for task in tasks:
            task.call()
        minflt, walls, quadratures, diffeo_calls, diffeo_points = [], [], [], [], []
        for _ in range(args.passes):
            built.clear()
            calls.clear()
            points.clear()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            started = time.perf_counter()
            for task in tasks:
                task.call()
            walls.append(time.perf_counter() - started)
            minflt.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            quadratures.append(len(built))
            diffeo_calls.append({name: calls[name] for name in DIFFEO_CALLABLES})
            diffeo_points.append({name: points[name] for name in DIFFEO_CALLABLES})
    finally:
        shutil.rmtree(workdir)
        isomaps.PASS_BYTES, isomaps.composite_nodes, diffeos.Diffeomorphism.__init__ = patched
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "pass_bytes": pass_bytes,
        "minflt": minflt, "wall_s": [round(t, 4) for t in walls],
        "quadratures": quadratures,
        "diffeo_calls": diffeo_calls, "diffeo_points": diffeo_points,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
