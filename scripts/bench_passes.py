#!/usr/bin/env python3
"""Minor page faults, wall time, quadratures and map traffic per warm workload pass.

Builds one ``perfbench`` workload at a seed, runs every task once to warm
up, then runs ``--passes`` more passes with nothing of the library wrapped
and prints one JSON object with, per pass:

- ``minflt``: minor page faults (``resource.getrusage(...).ru_minflt``);
- ``minflt_tasks``: for each task, by name, its minor faults in each pass;
- ``wall_s``: the pass time as measured (not scaled to host speed);

and the process's peak RSS after them.  It then wraps the library's
callables and counts, in one more warm pass, the one-element lists:

- ``quadratures``: full quadrature rules built by ``isomaps`` (one per
  ``vectorchange`` probe that integrates, so none on a map with an
  ``arc_length``), counted through ``isomaps.composite_nodes``;
- ``diffeo_calls`` and ``diffeo_points``: for each ``Diffeomorphism``
  callable (``forward``, ``inverse``, ``jvp``, ``inv_jvp``, ``speed`` and
  ``arc_length`` where the map has one), the calls it took and the points
  (for ``arc_length``, the lines) they carried, where a call on ``(..., d)``
  arrays carries the size of their broadcast ``(...)`` shape.  The maps of
  the workload's set-up and every ``Diffeomorphism`` built during the pass
  have their callables wrapped.  ``factors`` counts the
  ``coupling`` factors of a map that has one (river), wherever they run:
  in every pass, root-solve stencil and ``vectorchange`` probe of the rule,
  which call them on the d - 1 other coordinates and not ``speed``, and
  once per shared (y_rest, w_rest) key in the batches that ``_arc_lengths``
  shares (0 in a checkout without the hook); ``speed`` itself never calls
  them.

The wrappers add a few microseconds and some allocations per call, which
changed the faults of a pass by hundreds, so no timed pass runs under them.
``--pass-bytes`` sets ``isomaps.PASS_BYTES`` for a sweep of the pass size.
``main`` puts back what it patches, so a test can call it in-process.

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


def count_diffeo_traffic(calls, points, built=()):
    """Count into ``calls`` and ``points`` what the ``built`` and every later
    Diffeomorphism is asked."""
    init = diffeos.Diffeomorphism.__init__

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            points[name] += math.prod(np.broadcast_shapes(*map(np.shape, args))[:-1])
            return fn(*args)
        return call

    def wrap(diffeo):
        if diffeo.coupling is not None:
            j, factors = diffeo.coupling
            diffeo.coupling = (j, counted("factors", factors))
        current = (diffeo.forward, diffeo.inverse, diffeo.jvp, diffeo.inv_jvp, diffeo.speed,
                   diffeo.arc_length)
        for name, fn in zip(DIFFEO_CALLABLES, current):
            # A map without an arc_length keeps None, which selects the rule.
            if fn is not None:
                setattr(diffeo, name, counted(name, fn))

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        wrap(self)

    for diffeo in built:
        wrap(diffeo)
    diffeos.Diffeomorphism.__init__ = counting_init


def timed_pass(tasks):
    """Wall time, minor faults and each task's minor faults of one pass."""
    task_faults = []
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    started = time.perf_counter()
    for task in tasks:
        at = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        task.call()
        task_faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - at)
    wall = time.perf_counter() - started
    return wall, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, task_faults


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
    workdir = tempfile.mkdtemp(prefix="bench-passes-")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tasks = workload.tasks
        for task in tasks:
            task.call()
        walls, minflt = [], []
        minflt_tasks = {task.name: [] for task in tasks}
        for _ in range(args.passes):
            wall, faults, task_faults = timed_pass(tasks)
            walls.append(wall)
            minflt.append(faults)
            for task, count in zip(tasks, task_faults):
                minflt_tasks[task.name].append(count)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        built = []
        rule = isomaps.composite_nodes

        def counted(*rule_args):
            built.append(1)
            return rule(*rule_args)

        isomaps.composite_nodes = counted
        calls, points = Counter(), Counter()
        count_diffeo_traffic(calls, points, [M.diffeo for M in workload.manifolds])
        for task in tasks:
            task.call()
    finally:
        shutil.rmtree(workdir)
        isomaps.PASS_BYTES, isomaps.composite_nodes, diffeos.Diffeomorphism.__init__ = patched
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "pass_bytes": pass_bytes,
        "minflt": minflt, "wall_s": [round(t, 4) for t in walls],
        "quadratures": [len(built)],
        "diffeo_calls": [{name: calls[name] for name in DIFFEO_CALLABLES}],
        "diffeo_points": [{name: points[name] for name in DIFFEO_CALLABLES}],
        "peak_rss_mb": peak_rss_mb, "minflt_tasks": minflt_tasks}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
