#!/usr/bin/env python3
"""isogeo benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload ratio_grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the workload is timed end to end, and pass
and task times are scaled by the host's speed in the same pass (see
``hostspeed.py``); with
``--trace 1`` one extra pass runs with every layer boundary wrapped and the
per-layer counts and self times are reported.  A table goes to standard
output first, and the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``README.md`` explains
the workloads, the metrics and the statistics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ratio_grid", "geodesic_sampling", "solver_loop")
SETUP_SAMPLES = 5
MIN_TASK_SAMPLES = 100
# A fixed p90, not the highest percentile with 10 samples beyond it: the
# sample count follows the host's speed, so that percentile would too.
TAIL_PERCENTILE = 90
CHILD_TIMEOUT_S = 120


def _import_path():
    if not os.path.isfile(os.path.join(SRC, "isogeo", "__init__.py")):
        sys.exit(f"error: no isogeo sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


def _build(name, seed, workdir):
    """Everything up to the first timed task: import, manifolds, configs, datasets."""
    import workloads
    return workloads.WORKLOADS[name](seed, workdir)


def _setup_probe(args):
    started = time.perf_counter()
    _build(args.workload, args.seed, args.workdir)
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def _setup_seconds(args, workdir):
    """Median set-up time of fresh interpreters, each importing isogeo anew.

    It is not scaled to reference-host time: the reference loop, run in the
    child or around it, did not track the set-up's own variation.
    """
    samples = []
    for i in range(SETUP_SAMPLES):
        probe_dir = os.path.join(workdir, f"setup-{i}")
        os.makedirs(probe_dir)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--workdir", probe_dir],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        shutil.rmtree(probe_dir)
    return statistics.median(samples), samples


class Pass:
    """Runs every task once; checks run after the timed loop."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = {}   # task name -> output digest of the first pass

    def run(self):
        latencies, scale, outcomes = self.timed()
        return latencies, scale, self.check(outcomes)

    def timed(self):
        """One pass over the tasks, each followed by one reference loop.

        Returns the task latencies as measured, the pass's host-speed scale
        and the outcomes, unchecked.
        """
        import hostspeed
        latencies, ticks, outcomes = [], [], []
        for task in self.workload.tasks:
            t0 = time.perf_counter()
            try:
                outcome = (True, task.call())
            except Exception as exc:  # a failed task is counted, not fatal
                outcome = (False, f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            outcomes.append(outcome)
            ticks.append(hostspeed.tick())
        return latencies, hostspeed.scale(ticks), outcomes

    def check(self, outcomes):
        import workloads
        problems = []
        for task, (ok, result) in zip(self.workload.tasks, outcomes):
            found = [result] if not ok else _safe_check(task, result)
            if ok and not found and task.outdir is not None:
                digest = workloads.output_digest(task.outdir)
                expected = self.reference.setdefault(task.name, digest)
                if digest != expected:
                    found.append("outputs differ from the first pass")
            if found:
                problems.append(f"{task.name}: " + "; ".join(found))
        return problems


def _safe_check(task, result):
    try:
        return list(task.check(result))
    except Exception as exc:  # an unreadable output is a failed check
        return [f"output check raised {type(exc).__name__}: {exc}"]


def _environment(seed):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "loadavg": [round(v, 2) for v in os.getloadavg()], "seed": seed}


def _timed_passes(bench, seconds, min_passes):
    """Repeat passes for ``seconds`` (and at least ``min_passes``).

    Returns (latencies, scale) of each pass, and the problems found.
    """
    passes, problems = [], []
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < seconds:
        latencies, scale, found = bench.run()
        passes.append((latencies, scale))
        problems += found
    return passes, problems


def measure(args, workdir):
    setup_s, setup_samples = _setup_seconds(args, workdir)
    workload = _build(args.workload, args.seed, os.path.join(workdir, "main"))
    import accuracy
    bench = Pass(workload)
    n_tasks = len(workload.tasks)
    min_passes = -(-MIN_TASK_SAMPLES // n_tasks)

    _, _, problems = bench.run()       # warm-up: fills caches, records digests
    attempted = n_tasks
    passes, found = _timed_passes(bench, args.seconds, min_passes)
    problems += found
    attempted += len(passes) * n_tasks
    walls = [scale * sum(lat) for lat, scale in passes]
    latencies = [scale * t for lat, scale in passes for t in lat]

    try:
        acc = accuracy.measure(workload.probes)
    except Exception as exc:  # reported as a failed operation
        problems.append(f"accuracy probes: {type(exc).__name__}: {exc}")
        acc = {}
    attempted += len(workload.probes)
    failed = len(problems)

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "task_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "task_tail_ms": (1e3 * statistics.quantiles(
            latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **{name: (value, "ratio" if name != "roundtrip_err" else "coord")
           for name, value in acc.items()},
    }
    extra = {"error_rate": (failed / attempted, "ratio")}
    notes = [f"passes: {len(walls)} timed + 1 warm-up, {n_tasks} tasks each",
             f"times are scaled to reference-host time; as measured, wall_s "
             f"{statistics.median(sum(lat) for lat, _ in passes):.4f} s, "
             f"median scale {statistics.median(s for _, s in passes):.4f}",
             f"task latency samples: {len(latencies)}; "
             f"task_tail_ms is p{TAIL_PERCENTILE}",
             f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}",
             f"probe pairs: {len(workload.probes)}"]
    return metrics, extra, notes, attempted, problems


def trace(args, workdir):
    import layers
    workload = _build(args.workload, args.seed, os.path.join(workdir, "main"))
    bench = Pass(workload)
    n_tasks = len(workload.tasks)
    _, _, problems = bench.run()
    passes, found = _timed_passes(bench, args.seconds / 2, 1)
    problems += found
    wall = statistics.median(sum(lat) for lat, _ in passes)
    tracer = layers.Tracer()
    with tracer.installed(workload.manifolds):
        traced, _, outcomes = bench.timed()
    problems += bench.check(outcomes)   # untraced: the checks call isogeo too
    attempted = (len(passes) + 2) * n_tasks
    metrics = tracer.metrics(sum(traced) - wall)
    notes = [f"untraced passes: {len(passes)}, median wall {wall:.4f} s; "
             f"traced pass wall {sum(traced):.4f} s (times as measured)"] + tracer.notes
    return metrics, {}, notes, attempted, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_path()
    if args.setup_probe:
        return _setup_probe(args)

    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        run = trace if args.trace else measure
        metrics, extra, notes, attempted, problems = run(args, workdir)
        env = _environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(out_root)
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for note in notes:
        print("note: " + note)
    for problem in problems:
        print("FAILED: " + problem)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(problems),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
