#!/usr/bin/env python3
"""sha256 digests of every output that must not change between two checkouts.

Prints one JSON object:

- ``configs``: for each ``configs/*.ini``, the exit code of ``isogeo run``
  and the sha256 of each CSV and ``summary.json`` it wrote
  (``run_manifest.json`` is left out: it records a wall time);
- ``geodesic``: for each built-in geometry, ``--samples`` 0 (the header
  alone), 1, 2 and 57 and
  ``--iso``/``--levi-civita``, the exit code and the sha256 of what
  ``isogeo geodesic`` prints and of what it writes to ``--output``, plus
  the exit codes of two bad ``--from`` values;
- ``workloads``: for each ``perfbench`` workload at each ``--seeds`` seed,
  per task its exit code and ``workloads.output_digest`` (an experiment)
  or the sha256 of its result array (a speed profile), and the problems
  its check found;
- ``src_lines``: physical and code lines (neither blank nor only a ``#``
  comment) of each ``src/isogeo`` module, with their totals;
- ``stalls``: for each of ``river_barycentre``, ``river_ratios`` and
  ``banana_inverse``, the exit code and digests of the same run with the
  stall recipe of ``tests/test_cli.py`` in its ``[solver]`` section, so
  that the comparison covers the best-iterate path of a stalled solve.

It imports ``isogeo`` from the ``src/`` and the workloads from the
``perfbench/`` next to this script, so a copy placed in another checkout
digests that checkout.  Outputs go to a temporary directory, removed at
the end.

With ``--compare OLD.json NEW.json`` it digests nothing: it prints the
path of each digest that differs between two such reports (or is in one
only), one per line, and exits 1 if there is any.  ``src_lines`` is no
output, so it is left out of the comparison; its totals are printed, then
each module whose lines changed, with the change in physical and code lines
(a module in one report only counts 0 lines in the other).

Usage:
    python scripts/output_digests.py --seeds 1 2 > digests.json
    python scripts/output_digests.py --compare old.json new.json
"""

import argparse
import configparser
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from isogeo.cli import main as cli  # noqa: E402

# Endpoints of each built-in geometry: the spiral pair stays clear of the
# 0/2pi cut, and every pair is far enough apart to need interior samples.
GEODESIC_CASES = {
    "identity": (["--dim", "3"], "0,0,0", "1,-2,3"),
    "river": (["--beta", "5", "--eta", "0.25"], "0,-3", "1,3"),
    "spiral": (["--beta", "0.25"], "-1.678,-1.088", "-2.279,1.951"),
    "banana": (["-a", "0.1111111111111111", "-z", "0"], "-2,-3", "2,3"),
    "sinh_shift_1d": ([], "-1.5", "2"),
}
GEODESIC_SAMPLES = (0, 1, 2, 57)
BAD_FROM = ("0,0,0,0", "zero")

# The solver settings of test_run_stall_exit_code_and_partial_trace: a
# tolerance no run reaches and three backtracks at c = 0.95 from r0 = 8.
# Each of the three runs stalls and exits 3.
STALL_SOLVER = {"tol": "1e-12", "r0": "8.0", "c": "0.95", "max_backtracks": "3"}
STALL_CONFIGS = ("river_barycentre", "river_ratios", "banana_inverse")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_digest(runner, path, outdir):
    """Exit code of ``isogeo run`` on one config and the digests of its outputs."""
    result = runner.invoke(cli, ["run", str(path)],
                           env={"ISOGEO_OUTPUT_DIR": str(outdir)})
    files = {} if not outdir.is_dir() else {
        f.name: sha256(f.read_bytes()) for f in sorted(outdir.iterdir())
        if f.suffix == ".csv" or f.name == "summary.json"}
    return {"exit": result.exit_code, "files": files}


def config_digests(runner, workdir):
    return {path.name: run_digest(runner, path, workdir / "configs" / path.stem)
            for path in sorted((ROOT / "configs").glob("*.ini"))}


def stall_digests(runner, workdir):
    out = {}
    for stem in STALL_CONFIGS:
        parser = configparser.ConfigParser()
        parser.read(ROOT / "configs" / f"{stem}.ini")
        parser["solver"].update(STALL_SOLVER)
        path = workdir / f"{stem}_stall.ini"
        with open(path, "w") as handle:
            parser.write(handle)
        out[f"{stem}.ini"] = run_digest(runner, path, workdir / "stalls" / stem)
    return out


def geodesic_digests(runner, workdir):
    out = {}
    for name, (params, start, end) in GEODESIC_CASES.items():
        base = ["geodesic", "--geometry", name, *params, "--from", start, "--to", end]
        for samples in GEODESIC_SAMPLES:
            for mode in ("--iso", "--levi-civita"):
                args = base + ["--samples", str(samples), mode]
                printed = runner.invoke(cli, args)
                dest = workdir / "geodesic.csv"
                written = runner.invoke(cli, args + ["--output", str(dest)])
                out[f"{name} {samples} {mode}"] = {
                    "exit": [printed.exit_code, written.exit_code],
                    "stdout": sha256(printed.stdout_bytes),
                    "output": sha256(dest.read_bytes()) if dest.exists() else None}
                dest.unlink(missing_ok=True)
        for bad in BAD_FROM:
            args = ["geodesic", "--geometry", name, *params, "--from", bad, "--to", end]
            out[f"{name} --from {bad}"] = {"exit": runner.invoke(cli, args).exit_code}
    return out


def workload_digests(seeds, workdir):
    out = {}
    for name, build in workloads.WORKLOADS.items():
        for seed in seeds:
            tasks = build(seed, str(workdir / f"{name}-{seed}")).tasks
            digests = {}
            for task in tasks:
                result = task.call()
                if task.outdir is None:
                    array = np.ascontiguousarray(result, dtype=float)
                    digest = sha256(repr(array.shape).encode() + array.tobytes())
                    digests[task.name] = {"array": digest}
                else:
                    digests[task.name] = {"exit": result,
                                          "files": workloads.output_digest(task.outdir)}
                digests[task.name]["problems"] = task.check(result)
            out[f"{name} seed {seed}"] = digests
    return out


def src_lines():
    out, physical, code = {}, 0, 0
    for path in sorted((ROOT / "src" / "isogeo").glob("*.py")):
        lines = path.read_text().splitlines()
        kept = [line for line in lines if line.strip() and not line.strip().startswith("#")]
        out[path.name] = [len(lines), len(kept)]
        physical, code = physical + len(lines), code + len(kept)
    out["total"] = [physical, code]
    return out


def differences(old, new, path=()):
    """Paths (key tuples) of the leaves that differ between two reports."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        if old != new:
            yield path
        return
    for key in sorted(old.keys() | new.keys()):
        if key in old and key in new:
            yield from differences(old[key], new[key], path + (key,))
        else:
            yield path + (key,)


def compare(old_path, new_path):
    """Print each differing digest path; 1 if there is any, else 0."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    old_lines, new_lines = old.pop("src_lines", {}), new.pop("src_lines", {})
    modules = sorted((old_lines.keys() | new_lines.keys()) - {"total"})
    for name in ["total"] + modules:
        before, after = old_lines.get(name, [0, 0]), new_lines.get(name, [0, 0])
        if name == "total" or before != after:
            print(f"src_lines {name}: {before} -> {after}, physical "
                  f"{after[0] - before[0]:+d}, code {after[1] - before[1]:+d}")
    changed = [" / ".join(path) for path in differences(old, new)]
    print("\n".join(changed) if changed else "no digest differs")
    return 1 if changed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2])
    parser.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"),
                        help="list the digests that differ between two reports")
    args = parser.parse_args(argv)
    if args.compare:
        sys.exit(compare(*args.compare))
    workdir = Path(tempfile.mkdtemp(prefix="output-digests-"))
    try:
        runner = CliRunner()
        report = {"configs": config_digests(runner, workdir),
                  "geodesic": geodesic_digests(runner, workdir),
                  "workloads": workload_digests(args.seeds, workdir),
                  "stalls": stall_digests(runner, workdir),
                  "src_lines": src_lines()}
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(report, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
