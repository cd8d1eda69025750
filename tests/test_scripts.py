"""The digest gate of ``scripts/output_digests.py``, the summary of
``scripts/plot_ready_summary.py``, the grid-field and iso-geodesic rows of
``scripts/bench_layers.py`` and one warm pass of ``scripts/bench_passes.py``,
run in-process."""

import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from isogeo import diffeos, experiments, isomaps
from isogeo.config import load_config

ROOT = Path(__file__).resolve().parent.parent

# A report as output_digests.py prints it, cut down to a few leaves.
REPORT = {
    "configs": {"river_ratios.ini": {"exit": 0, "files": {"ratios.csv": "ab12",
                                                          "summary.json": "cd34"}}},
    "geodesic": {"river 57 --iso": {"exit": [0, 0], "stdout": "ef56", "output": "ef56"},
                 "river --from zero": {"exit": 2}},
    "accuracy": {"ratio_grid seed 7": {"dist_rel_err": 3.6657867772408495e-11,
                                       "roundtrip_err": 8.191610388096e-15,
                                       "speed_cv": 4.40961723580042e-08}},
    "src_lines": {"isomaps.py": [460, 380], "total": [2931, 2321]},
}


@pytest.fixture
def load_script(monkeypatch):
    def load(name):
        # The scripts put src/ and perfbench/ on sys.path; undo that afterwards.
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


def compare(load_script, tmp_path, old, new):
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, report in zip(paths, (old, new)):
        path.write_text(json.dumps(report))
    return load_script("output_digests").compare(*paths)


def test_identical_digests_pass_the_gate(load_script, tmp_path, capsys):
    new = copy.deepcopy(REPORT)
    new["src_lines"] = {"isomaps.py": [450, 370], "total": [2921, 2311]}
    assert compare(load_script, tmp_path, REPORT, new) == 0
    assert capsys.readouterr().out == (
        "src_lines total: [2931, 2321] -> [2921, 2311], physical -10, code -10\n"
        "src_lines isomaps.py: [460, 380] -> [450, 370], physical -10, code -10\n"
        "no digest differs\n")


def test_the_gate_prints_each_changed_module(load_script, tmp_path, capsys):
    # An unchanged module is left out; a new or removed one counts 0 lines
    # in the report that lacks it.
    old = copy.deepcopy(REPORT)
    old["src_lines"] = {"cli.py": [119, 100], "isomaps.py": [460, 380],
                        "old.py": [10, 8], "total": [589, 488]}
    new = copy.deepcopy(REPORT)
    new["src_lines"] = {"cli.py": [119, 100], "isomaps.py": [470, 379],
                        "new.py": [5, 4], "total": [594, 483]}
    assert compare(load_script, tmp_path, old, new) == 0
    assert capsys.readouterr().out.splitlines() == [
        "src_lines total: [589, 488] -> [594, 483], physical +5, code -5",
        "src_lines isomaps.py: [460, 380] -> [470, 379], physical +10, code -1",
        "src_lines new.py: [0, 0] -> [5, 4], physical +5, code +4",
        "src_lines old.py: [10, 8] -> [0, 0], physical -10, code -8",
        "no digest differs"]


def test_a_changed_or_missing_digest_fails_the_gate(load_script, tmp_path, capsys):
    new = copy.deepcopy(REPORT)
    new["configs"]["river_ratios.ini"]["files"]["ratios.csv"] = "ab13"
    new["geodesic"]["river 57 --iso"]["exit"] = [0, 1]
    del new["geodesic"]["river --from zero"]
    assert compare(load_script, tmp_path, REPORT, new) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "configs / river_ratios.ini / files / ratios.csv",
        "geodesic / river --from zero",
        "geodesic / river 57 --iso / exit"]


def test_a_changed_accuracy_fails_the_gate(load_script, tmp_path, capsys):
    # One ulp more roundtrip error is a change.
    new = copy.deepcopy(REPORT)
    leaf = new["accuracy"]["ratio_grid seed 7"]
    leaf["roundtrip_err"] = math.nextafter(leaf["roundtrip_err"], 1.0)
    assert compare(load_script, tmp_path, REPORT, new) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "accuracy / ratio_grid seed 7 / roundtrip_err"]


def test_output_digests_report_each_workloads_accuracy(load_script, tmp_path, monkeypatch):
    # The accuracy part holds perfbench's three metrics on each workload's probes.
    digests = load_script("output_digests")
    measured = []
    monkeypatch.setattr(digests.workloads, "WORKLOADS",
                        {"ratio_grid": digests.workloads.WORKLOADS["ratio_grid"]})
    monkeypatch.setattr(digests.accuracy, "measure",
                        lambda probes: measured.append(len(probes)) or {"speed_cv": 0.5})
    tasks, accurate = digests.workload_digests([7], tmp_path)
    assert list(tasks) == list(accurate) == ["ratio_grid seed 7"]
    assert accurate["ratio_grid seed 7"] == {"speed_cv": 0.5} and measured[0] > 0


def test_plot_ready_summary_of_a_barycentre_run(load_script, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ISOGEO_OUTPUT_DIR", str(tmp_path))
    config = load_config(ROOT / "configs" / "river_barycentre.ini")
    assert experiments.run(config) == experiments.EXIT_OK
    iterations = json.loads((tmp_path / "summary.json").read_text())["iterations"]
    assert load_script("plot_ready_summary").main(["plot_ready_summary.py", str(tmp_path)]) == 0
    status, points, trace = capsys.readouterr().out.splitlines()
    assert status.startswith(f"{tmp_path}: status=ok wall=")
    assert points == "  points.csv: 200 rows, columns x0, x1"
    assert trace == (f"  trace.csv: {iterations + 1} rows, columns iter, field_norm, "
                     "step_size, objective, x0, x1")


def test_bench_layers_times_the_grid_field_table(load_script):
    row = load_script("bench_layers").grid_field_times(grids=((4, 30),), repeat=1)
    assert list(row) == ["4x30"] and row["4x30"]["lines"] == 480
    assert row["4x30"]["on"] > 0.0 and row["4x30"]["off"] > 0.0


def test_bench_layers_times_the_iso_geodesic_on_every_geometry(load_script):
    bench = load_script("bench_layers")
    row = bench.iso_geodesic_times(number=1, repeat=1)
    assert list(row) == list(bench.GEOMETRIES)
    for times in row.values():
        assert list(times) == ["iso_geodesic_118", "speed_profile_80"]
        assert all(t > 0.0 for t in times.values())


def test_bench_passes_counts_river_factors(load_script, capsys, monkeypatch):
    unpatched = isomaps.PASS_BYTES, isomaps.composite_nodes, diffeos.Diffeomorphism.__init__
    bench = load_script("bench_passes")
    # No timed pass runs under the counting wrappers: record, at each task
    # call, whether they are installed.
    wrapped, build = [], bench.workloads.WORKLOADS["geodesic_sampling"]

    def watched(seed, workdir):
        workload = build(seed, workdir)
        for task in workload.tasks:
            task.call = lambda call=task.call: wrapped.append(
                diffeos.Diffeomorphism.__init__ is not unpatched[2]) or call()
        return workload

    monkeypatch.setitem(bench.workloads.WORKLOADS, "geodesic_sampling", watched)
    argv = ["--workload", "geodesic_sampling", "--seed", "7", "--passes", "2",
            "--pass-bytes", "65536"]
    assert bench.main(argv) == 0
    assert (isomaps.PASS_BYTES, isomaps.composite_nodes,
            diffeos.Diffeomorphism.__init__) == unpatched
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["workload", "seed", "pass_bytes", "minflt", "wall_s", "quadratures",
                            "diffeo_calls", "diffeo_points", "peak_rss_mb", "minflt_tasks"]
    assert report["pass_bytes"] == 65536 and len(report["minflt"]) == len(report["wall_s"]) == 2
    # The warm-up and two timed passes, then the counted pass.
    n_tasks = len(report["minflt_tasks"])
    assert wrapped == [False] * 3 * n_tasks + [True] * n_tasks
    assert all(len(faults) == 2 for faults in report["minflt_tasks"].values())
    assert [len(report[key]) for key in ("quadratures", "diffeo_calls", "diffeo_points")] == [1] * 3
    # Root solves probe their panels through gauss_panels, not a full rule.
    assert report["quadratures"] == [0]
    calls, points = report["diffeo_calls"][0], report["diffeo_points"][0]
    assert list(calls) == list(points) == ["forward", "inverse", "jvp", "inv_jvp", "speed",
                                           "arc_length", "factors"]
    # River's rule work is counted under its coupling factors.
    assert calls["factors"] > 0 and points["factors"] > 0
