"""The digest gate of ``scripts/output_digests.py``, the summary of
``scripts/plot_ready_summary.py``, the grid-field and iso-geodesic rows of
``scripts/bench_layers.py`` and one warm pass of ``scripts/bench_passes.py``,
run in-process."""

import copy
import importlib.util
import json
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
    assert capsys.readouterr().out == ("src_lines total: [2931, 2321] -> [2921, 2311]\n"
                                       "no digest differs\n")


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


def test_bench_passes_counts_river_factors(load_script, capsys):
    unpatched = isomaps.PASS_BYTES, isomaps.composite_nodes, diffeos.Diffeomorphism.__init__
    argv = ["--workload", "geodesic_sampling", "--seed", "7", "--passes", "1",
            "--pass-bytes", "65536"]
    assert load_script("bench_passes").main(argv) == 0
    assert (isomaps.PASS_BYTES, isomaps.composite_nodes,
            diffeos.Diffeomorphism.__init__) == unpatched
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["workload", "seed", "pass_bytes", "minflt", "wall_s", "quadratures",
                            "diffeo_calls", "diffeo_points", "peak_rss_mb"]
    assert report["pass_bytes"] == 65536 and len(report["minflt"]) == 1
    calls, points = report["diffeo_calls"][0], report["diffeo_points"][0]
    assert list(calls) == list(points) == ["forward", "inverse", "jvp", "inv_jvp", "speed",
                                           "arc_length", "factors"]
    # River's rule work is counted under its coupling factors.
    assert calls["factors"] > 0 and points["factors"] > 0
