"""The digest gate of ``scripts/output_digests.py`` and the summary of
``scripts/plot_ready_summary.py``, run in-process."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from isogeo import experiments
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
