"""The output layer writes the bytes of the csv.writer and json.dump path it
replaced, and rewrites each file in place as ``open(path, "w")`` would."""

import csv
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import isogeo as ig
from isogeo import experiments, serialize
from isogeo.cli import main
from isogeo.descent import ConvergenceTrace


def oracle_fmt(value):
    """The cell formatter that fed csv.writer: the oracle of ``serialize.fmt``."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def oracle_write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([oracle_fmt(v) for v in row])


def assert_csv_bytes_equal(tmp_path, header, make_rows):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    serialize.write_csv(got, header, make_rows())
    oracle_write_csv(want, header, make_rows())
    assert got.read_bytes() == want.read_bytes()


MIXED = [
    [0.1, np.float64(0.1), np.float32(0.1), np.float16(0.1), np.longdouble(0.1),
     1, np.int64(-7), np.uint8(255), True, np.bool_(False), "",
     -0.0, np.float64(-0.0), float("nan"), np.nan, float("inf"), -float("inf"),
     5e-324, -5e-324, 2**53 + 1, np.int64(2**53 + 1), 2**64, 1e300, 1e-300,
     123456789.12345679, 1 / 3],
    [np.float64(1 / 3), 0, 0.0, False, np.bool_(True), np.int32(-3), "", 1e16,
     1e17, 2.0**53, -2.5, np.float32(-1e-40), np.float64(5e-324), 7, 8.0,
     9, 10.0, 11, 12.0, 13, 14.0, 15, 16.0, 17, 18.0, 19],
]


@pytest.mark.parametrize("header, rows", [
    ([f"c{i}" for i in range(len(MIXED[0]))], MIXED),
    (["u0"], [[0.5], [-1 / 3], [np.float64(2.0)], [-0.0]]),    # rankr with r = 1
    (["u0"], np.array([[0.5], [-1 / 3], [1e-310]])),
    (["x0", "x1", "truth"], []),
    (["t", "x0", "x1"], np.random.default_rng(3).standard_normal((120, 3))),
], ids=["mixed", "one-column", "one-column-array", "no-rows", "array"])
def test_write_csv_bytes_equal_csv_writer(tmp_path, header, rows):
    assert_csv_bytes_equal(tmp_path, header, lambda: rows)
    assert_csv_bytes_equal(tmp_path, header, lambda: (list(row) for row in rows))
    if isinstance(rows, np.ndarray):
        assert_csv_bytes_equal(tmp_path, header, rows.tolist)


@pytest.mark.parametrize("objective", [False, True])
def test_trace_csv_bytes_equal_csv_writer(tmp_path, objective):
    trace = ConvergenceTrace()
    rng = np.random.default_rng(4)
    for _ in range(5):
        trace.append(rng.standard_normal(3), rng.random(), 0.5,
                     rng.standard_normal() if objective else None)
    trace.write_csv(tmp_path / "got.csv")
    objectives = trace.objectives or [""] * len(trace)
    oracle_write_csv(tmp_path / "want.csv",
                     ["iter", "field_norm", "step_size", "objective", "x0", "x1", "x2"],
                     ([i, fn, r, obj, *x] for i, (x, fn, r, obj) in enumerate(
                         zip(trace.iterates, trace.field_norms, trace.step_sizes,
                             objectives))))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("iso", [True, False])
def test_cli_geodesic_stdout_is_oracle_cells_joined_with_lf(iso):
    M = ig.PullbackManifold(ig.river(5.0, 0.25))
    x, y = np.array([0.0, -3.0]), np.array([1.0, 3.0])
    rows = experiments.geodesic_rows(M, x, y, 9, iso)
    want = "\n".join(["t,x0,x1"] + [",".join(oracle_fmt(v) for v in row)
                                     for row in rows]) + "\n"
    result = CliRunner().invoke(main, [
        "geodesic", "--geometry", "river", "--beta", "5", "--eta", "0.25",
        "--from", "0,-3", "--to", "1,3", "--samples", "9",
        "--iso" if iso else "--levi-civita"])
    assert result.exit_code == 0
    assert result.stdout == want


def test_write_json_bytes_equal_json_dump(tmp_path):
    summary = {
        "b": np.arange(3.0), "a": np.float64(0.1), "n": np.int64(3), "none": None,
        "nested": {"z": np.bool_(True), "y": [np.float32(1.5), (1, 2.5)],
                   "x": {}, "w": {"deep": np.array([[1, 2], [3, 4]])}},
        "nan": float("nan"), "empty": [], "text": "ok", "flag": False,
    }
    serialize.write_json(tmp_path / "got.json", summary)
    with open(tmp_path / "want.json", "w") as fh:
        json.dump(serialize._jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_import_loads_no_csv():
    src = Path(serialize.__file__).resolve().parents[1]
    code = ("import sys, isogeo, isogeo.cli; "
            "print(sorted(m for m in sys.modules if m in ('csv', '_csv')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == "[]\n"


HEADER = ["t", "x0", "x1"]
LONG = np.random.default_rng(5).standard_normal((120, 3))
SHORT = [[0.0, 1.0, 2.0]]


def test_shorter_rewrite_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    serialize.write_csv(path, HEADER, LONG)
    serialize.write_csv(path, HEADER, SHORT)
    oracle_write_csv(tmp_path / "want.csv", HEADER, SHORT)
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
    serialize.write_json(path, {"a": 1})
    assert path.read_bytes() == b'{\n  "a": 1\n}\n'


def test_rewrite_keeps_inode_and_mode(tmp_path):
    path = tmp_path / "out.csv"
    serialize.write_csv(path, HEADER, LONG)
    path.chmod(0o640)
    before = path.stat()
    serialize.write_csv(path, HEADER, SHORT)
    serialize.write_json(path, {"a": 1})
    after = path.stat()
    assert (after.st_ino, after.st_dev) == (before.st_ino, before.st_dev)
    assert stat.S_IMODE(after.st_mode) == 0o640


def test_os_open_never_truncates(tmp_path, monkeypatch):
    flags = []
    real_open = os.open

    def recorder(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recorder)
    for _ in range(2):
        serialize.write_csv(tmp_path / "out.csv", HEADER, LONG)
        serialize.write_json(tmp_path / "out.json", {"a": [1, 2]})
    assert len(flags) == 4
    assert not any(flag & os.O_TRUNC for flag in flags)


def test_links_see_the_new_bytes(tmp_path):
    target = tmp_path / "target.csv"
    serialize.write_csv(target, HEADER, LONG)
    (tmp_path / "sym.csv").symlink_to(target)
    os.link(target, tmp_path / "hard.csv")
    serialize.write_csv(tmp_path / "sym.csv", HEADER, SHORT)
    oracle_write_csv(tmp_path / "want.csv", HEADER, SHORT)
    want = (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "sym.csv").is_symlink()
    assert target.read_bytes() == (tmp_path / "hard.csv").read_bytes() == want
    serialize.write_json(tmp_path / "hard.csv", [1])
    assert target.read_bytes() == b"[\n  1\n]\n"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_mode_matches_open_w(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "want", "w"):
            pass
        serialize.write_csv(tmp_path / "got.csv", HEADER, SHORT)
        serialize.write_json(tmp_path / "got.json", {})
    finally:
        os.umask(old)
    want = stat.S_IMODE((tmp_path / "want").stat().st_mode)
    assert want == 0o666 & ~umask
    for name in ("got.csv", "got.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == want


@pytest.mark.parametrize("device", [os.devnull, "/dev/zero"])
def test_write_to_device(device):
    # Character devices take writes but not ftruncate (EINVAL), and are seekable.
    serialize.write_csv(device, HEADER, LONG)
    serialize.write_json(device, {"a": 1})


def test_write_to_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    try:
        serialize.write_csv(fifo, HEADER, LONG)
    finally:
        reader.join(timeout=30)
        if reader.is_alive():       # release a reader still waiting for a writer
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    oracle_write_csv(tmp_path / "want.csv", HEADER, LONG)
    assert got == [(tmp_path / "want.csv").read_bytes()]
