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
from isogeo.config import load_config
from isogeo.descent import ConvergenceTrace

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


def oracle_jsonable(obj):
    """The recursive pre-pass that fed json.dump: the oracle of ``write_json``."""
    if isinstance(obj, np.ndarray):
        return oracle_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: oracle_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_jsonable(v) for v in obj]
    return obj


def test_write_json_bytes_equal_json_dump(tmp_path):
    summary = {
        "b": np.arange(3.0), "a": np.float64(0.1), "n": np.int64(3), "none": None,
        "nested": {"z": np.bool_(True), "y": [np.float32(1.5), (1, 2.5)],
                   "x": {}, "w": {"deep": np.array([[1, 2], [3, 4]])}},
        "nan": float("nan"), "empty": [], "text": "ok", "flag": False,
        "f32": np.float32(0.1), "i64": np.int64(-2**62), "u8": np.uint8(255),
        "bools": [np.bool_(False), True, np.array(True)],
        "zero_d": [np.array(1.5), np.array(7), np.array(np.nan)],
        "arrays": [np.zeros((2, 0)), np.array([[[0.1, -0.0]], [[np.inf, -np.inf]]]),
                   np.array([1, 2], dtype=np.int32), np.array([], dtype=float)],
        "tuples": (np.float64(-0.0), (np.float64(5e-324), ()), np.float64(1e308)),
        "specials": [np.float64(np.nan), np.float64(np.inf), -np.inf, np.float64(-np.inf)],
        "empties": [{}, [], (), ""],
        "floats": [1 / 3, np.float64(1 / 3), 1e16, np.float64(2.0**53 + 2), 1e-310],
    }
    serialize.write_json(tmp_path / "got.json", summary)
    with open(tmp_path / "want.json", "w") as fh:
        json.dump(oracle_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("value", [object(), np.longdouble(0.1), np.array([np.longdouble(1)]),
                                   1j, np.complex128(1j), {1.5j: 0}])
def test_write_json_rejects_what_json_cannot_encode(tmp_path, value):
    with pytest.raises(TypeError):
        json.dumps(oracle_jsonable({"v": value}))
    with pytest.raises(TypeError):
        serialize.write_json(tmp_path / "got.json", {"v": value})


FLOAT_CELLS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1 / 3, 1e16, 1e17, 2.0**53 + 2, 1.0, -2.0, 100.0, 12345678901234567.0]


def cellwise_csv_text(header, rows):
    """``fmt`` on every cell, joined with commas and LF."""
    return "".join(line + "\n" for line in [",".join(header)] + [
        ",".join(serialize.fmt(v) for v in row) for row in rows])


@pytest.mark.parametrize("table", [
    np.array(FLOAT_CELLS).reshape(-1, 1),
    np.array(FLOAT_CELLS[:18]).reshape(6, 3),
    np.array(FLOAT_CELLS[:18]).reshape(3, 6).T.copy(),
    np.array(FLOAT_CELLS[:18]).reshape(6, 3)[::-1, ::2],
    np.random.default_rng(6).standard_normal((120, 3))
    * 10.0 ** np.arange(-150, 210, 3)[:, None],
    np.random.default_rng(7).integers(-10**6, 10**6, (120, 3)).astype(float),
    np.empty((0, 3)),
    np.empty((0, 1)),
    np.empty((4, 0)),
], ids=["one-column", "6x3", "transposed", "strided", "120x3", "integral",
        "no-rows", "no-rows-one-column", "no-columns"])
def test_float_table_text_equals_fmt_cells(table, monkeypatch):
    header = [f"c{i}" for i in range(table.shape[1])]
    want = cellwise_csv_text(header, table.tolist())
    assert want == cellwise_csv_text(header, table)     # fmt of np.float64 cells
    # The table takes the row-template path: fmt is not called.
    monkeypatch.setattr(serialize, "fmt", None)
    assert serialize._csv_text(header, table) == want


@pytest.mark.parametrize("iso", [True, False])
@pytest.mark.parametrize("name", ["identity", "river", "spiral", "banana", "sinh_shift_1d"])
@pytest.mark.parametrize("samples", [0, 1, 2, 57, 120])
def test_geodesic_rows_are_a_float_table_of_per_sample_points(name, iso, samples):
    M = ig.PullbackManifold(getattr(ig, name)())
    x, y = {"identity": ([0.0, 0.0], [1.0, -2.0]), "river": ([0.0, -3.0], [1.0, 3.0]),
            "spiral": ([-1.678, -1.088], [-2.279, 1.951]),
            "banana": ([-2.0, -3.0], [2.0, 3.0]), "sinh_shift_1d": ([-1.5], [2.0])}[name]
    x, y = np.array(x), np.array(y)
    rows = experiments.geodesic_rows(M, x, y, samples, iso)
    assert rows.dtype == np.float64 and rows.shape == (samples, 1 + M.dim)
    ts = np.linspace(0.0, 1.0, samples)
    assert np.array_equal(rows[:, 0], ts)
    if iso:
        inner = (ts > 0.0) & (ts < 1.0)
        assert np.array_equal(rows[inner, 1:], ig.iso_geodesic(M, x, y, ts[inner]))
        assert (rows[~inner, 1:] == np.where(ts[~inner, None] == 0.0, x, y)).all()
    else:
        # One batched Levi-Civita call has the bits of a call per sample.
        want = [ig.lc_geodesic(M, x, y, t) for t in ts]
        assert np.array_equal(rows[:, 1:].view(np.int64),
                              np.reshape(want, (samples, M.dim)).view(np.int64))


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


def points_csv_by_fmt(header, columns):
    """``points.csv`` as ``_write_points`` wrote it before the row template:
    ``fmt`` on every cell of the columns' ``tolist()``."""
    return cellwise_csv_text(header, zip(*(column.tolist() for column in columns)))


@pytest.mark.parametrize("labels", [
    np.array([1, 2, 1, 2, 2, 1, 1, 2, 1]),
    np.array([0, -1, 2**62, -(2**62), 7, 2**53 + 1, 10**16, 3, 1], dtype=np.int64),
    np.array([0, 1, 2**63, 2**64 - 1, 5, 6, 7, 8, 9], dtype=np.uint64),
])
def test_points_csv_equals_fmt_cells(tmp_path, labels, monkeypatch):
    points = np.array([[-0.0, 0.0], [np.nan, 1.0], [np.inf, -np.inf], [5e-324, -5e-324],
                       [1e16, 0.1], [2.2250738585072014e-308, 1.7976931348623157e308],
                       [3.0, -2.5], [1.0 / 3.0, 2.0 / 3.0], [-1e-300, 1e300]])
    extra = [("label_a", labels[::-1].copy()), ("label_b", labels % 3)]
    header = ["x0", "x1", "truth", "label_a", "label_b"]
    want = points_csv_by_fmt(header, [points[:, 0], points[:, 1], labels,
                                      *(values for _, values in extra)])
    want_unlabelled = points_csv_by_fmt(["x0", "x1"], [points[:, 0], points[:, 1]])
    # The float64 and int columns take the row template: fmt is not called.
    monkeypatch.setattr(serialize, "fmt", None)
    experiments._write_points(tmp_path / "points.csv", points, labels, extra)
    assert (tmp_path / "points.csv").read_bytes() == want.encode()
    experiments._write_points(tmp_path / "points.csv", points)
    assert (tmp_path / "points.csv").read_text() == want_unlabelled
    experiments._write_points(tmp_path / "points.csv", points[:0], labels[:0])
    assert (tmp_path / "points.csv").read_text() == "x0,x1,truth\n"
    # A tracer that lists the rows it is given (perfbench --trace 1) hands
    # write_csv the table's records: fmt writes the same bytes.
    monkeypatch.undo()
    write_csv = serialize.write_csv
    monkeypatch.setattr(experiments, "write_csv",
                        lambda path, header, rows: write_csv(path, header, list(rows)))
    experiments._write_points(tmp_path / "points.csv", points, labels, extra)
    assert (tmp_path / "points.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("labels", [
    np.array([True, False, True]),
    np.array([1.5, 2.0, -0.0], dtype=np.float32),
    np.array(["a", "b", "c"]),
])
def test_points_csv_with_other_columns_goes_by_fmt(tmp_path, labels):
    # "%d" % True is 1 and a float32 or str column has no template field:
    # such a file keeps fmt on every cell.
    points = np.array([[0.5, -0.0], [1e16, np.nan], [-np.inf, 5e-324]])
    experiments._write_points(tmp_path / "points.csv", points, labels)
    assert (tmp_path / "points.csv").read_text() == points_csv_by_fmt(
        ["x0", "x1", "truth"], [points[:, 0], points[:, 1], labels])


@pytest.mark.parametrize("config", ["river_ratios.ini", "banana_rankr.ini", "river_geodesic.ini"])
def test_float_table_runs_never_call_fmt(tmp_path, monkeypatch, config):
    # Every CSV of a ratios, rankr or geodesic run is a float table (or the
    # record array of points.csv): the row template writes all its cells.
    def refuse(value):
        raise AssertionError("serialize.fmt was called")

    monkeypatch.setattr(serialize, "fmt", refuse)
    monkeypatch.setenv("ISOGEO_OUTPUT_DIR", str(tmp_path))
    assert experiments.run(load_config(CONFIG_DIR / config)) == experiments.EXIT_OK
    assert list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("samples", [1, 2, 57])
@pytest.mark.parametrize("iso", [True, False])
def test_cli_geodesic_writes_the_bytes_of_a_geodesic_run(tmp_path, monkeypatch, iso, samples):
    text = (CONFIG_DIR / "river_geodesic.ini").read_text()
    edited = text.replace("samples = 100", f"samples = {samples}").replace(
        "iso = true", f"iso = {str(iso).lower()}")
    assert edited.count("\n") == text.count("\n") and ("iso = true" in edited) == iso
    (tmp_path / "geodesic.ini").write_text(edited)
    monkeypatch.setenv("ISOGEO_OUTPUT_DIR", str(tmp_path / "run"))
    assert experiments.run(load_config(tmp_path / "geodesic.ini")) == experiments.EXIT_OK
    dest = tmp_path / "cli.csv"
    result = CliRunner().invoke(main, [
        "geodesic", "--geometry", "river", "--beta", "5.0", "--eta", "0.25",
        "--from", "0.0,-3.0", "--to", "0.0,3.0", "--samples", str(samples),
        "--iso" if iso else "--levi-civita", "--output", str(dest)])
    assert result.exit_code == 0
    assert dest.read_bytes() == (tmp_path / "run" / "geodesic.csv").read_bytes()


def test_spiral_ratios_csv_is_nan_at_the_origin_only(tmp_path, monkeypatch):
    # The 5 x 5 grid over [-2, 2]^2 has the origin, off the spiral's domain,
    # as its node 12: its two ratio cells read nan, and no other cell does.
    text = (CONFIG_DIR / "spiral_barycentre.ini").read_text().replace(
        "kind = barycentre", "kind = ratios\ngrid_n = 5\nx1_min = -2.0\nx1_max = 2.0\n"
        "x2_min = -2.0\nx2_max = 2.0").replace("n = 200", "n = 20")
    (tmp_path / "ratios.ini").write_text(text)
    monkeypatch.setenv("ISOGEO_OUTPUT_DIR", str(tmp_path / "run"))
    assert experiments.run(load_config(tmp_path / "ratios.ini")) == experiments.EXIT_OK
    lines = (tmp_path / "run" / "ratios.csv").read_text().splitlines()
    assert lines[0] == "x0,x1,monotonicity,lipschitz" and len(lines) == 26
    cells = [line.split(",") for line in lines[1:]]
    assert cells[12] == ["0", "0", "nan", "nan"]
    assert all("nan" not in row for i, row in enumerate(cells) if i != 12)
