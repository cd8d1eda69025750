"""Whole arc lengths run pass by pass on the calling thread: they equal the
serial loop's last column bit for bit at ragged line counts, and each line's
last knot, fail as it fails, start no thread and stay per caller when two
threads integrate batches at once; one line's knots are its serial row."""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import isogeo as ig
from isogeo import isomaps
from isogeo.errors import DomainError
from isogeo.isomaps import (COUPLING_ARRAYS, PASS_BYTES, SHARED_PASSES, _arc_lengths,
                            _knot_lengths, _speeds)
from isogeo.quadrature import panel_integrals, unit_rule

SRC = Path(isomaps.__file__).resolve().parents[1]
TIMEOUT_S = 60


def serial_table(M, a, w):
    """The per-line loop of cumulative tables on whole-point passes: the oracle."""
    q = M.quad
    ts, weights, _ = unit_rule(q)
    a, w = np.broadcast_arrays(a, w)
    lines = w.shape[:-1]
    a, w = a.reshape(-1, w.shape[-1]), w.reshape(-1, w.shape[-1])
    cumlen = np.zeros((len(w), q.panels + 1))
    step = max(1, PASS_BYTES // (8 * len(ts) * w.shape[-1]))
    for start in range(0, len(w), step):
        part = slice(start, start + step)
        speeds = _speeds(M, a[part], w[part], ts)
        per_panel = panel_integrals(speeds * weights, q.panels, q.nodes_per_panel)
        np.cumsum(per_panel, axis=-1, out=cumlen[part, 1:])
    return cumlen.reshape(*lines, q.panels + 1)


def lines_per_pass(M):
    """The lines of a pass of whole (d, L, n) points: the shared-key gate counts these."""
    return max(1, PASS_BYTES // (8 * len(unit_rule(M.quad)[0]) * M.dim))


def per_line_pass(M):
    """The lines of one per-line pass on M: a coupling's builds d - 1 coordinates."""
    if M.diffeo.coupling is None:
        return lines_per_pass(M)
    return lines_per_pass(M) * (M.dim + COUPLING_ARRAYS) // (M.dim - 1 + COUPLING_ARRAYS)


def bits(table):
    return table.shape, table.tobytes()


def knot_totals(M, a, w):
    """The last ``_knot_lengths`` knot of each of the ``(L, d)`` lines a + t w."""
    return np.array([_knot_lengths(M, *line)[-1] for line in zip(a, w)])


def wavy():
    """A custom 2-D map with no arc_length and the default speed."""
    return ig.Diffeomorphism(
        2, lambda x: np.stack([x[..., 0], x[..., 1] + 0.3 * np.sin(x[..., 0])], axis=-1),
        lambda y: np.stack([y[..., 0], y[..., 1] - 0.3 * np.sin(y[..., 0])], axis=-1),
        name="wavy")


MAPS = {"river": ig.river, "identity3": lambda: ig.identity(3), "wavy": wavy}


def random_lines(M, n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-4.0, 4.0, (n, M.dim))
    return a, rng.uniform(-4.0, 4.0, (n, M.dim)) - a


def line_counts(step):
    """Full and ragged last passes either side of the shared-key gate."""
    counts = [480, 2000]
    for passes in (SHARED_PASSES - 1, SHARED_PASSES, SHARED_PASSES + 1):
        counts += [(passes - 1) * step + 1, passes * step - 1, passes * step]
    return counts


@pytest.mark.parametrize("name", sorted(MAPS))
def test_split_tables_equal_the_serial_loop(name):
    # Whole lengths split into passes of their own width (a coupling's are
    # wider) equal the last column of the oracle's whole-point passes, and
    # each line's last knot: the iso-distance is the time change's total.
    M = ig.PullbackManifold(MAPS[name]())
    a, w = random_lines(M, 2000)
    totals = knot_totals(M, a, w)
    # Some counts end in a one-line pass, which the whole lengths sum alone.
    for lines in line_counts(per_line_pass(M)):
        want = serial_table(M, a[:lines], w[:lines])
        lengths = _arc_lengths(M, a[:lines], w[:lines])
        assert bits(lengths) == bits(want[..., -1]), lines
        assert bits(lengths) == bits(totals[:lines]), lines
    # A batch of lines keeps its shape.
    assert bits(_arc_lengths(M, a[:480].reshape(20, 24, -1), w[:480].reshape(20, 24, -1))) \
        == bits(serial_table(M, a[:480], w[:480]).reshape(20, 24, -1)[..., -1])


@pytest.mark.parametrize("quad", [ig.QuadratureConfig(), ig.QuadratureConfig(8, 16)],
                         ids=["64x4", "8x16"])
@pytest.mark.parametrize("name", sorted(MAPS))
def test_one_line_knots_equal_the_serial_row(name, quad):
    M = ig.PullbackManifold(MAPS[name](), quad)
    a, w = random_lines(M, 60, seed=1)
    table = serial_table(M, a, w)
    for i in range(len(w)):
        assert bits(_knot_lengths(M, a[i], w[i])) == bits(table[i]), i


def marked_map(failing=()):
    """A custom map whose ``inv_jvp``, and so speed, reads the line index from the first coordinate.

    It raises DomainError naming the first line of a pass that is in ``failing``.
    """
    def inv_jvp(y, w):
        bad = [int(line) for line in y[:, 0, 0] if int(line) in failing]
        if bad:
            raise DomainError(f"the speed is undefined on line {bad[0]}")
        return w

    return ig.PullbackManifold(ig.Diffeomorphism(
        2, lambda x: x, lambda y: y, lambda x, v: v, inv_jvp))


def marked_lines(n):
    # Line i starts at (i, 0) and moves along the second axis only, so every
    # point of line i has i as its first coordinate.
    a = np.zeros((n, 2))
    a[:, 0] = np.arange(n)
    w = np.zeros((n, 2))
    w[:, 1] = 1.0 + np.arange(n) / n
    return a, w


@pytest.mark.parametrize("failing", [(30, 400), (400,)])
def test_a_failing_pass_raises_the_serial_loops_error(failing):
    M = marked_map(failing)
    a, w = marked_lines(480)
    with pytest.raises(DomainError) as serial:
        serial_table(M, a, w)
    with pytest.raises(DomainError) as table:
        _arc_lengths(M, a, w)
    assert str(table.value) == str(serial.value)
    assert str(serial.value) == f"the speed is undefined on line {failing[0]}"


def test_caller_threads_get_their_own_tables():
    # PullbackManifold is safe to share across threads: batches integrated at
    # once on one manifold write only their own totals.
    M = ig.PullbackManifold(ig.river())
    inputs = [random_lines(M, 480 + 24 * k, seed=k) for k in range(4)]
    wants = [bits(serial_table(M, a, w)[:, -1]) for a, w in inputs]
    results = {k: [] for k in range(4)}

    def work(k):
        for _ in range(10):
            results[k].append(bits(_arc_lengths(M, *inputs[k])))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(4):
        assert results[k] == [wants[k]] * 10


def test_a_24_pass_table_starts_no_thread():
    code = ("import threading, numpy as np, isogeo as ig; "
            "from isogeo import isomaps; "
            "M = ig.PullbackManifold(ig.river()); "
            "a = np.random.default_rng(0).uniform(-4, 4, (720, 2)); "
            "t = isomaps._arc_lengths(M, a, a[::-1] - a); "
            "print(threading.active_count(), t.shape[0])")
    done = subprocess.run([sys.executable, "-c", code], cwd=SRC, check=True,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    # 720 distinct river lines: 24 per-line passes of 30.
    assert done.stdout.split() == ["1", "720"]
