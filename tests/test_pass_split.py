"""Arc-length tables of SPLIT_PASSES passes or more whose first pass took
SPLIT_PASS_S or longer, shared between the calling thread and one helper
thread, equal the serial loop bit for bit, fail as it fails, run under the
caller's numpy error state and leave no helper work running."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import isogeo as ig
from isogeo import isomaps
from isogeo.errors import DomainError
from isogeo.isomaps import COUPLING_ARRAYS, PASS_BYTES, SPLIT_PASSES, _arc_table, _speeds
from isogeo.quadrature import panel_integrals, unit_rule

SRC = Path(isomaps.__file__).resolve().parents[1]
TIMEOUT_S = 60


def serial_table(M, a, w):
    """The one-thread loop of ``_arc_table`` before the split: the oracle."""
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
    """The lines of a pass of whole (d, L, n) points: the split gates count these."""
    return max(1, PASS_BYTES // (8 * len(unit_rule(M.quad)[0]) * M.dim))


def per_line_pass(M):
    """The lines of one per-line pass on M: a coupling's builds d - 1 coordinates."""
    if M.diffeo.coupling is None:
        return lines_per_pass(M)
    return lines_per_pass(M) * (M.dim + COUPLING_ARRAYS) // (M.dim - 1 + COUPLING_ARRAYS)


def bits(table):
    return table.shape, table.tobytes()


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


class CountingPool:
    """A one-thread executor that keeps every job submitted to it."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(max_workers=1)
        self.jobs = []

    def submit(self, fn, *args):
        self.jobs.append(self.pool.submit(fn, *args))
        return self.jobs[-1]


def split_whatever_the_first_pass_took(monkeypatch):
    """Two CPUs whatever the host has, and no first pass too fast to split."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(isomaps, "SPLIT_PASS_S", 0.0)


@pytest.fixture
def helper(monkeypatch):
    """Tables that split by their pass count alone, and a helper that counts its jobs."""
    split_whatever_the_first_pass_took(monkeypatch)
    pool = CountingPool()
    monkeypatch.setattr(isomaps, "_helper", lambda: pool)
    yield pool
    pool.pool.shutdown(wait=True)


def line_counts(step):
    """Full and ragged last passes at the gate - 1, the gate and the gate + 1."""
    counts = [480, 2000]
    for passes in (SPLIT_PASSES - 1, SPLIT_PASSES, SPLIT_PASSES + 1):
        counts += [(passes - 1) * step + 1, passes * step - 1, passes * step]
    return counts


@pytest.mark.parametrize("name", sorted(MAPS))
def test_split_tables_equal_the_serial_loop(name, helper):
    M = ig.PullbackManifold(MAPS[name]())
    step = per_line_pass(M)
    a, w = random_lines(M, 2000)
    for lines in line_counts(step):
        jobs = len(helper.jobs)
        want = serial_table(M, a[:lines], w[:lines])
        assert bits(_arc_table(M, a[:lines], w[:lines])) == bits(want), lines
        passes = -(-lines // step)
        assert len(helper.jobs) - jobs == (passes >= SPLIT_PASSES), lines
    # A batch of lines keeps its shape.
    assert bits(_arc_table(M, a[:480].reshape(20, 24, -1), w[:480].reshape(20, 24, -1))) \
        == bits(serial_table(M, a[:480], w[:480]).reshape(20, 24, -1))
    assert all(job.done() for job in helper.jobs)


def marked_map(failing=(), barrier=None, slow=()):
    """A custom map whose speed reads the line index from the first coordinate.

    It raises DomainError naming the first line of a pass that is in
    ``failing``, 20 ms late for a line in ``slow``.  With a barrier, each
    thread's first pass after the table's first (which the calling thread
    takes before the helper is asked) waits there, so that a table is only
    finished if two threads took passes.  ``live`` counts the speed calls
    running.
    """
    state = {"live": 0, "threads": set()}
    lock, waited = threading.Lock(), set()

    def speed(y, w):
        thread = threading.get_ident()
        with lock:
            state["live"] += 1
            state["threads"].add(thread)
            wait = barrier is not None and y[0, 0, 0] > 0 and thread not in waited
            if wait:
                waited.add(thread)
        try:
            if wait:
                barrier.wait()
            bad = [int(line) for line in y[:, 0, 0] if int(line) in failing]
            if bad:
                if bad[0] in slow:
                    time.sleep(0.02)
                raise DomainError(f"the speed is undefined on line {bad[0]}")
            return np.sqrt(np.vecdot(w, w))
        finally:
            with lock:
                state["live"] -= 1

    M = ig.PullbackManifold(ig.Diffeomorphism(
        2, lambda x: x, lambda y: y, lambda x, v: v, lambda y, v: v, speed=speed))
    return M, state


def marked_lines(n):
    # Line i starts at (i, 0) and moves along the second axis only, so every
    # point of line i has i as its first coordinate.
    a = np.zeros((n, 2))
    a[:, 0] = np.arange(n)
    w = np.zeros((n, 2))
    w[:, 1] = 1.0 + np.arange(n) / n
    return a, w


@pytest.mark.parametrize("failing", [(30, 400), (400,)])
def test_a_failing_pass_raises_the_serial_loops_error(failing, helper):
    # Line 30 fails late, so that the other thread has reached line 400 and
    # failed first.
    M, state = marked_map(failing, slow=(30,))
    a, w = marked_lines(480)
    with pytest.raises(DomainError) as serial:
        serial_table(M, a, w)
    for _ in range(5):
        with pytest.raises(DomainError) as split:
            _arc_table(M, a, w)
        assert str(split.value) == str(serial.value)
        assert str(serial.value) == f"the speed is undefined on line {failing[0]}"
        assert state["live"] == 0
        assert all(job.done() for job in helper.jobs)
    assert len(helper.jobs) == 5


def test_both_threads_take_passes(helper):
    barrier = threading.Barrier(2, timeout=TIMEOUT_S)
    M, state = marked_map(barrier=barrier)
    a, w = marked_lines(480)
    assert bits(_arc_table(M, a, w)) == bits(serial_table(M, a, w))
    assert len(state["threads"]) == 2 and not barrier.broken


def test_small_tables_stay_on_the_calling_thread(helper):
    M, state = marked_map()
    a, w = marked_lines((SPLIT_PASSES - 1) * lines_per_pass(M))
    assert bits(_arc_table(M, a, w)) == bits(serial_table(M, a, w))
    assert state["threads"] == {threading.get_ident()} and not helper.jobs


def test_a_fast_first_pass_keeps_the_table_on_the_calling_thread(helper, monkeypatch):
    monkeypatch.setattr(isomaps, "SPLIT_PASS_S", 60.0)
    M, state = marked_map()
    a, w = marked_lines(480)
    assert bits(_arc_table(M, a, w)) == bits(serial_table(M, a, w))
    assert state["threads"] == {threading.get_ident()} and not helper.jobs


def overflowing_map():
    """A custom map whose speed overflows from line 355 on (exp(710) > DBL_MAX)."""
    return ig.PullbackManifold(ig.Diffeomorphism(
        2, lambda x: x, lambda y: y, lambda x, v: v, lambda y, v: v,
        speed=lambda y, w: np.sqrt(np.vecdot(w, w)) * np.exp(2.0 * y[..., 0])))


def test_the_helper_runs_under_the_callers_errstate(helper):
    # numpy keeps its error state in a context variable: a pass on the helper
    # raises, warns or keeps quiet as the same pass on the calling thread
    # would.  (Under this suite's warnings filter, a helper pass left on the
    # default "warn" would raise RuntimeWarning.)
    M = overflowing_map()
    a, w = marked_lines(480)
    for _ in range(5):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _arc_table(M, a, w)
    with np.errstate(over="ignore"):
        want = serial_table(M, a, w)
        for _ in range(5):
            assert bits(_arc_table(M, a, w)) == bits(want)
    assert np.isinf(want[-1, -1]) and len(helper.jobs) == 10
    assert all(job.done() for job in helper.jobs)


def test_a_busy_helper_is_not_waited_for(helper):
    # While the helper runs another job, a table's own job is still pending
    # when the calling thread has taken every pass: it is cancelled, not
    # waited behind.
    release = threading.Event()
    busy = helper.pool.submit(release.wait, TIMEOUT_S)
    try:
        M = ig.PullbackManifold(ig.river())
        a, w = random_lines(M, 480)
        assert bits(_arc_table(M, a, w)) == bits(serial_table(M, a, w))
        assert len(helper.jobs) == 1 and helper.jobs[0].cancelled()
        assert not busy.done()
    finally:
        release.set()
        busy.result(TIMEOUT_S)


def _child_table(conn, a, w):
    try:
        M = marked_map(barrier=threading.Barrier(2, timeout=TIMEOUT_S / 2))[0]
        conn.send(bits(_arc_table(M, a, w)))
    except BaseException as exc:
        conn.send(repr(exc))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_a_forked_child_makes_its_own_helper(monkeypatch):
    split_whatever_the_first_pass_took(monkeypatch)
    M = ig.PullbackManifold(ig.river())
    _arc_table(M, *random_lines(M, 480))
    assert isomaps._helper.cache_info().currsize == 1
    a, w = marked_lines(480)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_table, args=(send, a, w))
    child.start()
    try:
        # The child's table only finishes if a helper thread takes passes.
        assert receive.poll(TIMEOUT_S)
        got = receive.recv()
    finally:
        child.join(TIMEOUT_S)
        if child.is_alive():
            child.kill()
    assert got == bits(serial_table(marked_map()[0], a, w))
    assert child.exitcode == 0


def test_threads_sharing_the_helper_get_their_own_tables(monkeypatch):
    split_whatever_the_first_pass_took(monkeypatch)
    M = ig.PullbackManifold(ig.river())
    inputs = [random_lines(M, 480 + 24 * k, seed=k) for k in range(4)]
    wants = [bits(serial_table(M, a, w)) for a, w in inputs]
    results = {k: [] for k in range(4)}

    def work(k):
        for _ in range(10):
            results[k].append(bits(_arc_table(M, *inputs[k])))

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


def run_python(code):
    done = subprocess.run([sys.executable, "-c", code], cwd=SRC, check=True,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    return done.stdout.split()


def test_one_cpu_starts_no_thread():
    code = ("import os, threading, numpy as np, isogeo as ig; "
            "from isogeo import isomaps; "
            "os.sched_getaffinity = lambda pid: {0}; os.cpu_count = lambda: 1; "
            "isomaps.SPLIT_PASS_S = 0.0; "
            "M = ig.PullbackManifold(ig.river()); "
            "a = np.random.default_rng(0).uniform(-4, 4, (480, 2)); "
            "t = isomaps._arc_table(M, a, a[::-1] - a); "
            "print(threading.active_count(), isomaps._helper.cache_info().currsize)")
    assert run_python(code) == ["1", "0"]


def test_import_starts_no_thread():
    assert run_python("import threading, isogeo; print(threading.active_count())") == ["1"]


def test_a_table_at_interpreter_exit_runs_serially():
    # Once the interpreter is shutting down, the helper takes no new work.
    code = ("import atexit, hashlib, os, numpy as np, isogeo as ig; "
            "from isogeo import isomaps; "
            "os.sched_getaffinity = lambda pid: {0, 1}; isomaps.SPLIT_PASS_S = 0.0; "
            "M = ig.PullbackManifold(ig.river()); "
            "a = np.random.default_rng(0).uniform(-4, 4, (480, 2)); "
            "digest = lambda: hashlib.sha256(isomaps._arc_table(M, a, a[::-1] - a)).hexdigest(); "
            "print(digest()); atexit.register(lambda: print(digest()))")
    first, at_exit = run_python(code)
    assert first == at_exit
