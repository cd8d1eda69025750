"""Host speed, measured by a fixed reference loop run between tasks.

The measuring host changes speed under a fixed load: over minutes, the same
pass can take a third longer or shorter (``README.md`` has the figures).  So
every task is followed by one run of a fixed loop of small numpy calls and
Python-level work, the kind of work the library does, which uses no isogeo
code.  Times taken alongside those runs are scaled by ``REFERENCE_S`` over
the loop's mean time: they read as times on a host that runs the loop in
``REFERENCE_S``.  A slow stretch of the host slows the loop and the tasks
alike and cancels; a change to isogeo does not touch the loop and shows in
full.
"""

import time

import numpy as np

REFERENCE_S = 3.0e-3   # the loop's typical time on the machine in README.md
_A = np.linspace(0.0, 1.0, 24)


def tick():
    """Time of one run of the reference loop, in seconds."""
    started = time.perf_counter()
    acc = 0.0
    for i in range(600):
        b = np.sqrt(_A * (i + 1.0)) + _A
        acc += float(np.dot(b, _A))
        acc += len([x for x in range(20)])
    return time.perf_counter() - started


def scale(ticks):
    """Factor that turns times taken alongside ``ticks`` into reference-host times."""
    return REFERENCE_S * len(ticks) / sum(ticks)
