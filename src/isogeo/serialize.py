"""Deterministic CSV/JSON output: fixed float format, fixed column order.

Every CSV is one float64 table under one row template: each cell is
``"%.17g"`` of a float64, unquoted, so an integer cell (an iteration, a
label) prints as the integer it holds while it is at most 2**53 in
magnitude, and every CSV line ends with LF, in files and on ``isogeo
geodesic`` stdout alike; JSON is the stdlib encoder's.  Each file is written in one call, in place:
opened without O_TRUNC and cut to length after the write, because
truncating to zero makes ext4 flush the file on close and the next rewrite
of that path wait for the flush.
"""

import json
import os
import stat

import numpy as np


def _csv_text(header, rows, fields=None):
    """``rows``, a float table or a list of equal-length rows of numbers, as
    CSV text under ``header``: one ``%`` over a row template of ``fields``
    (``"%.17g"`` per column by default; an empty field writes an empty cell)."""
    table = np.asarray(rows, dtype=float)
    if fields is None:
        fields = ["%.17g"] * table.shape[-1]
    # The row count is the table's: a (0, d) table prints its header alone.
    template = (",".join(fields) + "\n") * len(table)
    return ",".join(header) + "\n" + template % tuple(table.ravel().tolist())


def _write_text(path, text):
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        # ftruncate fails on /dev/null and FIFOs, which have no old tail
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def write_csv(path, header, rows):
    _write_text(path, _csv_text(header, rows))


def _json_leaf(obj):
    """json's ``default``: a numpy array or scalar as the Python value it holds."""
    if isinstance(obj, (np.ndarray, np.generic)):
        value = obj.tolist()
        if not isinstance(value, np.generic):   # a longdouble stays one
            return value
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True, default=_json_leaf) + "\n")
