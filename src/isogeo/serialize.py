"""Deterministic CSV/JSON output: fixed float format, fixed column order.

One formatter, ``fmt``, writes every CSV cell, unquoted, and every CSV
line ends with LF, in files and on ``isogeo geodesic`` stdout alike.  Each
file is written in one call, in place: opened without O_TRUNC and cut to
length after the write, because truncating to zero makes ext4 flush the
file on close and the next rewrite of that path wait for the flush.
"""

import json
import os
import stat

import numpy as np

_FLOATS = (float, np.floating)


def fmt(value):
    """Floats with 17 significant digits so runs diff cleanly."""
    return "%.17g" % value if isinstance(value, _FLOATS) else str(value)


def _csv_text(header, rows):
    lines = [",".join(header)]
    lines += [",".join(map(fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


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


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, obj):
    _write_text(path, json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")
