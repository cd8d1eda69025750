"""Deterministic CSV/JSON output: fixed float format, fixed column order.

Every CSV cell has ``fmt``'s bytes, unquoted (a 2-D or record array whose
columns are all float64 or integer takes one ``%`` over a row template), and
every CSV line ends with LF, in files and on ``isogeo geodesic`` stdout
alike; JSON is the stdlib encoder's.  Each file is written in one call, in
place: opened without O_TRUNC and cut to length after the write, because
truncating to zero makes ext4 flush the file on close and the next rewrite
of that path wait for the flush.
"""

import json
import os
import stat

import numpy as np

_FLOATS = (float, np.floating)


def fmt(value):
    """Floats with 17 significant digits so runs diff cleanly."""
    return "%.17g" % value if isinstance(value, _FLOATS) else str(value)


def _field(dtype):
    # The % field that gives fmt's bytes for every value of dtype, or None
    # ("%d" % True is "1" where fmt writes "True", so bools are no ints here).
    return "%.17g" if dtype == np.float64 else "%d" if dtype.kind in "iu" else None


def _csv_text(header, rows):
    fields = [None]
    if isinstance(rows, np.ndarray) and rows.dtype.names:
        # A record array: a column per field, cells from its Python values.
        fields = [_field(rows.dtype[name]) for name in rows.dtype.names]
        rows = rows.tolist()
        cells = [value for row in rows for value in row]
    elif isinstance(rows, np.ndarray) and rows.ndim == 2:
        fields = [_field(rows.dtype)] * rows.shape[1]
        cells = rows.ravel().tolist()
    if None not in fields:
        # One % over a row template: every cell at C speed.
        template = (",".join(fields) + "\n") * len(rows)
        return ",".join(header) + "\n" + template % tuple(cells)
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


def _json_leaf(obj):
    """json's ``default``: a numpy array or scalar as the Python value it holds."""
    if isinstance(obj, (np.ndarray, np.generic)):
        value = obj.tolist()
        if not isinstance(value, np.generic):   # a longdouble stays one
            return value
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True, default=_json_leaf) + "\n")
