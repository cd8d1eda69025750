"""Deterministic CSV/JSON output: fixed float format, fixed column order.

One formatter, ``fmt``, writes every CSV cell, unquoted; config CSVs end
lines with CRLF, ``isogeo geodesic`` stdout with LF.  Each file is written
in one call.
"""

import json

import numpy as np

_FLOATS = (float, np.floating)


def fmt(value):
    """Floats with 17 significant digits so runs diff cleanly."""
    return "%.17g" % value if isinstance(value, _FLOATS) else str(value)


def _csv_text(header, rows, newline):
    lines = [",".join(header)]
    lines += [",".join(map(fmt, row)) for row in rows]
    return newline.join(lines) + newline


def write_csv(path, header, rows):
    text = _csv_text(header, rows, "\r\n")
    with open(path, "w", newline="") as fh:
        fh.write(text)


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
    with open(path, "w") as fh:
        fh.write(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")
