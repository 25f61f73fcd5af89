"""Deterministic serialization: canonical JSON and CSV with fixed float
formatting.

Floats are rendered with %.17g (round-trip exact for doubles) and keys are
emitted in sorted order, so identical inputs produce byte-identical files.
JSON has no infinity or NaN, so a non-finite float is written as null there;
CSV keeps its text form.
Complex numbers are [re, im] pairs; matrices are row-major with an explicit
basis tag and dimension.
"""

from __future__ import annotations

import math

import numpy as np

from .core_model import BasisKind, DenseOperator
from .errors import DomainError

__all__ = [
    "canonical_json",
    "format_float",
    "pack_operator",
    "unpack_operator",
    "csv_lines",
]


def format_float(x):
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return "%.17g" % x


def _json_float(x):
    return format_float(x) if math.isfinite(x) else "null"


def _float_array(a):
    """A nonempty float array as nested JSON lists: every entry formatted in
    one pass, then grouped innermost axis first."""
    items = list(map(_json_float, a.ravel().tolist()))
    for width in reversed(a.shape):
        items = ["[" + ",".join(items[i:i + width]) + "]" for i in range(0, len(items), width)]
    return items[0]


def _emit(obj):
    if type(obj) is float:
        return _json_float(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _json_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return "[%s,%s]" % (_json_float(obj.real), _json_float(obj.imag))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f'{_emit(str(k))}:{_emit(v)}' for k, v in items) + "}"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.size:
            return _float_array(obj)
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    raise DomainError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj):
    """Byte-deterministic JSON text (sorted keys, %.17g floats, one line)."""
    return _emit(obj) + "\n"


def pack_operator(op):
    """Matrix payload: basis tag, dimension, row-major [re, im] entries as a
    (dim, dim, 2) float array."""
    rows = np.stack((op.entries.real, op.entries.imag), axis=-1)
    return {"basis": op.basis.value, "dim": op.dim, "hermitian": op.hermitian, "rows": rows}


def unpack_operator(payload):
    """Inverse of ``pack_operator`` on a payload read back from JSON, where
    ``rows`` is nested lists; a JSON null reads as NaN."""
    dim = int(payload["dim"])
    pairs = np.asarray(payload["rows"], dtype=float)
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise DomainError(f"matrix payload entries are not [re, im] pairs (shape {pairs.shape})")
    if pairs.shape[:2] != (dim, dim):
        raise DomainError(f"matrix payload claims dim {dim} but has shape {pairs.shape[:2]}")
    m = np.empty((dim, dim), dtype=complex)
    m.real, m.imag = pairs[..., 0], pairs[..., 1]
    return DenseOperator(m, BasisKind(payload["basis"]), hermitian=bool(payload["hermitian"]))


def csv_lines(header, rows):
    """CSV text with %.17g floats and [re, im] complex cells."""
    def cell(v):
        if isinstance(v, (complex, np.complexfloating)):
            return f"{format_float(v.real)}+{format_float(v.imag)}j" if v.imag >= 0 \
                else f"{format_float(v.real)}{format_float(v.imag)}j"
        if isinstance(v, (float, np.floating)):
            return format_float(v)
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"
