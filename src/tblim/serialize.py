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

from itertools import chain

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
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    return "%.17g" % (float(x) + 0.0)


def _json_float(x):
    # format_float inline; x - x is 0.0 exactly when x is finite
    return "%.17g" % (x + 0.0) if x - x == 0.0 else "null"


def _float_array(a):
    """A nonempty float array as nested JSON lists.  Each distinct innermost
    row is formatted once (an operator payload is mostly [0,0] pairs), then
    the rows are gathered and grouped outward, innermost axis first.  Adding
    0.0 merges -0.0 into 0.0, which formats the same."""
    width = a.shape[-1]
    rows = np.ascontiguousarray(a.reshape(-1, width), dtype=float) + 0.0
    keys = rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = ["[" + ",".join(map(_json_float, row)) + "]"
             for row in distinct.view(float).reshape(-1, width).tolist()]
    items = [texts[i] for i in inverse.tolist()]
    for width in reversed(a.shape[:-1]):
        items = ["[" + ",".join(items[i:i + width]) + "]" for i in range(0, len(items), width)]
    return items[0]


def _json_str(s):
    out = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{out}"'


_KEYS = {}      # quoted str keys with their colons; a str equals no other key type


def _json_key(k):
    text = _json_str(str(k)) + ":"
    if type(k) is str and len(_KEYS) < 4096:
        _KEYS[k] = text
    return text


# the dict and list handlers look up the handler of each value themselves,
# which saves a call to ``_emit`` per value; the dict handler formats a
# float value as ``_json_float`` does, without the call
def _json_dict(d):
    get, keys = _EMITTERS.get, _KEYS
    return "{" + ",".join([(keys.get(k) or _json_key(k)) + (
        ("%.17g" % (v + 0.0) if v - v == 0.0 else "null") if type(v) is float
        else get(type(v), _emit_other)(v)) for k, v in sorted(d.items())]) + "}"


def _json_list(items):
    get = _EMITTERS.get
    return "[" + ",".join([get(type(v), _emit_other)(v) for v in items]) + "]"


# handlers by exact type; numpy values and subclasses take ``_emit_other``
_EMITTERS = {
    float: _json_float,
    int: str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    complex: lambda z: "[%s,%s]" % (_json_float(z.real), _json_float(z.imag)),
    str: _json_str,
    dict: _json_dict,
    list: _json_list,
    tuple: _json_list,
}


def _emit(obj):
    return _EMITTERS.get(type(obj), _emit_other)(obj)


def _emit_other(obj):
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.size:
        return _float_array(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return _emit(obj.tolist())
    for base in (int, float, complex, str, dict, list, tuple):
        if isinstance(obj, base):
            return _EMITTERS[base](base(obj))
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
    """Inverse of ``pack_operator``.  ``rows`` is the (dim, dim, 2) array or,
    read back from JSON, nested lists; a JSON null reads as NaN."""
    dim = int(payload["dim"])
    rows = payload["rows"]
    # the shape numpy reads: the common length at each depth, down to the
    # first whose items are not all lists of one length; then its items
    shape, items = (), [rows.tolist() if isinstance(rows, np.ndarray) else rows]
    while len(shape) < 3 and set(map(type, items)) == {list} and len(set(map(len, items))) == 1:
        shape, items = shape + (len(items[0]),), list(chain.from_iterable(items))
    if len(shape) != 3 or shape[2] != 2:
        raise DomainError(f"matrix payload entries are not [re, im] pairs (shape {shape})")
    if shape[:2] != (dim, dim):
        raise DomainError(f"matrix payload claims dim {dim} but has shape {shape[:2]}")
    # one pass over the flattened entries; object to float reads None as NaN
    pairs = np.fromiter(items, dtype=object, count=len(items)).astype(float)
    return DenseOperator(pairs.view(complex).reshape(dim, dim), BasisKind(payload["basis"]),
                         hermitian=bool(payload["hermitian"]))


def csv_lines(header, rows):
    """CSV text with %.17g floats and [re, im] complex cells."""
    def cell(v):
        if isinstance(v, (complex, np.complexfloating)):
            return f"{format_float(v.real)}+{format_float(v.imag)}j" if v.imag >= 0 \
                else f"{format_float(v.real)}{format_float(v.imag)}j"
        if isinstance(v, (float, np.floating)):
            return format_float(v)
        return str(v)

    return "".join([",".join(map(cell, row)) + "\n" for row in [header, *rows]])
