"""Float-by-float reference for the CLI's deterministic writers.

The library formats a whole row of floats with one ``%`` operation and
spells the non-finite values afterwards.  The functions here do the same
work the way it is stated: one ``format(x, ".17g")`` call per float,
with NaN and the infinities handled before formatting.  Tests require
the library's bytes to equal these exactly.
"""

import json
import math
import struct

import numpy as np


def fmt(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def clean(obj):
    if isinstance(obj, dict):
        return {str(k): clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [clean(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _key_order(key: str):
    try:
        return (0, int(key), "")
    except ValueError:
        return (1, 0, key)


def dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items(), key=lambda kv: _key_order(kv[0]))
        inner = ",\n".join(f"{pad}  {json.dumps(k)}: {dumps(v, indent + 1)}"
                           for k, v in items)
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        parts = [dumps(v, indent + 1) for v in obj]
        if any(isinstance(v, (dict, list)) for v in obj):
            inner = ",\n".join(pad + "  " + p for p in parts)
            return "[\n" + inner + "\n" + pad + "]"
        return "[" + ", ".join(parts) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt(obj)
    return json.dumps(obj)


def json_text(payload) -> str:
    """What ``write_json`` puts in a file."""
    return dumps(clean(payload)) + "\n"


def csv_text(rows) -> str:
    """What ``write_csv`` puts in a file."""
    M = np.atleast_2d(np.asarray(rows, dtype=float))
    lines = [",".join(fmt(v) for v in row) for row in M]
    return "\n".join(lines) + "\n"


def boundary_csv_text(stats) -> str:
    """What ``boundary`` puts in boundary.csv for these statistics."""
    freq, stderr = stats["freq"], stats["per_cell_stderr"]
    lines = ["# x,k,eps,freq,stderr"]
    for li, k in enumerate(stats["levels"]):
        for ei, eps in enumerate(stats["eps_grid"]):
            for x in range(freq.shape[2]):
                lines.append(f"{x},{k},{fmt(eps)},{fmt(freq[li, ei, x])},"
                             f"{fmt(stderr[li, ei, x])}")
    return "\n".join(lines) + "\n"


def coefficients_csv_text(row_labels, coeffs) -> str:
    """What ``analyze`` puts in coefficients.csv."""
    lines = ["# level,center,coefficient"]
    lines += [f"{lvl},{center},{fmt(c)}"
              for (lvl, center), c in zip(row_labels, coeffs)]
    return "\n".join(lines) + "\n"


def sf_csv_text(sf) -> str:
    """What ``analyze`` puts in sf.csv."""
    lines = ["# index,square_function"]
    lines += [f"{i},{fmt(v)}" for i, v in enumerate(sf)]
    return "\n".join(lines) + "\n"


def npy_data(arr) -> bytes:
    """The bytes after the header of what ``build`` puts in dist.npy and
    weights.npy: every float64 entry's raw little-endian bits, C order."""
    return np.asarray(arr, dtype="<f8").tobytes(order="C")


def sparse_npy_data(M) -> bytes:
    """The bytes after the header of what ``build`` puts in
    splines/level_k.npy: for each entry of ``M`` in row-major order whose
    bits are not those of +0.0 (so -0.0 is kept), its row, its column and
    its value as little-endian float64."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    out = b""
    for i, row in enumerate(M.tolist()):
        for j, x in enumerate(row):
            if struct.pack("<d", x) != bytes(8):
                out += struct.pack("<ddd", i, j, x)
    return out
