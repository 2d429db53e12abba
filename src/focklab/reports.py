"""Input file reading, divisor file output, canonical JSON and CSV emission.

The divisor file is a single JSON document {alpha, points: [{re, im, mult}]}
with plain decimal floats, no NaN or Inf.  Reports are written through a
canonical serializer (fixed field order, floats at 12 significant digits), so
identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .core import FockParams
from .geometry import Divisor
from .numerics import MeasurementVector

__all__ = [
    "SchemaError",
    "format_float",
    "canonical_json",
    "load_divisor",
    "load_values",
    "save_divisor",
    "divisor_payload",
    "complex_payload",
    "write_sweep_csv",
    "write_points_csv",
]


class SchemaError(ValueError):
    """Malformed input file; the message names the offending field or line."""


def format_float(value: float) -> str:
    """Fixed 12-significant-digit decimal form; stable under reparsing."""
    return format(float(value), ".12g")


def _point_rows(points: np.ndarray, row: str, sep: str) -> str:
    """Each complex point through row, a template whose two %.12g fields take
    its real and imaginary parts (as format_float writes them), joined by sep;
    each distinct float, keyed by its bits (0.0 and -0.0 apart), is formatted once."""
    z = np.asarray(points, dtype=np.complex128)
    bits, inverse = np.unique(np.column_stack((z.real, z.imag)).view(np.int64), return_inverse=True)
    text = ("%.12g\n" * bits.size % tuple(bits.view(np.float64).tolist())).split("\n")
    parts = map(text.__getitem__, inverse.ravel().tolist())
    return sep.join([row.replace("%.12g", "%s")] * z.size) % tuple(parts)


def _write_canonical(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        # JSON has no Inf/NaN; non-finite summary values serialize as null
        out.append(format_float(x) if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, complex):
        _write_canonical(complex_payload(obj), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write_canonical(val, out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "c":
        # point lists, as complex128, in one formatting pass; non-finite ones
        # go point by point as Python complex numbers, whose parts write null
        z = obj.astype(np.complex128, copy=False)
        if np.isfinite(z).all():
            out.append("[" + _point_rows(z, '{"re":%.12g,"im":%.12g}', ",") + "]")
        else:
            _write_canonical(z.tolist(), out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(",")
            _write_canonical(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: insertion-ordered fields, 12-digit floats."""
    out: list[str] = []
    _write_canonical(obj, out)
    return "".join(out)


def complex_payload(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _require_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{field}: expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise SchemaError(f"{field}: must be finite")
    return float(value)


def _require_fields(obj, where: str, *fields: str) -> dict:
    if not isinstance(obj, dict) or set(obj) != set(fields):
        named = ("fields " if len(fields) > 1 else "field ") + ", ".join(fields)
        raise SchemaError(f"{where}: expected an object with exactly the {named}")
    return obj


def _require_complex(obj, where: str, *extra: str) -> complex:
    # the re and im fields of an object with exactly those and the extra fields
    _require_fields(obj, where, "re", "im", *extra)
    re = _require_number(obj["re"], f"{where}.re")
    return complex(re, _require_number(obj["im"], f"{where}.im"))


def _read_json(path):
    # the one reader of input files; syntax errors name their line and column,
    # unreadable or non-UTF-8 files their path
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def load_divisor(path) -> Divisor:
    """Parse and validate a divisor file.

    Coincident points are merged by summing multiplicities, with a warning.
    Schema violations raise SchemaError naming the field (or the line for
    JSON syntax errors).
    """
    doc = _require_fields(_read_json(path), "top level", "alpha", "points")
    alpha = _require_number(doc["alpha"], "alpha")
    if alpha <= 0:
        raise SchemaError("alpha: must be positive")
    if not isinstance(doc["points"], list):
        raise SchemaError("points: expected a list")

    merged: dict[complex, int] = {}
    for i, point in enumerate(doc["points"]):
        where = f"points[{i}]"
        lam = _require_complex(point, where, "mult")
        mult = point["mult"]
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise SchemaError(f"{where}.mult: must be a positive integer")
        if lam in merged:
            warnings.warn(
                f"coincident divisor points at ({lam.real}, {lam.imag}) merged; "
                "multiplicities summed",
                stacklevel=2,
            )
        merged[lam] = merged.get(lam, 0) + mult
    return Divisor(FockParams(alpha), tuple(merged.items()))


def load_values(path, labels) -> MeasurementVector:
    """Parse and validate an interpolation values file {values: [{re, im}]}
    holding one entry per label, in label order."""
    raw = _require_fields(_read_json(path), "top level", "values")["values"]
    if not isinstance(raw, list):
        raise SchemaError("values: expected a list")
    if len(raw) != len(labels):
        raise SchemaError(
            f"values: expected {len(labels)} entries (one per divisor label), got {len(raw)}"
        )
    values = [_require_complex(item, f"values[{i}]") for i, item in enumerate(raw)]
    return MeasurementVector(tuple(labels), np.array(values, dtype=complex))


def divisor_payload(divisor: Divisor) -> dict:
    return {
        "alpha": divisor.params.alpha,
        "points": [
            {"re": lam.real, "im": lam.imag, "mult": m} for lam, m in divisor.entries
        ],
    }


def save_divisor(divisor: Divisor, path) -> None:
    Path(path).write_text(canonical_json(divisor_payload(divisor)) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isinf(x):
        return "inf"
    return format_float(x)


def write_sweep_csv(path, rows) -> None:
    """Spectral sweep as CSV with header N,smin,smax,ratio."""
    lines = ["N,smin,smax,ratio"]
    for degree, smin, smax, ratio in rows:
        lines.append(",".join([_csv_cell(degree), _csv_cell(smin), _csv_cell(smax), _csv_cell(ratio)]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_points_csv(path, points) -> None:
    """Point list (defects and the like) as CSV with header re,im."""
    z = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=complex)
    Path(path).write_text("re,im\n" + _point_rows(z, "%.12g,%.12g\n", ""))
