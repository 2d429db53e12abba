"""Output checker: reference reports for the default seed, invariants for all.

A job fails on a nonzero exit, an exception, or a failed check.  For the
default seed every report is compared with the stored reference: booleans,
integers, strings and point lists must match exactly, and floats within
ATOL + RTOL * |reference|, which is no looser than the acceptance fixtures
(1e-10 absolute on the Gram smin, rtol 1e-4 on the sweep baselines).  For
every seed, the invariants of each job kind are checked as well.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ATOL = 1e-10
RTOL = 1e-8

# Condition numbers and frame ratios divide by an extreme eigenvalue or
# singular value that can sit at rounding level (null when it is <= 0), so
# their reciprocals are what is compared.
RECIPROCAL_FIELDS = frozenset({"condition", "ratio", "gram_condition"})

# Point lists longer than this are stored in the reference as count + digest.
POINT_LIST_INLINE = 8


def _is_point(item) -> bool:
    return isinstance(item, dict) and set(item) in ({"re", "im"}, {"re", "im", "mult"})


def reduce_report(obj):
    """Replace long point lists (divisor points, uncovered grid points) by
    their count and the sha256 of their JSON, which keeps them exact."""
    if isinstance(obj, dict):
        return {key: reduce_report(val) for key, val in obj.items()}
    if isinstance(obj, list):
        if len(obj) > POINT_LIST_INLINE and all(_is_point(p) for p in obj):
            text = json.dumps(obj, separators=(",", ":"))
            return {"count": len(obj), "sha256": hashlib.sha256(text.encode()).hexdigest()}
        return [reduce_report(val) for val in obj]
    return obj


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(ref: float, got: float) -> bool:
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def compare(ref, got, path: str = "") -> list[str]:
    """Differences between a reduced reference report and a reduced report."""
    key = path.rsplit(".", 1)[-1]
    if key in RECIPROCAL_FIELDS and (ref is None or _is_number(ref)) and (got is None or _is_number(got)):
        inv_ref = 0.0 if ref is None else 1.0 / ref
        inv_got = 0.0 if got is None else 1.0 / got
        return [] if _close(inv_ref, inv_got) else [f"{path}: 1/{got!r} vs 1/{ref!r}"]
    if _is_number(ref) and _is_number(got):
        if isinstance(ref, int) and isinstance(got, int):
            return [] if ref == got else [f"{path}: {got} != {ref}"]
        return [] if _close(float(ref), float(got)) else [f"{path}: {got!r} vs {ref!r}"]
    if type(ref) is not type(got):
        return [f"{path}: {type(got).__name__} where reference has {type(ref).__name__}"]
    if isinstance(ref, dict):
        if list(ref) != list(got):
            return [f"{path}: fields {list(got)} != {list(ref)}"]
        return [d for k in ref for d in compare(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got)) for d in compare(r, g, f"{path}[{i}]")]
    return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- invariants


def _require(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_gram(report, expect, problems):
    spec = report["spectrum"]
    n = expect["atoms"]
    w = spec["eigenvalues"]
    _require(problems, spec["size"] == n == len(w), f"spectrum size {spec['size']} for {n} atoms")
    _require(problems, all(b >= a - 1e-12 for a, b in zip(w, w[1:])), "eigenvalues not ascending")
    # unit-norm atoms: the trace, and so the eigenvalue sum, is n
    _require(problems, abs(sum(w) - n) <= 1e-9 * n, f"eigenvalue sum {sum(w)} != {n}")
    _require(problems, _close(w[0], spec["smin"]) and _close(w[-1], spec["smax"]),
             "smin/smax differ from the spectrum ends")
    if spec["smin"] <= 0:
        _require(problems, spec["condition"] is None, "condition reported for a singular Gram")
    else:
        _require(problems, spec["condition"] is not None
                 and _close(spec["smin"] / spec["smax"], 1.0 / spec["condition"]),
                 "condition != smax/smin")


def _check_interpolation(norm, residual, scale, f_norm, problems):
    # the data are measurements of f, so they are consistent: the residual is
    # rounding-sized, and the minimal-norm interpolant is no longer than f
    _require(problems, residual <= 1e-6 * max(scale, 1.0), f"residual {residual} too large")
    _require(problems, norm <= f_norm * (1 + 1e-6) + 1e-12, f"interpolant norm {norm} > |f| {f_norm}")


def _check_interpolate(report, expect, problems):
    sol = report["solution"]
    values = report["inputs"]["values"]
    _require(problems, len(values) == expect["atoms"], "one value per atom expected")
    scale = max(math.hypot(v["re"], v["im"]) for v in values)
    _check_interpolation(sol["norm"], sol["residual"], scale, expect["f_norm"], problems)


def _check_roundtrip(report, expect, problems):
    _check_interpolation(report["norm"], report["residual"], report["max_abs_value"],
                         expect["f"].norm(), problems)
    norm = report["norm"]
    _require(problems, abs(report["function_norm"] - norm) <= 1e-8 * max(norm, 1.0),
             f"function norm {report['function_norm']} != solution norm {norm}")
    # Bessel: the projection onto e_0..e_N is no longer than the function
    _require(problems, report["coeff_squared_sum"] <= norm * norm * (1 + 1e-8) + 1e-10,
             "basis projection longer than the function")
    _require(problems, report["defect"] >= -1e-8, f"negative truncation defect {report['defect']}")


def _check_frame_bounds(report, expect, problems):
    summaries = report["summaries"]
    degrees = [s["degree"] for s in summaries]
    _require(problems, degrees == expect["degrees"] == report["inputs"]["degrees"],
             f"degrees {degrees} != {expect['degrees']}")
    rows = expect["rows"]
    for s in summaries:
        deficient = rows < s["degree"] + 1
        _require(problems, s["rank_deficient"] == deficient, f"rank flag wrong at N={s['degree']}")
        _require(problems, 0 <= s["smin"] <= s["smax"] * (1 + 1e-12), f"smin > smax at N={s['degree']}")
        if deficient:
            _require(problems, s["smin"] == 0 and s["ratio"] is None, "deficient map needs smin 0")
    # adding columns cannot lower the largest singular value, nor raise the
    # smallest one of a tall matrix
    for a, b in zip(summaries, summaries[1:]):
        _require(problems, b["smax"] >= a["smax"] * (1 - 1e-9), "smax decreased with degree")
        if not b["rank_deficient"]:
            _require(problems, b["smin"] <= a["smin"] * (1 + 1e-9) + ATOL, "smin increased with degree")
    _require(problems, len({s["divisor_digest"] for s in summaries}) == 1, "digest changed in sweep")


def _check_uniqueness(report, expect, problems):
    value = report["hole_mass"]
    _require(problems, -1e-9 <= value <= 1 + 1e-9, f"hole mass {value} outside [0, 1]")


def _csv_text(points) -> str:
    lines = ["re,im"] + [f"{format(p['re'], '.12g')},{format(p['im'], '.12g')}" for p in points]
    return "\n".join(lines) + "\n"


def _check_geometry(report, expect, problems):
    v = report["verdicts"]
    c_list = expect["c_list"]
    _require(problems, report["inputs"]["c_list"] == c_list, "c_list not echoed")
    shrunk = v["shrunk_cover"]
    _require(problems, [r["c"] for r in shrunk] == c_list, "one shrunk-cover result per C expected")
    for r in shrunk:
        _require(problems, r["uncovered_count"] == len(r["uncovered"]), "uncovered count != list")
        _require(problems, r["holds"] == (r["uncovered_count"] == 0), "holds != no uncovered point")
    # larger C shrinks every disc, so the uncovered set can only grow
    counts = [r["uncovered_count"] for r in shrunk]
    _require(problems, counts == sorted(counts), f"uncovered counts not monotone in C: {counts}")
    for name in ("padded_cover", "shrunk_disjoint", "padded_disjoint"):
        witness = v[name]["witness_c"]
        _require(problems, v[name]["holds"] == (witness is not None) and (witness is None or witness in c_list),
                 f"{name} witness not a tested C")
    if "defects_csv" in expect:
        for r in shrunk:
            path = Path(f"{expect['defects_csv']}_c{format(float(r['c']), '.12g')}.csv")
            _require(problems, path.is_file() and path.read_text() == _csv_text(r["uncovered"]),
                     f"defect CSV {path.name} differs from the report")


def _check_generate(report, expect, problems):
    meta = report["metadata"]
    points = report["divisor"]["points"]
    _require(problems, meta["family"] == expect["family"], "family not echoed")
    _require(problems, meta["count"] == len(points), f"count {meta['count']} != {len(points)} points")
    if "total_multiplicity" in meta:
        _require(problems, meta["total_multiplicity"] == sum(p["mult"] for p in points),
                 "total multiplicity != sum of multiplicities")
    written = json.loads(Path(expect["out"]).read_text())
    _require(problems, written == report["divisor"], "divisor file differs from the report")


INVARIANTS = {
    "gram": _check_gram,
    "interpolate": _check_interpolate,
    "roundtrip": _check_roundtrip,
    "frame-bounds": _check_frame_bounds,
    "uniqueness": _check_uniqueness,
    "check-geometry": _check_geometry,
    "generate": _check_generate,
}


def check_result(result, reference: dict | None) -> list[str]:
    """Problems with one job result; empty when the job passed."""
    if result.exit_code != 0:
        return [f"exit code {result.exit_code}: {result.error}"]
    problems: list[str] = []
    try:
        if result.report is None:
            result.report = json.loads(result.stdout)
        INVARIANTS[result.job.kind](result.report, result.job.expect, problems)
        if reference is not None:
            entry = reference.get(result.job.name)
            if entry is None:
                problems.append("no reference report for this job")
            else:
                problems += compare(entry["report"], reduce_report(result.report))
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        # json.JSONDecodeError is a ValueError
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems
