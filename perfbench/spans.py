"""Span recorder for the traced run, and the per-layer metrics drawn from it.

Public functions are wrapped from outside, in every module namespace that
imported them (``focklab.cli.gram_matrix`` and ``focklab.numerics.gram_matrix``
are one function, wrapped once and installed in both), plus ``numpy.linalg``.
Per-element functions (``displacement_element``, ``atom_pair_inner``) are not
wrapped: their work is counted from array shapes at the call boundary.
Spans stay in memory (name, start, end, parent, job, counts) and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from statistics import median

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int | None = None
    counts: dict = field(default_factory=dict)


def _union_length(intervals) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            (max(spans[k].start, s.start), min(spans[k].end, s.end))
            for k in children.get(i, ())
        )
        out.append(s.end - s.start - covered)
    return out


class Recorder:
    """Wraps functions so that each call records a span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, job=self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        self._stack.pop()
        return span

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each (span name, owner, attribute, count) target.

        A module-level function is replaced in every loaded ``focklab`` module
        that holds it, and in its owner; a method is replaced on its class.
        """
        for name, owner, attr, count in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, count)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    mod for key, mod in sys.modules.items()
                    if key.split(".")[0] == "focklab" and mod is not owner
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def dump(self, out, label: str) -> None:
        """Write the spans as JSON lines, tagged with ``label``."""
        for i, span in enumerate(self.spans):
            out.write(json.dumps({"pass": label, "id": i, **asdict(span)}) + "\n")


# ------------------------------------------------------------ focklab targets


def _grid_size_counter():
    sizes = {}

    def grid_points(window, hole_radius=0.0):
        key = (window.radius, window.grid_step, hole_radius)
        if key not in sizes:
            z = window.grid()
            sizes[key] = int(np.count_nonzero(np.abs(z) >= hole_radius))
        return sizes[key]

    return grid_points


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def focklab_targets():
    """The layer boundaries of focklab, with the counts taken at each."""
    from focklab import cli, core, generators, geometry, kernels, numerics, reports

    grid_points = _grid_size_counter()

    def coverage_tests(args, kwargs, result):
        # coverage_defect(divisor, c, sign, window, hole_radius=0.0)
        window = _arg(args, kwargs, 3, "window")
        hole = _arg(args, kwargs, 4, "hole_radius", 0.0)
        return {"disc_point_tests": grid_points(window, hole) * len(args[0].entries)}

    def overlap_tests(args, kwargs, result):
        # max_overlap(divisor, window)
        window = _arg(args, kwargs, 1, "window")
        return {"disc_point_tests": grid_points(window) * len(args[0].entries)}

    def matrix_elements(key):
        def count(args, kwargs, result):
            return {key: int(result.entries.size), "matrix_bytes": int(result.entries.nbytes)}
        return count

    def linalg_bytes(args, kwargs, result):
        return {"matrix_bytes": int(np.asarray(args[0]).nbytes)}

    def atom_pairs(args, kwargs, result):
        return {"atom_pairs": len(args[0].atoms) * len(args[1].atoms)}

    def points(args, kwargs, result):
        return {"points": int(np.size(args[1]))}

    def quadrature_nodes(args, kwargs, result):
        n_r = _arg(args, kwargs, 3, "n_r", 96)
        n_theta = _arg(args, kwargs, 4, "n_theta", 192)
        return {"nodes": int(n_r) * int(n_theta)}

    def text_bytes(args, kwargs, result):
        return {"bytes": len(result)}

    def csv_rows(args, kwargs, result):
        return {"rows": len(args[1])}

    linalg = np.linalg
    fock = core.FockFunction
    return [
        ("core.inner", fock, "inner", atom_pairs),
        ("core.to_basis_coeffs", fock, "to_basis_coeffs", None),
        ("core.evaluate", fock, "evaluate", points),
        ("kernels.gram_matrix", kernels, "gram_matrix", matrix_elements("gram_elements")),
        ("kernels.quadrature", kernels, "quadrature_inner_oracle", quadrature_nodes),
        ("numerics.measurements", numerics, "measurements", None),
        ("numerics.analysis_matrix", numerics, "analysis_matrix", matrix_elements("analysis_elements")),
        ("numerics.frame_bounds", numerics, "frame_bounds", None),
        ("numerics.min_norm_interpolate", numerics, "min_norm_interpolate", None),
        ("numerics.hole_mass", numerics, "hole_mass_experiment", None),
        ("numerics.linalg.eigh", linalg, "eigh", linalg_bytes),
        ("numerics.linalg.eigvalsh", linalg, "eigvalsh", linalg_bytes),
        ("numerics.linalg.svd", linalg, "svd", linalg_bytes),
        ("geometry.theorem_verdicts", geometry, "theorem_verdicts", None),
        ("geometry.coverage_defect", geometry, "coverage_defect", coverage_tests),
        ("geometry.max_overlap", geometry, "max_overlap", overlap_tests),
        ("geometry.pairwise_disjoint", geometry, "pairwise_disjoint", None),
        ("generators.generate", generators, "generate_lattice", None),
        ("generators.generate", generators, "generate_covering_rings", None),
        ("generators.generate", generators, "generate_disjoint_rings", None),
        ("reports.load_divisor", reports, "load_divisor", None),
        ("reports.save_divisor", reports, "save_divisor", None),
        ("reports.canonical_json", reports, "canonical_json", text_bytes),
        ("reports.csv", reports, "write_points_csv", csv_rows),
        ("reports.csv", reports, "write_sweep_csv", csv_rows),
        ("cli.main", cli, "main", None),
    ]


# --------------------------------------------------------- per-layer metrics

ELEMENT_LOOPS = ("kernels.gram_matrix", "numerics.analysis_matrix", "numerics.measurements",
                 "core.inner", "core.to_basis_coeffs")


def pass_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose job spans sum to ``wall``."""
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    peak_bytes = 0
    report_bytes = 0
    contract = 0.0
    for span, self_s in zip(spans, selfs):
        duration = span.end - span.start
        total[span.name] += duration
        own[span.name] += self_s
        calls[span.name] += 1
        for key, value in span.counts.items():
            if key == "matrix_bytes":
                peak_bytes = max(peak_bytes, value)
            else:
                counts[key] += value
        parent = spans[span.parent].name if span.parent is not None else ""
        if span.name == "reports.canonical_json" and parent == "cli.main":
            report_bytes += span.counts["bytes"]
        if parent == "generators.generate" and span.name in (
            "geometry.coverage_defect", "geometry.pairwise_disjoint"
        ):
            contract += duration

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    linalg = [k for k in total if k.startswith("numerics.linalg.")]
    linalg_s = sum(total[k] for k in linalg)
    element_s = sum(own[k] for k in ELEMENT_LOOPS)
    return {
        "kernels.gram_matrix_s": total["kernels.gram_matrix"],
        "kernels.gram_elements": counts["gram_elements"],
        "kernels.gram_elements_per_s": rate(counts["gram_elements"], total["kernels.gram_matrix"]),
        "kernels.element_loop_share": element_s / wall,
        "numerics.analysis_matrix_s": total["numerics.analysis_matrix"],
        "numerics.analysis_elements": counts["analysis_elements"],
        "numerics.analysis_elements_per_s": rate(
            counts["analysis_elements"], total["numerics.analysis_matrix"]
        ),
        "numerics.frame_bounds_s": total["numerics.frame_bounds"],
        "numerics.min_norm_interpolate_s": own["numerics.min_norm_interpolate"],
        "numerics.measurements_s": total["numerics.measurements"],
        "numerics.hole_mass_s": own["numerics.hole_mass"],
        "numerics.linalg_s": linalg_s,
        "numerics.linalg_calls": sum(calls[k] for k in linalg),
        "numerics.svd_share": total["numerics.linalg.svd"] / wall,
        "numerics.peak_matrix_bytes": peak_bytes,
        "kernels.quadrature_s": total["kernels.quadrature"],
        "kernels.quadrature_calls": calls["kernels.quadrature"],
        "kernels.quadrature_nodes": counts["nodes"],
        "core.inner_s": total["core.inner"],
        "core.atom_pairs": counts["atom_pairs"],
        "core.to_basis_coeffs_s": total["core.to_basis_coeffs"],
        "core.evaluate_s": total["core.evaluate"],
        "core.evaluate_points": counts["points"],
        "geometry.theorem_verdicts_s": own["geometry.theorem_verdicts"],
        "geometry.coverage_defect_s": total["geometry.coverage_defect"],
        "geometry.coverage_defect_calls": calls["geometry.coverage_defect"],
        "geometry.disc_point_tests": counts["disc_point_tests"],
        "geometry.max_overlap_s": total["geometry.max_overlap"],
        "geometry.pairwise_disjoint_s": total["geometry.pairwise_disjoint"],
        "geometry.pairwise_disjoint_calls": calls["geometry.pairwise_disjoint"],
        "generators.generate_s": own["generators.generate"],
        "generators.contract_s": contract,
        "reports.load_divisor_s": total["reports.load_divisor"],
        "reports.canonical_json_s": total["reports.canonical_json"],
        "reports.report_bytes": report_bytes,
        "reports.csv_s": total["reports.csv"],
        "reports.csv_rows": counts["rows"],
        "cli.self_s": own["cli.main"],
        "trace.unaccounted_s": sum(s for span, s in zip(spans, selfs) if span.parent is None),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
