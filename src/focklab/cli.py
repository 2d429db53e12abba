"""Command-line surface: divisor generation, geometry verdicts, spectral
summaries, interpolation and the uniqueness experiment.

Every subcommand prints one canonical JSON report to stdout, and each warning
as one line `warning: <message>` to stderr.  Exit codes: 0 success, 2
malformed, unreadable or non-UTF-8 input (schema), 3 violated precondition,
such as an output that cannot be written (refused before any computation when
its directory does not exist).  Every failure is one line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .generators import generate_covering_rings, generate_disjoint_rings, generate_lattice
from .geometry import GeometryVerdicts, Window, theorem_verdicts
from .kernels import gram_matrix
from .numerics import (
    analysis_matrix,
    eigenvalue_bounds,
    frame_bounds,
    hole_mass_experiment,
    min_norm_interpolate,
)
from .reports import (
    SchemaError,
    canonical_json,
    complex_payload,
    divisor_payload,
    format_float,
    load_divisor,
    load_values,
    save_divisor,
    write_points_csv,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3

# the head of every report
TOOL = {"name": "focklab", "version": __version__}


def _parse_c_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SchemaError(f"--c-list: {exc}") from exc
    if not values:
        raise SchemaError("--c-list: expected comma-separated positive values")
    return values


def _parse_sweep(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SchemaError("--degree-sweep: expected START:STOP:STEP")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError as exc:
        raise SchemaError(f"--degree-sweep: {exc}") from exc
    if step <= 0 or stop < start:
        raise SchemaError("--degree-sweep: need STEP > 0 and STOP >= START")
    return list(range(start, stop + 1, step))


def _require_out_dir(path) -> None:
    # refuses an output file (if any) before any work is done for it
    if path and not Path(path).parent.is_dir():
        raise ValueError(f"{path}: {Path(path).parent} is not an existing directory")


def _verdicts_payload(verdicts: GeometryVerdicts) -> dict:
    return {
        "finite_overlap_bound": verdicts.finite_overlap_bound,
        "padded_cover": {
            "holds": verdicts.padded_cover_holds,
            "witness_c": verdicts.padded_cover_witness_c,
        },
        "shrunk_cover": [
            {
                "c": result.c,
                "holds": result.holds,
                "uncovered_count": int(result.uncovered.size),
                "uncovered": result.uncovered,
            }
            for result in verdicts.shrunk_cover_by_c
        ],
        "shrunk_disjoint": {
            "holds": verdicts.shrunk_disjoint_holds,
            "witness_c": verdicts.shrunk_disjoint_witness_c,
        },
        "padded_disjoint": {
            "holds": verdicts.padded_disjoint_holds,
            "witness_c": verdicts.padded_disjoint_witness_c,
        },
        "bare_cover": {
            "holds": verdicts.bare_cover_holds,
            "hole_radius": verdicts.hole_radius,
        },
        "exclusivity_consistent": verdicts.exclusivity_consistent,
        "scope": "window estimates; overlap bound is a lower estimate of the plane supremum",
    }


def _cmd_generate(args) -> dict:
    _require_out_dir(args.out)
    if args.family == "lattice":
        divisor, meta = generate_lattice(args.alpha, args.spacing, args.mult, args.window)
    elif args.family == "covering-rings":
        divisor, meta = generate_covering_rings(args.alpha, args.c, args.window)
    else:
        divisor, meta = generate_disjoint_rings(args.alpha, args.c, args.window)
    save_divisor(divisor, args.out)
    return {
        "inputs": {
            "family": args.family,
            "alpha": args.alpha,
            "c": args.c,
            "spacing": args.spacing,
            "mult": args.mult,
            "window_radius": args.window,
        },
        "metadata": meta,
        "divisor": divisor_payload(divisor),
    }


def _cmd_check_geometry(args) -> dict:
    divisor = load_divisor(args.divisor)
    window = Window(args.window, args.grid_step if args.grid_step else args.window / 100)
    c_list = _parse_c_list(args.c_list)
    paths = [f"{args.defects_csv}_c{format_float(c)}.csv" for c in c_list if args.defects_csv]
    first: dict[str, float] = {}
    for path, c in zip(paths, c_list):
        # repr tells distinct floats apart; a repeated C names one file
        other = first.setdefault(path, c)
        if repr(other) != repr(c):
            raise ValueError(f"--defects-csv: C = {other!r} and C = {c!r} would both write {path}")
        _require_out_dir(path)
    verdicts = theorem_verdicts(divisor, window, c_list, args.hole_radius)
    # each file once, with the points of the last of its repeats
    files = dict(zip(paths, (r.uncovered for r in verdicts.shrunk_cover_by_c)))
    for path, uncovered in files.items():
        write_points_csv(path, uncovered)
    return {
        "inputs": {
            "divisor": divisor_payload(divisor),
            "window_radius": window.radius,
            "grid_step": window.grid_step,
            "c_list": c_list,
            "hole_radius": args.hole_radius,
        },
        "verdicts": _verdicts_payload(verdicts),
    }


def _cmd_frame_bounds(args) -> dict:
    divisor = load_divisor(args.divisor)
    degrees = _parse_sweep(args.degree_sweep) if args.degree_sweep else [args.degree]
    _require_out_dir(args.csv)
    # every degree's matrix is a column prefix of the largest one
    matrix = analysis_matrix(divisor, max(degrees))
    summaries = []
    for degree in degrees:
        summary = frame_bounds(matrix.prefix(degree))
        summaries.append(
            {
                "degree": summary.degree,
                "smin": summary.smin,
                "smax": summary.smax,
                "ratio": summary.ratio,
                "rank_deficient": summary.rank_deficient,
                "divisor_digest": summary.divisor_digest,
            }
        )
    if args.csv:
        write_sweep_csv(
            args.csv,
            [(s["degree"], s["smin"], s["smax"], s["ratio"]) for s in summaries],
        )
    return {
        "inputs": {"divisor": divisor_payload(divisor), "degrees": degrees},
        "summaries": summaries,
    }


def _cmd_gram(args) -> dict:
    divisor = load_divisor(args.divisor)
    labels = divisor.atom_labels()
    if not labels:
        raise ValueError("divisor must be nonempty")
    gram = gram_matrix(labels, divisor.params)
    eigenvalues = np.linalg.eigvalsh(gram.entries)
    smin, smax, condition = eigenvalue_bounds(eigenvalues)
    return {
        "inputs": {"divisor": divisor_payload(divisor)},
        "spectrum": {
            "size": len(labels),
            "eigenvalues": [float(w) for w in eigenvalues],
            "smin": smin,
            "smax": smax,
            "condition": condition,
            "divisor_digest": gram.digest(),
        },
    }


def _cmd_interpolate(args) -> dict:
    divisor = load_divisor(args.divisor)
    data = load_values(args.values, divisor.atom_labels())
    solution = min_norm_interpolate(divisor, data, rcond=args.rcond)
    payload = {
        "inputs": {
            "divisor": divisor_payload(divisor),
            "values": [complex_payload(v) for v in data.values],
            "rcond": args.rcond,
        },
        "solution": {
            "norm": solution.norm,
            "residual": solution.residual,
            "gram_condition": solution.gram_condition,
            "truncated": solution.truncated,
        },
    }
    if args.dump_atoms:
        payload["solution"]["atoms"] = [
            {
                "re": atom.lam.real,
                "im": atom.lam.imag,
                "k": atom.k,
                "coeff": complex_payload(atom.coeff),
            }
            for atom in solution.function.atoms
        ]
    return payload


def _cmd_uniqueness(args) -> dict:
    divisor = load_divisor(args.divisor)
    window = Window(args.window, args.window / 100)
    value = hole_mass_experiment(divisor, args.degree, window)
    return {
        "inputs": {
            "divisor": divisor_payload(divisor),
            "degree": args.degree,
            "window_radius": args.window,
        },
        "hole_mass": value,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Sampling, interpolation and uniqueness experiments on divisors "
        "with multiplicities in Bargmann-Fock space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a divisor file from a named family")
    p.add_argument("family", choices=["lattice", "covering-rings", "disjoint-rings"])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--window", type=float, required=True, help="clip radius of the family")
    p.add_argument("--spacing", type=float, default=1.0, help="lattice spacing")
    p.add_argument("--mult", type=int, default=1, help="lattice multiplicity")
    p.add_argument("--c", type=float, default=1.0, help="separation constant for ring families")
    p.add_argument("--out", required=True, help="divisor file to write")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check-geometry", help="window verdicts for a divisor")
    p.add_argument("divisor")
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--c-list", default="0.25,0.5,1")
    p.add_argument("--hole-radius", type=float, default=0.0)
    p.add_argument("--defects-csv", default=None, help="prefix for per-C uncovered-point CSVs")
    p.set_defaults(func=_cmd_check_geometry)

    p = sub.add_parser("frame-bounds", help="singular values of the truncated analysis map")
    p.add_argument("divisor")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=int)
    group.add_argument("--degree-sweep", help="START:STOP:STEP")
    p.add_argument("--csv", default=None, help="write the sweep as CSV (N,smin,smax,ratio)")
    p.set_defaults(func=_cmd_frame_bounds)

    p = sub.add_parser("gram", help="eigenvalue spectrum of the divisor atom Gram matrix")
    p.add_argument("divisor")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("interpolate", help="minimal-norm interpolation of a data vector")
    p.add_argument("divisor")
    p.add_argument("values", help="JSON file {values: [{re, im}, ...]} in divisor label order")
    p.add_argument("--rcond", type=float, default=1e-12)
    p.add_argument("--dump-atoms", action="store_true")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("uniqueness", help="window mass of the vanishing subspace")
    p.add_argument("divisor")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--window", type=float, required=True)
    p.set_defaults(func=_cmd_uniqueness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            payload = {"tool": TOOL, "command": args.command, **args.func(args)}
        except SchemaError as exc:
            print(f"schema error: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        except (ValueError, OSError) as exc:
            # an OSError here is an output's: reports reads inputs as schema errors
            print(f"precondition error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
    sys.stdout.write(canonical_json(payload) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
