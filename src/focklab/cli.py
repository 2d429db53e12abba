"""Command-line surface: divisor generation, geometry verdicts, spectral
summaries, interpolation and the uniqueness experiment.

Every subcommand prints one canonical JSON report to stdout, and each warning
as one line `warning: <message>` to stderr.  Exit codes: 0 success, 2 bad usage
or malformed, unreadable or non-UTF-8 input (schema), 3 violated precondition,
such as an output that cannot be written (refused before any computation when
it is a directory or its directory does not exist), a matrix, or a degree
sweep's matrices in all, above MAX_MATRIX_ENTRIES (refused before any label is
built), disjoint rings of more than MAX_RING_POINTS points (refused before any
is laid out), a generated divisor that fails its family's contract (no file is
written), or an input whose arithmetic overflows the double range (a point near
1e308).  Every failure is one line on stderr, after any warnings.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .core import require_index
from .generators import (
    ContractError,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
)
from .geometry import Window, theorem_verdicts
from .kernels import gram_matrix
from .numerics import (
    _sweep_frame_bounds,
    analysis_matrix,
    hole_mass_experiment,
    min_norm_interpolate,
    riesz_bounds,
)
from .reports import (
    SchemaError,
    _csv_rows_json,
    _point_rows,
    canonical_json,
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
# Most entries of a matrix a command builds (a Gram of 2048 atoms, 64 MiB of
# complex entries); the command refuses a larger one before building labels.
MAX_MATRIX_ENTRIES = 2**22

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


def _parse_sweep(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 3:
        raise SchemaError("--degree-sweep: expected START:STOP:STEP")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError as exc:
        raise SchemaError(f"--degree-sweep: {exc}") from exc
    if step <= 0 or stop < start:
        raise SchemaError("--degree-sweep: need STEP > 0 and STOP >= START")
    return range(start, stop + 1, step)


def _require_out_dir(path) -> None:
    # refuses an output file (if any) before any work is done for it
    if path and Path(path).is_dir():
        raise ValueError(f"{path}: is a directory, not a file")
    if path and not Path(path).parent.is_dir():
        raise ValueError(f"{path}: {Path(path).parent} is not an existing directory")


def _require_entries(rows: int, cols: int, what: str = "matrix") -> None:
    # refuses a matrix above the entry budget before any label or entry of it exists
    if rows * cols > MAX_MATRIX_ENTRIES:
        raise ValueError(f"a {rows} x {cols} {what} exceeds {MAX_MATRIX_ENTRIES} entries")


def _cmd_generate(args, _) -> dict:
    unread = "c" if args.family == "lattice" else "spacing"  # echoed in the report, never read
    if not math.isfinite(getattr(args, unread)):
        raise ValueError(f"{unread} must be finite")
    _require_out_dir(args.out)
    if args.family == "lattice":
        divisor, meta = generate_lattice(args.alpha, args.spacing, args.mult, args.window)
    elif args.family == "covering-rings":
        divisor, meta = generate_covering_rings(args.alpha, args.c, args.window)
    else:
        divisor, meta = generate_disjoint_rings(args.alpha, args.c, args.window)
    payload = save_divisor(divisor, args.out)
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
        "divisor": payload,
    }


def _cmd_check_geometry(args, divisor) -> dict:
    step = args.window / 100 if args.grid_step is None else args.grid_step
    if args.grid_step is None and args.window > 0 and not step:
        raise ValueError(f"window radius {args.window}: its default grid step radius/100 underflows to 0")
    window = Window(args.window, step)
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
    # each distinct list formatted once, as the CSV rows the report reads (grid
    # points are finite): per file, with its last repeat's points, or else per shared array
    results = verdicts["shrunk_cover"]
    keys = paths or [id(r["uncovered"]) for r in results]
    texts = dict(zip(keys, (r["uncovered"] for r in results)))
    for key, uncovered in texts.items():
        rows = write_points_csv(key, uncovered) if paths else _point_rows("%s,%s\n", "", uncovered)
        texts[key] = _csv_rows_json(rows)
    for key, result in zip(keys, results):
        result["uncovered"] = texts[key]
    return {
        "inputs": {
            "window_radius": window.radius,
            "grid_step": window.grid_step,
            "c_list": c_list,
            "hole_radius": args.hole_radius,
        },
        "verdicts": verdicts,
    }


def _cmd_frame_bounds(args, divisor) -> dict:
    # a range, so that an oversized sweep is refused before any degree is listed
    if args.degree_sweep is None:
        degrees = range(args.degree, args.degree + 1)
    else:
        degrees = _parse_sweep(args.degree_sweep)
    _require_out_dir(args.csv)
    require_index("degree", degrees.start)
    # counted as one row at least: the basis labels are built before any row
    rows = max(divisor.total_multiplicity(), 1)
    # the sweep's matrices rows x (d + 1) side by side: their columns in closed form
    cols = len(degrees) * (2 * degrees.start + (len(degrees) - 1) * degrees.step + 2) // 2
    _require_entries(rows, cols, "matrix" if len(degrees) < 2 else f"sweep of {len(degrees)} matrices")
    # every degree's matrix is a column prefix of the largest one
    matrix = analysis_matrix(divisor, degrees[-1])
    summaries = _sweep_frame_bounds(matrix, degrees)
    if args.csv:
        write_sweep_csv(args.csv, [(s["degree"], s["smin"], s["smax"], s["ratio"]) for s in summaries])
    return {
        "inputs": {"degrees": list(degrees)},
        "summaries": summaries,
    }


def _cmd_gram(args, divisor) -> dict:
    _require_entries(divisor.total_multiplicity(), divisor.total_multiplicity())
    labels = divisor.atom_labels()
    if not labels.size:
        raise ValueError("divisor must be nonempty")
    return {"inputs": {}, "spectrum": riesz_bounds(gram_matrix(labels, divisor.params))}


def _cmd_interpolate(args, divisor) -> dict:
    _require_entries(divisor.total_multiplicity(), divisor.total_multiplicity())
    data = load_values(args.values, divisor.atom_labels())
    solution = min_norm_interpolate(divisor, data, rcond=args.rcond)
    payload = {
        "inputs": {
            "values": data.values,
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
                "coeff": atom.coeff,
            }
            for atom in solution.function.atoms
        ]
    return payload


def _cmd_uniqueness(args, divisor) -> dict:
    # the SVD's null-space basis is square in the degree
    _require_entries(max(divisor.total_multiplicity(), args.degree + 1), args.degree + 1)
    return {
        "inputs": {
            "degree": args.degree,
            "window_radius": args.window,
        },
        "hole_mass": hole_mass_experiment(divisor, args.degree, args.window),
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one schema-error line, exit 2
        raise SchemaError(message)


# the whole command-line surface, built once
_PARSER = _Parser(
    prog="focklab",
    description="Sampling, interpolation and uniqueness experiments on divisors "
    "with multiplicities in Bargmann-Fock space.",
)
_commands = _PARSER.add_subparsers(dest="command", required=True)
# the input divisor, declared once: the first argument of every command that reads one
_DIVISOR = argparse.ArgumentParser(add_help=False)
_DIVISOR.add_argument("divisor")


def _command(name: str, func, help: str, reads: bool = True) -> argparse.ArgumentParser:
    parser = _commands.add_parser(name, help=help, parents=[_DIVISOR] if reads else [])
    parser.set_defaults(func=func)
    return parser


_p = _command("generate", _cmd_generate, "emit a divisor file from a named family", reads=False)
_p.add_argument("family", choices=["lattice", "covering-rings", "disjoint-rings"])
_p.add_argument("--alpha", type=float, default=1.0)
_p.add_argument("--window", type=float, required=True, help="clip radius of the family")
_p.add_argument("--spacing", type=float, default=1.0, help="lattice spacing")
_p.add_argument("--mult", type=int, default=1, help="lattice multiplicity")
_p.add_argument("--c", type=float, default=1.0, help="separation constant for ring families")
_p.add_argument("--out", required=True, help="divisor file to write")

_p = _command("check-geometry", _cmd_check_geometry, "window verdicts for a divisor")
_p.add_argument("--window", type=float, required=True)
_p.add_argument("--grid-step", type=float, default=None)
_p.add_argument("--c-list", default="0.25,0.5,1")
_p.add_argument("--hole-radius", type=float, default=0.0)
_p.add_argument("--defects-csv", default=None, help="prefix for per-C uncovered-point CSVs")

_p = _command("frame-bounds", _cmd_frame_bounds, "singular values of the truncated analysis map")
_group = _p.add_mutually_exclusive_group(required=True)
_group.add_argument("--degree", type=int)
_group.add_argument("--degree-sweep", help="START:STOP:STEP")
_p.add_argument("--csv", default=None, help="write the sweep as CSV (N,smin,smax,ratio)")

_command("gram", _cmd_gram, "eigenvalue spectrum of the divisor atom Gram matrix")

_p = _command("interpolate", _cmd_interpolate, "minimal-norm interpolation of a data vector")
_p.add_argument("values", help="JSON file {values: [{re, im}, ...]} in divisor label order")
_p.add_argument("--rcond", type=float, default=1e-12)
_p.add_argument("--dump-atoms", action="store_true")

_p = _command("uniqueness", _cmd_uniqueness, "window mass of the vanishing subspace")
_p.add_argument("--degree", type=int, required=True)
_p.add_argument("--window", type=float, required=True)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = _PARSER.parse_args(argv)
            # a command's input divisor is read before anything else and leads its inputs
            divisor = load_divisor(args.divisor) if "divisor" in args else None
            report = args.func(args, divisor)
            if divisor is not None:
                report["inputs"] = {"divisor": divisor_payload(divisor), **report["inputs"]}
            payload = {"tool": TOOL, "command": args.command, **report}
        except SchemaError as exc:
            print(f"schema error: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        except (ValueError, OSError, ContractError) as exc:
            # an OSError here is an output's: reports reads inputs as schema errors
            print(f"precondition error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        except OverflowError as exc:
            # an input whose arithmetic leaves the double range
            print(f"precondition error: floating-point overflow: {exc.args[-1]}", file=sys.stderr)
            return EXIT_PRECONDITION
    print(canonical_json(payload))  # the report, then its newline: no joined copy
    return EXIT_OK
