"""Seeded inputs and job lists of the three benchmark workloads.

A workload is a list of jobs run as a closed loop: one client in one process,
each job starting after the previous one returns.  A job is either a CLI
subcommand run in-process through ``focklab.cli.main(argv)`` or a library
round trip.  The seed changes only the rotation of each divisor, the
separation constant C inside a band where every divisor keeps its atom count,
the data values and the job order, so the cost of a pass is the same for
every seed.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from focklab import (
    Atom,
    Divisor,
    FockFunction,
    FockParams,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
    cli,
    load_divisor,
    measurements,
    numerics,
    save_divisor,
)

DEFAULT_SEED = 0

# Inside this band of C the covering-rings divisors used here keep exactly
# their atom count (500 at window 8, 770 at windows 10 and 12) and the
# disjoint-rings divisors stay within 2% of theirs, so seeds do not change cost.
C_BAND = (0.95, 1.0)

# Sizes per workload.  "tiny" runs every job kind in well under a second and
# exists for the benchmark's own tests.
#
# The full pass of each workload is chosen so that, with the jobs sorted by
# latency, the median falls in the middle of one tier of jobs and p75 in the
# middle of another, never at the edge between two tiers: there host noise
# shifts the percentile by the gap between tiers.  Per pass, with tiers from
# fast to slow:
#   gram-interp        4 small round trips | 4 round trips (p50) | gram+interpolate
#                      disjoint (p75) | gram+interpolate covering
#   analysis-sweep     3 uniqueness degree 40 | 2 frame-bounds disjoint (p50) |
#                      2 uniqueness degree 90 (p75) | 1 degree sweep
#   geometry-verdicts  3 generate | 2 check-geometry step 0.05 (p50) |
#                      2 check-geometry step 0.04 (p75) | 1 defect-emitting check
SIZES = {
    "full": {
        "interp_cov_window": 8.0,     # covering rings, 500 atoms
        "interp_dis_window": 35.0,    # disjoint rings, ~366 atoms
        # (disjoint-rings window, jobs): 41 and 105 atoms
        "roundtrips": ((14.0, 4), (20.0, 4)),
        "sweep_cov_window": 10.0,     # covering rings, 770 rows
        "sweep": "10:120:10",
        "fb_dis_window": 50.0,        # disjoint rings, ~856 rows
        "fb_degree": 40,
        "fb_jobs": 2,
        "uniq_lattice_window": 3.0,   # unit lattice, 29 points
        "uniq_degrees": (40, 40, 40, 90, 90),
        "uniq_window": 3.0,
        "gen_windows": {"lattice": 20.0, "covering-rings": 30.0, "disjoint-rings": 150.0},
        "geo_cov_window": 12.0,
        "geo_cov_steps": (0.05, 0.05, 0.04, 0.04),
        "geo_c_list": (0.15, 0.3, 0.45, 0.6, 0.75, 0.9),
        "defects_window": 4.0,
        "defects_step": 0.02,
        "defects_c_list": (0.25, 0.5, 1.0),
    },
    "tiny": {
        "interp_cov_window": 3.0,
        "interp_dis_window": 8.0,
        "roundtrips": ((8.0, 2),),
        "sweep_cov_window": 3.0,
        "sweep": "10:20:10",
        "fb_dis_window": 8.0,
        "fb_degree": 10,
        "fb_jobs": 1,
        "uniq_lattice_window": 1.0,
        "uniq_degrees": (10, 20),
        "uniq_window": 3.0,
        "gen_windows": {"lattice": 3.0, "covering-rings": 3.0, "disjoint-rings": 8.0},
        "geo_cov_window": 3.0,
        "geo_cov_steps": (0.1,),
        "geo_c_list": (0.3, 0.6, 0.9),
        "defects_window": 2.0,
        "defects_step": 0.1,
        "defects_c_list": (0.25, 0.5, 1.0),
    },
}

P1 = FockParams(1.0)


@dataclass
class Job:
    """One closed-loop request.

    ``argv`` is set for CLI jobs; round trips carry their divisor and test
    function in ``expect`` instead.  ``expect`` holds what the output checker
    needs to know about the inputs.
    """

    name: str
    kind: str
    argv: list[str] | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class JobResult:
    job: Job
    seconds: float
    exit_code: int
    stdout: str
    report: dict | None
    error: str | None = None


def _fmt(x: float) -> str:
    return format(x, ".6f")


def _write_rotated(divisor: Divisor, rng: random.Random, path: Path) -> Divisor:
    """Save the divisor turned by a seeded angle; return it as the CLI reads it."""
    turn = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    save_divisor(Divisor(divisor.params, tuple((lam * turn, m) for lam, m in divisor.entries)), path)
    return load_divisor(path)


def _test_function(rng: random.Random, spread: float) -> FockFunction:
    """Seeded 8-atom function: atoms scattered over |z| <= spread, degrees 0..2."""
    atoms = []
    for _ in range(8):
        lam = cmath.rect(spread * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        coeff = complex(rng.gauss(0, 1), rng.gauss(0, 1)) / 4
        atoms.append(Atom(lam, rng.randrange(3), coeff))
    return FockFunction(P1, tuple(atoms))


def _write_values(divisor: Divisor, f: FockFunction, path: Path) -> None:
    data = measurements(f, divisor)
    doc = {"values": [{"re": v.real, "im": v.imag} for v in data.values]}
    path.write_text(json.dumps(doc))


def _gram_interp(rng, size, work: Path) -> list[Job]:
    jobs = []
    for family, gen, window in (
        ("covering", generate_covering_rings, size["interp_cov_window"]),
        ("disjoint", generate_disjoint_rings, size["interp_dis_window"]),
    ):
        divisor, _ = gen(1.0, rng.uniform(*C_BAND), window)
        path = work / f"{family}.json"
        divisor = _write_rotated(divisor, rng, path)
        f = _test_function(rng, 0.5 * window)
        values = work / f"{family}.values.json"
        _write_values(divisor, f, values)
        n = len(divisor.atom_labels())
        jobs.append(Job(f"gram:{family}", "gram", ["gram", str(path)], {"atoms": n}))
        jobs.append(
            Job(
                f"interpolate:{family}",
                "interpolate",
                ["interpolate", str(path), str(values)],
                {"atoms": n, "f_norm": f.norm()},
            )
        )
    for window, count in size["roundtrips"]:
        base, _ = generate_disjoint_rings(1.0, rng.uniform(*C_BAND), window)
        for i in range(count):
            name = f"roundtrip:w{window:g}-{i}"
            divisor = _write_rotated(base, rng, work / f"{name.replace(':', '-')}.json")
            f = _test_function(rng, 0.5 * window)
            jobs.append(Job(name, "roundtrip", None, {"divisor": divisor, "f": f, "degree": 40}))
    return jobs


def _analysis_sweep(rng, size, work: Path) -> list[Job]:
    jobs = []
    divisor, _ = generate_covering_rings(1.0, rng.uniform(*C_BAND), size["sweep_cov_window"])
    path = work / "covering.json"
    divisor = _write_rotated(divisor, rng, path)
    start, stop, step = (int(p) for p in size["sweep"].split(":"))
    jobs.append(
        Job(
            "frame-bounds-sweep:covering",
            "frame-bounds",
            ["frame-bounds", str(path), "--degree-sweep", size["sweep"]],
            {"rows": len(divisor.atom_labels()), "degrees": list(range(start, stop + 1, step))},
        )
    )
    base, _ = generate_disjoint_rings(1.0, rng.uniform(*C_BAND), size["fb_dis_window"])
    for i in range(size["fb_jobs"]):
        path = work / f"disjoint{i}.json"
        divisor = _write_rotated(base, rng, path)
        degree = size["fb_degree"]
        jobs.append(
            Job(
                f"frame-bounds:disjoint{i}",
                "frame-bounds",
                ["frame-bounds", str(path), "--degree", str(degree)],
                {"rows": len(divisor.atom_labels()), "degrees": [degree]},
            )
        )
    lattice, _ = generate_lattice(1.0, 1.0, 1, size["uniq_lattice_window"])
    for i, degree in enumerate(size["uniq_degrees"]):
        path = work / f"lattice{i}.json"
        _write_rotated(lattice, rng, path)
        jobs.append(
            Job(
                f"uniqueness:lattice{i}",
                "uniqueness",
                [
                    "uniqueness", str(path),
                    "--degree", str(degree),
                    "--window", _fmt(size["uniq_window"]),
                ],
            )
        )
    return jobs


def _geometry_verdicts(rng, size, work: Path) -> list[Job]:
    jobs = []
    for family, window in size["gen_windows"].items():
        argv = ["generate", family, "--window", _fmt(window), "--out", str(work / f"gen-{family}.json")]
        if family != "lattice":
            argv += ["--c", _fmt(rng.uniform(*C_BAND))]
        jobs.append(Job(f"generate:{family}", "generate", argv, {"family": family, "out": argv[5]}))

    scale = rng.uniform(*C_BAND)
    divisor, _ = generate_covering_rings(1.0, rng.uniform(*C_BAND), size["geo_cov_window"])
    c_list = [round(c * scale, 6) for c in size["geo_c_list"]]
    for i, step in enumerate(size["geo_cov_steps"]):
        path = work / f"covering{i}.json"
        _write_rotated(divisor, rng, path)
        jobs.append(
            Job(
                f"check-geometry:covering{i}",
                "check-geometry",
                [
                    "check-geometry", str(path),
                    "--window", _fmt(size["geo_cov_window"]),
                    "--grid-step", _fmt(step),
                    "--c-list", ",".join(map(str, c_list)),
                ],
                {"c_list": c_list},
            )
        )

    lattice, _ = generate_lattice(1.0, 1.0, 1, size["defects_window"])
    path = work / "lattice.json"
    _write_rotated(lattice, rng, path)
    c_list = [round(c * scale, 6) for c in size["defects_c_list"]]
    prefix = str(work / "defects")
    jobs.append(
        Job(
            "check-geometry-defects:lattice",
            "check-geometry",
            [
                "check-geometry", str(path),
                "--window", _fmt(size["defects_window"]),
                "--grid-step", _fmt(size["defects_step"]),
                "--c-list", ",".join(map(str, c_list)),
                "--defects-csv", prefix,
            ],
            {"c_list": c_list, "defects_csv": prefix},
        )
    )
    return jobs


_BUILDERS = {
    "gram-interp": _gram_interp,
    "analysis-sweep": _analysis_sweep,
    "geometry-verdicts": _geometry_verdicts,
}
WORKLOADS = tuple(_BUILDERS)

# The host-speed probe (hostspeed.PROBES) that does each workload's main kind of
# work: per-element interpreted loops for the kernel workloads, numpy grid
# sweeps for geometry-verdicts.
PROBE = {
    "gram-interp": "interpreted",
    "analysis-sweep": "interpreted",
    "geometry-verdicts": "numpy",
}


def build_jobs(workload: str, seed: int, work: Path, size: str = "full") -> list[Job]:
    """Write the workload's inputs under ``work`` and return its pass, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    jobs = _BUILDERS[workload](rng, SIZES[size], work)
    rng.shuffle(jobs)
    return jobs


def roundtrip(divisor: Divisor, f: FockFunction, degree: int) -> dict:
    """Library round trip: measure f on the divisor, interpolate the data,
    then take the interpolant's norm and basis projection."""
    # called through the module, where the traced run installs its spans
    data = numerics.measurements(f, divisor)
    solution = numerics.min_norm_interpolate(divisor, data)
    projection = solution.function.to_basis_coeffs(degree)
    return {
        "residual": solution.residual,
        "norm": solution.norm,
        "function_norm": solution.function.norm(),
        "coeff_squared_sum": projection.squared_sum(),
        "defect": projection.defect,
        "max_abs_value": float(np.max(np.abs(data.values))),
    }


def run_job(job: Job, clock) -> JobResult:
    """Run one job; only the call into focklab is inside the timed region.
    A CLI job's report is parsed later, by the checker."""
    if job.kind == "roundtrip":
        t0 = clock()
        report = roundtrip(job.expect["divisor"], job.expect["f"], job.expect["degree"])
        seconds = clock() - t0
        return JobResult(job, seconds, 0, "", report)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        code = cli.main(list(job.argv))
        seconds = clock() - t0
    return JobResult(job, seconds, code, out.getvalue(), None, err.getvalue() or None)


def warm_up(workload: str, work: Path) -> None:
    """Run the workload's job kinds once on tiny inputs, so that no first-call
    cost (LAPACK start-up, caches, lazy imports) lands in a measured pass."""
    for job in build_jobs(workload, DEFAULT_SEED, work, "tiny"):
        result = run_job(job, lambda: 0.0)
        if result.exit_code != 0:
            raise RuntimeError(f"warm-up job {job.name} exited {result.exit_code}: {result.error}")
