"""Benchmark of focklab: seeded job workloads run as a closed loop.

    python3 perfbench/run.py --workload gram-interp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client in one process runs the workload's pass of jobs again and again,
each job starting after the previous one returns, for about ``--seconds``.
Every job's output is checked (see checks.py).  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and the object
carries the per-layer metrics of the traced passes.  ``--workload all`` runs
every workload in turn and prints every metric by name with its unit.
End-to-end timings are in reference seconds, scaled by a host-speed probe
timed between jobs (see hostspeed.py); the raw seconds are printed beside them.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.  Results, spans and generated inputs go under
``.perfbench/`` at the root of the checkout.
"""

import os

# BLAS is pinned to one thread before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Set-up is timed this many times per run (once here, the rest in fresh
# interpreters) and reported as the median.
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# The job-latency tail is the highest of these percentiles that has at least
# ten jobs beyond it.  A run makes between MIN_JOBS and MAX_JOBS jobs (whole
# passes), so on any host speed the tail is p75 and the percentile does not
# jump between runs.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
MIN_JOBS, MAX_JOBS = 40, 99

# Workload names and metric units are taken from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])


def declared_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _python(args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )


def _fresh_import_seconds(module: str) -> float:
    code = (
        "import time; t = time.perf_counter(); import " + module
        + "; print(time.perf_counter() - t)"
    )
    return median(float(_python(["-c", code]).stdout) for _ in range(IMPORT_SAMPLES))


def _work_dir(workload: str, seed: int, tag: str) -> Path:
    return OUT / "work" / f"{workload}-seed{seed}-{tag}-{os.getpid()}"


def set_up(workload: str, seed: int, work: Path):
    """Import the program, write the seeded inputs and warm up.  Returns the
    modules and the pass of jobs; the time since interpreter start-up is the
    set-up time."""
    sys.path.insert(0, str(SRC))
    import checks
    import spans
    import workloads

    jobs = workloads.build_jobs(workload, seed, work / "inputs")
    workloads.warm_up(workload, work / "warm-up")
    return checks, spans, workloads, jobs


def _setup_seconds(workloads, workload: str) -> dict:
    """Time since interpreter start-up, raw and in reference seconds."""
    raw = time.perf_counter() - SETUP_START
    probe = hostspeed.PROBES[workloads.PROBE[workload]]
    return {"raw": raw, "reference": probe.reference_seconds(raw, time.perf_counter)}


def provenance(seed: int, load: tuple, jobs, passes: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
        "jobs_per_pass": len(jobs),
        "job_mix": dict(Counter(job.kind for job in jobs)),
        "passes": passes,
    }


def tail(latencies):
    n = len(latencies)
    pct = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= MIN_BEYOND), 50.0)
    return float(np.percentile(latencies, pct)), pct


def measure(args, mods, jobs, reference):
    """Run whole passes until the next one would end after ``--seconds``,
    making at least two passes and MIN_JOBS jobs and at most MAX_JOBS jobs.
    Returns per-pass records and the failures."""
    checks, spans, workloads = mods
    clock = time.perf_counter
    targets = spans.focklab_targets() if args.trace else None
    probe = hostspeed.PROBES[workloads.PROBE[args.workload]]
    passes, failures = [], []
    first_digest = {}
    start = clock()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        recorder = spans.Recorder(clock) if traced else None
        gc.collect()
        pass_start = clock()
        results, scales = [], []
        before = probe.seconds(clock)
        if traced:
            recorder.install(targets)
        try:
            for index, job in enumerate(jobs):
                if traced:
                    recorder.job = index
                    span = recorder.open("job." + job.kind)
                t0 = clock()
                try:
                    result = workloads.run_job(job, clock)
                except Exception:
                    result = workloads.JobResult(job, clock() - t0, -1, "", None, traceback.format_exc())
                finally:
                    if traced:
                        recorder.close(span)
                after = probe.seconds(clock)
                scales.append(probe.scale(before, after))
                before = after
                results.append(result)
        finally:
            if traced:
                recorder.uninstall()
        identical = cli_jobs = 0
        for result in results:
            problems = checks.check_result(result, reference)
            if problems:
                failures.append({"pass": len(passes), "job": result.job.name, "problems": problems[:5]})
            if result.job.argv is not None and result.exit_code == 0:
                digest = checks.report_digest(result.stdout)
                expected = (
                    reference.get(result.job.name, {}).get("sha256") if reference
                    else first_digest.setdefault(result.job.name, digest)
                )
                cli_jobs += 1
                identical += digest == expected
        latencies = [r.seconds * k for r, k in zip(results, scales)]
        passes.append({
            "traced": traced,
            "wall": sum(latencies),
            "raw_wall": sum(r.seconds for r in results),
            "elapsed": clock() - pass_start,
            "latencies": latencies,
            "raw_latencies": [r.seconds for r in results],
            "names": [r.job.name for r in results],
            "recorder": recorder,
            "identical": identical,
            "cli_jobs": cli_jobs,
        })
        done = len(passes) * len(jobs)
        if done + len(jobs) > MAX_JOBS:
            return passes, failures
        typical = median(p["elapsed"] for p in passes)
        if done >= MIN_JOBS and len(passes) >= 2 and clock() - start + typical > args.seconds:
            return passes, failures


def timings(passes, wall="wall", latencies="latencies"):
    """wall_s, job_p50_s and job_tail_s, with the tail's percentile and sample count."""
    every = [x for p in passes for x in p[latencies]]
    tail_s, pct = tail(every)
    return (
        {"wall_s": median(p[wall] for p in passes), "job_p50_s": median(every), "job_tail_s": tail_s},
        f"p{pct:g} of {len(every)} jobs",
    )


def end_to_end(passes, setup_s):
    metrics, tail_note = timings(passes)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, tail_note


def per_layer(passes, spans):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics = spans.median_metrics([spans.pass_metrics(p["recorder"].spans, p["raw_wall"]) for p in traced])
    metrics["cli.import_s"] = _fresh_import_seconds("focklab.cli")
    metrics["cli.numpy_import_s"] = _fresh_import_seconds("numpy")
    cli_jobs = sum(p["cli_jobs"] for p in passes)
    metrics["cli.identical_report_share"] = (
        sum(p["identical"] for p in passes) / cli_jobs if cli_jobs else 1.0
    )
    metrics["trace.overhead_share"] = (
        median(p["wall"] for p in traced) / median(p["wall"] for p in untraced) - 1
    )
    return metrics


def run_one(args) -> int:
    if args.setup_only:
        work = _work_dir(args.workload, args.seed, "setup")
        try:
            workloads = set_up(args.workload, args.seed, work)[2]
            print(json.dumps(_setup_seconds(workloads, args.workload)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    load = os.getloadavg()
    work = _work_dir(args.workload, args.seed, "run")
    try:
        checks, spans, workloads, jobs = set_up(args.workload, args.seed, work)
        setup = [_setup_seconds(workloads, args.workload)]
        reference = (
            json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
            if args.seed == workloads.DEFAULT_SEED else None
        )
        if not args.trace:
            setup += [
                json.loads(_python([__file__, "--setup-only", "--workload", args.workload,
                                    "--seed", str(args.seed)]).stdout)
                for _ in range(SETUP_SAMPLES - 1)
            ]
        passes, failures = measure(args, (checks, spans, workloads), jobs, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p["latencies"]) for p in passes)
    info = provenance(args.seed, load, jobs, len(passes))
    notes, raw = {}, {}
    if args.trace:
        metrics = per_layer(passes, spans)
    else:
        metrics, notes["job_tail_s"] = end_to_end(passes, median(s["reference"] for s in setup))
        raw, _ = timings(passes, "raw_wall", "raw_latencies")
        raw["setup_s"] = median(s["raw"] for s in setup)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(OUT / "results" / f"{stem}.spans.jsonl", "w") as out:
            for i, p in enumerate(passes):
                if p["traced"]:
                    p["recorder"].dump(out, str(i))
    record = {
        "workload": args.workload,
        "provenance": info,
        "metrics": metrics,
        "notes": notes,
        "raw_seconds": raw,
        "setup_samples": setup,
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "pass_walls": [p["wall"] for p in passes],
        "raw_pass_walls": [p["raw_wall"] for p in passes],
        "job_median_s": {
            name: median(x for p in passes for n, x in zip(p["names"], p["latencies"]) if n == name)
            for name in passes[0]["names"]
        },
    }
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for failure in failures[:10]:
        print(f"FAILED {failure['job']} (pass {failure['pass']}): {failure['problems']}", file=sys.stderr)
    print("provenance " + json.dumps(info))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload}  {name:38s} {value:.6g} {units[name]}{note}")
    for name, value in raw.items():
        print(f"{args.workload}  {'raw ' + name:38s} {value:.6g} s  (unscaled, informational)")
    print(f"{args.workload}  {'failed_share':38s} {len(failures) / attempted:.6g} ratio"
          f"  ({len(failures)} of {attempted} jobs)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; every metric printed by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "focklab" / "__init__.py").is_file():
        print(f"perfbench: the focklab sources are missing under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
