"""Write the reference reports the output checker compares against.

    python3 perfbench/reference.py

Runs one pass of every workload at the default seed with the current code
and stores, per job, the sha256 of its stdout and its parsed report with long
point lists reduced to count and digest (checks.reduce_report).  Rerun it
only when a change to focklab's reports is intended.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    work = HERE.parent / ".perfbench" / "work" / f"reference-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            reference = {}
            for job in workloads.build_jobs(name, workloads.DEFAULT_SEED, work / name):
                result = workloads.run_job(job, time.perf_counter)
                problems = checks.check_result(result, None)
                if problems:
                    print(f"{name} {job.name}: {problems}", file=sys.stderr)
                    return 1
                reference[job.name] = {
                    "sha256": checks.report_digest(result.stdout) if job.argv else None,
                    "report": checks.reduce_report(result.report),
                }
            path = HERE / "reference" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(reference, indent=1) + "\n")
            print(f"wrote {path.relative_to(HERE.parent)} ({len(reference)} jobs)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
