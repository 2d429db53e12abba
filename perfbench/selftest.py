"""Tests of the benchmark itself, kept out of the tier-1 suite:

    python3 -m pytest perfbench/selftest.py
"""

import dataclasses
import copy
import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(name, tmp_path, seed=7):
    jobs = workloads.build_jobs(name, seed, tmp_path, "tiny")
    return {job.name: workloads.run_job(job, time.perf_counter) for job in jobs}


def _reference(result):
    checks.check_result(result, None)  # parses the report
    return {result.job.name: {"sha256": None, "report": checks.reduce_report(result.report)}}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_runs_tiny_and_passes_its_checks(name, tmp_path):
    results = _run(name, tmp_path)
    kinds = {r.job.kind for r in results.values()}
    assert kinds == {
        "gram-interp": {"gram", "interpolate", "roundtrip"},
        "analysis-sweep": {"frame-bounds", "uniqueness"},
        "geometry-verdicts": {"generate", "check-geometry"},
    }[name]
    for job_name, result in results.items():
        assert checks.check_result(result, None) == [], job_name
        assert checks.check_result(result, _reference(result)) == [], job_name


def test_checker_rejects_corrupted_reports(tmp_path):
    results = _run("gram-interp", tmp_path) | _run("geometry-verdicts", tmp_path / "geo")

    def problems(job_name, corrupt):
        result = results[job_name]
        reference = _reference(result)
        bad = copy.deepcopy(result.report)
        corrupt(bad)
        return checks.check_result(dataclasses.replace(result, report=bad), reference)

    def nudge_eigenvalue(size):
        def corrupt(report):
            report["spectrum"]["eigenvalues"][0] += size
        return corrupt

    def flip_truncated(report):
        report["solution"]["truncated"] = not report["solution"]["truncated"]

    def rename_digest(report):
        report["spectrum"]["divisor_digest"] = "000000000000"

    def move_uncovered_point(report):
        worst = report["verdicts"]["shrunk_cover"][-1]
        worst["uncovered"][0]["re"] += 0.5

    def add_ring_point(report):
        report["divisor"]["points"].append({"re": 99.0, "im": 0.0, "mult": 1})

    assert problems("gram:covering", nudge_eigenvalue(1e-13)) == []
    assert problems("gram:covering", nudge_eigenvalue(1e-6))
    assert problems("interpolate:covering", flip_truncated)
    assert problems("gram:disjoint", rename_digest)
    assert problems("check-geometry-defects:lattice", move_uncovered_point)
    assert problems("generate:disjoint-rings", add_ring_point)
    failed = dataclasses.replace(results["gram:covering"], exit_code=3, error="precondition error")
    assert checks.check_result(failed, None)


def test_reciprocal_fields_tolerate_rounding_level_denominators():
    ref = {"condition": None, "ratio": 1e40}
    assert checks.compare(ref, {"condition": 3e16, "ratio": 5e41}) == []
    assert checks.compare(ref, {"condition": 12.0, "ratio": 1e40})


def test_self_time_subtracts_the_union_of_child_spans():
    S = spans.Span
    tree = [
        S("job", 0.0, 10.0),
        S("a", 1.0, 4.0, parent=0),
        S("b", 2.0, 3.0, parent=1),
        S("c", 5.0, 9.0, parent=0),
        S("d", 6.0, 7.0, parent=3),
        S("e", 6.5, 8.0, parent=3),  # overlaps d: together they cover 6..8
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_recorder_nests_spans_and_restores_functions():
    fake = types.ModuleType("fake")

    def leaf():
        return 1

    def outer():
        return fake.leaf() + fake.leaf()

    fake.leaf, fake.outer = leaf, outer
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    recorder.install([("outer", fake, "outer", None), ("leaf", fake, "leaf", lambda a, k, r: {"n": r})])
    job = recorder.open("job")
    assert fake.outer() == 2
    recorder.close(job)
    recorder.uninstall()
    assert fake.leaf is leaf and fake.outer is outer
    names = [(s.name, s.parent) for s in recorder.spans]
    assert names == [("job", None), ("outer", 0), ("leaf", 1), ("leaf", 1)]
    assert recorder.spans[2].counts == {"n": 1}
    # clock ticks: job 0..7, outer 1..6, leaves 2..3 and 4..5
    assert spans.self_times(recorder.spans) == [2.0, 3.0, 1.0, 1.0]


def test_declared_workloads_and_layer_metrics_match_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    measured = set(spans.pass_metrics([], 1.0)) | {
        "cli.import_s", "cli.numpy_import_s", "cli.identical_report_share", "trace.overhead_share"
    }
    assert measured == {metric["name"] for metric in spec["per_layer"]}


def test_host_speed_probes_are_not_traced_and_scale_to_reference_seconds():
    recorder = spans.Recorder()
    recorder.install(spans.focklab_targets())
    try:
        seconds = [probe.seconds(time.perf_counter) for probe in hostspeed.PROBES.values()]
    finally:
        recorder.uninstall()
    assert recorder.spans == [] and min(seconds) > 0
    assert set(workloads.PROBE) == set(workloads.WORKLOADS)
    assert set(workloads.PROBE.values()) <= set(hostspeed.PROBES)
    # the mean of the probes just before and just after a job sets its scale
    probe = hostspeed.Probe(lambda: None, 0.003)
    assert probe.scale(0.002, 0.006) == pytest.approx(0.75)
