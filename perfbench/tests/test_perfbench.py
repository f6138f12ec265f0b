"""Tests of the benchmark itself: names, inputs, span arithmetic, smoke runs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import citytrace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))


def test_declared_workloads_are_the_implemented_ones():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: w.why for name, w in WORKLOADS.items()}
    assert all(len(why) <= 200 and "\n" not in why for why in declared.values())


def test_city_trace_is_deterministic_per_seed(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, (7, 7, 8)):
        citytrace.write_city_trace(str(path), seed, days=2)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_city_trace_is_sorted_and_denser_in_rush_hours():
    rows = list(citytrace.city_trace_rows(3, days=2))
    starts = [start for start, _, _ in rows]
    assert starts == sorted(starts)
    assert all(start < end <= 2 * citytrace.DAY for start, end, _ in rows)
    rush = sum(citytrace._is_rush(start) for start in starts)
    # 4 of 24 hours at six times the rate: 24 / 44 of the contacts.
    assert 0.45 < rush / len(rows) < 0.65


def test_self_time_subtracts_nested_children():
    spans = [
        ("parent", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("a.inner", 1.5, 2.0, 1),
        ("b", 2.5, 5.0, 0),   # overlaps a: covered once
        ("c", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.5, 0.5, 2.5, 3.0])


def test_stream_spans_leave_consumer_work_to_the_consumer():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def produce():
        yield 1
        yield 2

    stream = tracing._traced_stream(tracer, "transport.imap", produce, counter="items")
    consume = tracing._traced(tracer, "cache.put", lambda item: item)
    outer = tracer.begin("spec.run_study")
    for item in stream():
        consume(item)
    tracer.end(outer)

    parents = {name: [] for name, *_ in tracer.spans}
    for name, _, _, parent in tracer.spans:
        parents[name].append(None if parent is None else tracer.spans[parent][0])
    assert parents["cache.put"] == ["spec.run_study", "spec.run_study"]
    assert parents["transport.imap"] == ["spec.run_study"] * 3
    assert tracer.counts["items"] == 2


def test_record_fallbacks_keeps_only_the_fallback_warnings():
    from repro.experiments.parallel import ParallelFallbackWarning

    def degrade():
        warnings.warn("queue unreachable", ParallelFallbackWarning)
        return 42

    assert child.record_fallbacks(degrade) == (42, ["queue unreachable"])
    with pytest.warns(UserWarning, match="unrelated"):
        result = child.record_fallbacks(lambda: warnings.warn("unrelated") or 7)
    assert result == (7, [])


def _phase(label, cells, *, computed=0):
    return {
        "label": label, "cells": cells, "computed": computed,
        "fallbacks": [], "artifact_sha": "a", "result_sha": "r",
        "runs": [["paper-roadside", 86.4, 16.0, "SNIP-AT", 1, 1.0, 2.0, 3.0]],
    }


def test_study_resume_rejects_phases_that_fell_back_to_serial(tmp_path):
    plan = workloads.study_resume(str(tmp_path), 3, True)
    reference = workloads.Reference(
        runs=workloads.runs_by_key(_phase("reference", 1)["runs"]), result_sha="r"
    )

    def phases(degraded=None):
        found = [
            _phase("cold", 7, computed=7),
            _phase("warm", 7),
            _phase("edit", 10, computed=3),
        ]
        for phase in found:
            if phase["label"] == degraded:
                phase["fallbacks"] = ["degraded to serial in-process execution"]
        return found

    assert plan.check(reference, phases()[0], phases()) == 0
    for label, cells in (("cold", 7), ("edit", 10)):
        found = phases(label)
        assert plan.check(reference, found[0], found) == cells


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric_without_failures(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in section}
    for metric in section:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "paper-grid", "--seed", "1", "--seconds", "1"],
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
