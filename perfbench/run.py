"""The study-pipeline benchmark: one workload, end to end, checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 44 --trace 0

Writes the workload's inputs from ``--seed`` into a scratch directory
inside the checkout, runs repetitions of fresh study processes for as
long as another one fits in ``--seconds`` (at least as many as the
workload's check needs), checks every run, and prints the host, a table
and, as the last line, one JSON object::

    {"correct": true, "attempted": 1062, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(medians over repetitions); ``--trace 1`` alternates traced and
untraced repetitions and reports the per-layer metrics of the traced
ones.  ``attempted`` counts every run of every study the benchmark ran,
and ``failed`` those that raised, went missing or failed the workload's
check.  ``--smoke`` shrinks every workload to a few seconds for the
tests; its figures are not comparable with full runs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

from workloads import WORKLOADS, Reference, runs_by_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: No child may run past this many seconds after the benchmark started.
HARD_LIMIT_S = 170.0
#: The throughput metric each phase label feeds.
RATE_METRICS = {
    "cold": "cells_per_s",
    "warm": "warm_cells_per_s",
    "edit": "edit_cells_per_s",
    "reference": "oracle_cells_per_s",
}


def host() -> dict:
    """The machine and toolchain a result was measured on."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "numba": importlib.util.find_spec("numba") is not None,
    }


class Runner:
    """Spawns child processes inside one work directory."""

    def __init__(self, work: str, started: float) -> None:
        self.work = work
        self.started = started
        self.spawned = 0
        self.env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=os.path.join(work, "tmp"))
        os.makedirs(self.env["TMPDIR"])

    def child(self, phases, trace: bool):
        """Run *phases* in one fresh process; ``(report or None, spawn time)``."""
        self.spawned += 1
        tag = os.path.join(self.work, f"p{self.spawned}")
        request = {
            "trace": trace,
            "phases": [
                {"label": p.label, "spec": p.spec, "artifact": f"{tag}-{p.label}"}
                for p in phases
            ],
        }
        with open(tag + "-request.json", "w", encoding="utf-8") as handle:
            json.dump(request, handle)
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            tag + "-request.json", tag + "-result.json",
        ]
        spawned = time.monotonic()
        code = self.run(command, tag + "-log.txt")
        if code != 0:
            return None, spawned
        with open(tag + "-result.json", encoding="utf-8") as handle:
            return json.load(handle), spawned

    def run(self, command, log_path: str) -> int:
        """Run *command* in its own session, killing the session on timeout."""
        budget = HARD_LIMIT_S - (time.monotonic() - self.started)
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                command, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=max(1.0, budget))
            except subprocess.TimeoutExpired:
                code = None
            # The file-queue workers live in the child's session; none
            # may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            with open(log_path, encoding="utf-8") as log:
                tail = log.read()[-2000:]
            print(f"child {command[2:]} failed ({code}):\n{tail}", file=sys.stderr)
        return -1 if code is None else code


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def layer_values(layers: Counter, phases) -> dict:
    """The per-layer metrics from layer sums and phase reports."""
    return {
        "scenarios.materialize_s": layers["scenarios.materialize_s"],
        "mobility.trace_s": layers["mobility.trace_s"],
        "mobility.trace_builds": layers["mobility.trace_builds"],
        "mobility.trace_reuse_ratio": ratio(
            layers["mobility.trace_distinct"], layers["mobility.trace_builds"]
        ),
        "mobility.ingest_contacts_per_s": ratio(
            layers["mobility.ingest_contacts"], layers["mobility.replay_s"]
        ),
        "vector.static_s": layers["vector.static_s"],
        "vector.adaptive_s": layers["vector.adaptive_s"],
        "fast.static_s": layers["fast.static_s"],
        "fast.adaptive_s": layers["fast.adaptive_s"],
        "analysis.predictions_s": layers["analysis.predictions_s"],
        "analysis.predictions_calls": layers["analysis.predictions_calls"],
        "analysis.predictions_reuse_ratio": ratio(
            layers["analysis.predictions_distinct"], layers["analysis.predictions_calls"]
        ),
        "units.checks": layers["units.checks"],
        "cache.key_s": layers["cache.key_s"],
        "cache.get_s": layers["cache.get_s"],
        "cache.hit_ratio": ratio(layers["cache.hits"], layers["cache.gets"]),
        "cache.put_s": layers["cache.put_s"],
        "cache.bytes": sum(phase["cache_bytes"] for phase in phases),
        "transport.imap_s": layers["transport.imap_s"],
        "transport.wait_s": layers["transport.wait_s"],
        "transport.shards": layers["transport.shards"],
        "spec.aggregate_s": layers["spec.aggregate_s"],
        "spec.serialize_s": layers["spec.serialize_s"],
        "spec.artifact_bytes": sum(phase["artifact_bytes"] for phase in phases),
    }


def measure(workload, seed: int, seconds: float, trace: bool, smoke: bool, work: str):
    """Run one workload; returns ``(attempted, failed, samples)``."""
    runner = Runner(work, time.monotonic())
    plan = workload.plan(work, seed, smoke)
    # Compile the sources once, as an installed package would be, so no
    # timed process pays for bytecode compilation.
    runner.run([sys.executable, "-m", "compileall", "-q", SRC],
               os.path.join(work, "compileall-log.txt"))
    # The measuring time starts once the inputs are written and compiled.
    started = time.monotonic()

    samples = {"setup_s": [], "peak_rss_mb": [], "layers": []}
    reference = Reference()
    attempted = failed = 0

    def run_process(phases, traced):
        """Run one process; returns its report and files its samples."""
        nonlocal attempted, failed
        attempted += sum(phase.cells for phase in phases)
        report, spawned = runner.child(phases, traced)
        if report is None:
            failed += sum(phase.cells for phase in phases)
            return None
        if not traced:
            samples["setup_s"].append(report["ready"] - spawned)
        for phase in report["phases"]:
            if phase["label"] == "reference":
                reference.runs.update(runs_by_key(phase["runs"]))
                reference.result_sha = phase["result_sha"]
            name = RATE_METRICS[phase["label"]]
            if traced:
                name = "traced_" + name
            samples.setdefault(name, []).append(phase["cells"] / phase["seconds"])
        return report

    repetitions = []
    minimum = max(plan.minimum, 2 if trace else 1)
    longest = 0.0
    while len(repetitions) < minimum or (
        time.monotonic() - started + longest <= seconds
        and time.monotonic() - started < HARD_LIMIT_S / 2
    ):
        begun = time.monotonic()
        traced = trace and len(repetitions) % 2 == 0
        phases = []
        layers: Counter = Counter()
        rss = []
        for process in plan.repetition(len(repetitions)):
            report = run_process(process, traced)
            if report is None:
                continue
            rss.append(report["peak_rss_mb"])
            layers.update(report.get("layers", {}))
            phases.extend(report["phases"])
        repetitions.append(phases)
        if traced:
            samples["layers"].append(layer_values(layers, phases))
        elif rss:
            samples["peak_rss_mb"].append(max(rss))
        longest = max(longest, time.monotonic() - begun)
        rates = ", ".join(
            f"{phase['label']} {phase['cells'] / phase['seconds']:.2f}" for phase in phases
        )
        print(f"repetition {len(repetitions)}{' traced' if traced else ''} "
              f"({time.monotonic() - begun:.1f} s): {rates} cells/s", file=sys.stderr)

    # Checked last: a repetition's cells may meet their reference in a
    # later repetition.
    for phases in repetitions:
        cold = [phase for phase in phases if phase["label"] == "cold"]
        if cold:
            failed += plan.check(reference, cold[0], phases)
        else:
            failed += sum(
                phase["cells"] for phase in phases if phase["label"] != "reference"
            )
    # Several checks may reject the same run; failed never exceeds attempted.
    return attempted, min(failed, attempted), samples


def summarize(samples: dict, trace: bool, declared: dict) -> dict:
    """Medians of the samples, for the metrics ``BENCHMARK.json`` declares."""
    values = {
        name: statistics.median(found)
        for name, found in samples.items()
        if name != "layers" and found
    }
    if trace and samples["layers"]:
        values = {
            name: statistics.median(layer[name] for layer in samples["layers"])
            for name in samples["layers"][0]
        } | {
            "trace.overhead_ratio": ratio(
                values.get("traced_cells_per_s", 0.0), values.get("cells_per_s", 0.0)
            ),
        }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in declared.items()
        if name in values
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the tests only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC} holds no repro package", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in benchmark[section]}

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        attempted, failed, samples = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            args.smoke, work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    metrics = summarize(samples, bool(args.trace), declared)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"nothing measured for {missing}", file=sys.stderr)
        return 1
    print("host " + json.dumps(host()))
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
