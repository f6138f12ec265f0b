"""One fresh study process: set up, run the phases of a request, report.

Usage: ``python3 perfbench/child.py REQUEST.json RESULT.json``

The request names spec files to run one after another in this process
(``{"trace": bool, "phases": [{"label", "spec", "artifact"}]}``).  The
first phase's setup — importing ``repro``, loading and validating the
spec, resolving its registry names, materializing its scenarios and
building its transport and cache — is what ``setup_s`` measures: the
result records the monotonic clock when the first cell can run, and the
parent subtracts the moment it spawned this process.

Each phase is timed from ``run_study`` until its JSON and CSV artifacts
are on disk, and reports every ``ParallelFallbackWarning`` its
transport emitted.  Per-run values for the correctness checks are
exported afterwards, outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import warnings


def _tree_bytes(root):
    total = 0
    for directory, _, names in os.walk(root):
        for name in names:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def _run_values(result):
    """``[scenario, phi_max, zeta_target, mechanism, seed, ζ, φ, probed/epoch]`` per run."""
    rows = []
    for grid in result.grids.values():
        for phi_max, sweep in grid:
            for mechanism, points in sweep.points.items():
                for point in points:
                    for run in point.replicates:
                        metrics = run.metrics
                        rows.append([
                            grid.scenario or "",
                            phi_max,
                            point.zeta_target,
                            mechanism,
                            run.scenario.seed,
                            run.mean_zeta,
                            run.mean_phi,
                            metrics.total_probed / metrics.epoch_count,
                        ])
    return rows


def _result_digest(artifact_text):
    """Digest of the artifact with its execution-only sections blanked.

    Transport and cache settings are recorded in ``study.execution``
    (and output paths in ``study.outputs``) but never change results,
    so a cached file-queue run must match a plain serial run once both
    are blanked.
    """
    document = json.loads(artifact_text)
    document["study"]["execution"] = None
    document["study"]["outputs"] = None
    canonical = json.dumps(document, sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


def record_fallbacks(run):
    """``(run(), messages)``, with one message per ``ParallelFallbackWarning``.

    A transport that cannot reach its workers degrades to serial
    in-process execution with the same results, so only this warning
    tells that a phase did not measure the transport its spec names.
    Other warnings are shown as usual.
    """
    from repro.experiments.parallel import ParallelFallbackWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    messages = []
    for warning in caught:
        if issubclass(warning.category, ParallelFallbackWarning):
            messages.append(str(warning.message))
        else:
            warnings.showwarning(
                warning.message, warning.category, warning.filename, warning.lineno
            )
    return result, messages


def main(argv):
    request_path, result_path = argv
    with open(request_path, encoding="utf-8") as handle:
        request = json.load(handle)

    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from repro.experiments import spec as spec_module

    phases = []
    ready = None
    for phase in request["phases"]:
        # Loading validates the spec and resolves every registry name,
        # materializing its scenarios.
        spec = spec_module.StudySpec.load(phase["spec"])
        transport = spec.build_transport()
        if ready is None:
            ready = time.monotonic()
        cache_before = _tree_bytes(spec.cache) if spec.cache else 0

        start = time.perf_counter()
        result, fallbacks = record_fallbacks(
            lambda: spec_module.run_study(spec, executor=transport)
        )
        artifact = result.to_json()
        table = result.to_csv()
        with open(phase["artifact"] + ".json", "w", encoding="utf-8") as handle:
            handle.write(artifact)
        with open(phase["artifact"] + ".csv", "w", encoding="utf-8") as handle:
            handle.write(table)
        seconds = time.perf_counter() - start

        phases.append({
            "label": phase["label"],
            "cells": spec.total_runs,
            "seconds": seconds,
            "computed": result.cells_computed,
            "cached": result.cells_cached,
            "fallbacks": fallbacks,
            "artifact_sha": hashlib.sha256(artifact.encode()).hexdigest(),
            "result_sha": _result_digest(artifact),
            "artifact_bytes": len(artifact.encode()) + len(table.encode()),
            "cache_bytes": (_tree_bytes(spec.cache) if spec.cache else 0) - cache_before,
            "runs": _run_values(result),
        })

    report = {
        "ready": ready,
        "phases": phases,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
