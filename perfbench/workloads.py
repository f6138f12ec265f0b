"""The benchmark's workloads: their inputs, their phases, their checks.

Every workload is a set of study specs that the benchmark writes from
the run's seed, plus the correctness check its results must pass.  A
workload runs as repetitions, each made of fresh processes running
its phases: ``cold``, ``warm`` and ``edit`` (``cells_per_s``,
``warm_cells_per_s``, ``edit_cells_per_s``), and ``reference``, the
results the check compares against (``oracle_cells_per_s``).

``warm`` reruns the cold study and ``edit`` reruns it with one more
ζtarget.  On ``study-resume`` both are new processes against the cold
phase's cell cache, which is how a CLI user resumes a study.  The other
two workloads have no cell cache, so a rerun in a new process would
repeat the cold phase exactly; there they run in the cold phase's
process, which is how a library user reruns a study, and what they
measure is the per-process memoization.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from citytrace import write_city_trace

MECHANISMS = ["SNIP-AT", "SNIP-OPT", "SNIP-RH"]
PAPER_ZETA_TARGETS = [16.0, 24.0, 32.0, 40.0, 48.0, 56.0]
#: Tepoch/1000 and Tepoch/100, the paper's tight and loose budgets.
PAPER_PHI_MAXES = [86.4, 864.0]
#: The ζtarget the edit phase appends.
EXTRA_TARGET = 64.0
#: The fast-versus-vector tolerance of the engine agreement tests.
ENGINE_TOLERANCE = 1e-9
#: Column positions in the per-run rows the child exports.
KEY_COLUMNS = slice(0, 5)
VALUE_COLUMNS = slice(5, 8)

Runs = Dict[tuple, List[float]]


def study(name, *, targets, phi_maxes, epochs, seed, seeds, engine="vector",
          scenarios=None, transport=None, transport_options=None, jobs=1, cache=None):
    """A study spec document in the ``repro-snip run --spec`` format."""
    axes = {
        "mechanisms": MECHANISMS,
        "engines": [engine],
        "replicates": len(seeds),
        "replicate_seeds": list(seeds),
    }
    if scenarios is not None:
        axes["scenarios"] = scenarios
    return {
        "name": name,
        "scenario": {
            "zeta_targets": list(targets),
            "phi_maxes": list(phi_maxes),
            "epochs": epochs,
            "seed": seed,
        },
        "axes": axes,
        "execution": {
            "jobs": jobs,
            "batch_size": "auto",
            "transport": transport,
            "transport_options": transport_options or {},
            "cache": cache,
            "cache_options": {},
        },
        "outputs": {"out": None, "with_predictions": True},
        "network": None,
    }


def cells(document) -> int:
    """The number of runs a study document expands to."""
    scenario, axes = document["scenario"], document["axes"]
    return (
        len(scenario["zeta_targets"]) * len(scenario["phi_maxes"])
        * len(axes["mechanisms"]) * len(axes["engines"])
        * axes["replicates"] * len(axes.get("scenarios") or [None])
    )


def edited(document):
    """*document* with :data:`EXTRA_TARGET` appended to its ζtargets."""
    copy = json.loads(json.dumps(document))
    copy["scenario"]["zeta_targets"].append(EXTRA_TARGET)
    return copy


def replicate_seeds(seed: int, count: int) -> List[int]:
    """The workload's replicate seeds, derived from the run's seed."""
    return [1000 * seed + index + 1 for index in range(count)]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def runs_by_key(rows) -> Runs:
    """Index exported run rows by (scenario, Φmax, ζtarget, mechanism, seed)."""
    return {tuple(row[KEY_COLUMNS]): row[VALUE_COLUMNS] for row in rows}


def _agree(a: float, b: float, tolerance: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= tolerance


def count_disagreements(runs: Runs, reference: Runs, tolerance: float = 0.0,
                        only_shared: bool = False) -> int:
    """Runs of *runs* whose values differ from *reference* beyond *tolerance*.

    A run missing from *reference* fails unless *only_shared*; a run
    that is only checked for presence must still be finite.
    """
    failed = 0
    for key, values in runs.items():
        expected = reference.get(key)
        if expected is None:
            if not only_shared or not all(map(math.isfinite, values)):
                failed += 1
            continue
        if not all(_agree(a, b, tolerance) for a, b in zip(values, expected)):
            failed += 1
    return failed


@dataclass
class Phase:
    """One study run inside a process: label, spec file, expected cells."""

    label: str
    spec: str
    cells: int


@dataclass
class Reference:
    """What the reference phases of a benchmark run produced."""

    runs: Runs = field(default_factory=dict)
    #: :func:`child._result_digest` of the last reference artifact.
    result_sha: Optional[str] = None


@dataclass
class Plan:
    """A workload instantiated for one seed in one work directory."""

    #: The processes of repetition *i*, each a list of phases run in
    #: order; phases labelled ``reference`` feed the :class:`Reference`.
    repetition: Callable[[int], List[List[Phase]]]
    #: ``check(reference, cold, phases) -> failed runs`` for one
    #: repetition: its cold phase report and all its phase reports.
    #: Runs after every repetition of the benchmark run.
    check: Callable[[Reference, dict, List[dict]], int]
    #: Repetitions needed before every cell has met its reference.
    minimum: int = 1


@dataclass
class Workload:
    """A named workload and the reason it exists."""

    name: str
    why: str
    plan: Callable[[str, int, bool], Plan] = field(repr=False)


def _write(work: str, name: str, document) -> str:
    path = os.path.join(work, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    return path


def _rerun_checks(cold: dict, phases: List[dict]) -> int:
    """Failures of the warm and edit phases against the cold phase.

    A warm rerun must reproduce the cold artifact byte for byte.  An
    edit must reproduce every cold run it shares and add finite new
    runs.
    """
    cold_runs = runs_by_key(cold["runs"])
    failed = 0
    for phase in phases:
        runs = runs_by_key(phase["runs"])
        if phase["label"] == "warm" and phase["artifact_sha"] != cold["artifact_sha"]:
            failed += phase["cells"]
        elif phase["label"] == "warm":
            failed += count_disagreements(runs, cold_runs)
        elif phase["label"] == "edit":
            failed += count_disagreements(runs, cold_runs, only_shared=True)
    return failed


def _rerun_phases(work: str, name: str, document) -> List[Phase]:
    """The cold phase of *document*, its warm rerun and its edit."""
    cold = Phase("cold", _write(work, name, document), cells(document))
    edit_doc = edited(document)
    return [
        cold,
        Phase("warm", cold.spec, cold.cells),
        Phase("edit", _write(work, name + "-edit", edit_doc), cells(edit_doc)),
    ]


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------
def paper_grid(work: str, seed: int, smoke: bool) -> Plan:
    """The paper's Fig. 7/8 study (``examples/paper_study.json``) on vector.

    108 cells: 6 ζtargets × 2 Φmax × 3 mechanisms × 3 replicates over
    14 epochs, predictions on, serial transport, no cache.  The fast
    engine runs the same grid as the reference, one Φmax per
    repetition, so two repetitions check every cell.
    """
    seeds = replicate_seeds(seed, 1 if smoke else 3)
    shape = dict(
        targets=PAPER_ZETA_TARGETS[:2] if smoke else PAPER_ZETA_TARGETS,
        epochs=2 if smoke else 14,
        seed=seed,
        seeds=seeds,
    )
    timed = _rerun_phases(
        work, "paper-vector", study("paper-grid", phi_maxes=PAPER_PHI_MAXES, **shape)
    )
    slices = []
    for index, phi_max in enumerate(PAPER_PHI_MAXES):
        fast = study("paper-grid", engine="fast", phi_maxes=[phi_max], **shape)
        slices.append(Phase("reference", _write(work, f"paper-fast-{index}", fast), cells(fast)))

    def check(reference, cold, phases):
        failed = count_disagreements(
            runs_by_key(cold["runs"]), reference.runs, ENGINE_TOLERANCE
        )
        return failed + _rerun_checks(cold, phases)

    return Plan(
        lambda index: [timed + [slices[index % len(slices)]]], check, len(slices)
    )


# ----------------------------------------------------------------------
# trace-replay
# ----------------------------------------------------------------------
def trace_replay(work: str, seed: int, smoke: bool) -> Plan:
    """A trace-driven study replaying a seeded synthetic city CSV on vector.

    36 cells: ζtarget {16, 48} × Φmax {86.4, 864} × 3 mechanisms × 3
    replicates over 7 epochs, serial transport, no cache.  The CSV (see
    :mod:`citytrace`) spans all 7 days, about 19k rows.  The reference
    is the fast engine on the ζtarget 16 sub-grid of the first
    replicate, after the timed phases of every repetition.
    """
    days = 1 if smoke else 7
    path = os.path.join(work, "city.csv")
    write_city_trace(path, seed, days=days)
    seeds = replicate_seeds(seed, 3)
    shape = dict(
        phi_maxes=PAPER_PHI_MAXES,
        epochs=days,
        seed=seed,
        scenarios=[{"name": "trace-driven", "options": {"path": path}}],
    )
    targets = [16.0] if smoke else [16.0, 48.0]
    timed = _rerun_phases(
        work, "trace-vector", study("trace-replay", targets=targets, seeds=seeds, **shape)
    )
    fast = study("trace-replay", engine="fast", targets=[16.0], seeds=seeds[:1], **shape)
    timed.append(Phase("reference", _write(work, "trace-fast", fast), cells(fast)))

    def check(reference, cold, phases):
        cold_runs = runs_by_key(cold["runs"])
        # Reference runs missing from the cold phase fail too.
        failed = count_disagreements(reference.runs, cold_runs, ENGINE_TOLERANCE)
        failed += count_disagreements(cold_runs, {}, only_shared=True)
        return failed + _rerun_checks(cold, phases)

    return Plan(lambda index: [timed], check)


# ----------------------------------------------------------------------
# study-resume
# ----------------------------------------------------------------------
#: Every built-in synthetic workload, plus a small trace-driven file.
RESUME_SCENARIOS = ["paper-roadside", "diurnal", "mixed-fleet", "flash-crowd",
                    "dead-zone", "churn"]


def study_resume(work: str, seed: int, smoke: bool) -> Plan:
    """Many cheap cells on a fresh cell cache over the file-queue transport.

    252 cells: 7 scenarios × 6 ζtargets × 2 Φmax × 3 mechanisms, one
    replicate, 2 epochs, on vector, through ``file-queue`` with two
    local workers; a phase whose transport fell back to serial
    in-process execution fails.  Each repetition runs CLI-like
    processes against one new cache directory: cold (every cell
    written), warm (every cell read), edit (one more ζtarget: reads plus
    the new cells) and warm again.  The reference is the same study on
    the serial transport without a cache, run after the first warm
    phase in its process.
    """
    path = os.path.join(work, "small-city.csv")
    write_city_trace(path, seed, days=2, rush_interval=60.0, other_interval=300.0)
    scenarios = RESUME_SCENARIOS + [{"name": "trace-driven", "options": {"path": path}}]
    shape = dict(
        targets=PAPER_ZETA_TARGETS[:1] if smoke else PAPER_ZETA_TARGETS,
        phi_maxes=PAPER_PHI_MAXES[:1] if smoke else PAPER_PHI_MAXES,
        epochs=1 if smoke else 2,
        seed=seed,
        seeds=replicate_seeds(seed, 1),
        scenarios=scenarios,
    )
    serial = study("study-resume", **shape)
    reference = Phase("reference", _write(work, "resume-serial", serial), cells(serial))

    def repetition(index):
        cache = os.path.join(work, f"cache-{index}")
        queued = study("study-resume", transport="file-queue", jobs=2,
                       transport_options={"workers": 2}, cache=cache, **shape)
        cold, warm, edit = _rerun_phases(work, f"resume-{index}", queued)
        # The warm phase, the shortest and so the noisiest sample, runs
        # again after the edit, whose new cells it does not read.
        return [[cold], [warm, reference], [edit], [warm]]

    def check(reference, cold, phases):
        if cold["result_sha"] != reference.result_sha:
            failed = cold["cells"]
        else:
            failed = count_disagreements(runs_by_key(cold["runs"]), reference.runs)
        failed += _rerun_checks(cold, phases)
        for phase in phases:
            if phase["label"] == "warm":
                failed += phase["computed"]
            elif phase["label"] == "edit":
                failed += abs(phase["computed"] - (phase["cells"] - cold["cells"]))
            # A phase that fell back to serial in-process execution has
            # the right results but did not measure file-queue.
            if phase["fallbacks"]:
                failed += phase["cells"]
        return failed

    return Plan(repetition, check, minimum=2)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-grid",
            "the paper's Fig. 7/8 grid: bound by the engine kernel, mostly the "
            "SNIP-RH walk, with trace generation memoized and no cache or transport",
            paper_grid,
        ),
        Workload(
            "trace-replay",
            "a city-scale CSV streamed in full: CSV replay and the per-contact "
            "static kernel dominate, SNIP-RH, cache and transport do little",
            trace_replay,
        ),
        Workload(
            "study-resume",
            "many cheap cells through file-queue and a cell cache, cold, warm and "
            "edited: cache, transport, aggregation and predictions do the work",
            study_resume,
        ),
    )
}
