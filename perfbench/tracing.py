"""Span recording around the program's layer entry points.

The benchmark traces the program from the outside: :func:`install`
replaces the public entry points of each layer (module functions and
class methods under ``repro``) with wrappers that record a span per
call, then :func:`layer_metrics` turns the spans and counters into the
per-layer metrics.  Nothing in ``src/`` knows about it.

A span is ``(name, start, end, parent)``; its self time is its duration
minus the part of its interval that its child spans cover.  A layer's
time is the sum of the self times of the spans it owns, so a kernel
span that generates its trace is charged only for the kernel, and the
trace generation is charged to ``mobility``.

Spans nest on one stack, which assumes the traced process runs the
study on one thread; the transports run their work in other processes,
whose time shows up as coordinator wait (``transport.wait_s``).
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(name, start, end, parent index or None)``
Span = Tuple[str, float, float, Optional[int]]


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Per-kind sets of input identities, for the reuse ratios.
        self.distinct: Dict[str, set] = {}
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        """Open a span; returns its index for :meth:`end`."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, self.clock(), 0.0, parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span opened as *index*, the innermost open one."""
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, self.clock(), parent)

    def note(self, kind: str, identity: object) -> None:
        """Record one input identity of *kind* (for distinct ÷ calls)."""
        self.distinct.setdefault(kind, set()).add(identity)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(max(0.0, (end - start) - covered))
    return result


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer sums and counters of one traced process.

    Times are seconds of self time.  ``transport.imap_s`` is the
    exception: it is the whole time spent inside the transports'
    ``imap`` (no traced transport nests in another), and
    ``transport.wait_s`` is the part of it no in-process child span
    covers.  The cell cache's own ``imap`` glue is not a span: it runs
    on the caller's stack, so its hit/miss partitioning and result
    encoding count as ``spec.run_study`` self time.  Ratios are left
    as numerator and denominator (``*_distinct`` and the call counts)
    so that they can be summed over processes before dividing.
    """
    spans = tracer.spans
    own = self_times(spans)
    seconds: Counter = Counter()
    calls: Counter = Counter()
    durations: Counter = Counter()
    for (name, start, end, _), value in zip(spans, own):
        seconds[name] += value
        calls[name] += 1
        durations[name] += end - start
    counts = tracer.counts
    return {
        "scenarios.materialize_s": seconds["scenarios.materialize"],
        "mobility.trace_s": seconds["mobility.trace"] + seconds["mobility.replay"],
        "mobility.trace_builds": calls["mobility.trace"],
        "mobility.trace_distinct": len(tracer.distinct.get("trace", ())),
        "mobility.replay_s": seconds["mobility.replay"],
        "mobility.ingest_contacts": counts["ingest_contacts"],
        "vector.static_s": seconds["vector.static"],
        "vector.adaptive_s": seconds["vector.adaptive"],
        "fast.static_s": seconds["fast.static"],
        "fast.adaptive_s": seconds["fast.adaptive"],
        "analysis.predictions_s": seconds["analysis.predictions"],
        "analysis.predictions_calls": calls["analysis.predictions"],
        "analysis.predictions_distinct": len(tracer.distinct.get("predictions", ())),
        "units.checks": counts["units.checks"],
        "cache.key_s": seconds["cache.key"],
        "cache.get_s": seconds["cache.get"],
        "cache.gets": calls["cache.get"],
        "cache.hits": counts["cache.hits"],
        "cache.put_s": seconds["cache.put"],
        "transport.imap_s": durations["transport.imap"],
        "transport.wait_s": seconds["transport.imap"],
        "transport.shards": counts["transport.shards"],
        "spec.aggregate_s": seconds["spec.run_study"],
        "spec.serialize_s": seconds["spec.serialize"],
    }


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _traced(tracer: Tracer, name, fn: Callable, after=None) -> Callable:
    """*fn* inside a span; *name* may be a function of the call's args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        index = tracer.begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            # Bookkeeping is a span of its own so that no layer pays for it.
            index = tracer.begin("trace.bookkeeping")
            try:
                after(result, *args, **kwargs)
            finally:
                tracer.end(index)
        return result

    return wrapper


def _traced_stream(tracer: Tracer, name: str, fn: Callable, counter=None) -> Callable:
    """A generator function whose every resumption is a *name* span.

    Timing only the call of a generator function would time nothing;
    timing from first to last item would charge the consumer's work to
    the producer.  Each ``next()`` is therefore its own span, so child
    spans opened by the consumer between items get the right parent.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stream = iter(fn(*args, **kwargs))
        try:
            while True:
                index = tracer.begin(name)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                if counter is not None:
                    tracer.counts[counter] += 1
                yield item
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    return wrapper


def _counted(tracer: Tracer, key: str, fn: Callable) -> Callable:
    """*fn* with a call counter and no span (for very hot functions)."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _counted_stream(tracer: Tracer, key: str, fn: Callable) -> Callable:
    """A generator function that counts the items it yields."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            counts[key] += 1
            yield item

    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to *original* at *replacement*.

    Modules import entry points by name (``from ..units import
    require_positive``), so patching the defining module alone would
    miss most callers.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, attr, make(getattr(cls, attr)))


def trace_digest(trace: Iterable) -> str:
    """A content digest of a contact trace (the identity of a build)."""
    digest = hashlib.sha1()
    for contact in trace:
        digest.update(
            f"{contact.start!r},{contact.length!r},{contact.mobile_id}\n".encode()
        )
    return digest.hexdigest()


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark measures.

    Imports the modules first, so that lazily imported layers (the
    engines, the cache) are patched before anything binds them.  The
    patch is process-wide and never undone: the traced process runs one
    repetition and exits.
    """
    import repro.units as units
    from repro.cache import keys as cache_keys
    from repro.cache.store import CellCache
    from repro.core import analysis
    from repro.core.schedulers.rh import SnipRhScheduler
    from repro.experiments import runner, spec, transport, vector
    from repro.experiments.parallel import ParallelExecutor, SerialExecutor
    from repro.mobility import traces
    import repro.scenarios as scenarios

    def kernel(layer: str) -> Callable:
        def name(engine, scenario, scheduler, *args, **kwargs):
            kind = "adaptive" if isinstance(scheduler, SnipRhScheduler) else "static"
            return f"{layer}.{kind}"

        return name

    def note_trace(trace, *args, **kwargs):
        tracer.note("trace", trace_digest(trace))

    def note_predictions(result, *args, **kwargs):
        tracer.note("predictions", repr((args, sorted(kwargs.items()))))

    def note_hit(payload, *args, **kwargs):
        if payload is not None:
            tracer.counts["cache.hits"] += 1

    _rebind(
        scenarios.materialize_scenario,
        _traced(tracer, "scenarios.materialize", scenarios.materialize_scenario),
    )
    _rebind(
        runner.generate_trace,
        _traced(tracer, "mobility.trace", runner.generate_trace, after=note_trace),
    )
    _patch_method(
        traces.TraceFileSource, "generate",
        lambda fn: _traced(tracer, "mobility.replay", fn),
    )
    _rebind(
        traces.stream_contacts,
        _counted_stream(tracer, "ingest_contacts", traces.stream_contacts),
    )
    _patch_method(
        vector.VectorEngine, "run", lambda fn: _traced(tracer, kernel("vector"), fn)
    )
    _patch_method(
        runner.FastEngine, "run", lambda fn: _traced(tracer, kernel("fast"), fn)
    )
    _rebind(
        analysis.evaluate_schedulers,
        _traced(
            tracer, "analysis.predictions", analysis.evaluate_schedulers,
            after=note_predictions,
        ),
    )
    for validator in (
        units.require_positive,
        units.require_non_negative,
        units.require_fraction,
        units.require_probability,
    ):
        _rebind(validator, _counted(tracer, "units.checks", validator))
    _rebind(cache_keys.cache_key, _traced(tracer, "cache.key", cache_keys.cache_key))
    _patch_method(CellCache, "get", lambda fn: _traced(tracer, "cache.get", fn, after=note_hit))
    _patch_method(CellCache, "put", lambda fn: _traced(tracer, "cache.put", fn))
    for cls in (SerialExecutor, ParallelExecutor, transport.FileQueueTransport):
        _patch_method(
            cls, "imap",
            lambda fn: _traced_stream(tracer, "transport.imap", fn, counter="transport.shards"),
        )
    _rebind(spec.run_study, _traced(tracer, "spec.run_study", spec.run_study))
    _patch_method(spec.StudyResult, "to_json", lambda fn: _traced(tracer, "spec.serialize", fn))
    _patch_method(spec.StudyResult, "to_csv", lambda fn: _traced(tracer, "spec.serialize", fn))
