"""Zero-dependency observability core: spans, counters, gauges.

The package traces its own pipeline (``parse -> schedule -> simulate ->
layout -> encode``) the way Scully-Allison & Isaacs argue Gantt tooling
should be fed: as an execution trace.  Instrumentation points call
:class:`span` (a context manager that doubles as a decorator),
:func:`add` (counters) and :func:`gauge` (gauges); everything lands in a
per-run :class:`Trace`.

Observability is **disabled by default** and every instrumentation point
then reduces to a single module-attribute check — no allocation beyond
the (tiny) ``span`` object itself, no time stamps, no dictionary traffic
— so instrumented hot paths cost nothing measurable when tracing is off
(see ``benchmarks/bench_obs_overhead.py``).

Typical use::

    from repro import obs

    with obs.capture() as trace:
        run_pipeline()
    print(obs.summary_table(trace))

or long-running::

    obs.enable()
    ...
    trace = obs.current_trace()
"""

from __future__ import annotations

import functools
import math
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Histogram",
    "SpanRecord",
    "Trace",
    "span",
    "add",
    "gauge",
    "enable",
    "disable",
    "is_enabled",
    "current_trace",
    "reset",
    "capture",
]


class Histogram:
    """Bounded streaming histogram over fixed log-spaced buckets.

    Built for latency metrics that must survive millions of samples in a
    long-lived process: a fixed set of log-spaced bucket upper bounds
    (``buckets_per_decade`` per factor of ten between ``lo`` and ``hi``),
    one overflow bucket, plus running ``count`` / ``sum`` / ``min`` /
    ``max``.  Memory is constant, :meth:`observe` is O(log buckets), and
    every mutation happens under one lock so concurrent writers (HTTP
    threads, dispatchers) never tear a sample.

    ``percentile`` answers from the bucket cumulative counts: the value
    returned is the *upper bound* of the bucket holding that rank (the
    same upper-bound convention Prometheus ``le`` buckets use), clamped
    to the largest observed value for the overflow bucket.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max", "_lock")

    def __init__(self, lo: float = 1e-4, hi: float = 1e3,
                 buckets_per_decade: int = 5):
        if not (0 < lo < hi) or not math.isfinite(hi):
            raise ValueError(f"need 0 < lo < hi finite, got [{lo}, {hi}]")
        if buckets_per_decade < 1:
            raise ValueError(f"need >= 1 bucket per decade, "
                             f"got {buckets_per_decade}")
        n = round(math.log10(hi / lo) * buckets_per_decade)
        bounds = [lo * 10.0 ** (i / buckets_per_decade) for i in range(n)]
        bounds.append(hi)  # exact top bound, no float drift
        self.bounds: list[float] = bounds
        self.counts: list[int] = [0] * (len(bounds) + 1)  # +1: overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample (values above ``hi`` land in the overflow)."""
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def snapshot(self) -> tuple[list[int], int, float, float, float]:
        """Consistent (counts, count, sum, min, max) under the lock."""
        with self._lock:
            return (list(self.counts), self.count, self.sum,
                    self.min, self.max)

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1)."""
        counts, count, _, _, largest = self.snapshot()
        if count == 0:
            return 0.0
        rank = max(1, math.ceil(q * count))
        seen = 0
        for index, bucket_count in enumerate(counts):
            seen += bucket_count
            if seen >= rank:
                if index >= len(self.bounds):  # overflow bucket
                    return largest
                return self.bounds[index]
        return largest  # pragma: no cover - seen always reaches count

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending at (+inf, count)."""
        counts, count, _, _, _ = self.snapshot()
        out: list[tuple[float, int]] = []
        seen = 0
        for bound, bucket_count in zip(self.bounds, counts):
            seen += bucket_count
            out.append((bound, seen))
        out.append((math.inf, count))
        return out

    def to_json(self) -> dict:
        counts, count, total, low, high = self.snapshot()
        return {
            "bounds": list(self.bounds),
            "counts": counts,
            "count": count,
            "sum": total,
            "min": low if count else None,
            "max": high if count else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Histogram(count={self.count}, sum={self.sum:g}, "
                f"buckets={len(self.counts)})")


@dataclass(slots=True)
class SpanRecord:
    """One completed (or still-open) timed span.

    ``start``/``end`` are seconds relative to the owning trace's epoch;
    ``parent`` is an index into ``Trace.spans`` (``None`` for roots).
    An open span has ``end == -1.0``.
    """

    name: str
    start: float
    end: float
    depth: int
    index: int
    parent: int | None
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)


class Trace:
    """Spans (in start order), counters and gauges of one run.

    ``epoch`` is the monotonic (``perf_counter``) zero of all span
    timestamps; ``epoch_wall`` is the wall-clock (``time.time``) instant
    of that same zero, which is what lets traces captured in *different
    processes* be stitched onto one timeline (see
    :func:`repro.obs.export.trace_to_doc` and
    :mod:`repro.serve.tracing`).  ``trace_id`` names the request this
    trace belongs to; when set, every sink event carries it so log lines
    correlate across process boundaries.
    """

    def __init__(self, *, trace_id: str | None = None) -> None:
        self.epoch = time.perf_counter()
        self.epoch_wall = time.time()
        self.trace_id = trace_id
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.gauge_peaks: dict[str, float] = {}
        self._roots: list[int] = []
        self._children: list[list[int]] = []
        self._indexed = 0  # spans[:_indexed] are reflected in the index

    def child_index(self) -> list[list[int]]:
        """Per-span child lists, built in one incremental pass.

        ``child_index()[i]`` holds the indices of the spans whose parent is
        ``spans[i]``.  The index is extended lazily as spans are appended,
        so tree walks (``roots``/``children``, the exporters) stay O(n)
        overall instead of re-scanning the span list per node.
        """
        spans = self.spans
        if self._indexed > len(spans):  # spans list was replaced/truncated
            self._roots, self._children, self._indexed = [], [], 0
        if self._indexed < len(spans):
            self._children.extend([] for _ in range(len(spans) - self._indexed))
            for i in range(self._indexed, len(spans)):
                parent = spans[i].parent
                if parent is None:
                    self._roots.append(i)
                else:
                    self._children[parent].append(i)
            self._indexed = len(spans)
        return self._children

    def roots(self) -> list[SpanRecord]:
        """Top-level spans (pipeline stages)."""
        self.child_index()
        return [self.spans[i] for i in self._roots]

    def children(self, parent: SpanRecord) -> list[SpanRecord]:
        return [self.spans[i] for i in self.child_index()[parent.index]]

    def find(self, name: str) -> SpanRecord | None:
        """First span with the given name, or ``None``."""
        for s in self.spans:
            if s.name == name:
                return s
        return None

    def find_all(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def total_time(self) -> float:
        """Wall-clock covered by root spans."""
        return sum(s.duration for s in self.roots())

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Trace({len(self.spans)} spans, {len(self.counters)} counters, "
                f"{len(self.gauges)} gauges)")


class _State:
    __slots__ = ("enabled", "trace", "stack", "sink")

    def __init__(self) -> None:
        self.enabled = False
        self.trace: Trace | None = None
        self.stack: list[int] = []
        # Optional event sink (structured logging, see repro.obs.log).  It
        # is only consulted on the *enabled* path, so the disabled fast
        # path is unchanged.  Receives plain dicts, one per event.
        self.sink = None


_state = _State()


def is_enabled() -> bool:
    """True when instrumentation points currently record."""
    return _state.enabled


def enable() -> Trace:
    """Turn observability on (keeping any trace already collected)."""
    _state.enabled = True
    if _state.trace is None:
        _state.trace = Trace()
    return _state.trace


def disable() -> None:
    """Turn observability off; instrumentation reverts to the no-op path."""
    _state.enabled = False


def current_trace() -> Trace | None:
    """The trace being collected (``None`` when never enabled)."""
    return _state.trace


def reset() -> Trace:
    """Drop collected data and start a fresh trace."""
    _state.trace = Trace()
    _state.stack = []
    return _state.trace


@contextmanager
def capture(*, trace_id: str | None = None):
    """Enable observability into a fresh trace for the duration of a block.

    Restores the previous state (enabled flag, trace, open-span stack) on
    exit, so captures nest and never clobber a long-running session.
    ``trace_id`` tags the captured trace (and every sink event emitted
    during the block) with a request identity — the cross-process
    correlation key of the render service.
    """
    prev_enabled, prev_trace, prev_stack = _state.enabled, _state.trace, _state.stack
    _state.enabled = True
    _state.trace = trace = Trace(trace_id=trace_id)
    _state.stack = []
    try:
        yield trace
    finally:
        _state.enabled = prev_enabled
        _state.trace = prev_trace
        _state.stack = prev_stack


class span:
    """Timed span: ``with obs.span("render.layout", mode="aligned"): ...``

    Also usable as a decorator::

        @obs.span("sched.heft")
        def heft_schedule(...): ...

    The enabled flag is checked at *entry* time, so decorating at import
    time while observability is off still records once it is enabled.
    When disabled, entering/exiting is a flag check and nothing more.
    """

    __slots__ = ("name", "attrs", "_record", "_trace")

    def __init__(self, name: str, **attrs: object):
        self.name = name
        self.attrs = attrs
        self._record: SpanRecord | None = None
        self._trace: Trace | None = None

    def __enter__(self) -> "span":
        if _state.enabled:
            trace = _state.trace
            assert trace is not None
            record = SpanRecord(
                self.name,
                time.perf_counter() - trace.epoch,
                -1.0,
                len(_state.stack),
                len(trace.spans),
                _state.stack[-1] if _state.stack else None,
                dict(self.attrs) if self.attrs else {},
            )
            trace.spans.append(record)
            _state.stack.append(record.index)
            self._record = record
            self._trace = trace
            if _state.sink is not None:
                event = {"event": "span_start", "name": record.name,
                         "span_id": record.index, "parent": record.parent,
                         "depth": record.depth, "ts": record.start,
                         "attrs": record.attrs}
                if trace.trace_id is not None:
                    event["trace_id"] = trace.trace_id
                _state.sink(event)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        record, trace = self._record, self._trace
        if record is not None and trace is not None:
            record.end = time.perf_counter() - trace.epoch
            if exc_type is not None:
                record.attrs["error"] = exc_type.__name__
            stack = _state.stack
            if trace is _state.trace and record.index in stack:
                # pop our frame (and anything a leaked child left behind)
                del stack[stack.index(record.index):]
            if _state.sink is not None and trace is _state.trace:
                event = {"event": "span_end", "name": record.name,
                         "span_id": record.index, "parent": record.parent,
                         "depth": record.depth, "ts": record.end,
                         "dur": record.end - record.start,
                         "attrs": record.attrs}
                if trace.trace_id is not None:
                    event["trace_id"] = trace.trace_id
                _state.sink(event)
            self._record = None
            self._trace = None
        return False

    def set(self, **attrs: object) -> "span":
        """Attach attributes to the live span (no-op when not recording)."""
        if self._record is not None:
            self._record.attrs.update(attrs)
        return self

    def __call__(self, fn):
        name, attrs = self.name, self.attrs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _state.enabled:
                return fn(*args, **kwargs)
            with span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper


def add(name: str, value: float = 1.0) -> None:
    """Increment a named counter (no-op when disabled)."""
    if _state.enabled:
        trace = _state.trace
        counters = trace.counters
        counters[name] = counters.get(name, 0.0) + value
        if _state.sink is not None:
            event = {"event": "counter", "name": name, "value": value,
                     "total": counters[name],
                     "span_id": _state.stack[-1] if _state.stack else None}
            if trace.trace_id is not None:
                event["trace_id"] = trace.trace_id
            _state.sink(event)


def gauge(name: str, value: float) -> None:
    """Record the current value of a gauge, tracking its peak."""
    if _state.enabled:
        trace = _state.trace
        trace.gauges[name] = value
        peak = trace.gauge_peaks.get(name)
        if peak is None or value > peak:
            trace.gauge_peaks[name] = value
        if _state.sink is not None:
            event = {"event": "gauge", "name": name, "value": value,
                     "peak": trace.gauge_peaks[name],
                     "span_id": _state.stack[-1] if _state.stack else None}
            if trace.trace_id is not None:
                event["trace_id"] = trace.trace_id
            _state.sink(event)
