"""Trace exporters: Chrome trace-event JSON, text summary, dog-food Gantt.

Four ways out of a :class:`~repro.obs.core.Trace`:

* :func:`to_chrome_json` — the Chrome trace-event format (B/E duration
  pairs plus C counter samples), loadable in ``chrome://tracing`` and
  Perfetto.  :func:`validate_chrome_events` checks the structural
  invariants (sorted ``ts``, stack-matched B/E pairs) and is what the CI
  smoke job runs against a real CLI render.
* :func:`summary_table` — a plain-text per-span aggregation with
  counters and gauges, for ``--stats``.
* :func:`trace_to_schedule` — the dog-food path: the span tree becomes a
  :class:`~repro.core.model.Schedule` (spans as tasks, pipeline stages as
  cluster bands, nesting depth as host rows), so the tool renders its own
  execution as a Jedule Gantt chart.
* :func:`trace_to_doc` / :func:`trace_from_doc` — the plain-JSON *wire
  form* of a trace, anchored to the wall clock so segments captured in
  another process can be shipped home and grafted
  (:func:`graft_trace_doc`) onto the local timeline.  This is how the
  render service's workers return their span segments
  (:mod:`repro.serve.tracing` stitches them).
"""

from __future__ import annotations

import json
import time

from repro.core.model import Schedule
from repro.errors import ScheduleError
from repro.obs.core import SpanRecord, Trace

__all__ = [
    "to_chrome_events",
    "to_chrome_json",
    "validate_chrome_events",
    "summary_table",
    "trace_to_schedule",
    "trace_to_doc",
    "trace_from_doc",
    "graft_trace_doc",
]

_PID = 1
_TID = 1


def _effective_ends(trace: Trace, now: float | None = None
                    ) -> tuple[list[float], int]:
    """Per-span end times, closing still-open spans at capture time.

    A span that is still running when the trace is exported has
    ``end == -1.0``; reporting it as zero-duration would hide exactly the
    span most worth looking at.  Open spans are closed at ``now`` (seconds
    relative to the trace epoch, defaulting to the wall clock at the time
    of the call) and counted, so exporters can mark them as open.

    ``now`` is clamped to the latest timestamp already in the trace: an
    open span encloses everything recorded after it, so closing it any
    earlier (stale ``now``, clock skew) would un-sort the event stream.
    """
    ends: list[float] = []
    open_count = 0
    for s in trace.spans:
        if s.end < s.start:  # still open
            open_count += 1
            if now is None:
                now = time.perf_counter() - trace.epoch
            if open_count == 1:
                for x in trace.spans:
                    now = max(now, x.start, x.end)
            ends.append(max(now, s.start))
        else:
            ends.append(s.end)
    return ends, open_count


def _span_tids(trace: Trace) -> list[int]:
    """Chrome ``tid`` per span: a ``tid`` attribute starts a lane, children
    inherit it.  Ordinary single-timeline traces all map to ``_TID``;
    grafted segments from concurrent workers (``graft_trace_doc`` with
    ``tid=``) overlap in time and must not share a B/E stack."""
    tids: list[int] = []
    for s in trace.spans:
        tid = None
        if "tid" in s.attrs:
            try:
                tid = int(s.attrs["tid"])
            except (TypeError, ValueError):
                tid = None
        if tid is None:
            tid = tids[s.parent] if s.parent is not None else _TID
        tids.append(tid)
    return tids


def to_chrome_events(trace: Trace, *, now: float | None = None) -> list[dict]:
    """Chrome trace-event dicts: B/E pairs per span, C samples for counters.

    Events come out sorted by ``ts``; at equal timestamps ends precede
    begins (a stage may end exactly where the next starts) and nesting
    order is preserved (outer B first, inner E first).  Spans carrying a
    ``tid`` attribute (and their descendants) are emitted on that lane,
    so overlapping segments grafted from concurrent worker processes keep
    per-lane B/E nesting intact.
    """
    # Each lane's span sublist is a DFS of a properly nested tree
    # (single-threaded execution), so the correct B/E interleaving falls
    # out of a stack walk: before opening a span, close every open span
    # that is not its ancestor.  This stays correct for zero-duration and
    # still-open spans, where timestamp sorting alone cannot order B
    # before E.  Multi-lane traces are merged with a stable ts sort,
    # which preserves each lane's internal order.
    spans = trace.spans
    ends, _ = _effective_ends(trace, now)
    tids = _span_tids(trace)
    lanes: dict[int, list] = {}
    for s in spans:
        lanes.setdefault(tids[s.index], []).append(s)

    events: list[dict] = []

    def emit_lane(tid: int, lane_spans: list) -> None:
        stack: list[int] = []

        def emit_end(s) -> None:
            events.append({"name": s.name, "ph": "E",
                           "ts": ends[s.index] * 1e6, "pid": _PID,
                           "tid": tid})

        for s in lane_spans:
            while stack and stack[-1] != s.parent:
                emit_end(spans[stack.pop()])
            begin = {"name": s.name, "cat": s.name.split(".")[0], "ph": "B",
                     "ts": s.start * 1e6, "pid": _PID, "tid": tid}
            if s.attrs or s.end < s.start:
                begin["args"] = {k: str(v) for k, v in s.attrs.items()}
                if s.end < s.start:  # closed at capture time, flag it
                    begin["args"]["open"] = "true"
            events.append(begin)
            stack.append(s.index)
        while stack:
            emit_end(spans[stack.pop()])

    for tid in sorted(lanes):
        emit_lane(tid, lanes[tid])
    if len(lanes) > 1:
        events.sort(key=lambda ev: ev["ts"])  # stable: lane order survives
    end_ts = max((e["ts"] for e in events), default=0.0)
    for name in sorted(trace.counters):
        events.append({"name": name, "ph": "C", "ts": end_ts, "pid": _PID,
                       "tid": _TID, "args": {name: trace.counters[name]}})
    for name in sorted(trace.gauge_peaks):
        events.append({"name": name, "ph": "C", "ts": end_ts, "pid": _PID,
                       "tid": _TID, "args": {name: trace.gauge_peaks[name]}})
    return events


def to_chrome_json(trace: Trace, *, indent: int | None = None) -> str:
    """Serialize a trace as a Chrome trace-event JSON document."""
    doc = {"traceEvents": to_chrome_events(trace), "displayTimeUnit": "ms"}
    return json.dumps(doc, indent=indent) + "\n"


def validate_chrome_events(events: list[dict]) -> None:
    """Check trace-event structural invariants; raises ``ValueError``.

    Enforced: every event has name/ph/ts/pid/tid, ``ts`` is monotonically
    non-decreasing, and B/E events match like balanced parentheses per
    (pid, tid) with E names matching the innermost open B.
    """
    last_ts = float("-inf")
    stacks: dict[tuple, list[str]] = {}
    for i, ev in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {i} lacks {key!r}: {ev}")
        ts = ev["ts"]
        if not isinstance(ts, (int, float)):
            raise ValueError(f"event {i}: non-numeric ts {ts!r}")
        if ts < last_ts:
            raise ValueError(f"event {i}: ts {ts} after {last_ts} (unsorted)")
        last_ts = ts
        ph = ev["ph"]
        if ph not in ("B", "E", "C", "X", "M", "i"):
            raise ValueError(f"event {i}: unknown phase {ph!r}")
        stack = stacks.setdefault((ev["pid"], ev["tid"]), [])
        if ph == "B":
            stack.append(ev["name"])
        elif ph == "E":
            if not stack:
                raise ValueError(f"event {i}: E {ev['name']!r} without open B")
            open_name = stack.pop()
            if open_name != ev["name"]:
                raise ValueError(
                    f"event {i}: E {ev['name']!r} closes B {open_name!r}")
    for key, stack in stacks.items():
        if stack:
            raise ValueError(f"unclosed B events on {key}: {stack}")


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:10.3f}"


def summary_table(trace: Trace, *, now: float | None = None) -> str:
    """Plain-text aggregation: per-name span timings, counters, gauges.

    Spans still open at capture time are closed at ``now`` (so their time
    shows up instead of reading as zero) and flagged in a trailing note.
    """
    ends, open_count = _effective_ends(trace, now)
    durations = [max(ends[s.index] - s.start, 0.0) for s in trace.spans]
    child_time = [0.0] * len(trace.spans)
    for s in trace.spans:
        if s.parent is not None:
            child_time[s.parent] += durations[s.index]

    order: list[str] = []
    agg: dict[str, list[float]] = {}  # name -> [calls, total, self]
    for s in trace.spans:
        if s.name not in agg:
            order.append(s.name)
            agg[s.name] = [0.0, 0.0, 0.0]
        row = agg[s.name]
        row[0] += 1
        row[1] += durations[s.index]
        row[2] += durations[s.index] - child_time[s.index]

    lines: list[str] = []
    if order:
        width = max(len(n) for n in order)
        width = max(width, len("span"))
        lines.append(f"{'span':<{width}}  {'calls':>6}  {'total ms':>10}  {'self ms':>10}")
        for name in order:
            calls, total, self_t = agg[name]
            lines.append(f"{name:<{width}}  {int(calls):>6}  "
                         f"{_fmt_ms(total)}  {_fmt_ms(max(self_t, 0.0))}")
    if trace.counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(trace.counters):
            lines.append(f"  {name} = {trace.counters[name]:g}")
    if trace.gauges:
        lines.append("")
        lines.append("gauges (last / peak):")
        for name in sorted(trace.gauges):
            lines.append(f"  {name} = {trace.gauges[name]:g} / "
                         f"{trace.gauge_peaks.get(name, trace.gauges[name]):g}")
    if open_count:
        lines.append("")
        lines.append(f"note: {open_count} span(s) still open at capture "
                     "(closed at capture time above)")
    if not lines:
        lines.append("(empty trace)")
    return "\n".join(lines) + "\n"


def trace_to_schedule(trace: Trace, *, name: str = "pipeline trace") -> Schedule:
    """Dog-food conversion: render the tool's own execution as a Gantt.

    Each top-level span is a *stage* and becomes a cluster band; nesting
    depth inside the stage selects the host row; every span becomes one
    task typed by its name.  Times are shifted so the trace starts at 0.
    The result feeds straight into the normal render pipeline.
    """
    if not trace.spans:
        raise ScheduleError("cannot build a Gantt from an empty trace")

    ends, _ = _effective_ends(trace)
    stage_of: list[str] = []
    for s in trace.spans:
        stage_of.append(s.name if s.parent is None else stage_of[s.parent])

    stage_order: list[str] = []
    stage_depth: dict[str, int] = {}
    for s, stage in zip(trace.spans, stage_of):
        if stage not in stage_depth:
            stage_order.append(stage)
            stage_depth[stage] = 0
        stage_depth[stage] = max(stage_depth[stage], s.depth)

    t0 = min(s.start for s in trace.spans)
    schedule = Schedule(meta={"source": "repro.obs", "trace": name,
                              "units": "seconds"})
    for i, stage in enumerate(stage_order):
        schedule.new_cluster(f"s{i}", stage_depth[stage] + 1, stage)
    cluster_of = {stage: f"s{i}" for i, stage in enumerate(stage_order)}

    for s, stage in zip(trace.spans, stage_of):
        end = ends[s.index]
        meta = {k: str(v) for k, v in s.attrs.items()}
        meta["duration_ms"] = f"{(end - s.start) * 1e3:.3f}"
        if s.end < s.start:
            meta["open"] = "true"
        schedule.new_task(
            f"{s.index}:{s.name}", s.name, s.start - t0, end - t0,
            cluster=cluster_of[stage], host_start=s.depth, host_nb=1,
            meta=meta,
        )
    return schedule


# --------------------------------------------------------- trace wire form
#: Schema tag of the trace wire form (bump on incompatible change).
TRACE_DOC_VERSION = 1


def trace_to_doc(trace: Trace, *, now: float | None = None) -> dict:
    """The plain-JSON wire form of a trace.

    Spans serialize as compact ``[name, start, end, depth, parent,
    attrs]`` rows (indices are implicit in row order); attribute values
    are stringified so arbitrary objects never poison the JSON encoder.
    ``wall0`` anchors the trace's time zero to the wall clock, which is
    what lets a receiving process place these spans on *its* timeline
    (:func:`graft_trace_doc`).  Still-open spans are closed at capture
    time, exactly like the Chrome exporter does.
    """
    ends, _ = _effective_ends(trace, now)
    spans = [[s.name, s.start, ends[s.index], s.depth, s.parent,
              {k: str(v) for k, v in s.attrs.items()}]
             for s in trace.spans]
    doc: dict[str, object] = {
        "version": TRACE_DOC_VERSION,
        "wall0": trace.epoch_wall,
        "spans": spans,
    }
    if trace.trace_id is not None:
        doc["trace_id"] = trace.trace_id
    if trace.counters:
        doc["counters"] = dict(trace.counters)
    if trace.gauge_peaks:
        doc["gauge_peaks"] = dict(trace.gauge_peaks)
    return doc


def trace_from_doc(doc: dict) -> Trace:
    """Rebuild a :class:`Trace` from its wire form.

    Raises ``ValueError`` on structurally broken documents (wrong span
    row shape, dangling parent index) so corrupted segments surface at
    the stitching boundary instead of deep inside an exporter.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"trace doc must be an object, "
                         f"got {type(doc).__name__}")
    rows = doc.get("spans", [])
    if not isinstance(rows, list):
        raise ValueError("trace doc 'spans' must be a list")
    trace = Trace(trace_id=doc.get("trace_id"))
    trace.epoch_wall = float(doc.get("wall0", trace.epoch_wall))
    for index, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != 6:
            raise ValueError(f"span row {index} malformed: {row!r}")
        name, start, end, depth, parent, attrs = row
        if parent is not None and not (0 <= int(parent) < index):
            raise ValueError(f"span row {index} has dangling parent "
                             f"{parent!r}")
        trace.spans.append(SpanRecord(
            str(name), float(start), float(end), int(depth), index,
            None if parent is None else int(parent),
            dict(attrs) if isinstance(attrs, dict) else {}))
    for key, value in (doc.get("counters") or {}).items():
        trace.counters[str(key)] = float(value)
    for key, value in (doc.get("gauge_peaks") or {}).items():
        trace.gauge_peaks[str(key)] = float(value)
    return trace


def graft_trace_doc(trace: Trace, doc: dict, *, parent: int | None = None,
                    tid: int | None = None) -> list[SpanRecord]:
    """Splice a wire-form segment into ``trace`` on the wall-clock timeline.

    The segment's spans are re-indexed, shifted by the difference between
    the two traces' wall epochs, and re-parented: segment roots become
    children of ``parent`` (an index into ``trace.spans``) or roots of
    ``trace`` when ``parent`` is None.  Counters merge additively.
    ``tid`` tags the segment roots with a Chrome lane id — required when
    several time-overlapping segments (concurrent workers) land in one
    trace, so the Chrome exporter keeps their B/E stacks apart.
    Returns the appended records (segment order preserved).
    """
    segment = trace_from_doc(doc)
    offset = segment.epoch_wall - trace.epoch_wall
    base = len(trace.spans)
    base_depth = 0
    if parent is not None:
        if not 0 <= parent < base:
            raise ValueError(f"graft parent {parent} out of range")
        base_depth = trace.spans[parent].depth + 1
    grafted: list[SpanRecord] = []
    for s in segment.spans:
        attrs = dict(s.attrs)
        if tid is not None and s.parent is None:
            attrs["tid"] = tid
        record = SpanRecord(
            s.name, s.start + offset, s.end + offset,
            s.depth + base_depth, base + s.index,
            parent if s.parent is None else base + s.parent,
            attrs)
        trace.spans.append(record)
        grafted.append(record)
    for key, value in segment.counters.items():
        trace.counters[key] = trace.counters.get(key, 0.0) + value
    for key, value in segment.gauge_peaks.items():
        peak = trace.gauge_peaks.get(key)
        if peak is None or value > peak:
            trace.gauge_peaks[key] = value
    return grafted
