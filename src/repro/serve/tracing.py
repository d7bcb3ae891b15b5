"""Stitching per-request traces across the service's process boundary.

One render request touches three execution contexts: the HTTP thread
that admits it, the dispatcher thread that runs it, and the worker
*process* that renders it.  The worker runs the job under its own local
obs trace (:func:`repro.serve.pool._worker_main`) and ships the segment
back as a wire-form doc (:func:`repro.obs.export.trace_to_doc`); this
module rebuilds the request's unified timeline:

* ``serve.request`` — the whole received→finished interval (root);
* ``serve.admit`` — received→admitted: reading the body, the cache
  lookup and, on a miss, validating the schedule; tagged ``cache`` with
  the outcome admission decided (``hit``, ``miss`` or ``off``) and
  ``checked`` with whether the schedule check ran (it runs once per
  distinct schedule bytes);
* ``serve.queue_wait`` — admitted→started (time spent in the
  :class:`~repro.serve.jobqueue.FairQueue`);
* ``serve.worker`` — started→finished, under which the worker's own
  ``render.*`` / ``io.*`` spans are grafted on the wall-clock timeline.

A job answered from the cache at admission has no ``serve.queue_wait``
or ``serve.worker`` span.

Every span inherits the request's trace id: the client's
``X-Jedule-Trace`` value, or one the server minted, which the job
document also carries as ``trace_id``.  The result is an ordinary
:class:`~repro.obs.core.Trace`: exportable as Chrome trace JSON and —
the paper's thesis applied to the tool itself — renderable as a Gantt
via :func:`repro.obs.export.trace_to_schedule`.
"""

from __future__ import annotations

from repro.obs.core import SpanRecord, Trace
from repro.obs.export import graft_trace_doc, trace_to_doc

__all__ = ["stitch_job_trace", "merge_traces"]


def _append_span(trace: Trace, name: str, start: float, end: float, *,
                 parent: int | None = None,
                 attrs: dict | None = None) -> SpanRecord:
    depth = 0 if parent is None else trace.spans[parent].depth + 1
    record = SpanRecord(name, start, max(end, start), depth,
                        len(trace.spans), parent, dict(attrs or {}))
    trace.spans.append(record)
    return record


def stitch_job_trace(job, worker_doc: dict | None = None) -> Trace:
    """One job's unified request trace, anchored at its receipt instant.

    ``job`` is a :class:`~repro.serve.server.Job` that has finished (or
    at least started); ``worker_doc`` is the worker-side span segment
    that came back with the result (``RenderResult.worker_obs``), if
    any.  Timestamps are seconds since ``job.received_at`` (or
    ``job.submitted_at`` for a job without a receipt time, which then
    has no ``serve.admit`` span), which is also the trace's
    ``epoch_wall`` — so grafting lands worker spans at the right offset
    without any clock juggling beyond wall time.
    """
    received = job.received_at if job.received_at is not None \
        else job.submitted_at
    trace = Trace(trace_id=job.trace_id)
    trace.epoch_wall = received
    started = job.started_at if job.started_at is not None \
        else job.submitted_at
    finished = job.finished_at if job.finished_at is not None else started
    t_admitted = max(job.submitted_at - received, 0.0)
    t_started = max(started - received, t_admitted)
    t_finished = max(finished - received, t_started)

    attrs: dict[str, object] = {"job": job.id, "client": job.client,
                                "status": job.status}
    if job.result is not None:
        attrs["cache"] = job.result.cache
        attrs["ok"] = job.result.ok
    root = _append_span(trace, "serve.request", 0.0, t_finished, attrs=attrs)
    if job.received_at is not None:
        _append_span(trace, "serve.admit", 0.0, t_admitted,
                     parent=root.index, attrs={"cache": job.admit_cache,
                                               "checked": job.admit_checked})
    if job.admit_cache == "hit":
        return trace
    _append_span(trace, "serve.queue_wait", t_admitted, t_started,
                 parent=root.index)
    worker = _append_span(trace, "serve.worker", t_started, t_finished,
                          parent=root.index)
    if worker_doc is not None:
        graft_trace_doc(trace, worker_doc, parent=worker.index)
    return trace


def merge_traces(traces, *, trace_id: str | None = None) -> Trace:
    """Several request traces on one wall-clock timeline.

    Concurrent requests overlap, so each input trace is grafted as its
    own Chrome lane (``tid`` 1..n); the merged epoch is the earliest
    input epoch.  Feed the result to ``to_chrome_json`` for a combined
    Chrome trace or to ``trace_to_schedule`` for a service-level Gantt.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("nothing to merge: no traces given")
    merged = Trace(trace_id=trace_id)
    merged.epoch_wall = min(t.epoch_wall for t in traces)
    for lane, trace in enumerate(traces, start=1):
        graft_trace_doc(merged, trace_to_doc(trace), tid=lane)
    return merged
