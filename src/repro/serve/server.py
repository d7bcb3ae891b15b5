"""The ``jedule serve`` daemon: HTTP front end over the warm pool.

Architecture (all stdlib)::

    HTTP threads            dispatcher threads         worker processes
    ------------            ------------------         ----------------
    POST /render  --put-->  FairQueue  --get-->  [T0]  --pipe-->  [W0]
      | cache hit                                [T1]  --pipe-->  [W1]
      +--> done at admission                      ...              ...
    GET  /jobs/<id>
    GET  /healthz|/statz
    POST /drain

A ``POST /render`` body is a one-line JSON header followed by the
inline schedule's bytes (:func:`repro.serve.protocol.split_submission`).
Admission decides hit or miss before it decodes the schedule: an inline
schedule is keyed by the SHA-256 of the bytes the client sent, an
``input_path`` by the render cache's stat index.  A hit is finished in
the HTTP thread (:func:`repro.batch.runner.cached_result`) and never
queues.  A miss is validated, unless the same bytes passed before, and
queued; one dispatcher thread bound to each warm worker pulls the next
job in round-robin client order, ships
it over the worker's pipe (the same schedule bytes, no pickled graphs),
and files the result under the job id, waking any client blocked in
``GET /jobs/<id>?wait=``.  Backpressure is explicit —
a full queue answers 429 with a ``Retry-After`` estimate — and shutdown
is graceful: ``/drain`` (or SIGTERM) stops admission, finishes every
queued and in-flight job, persists a run-registry record, then exits.
SIGHUP performs a rolling worker restart without dropping the queue.

Observability: every serve count and latency is kept once, in the
:class:`~repro.serve.metrics.Metrics` registry behind ``/metricz``
(:attr:`RenderServer.metrics`).  ``/statz`` and the drain-time runlog
record read their counters and p50/p95/p99 back from it, so all three
agree.  Each request's spans travel with its job and are served by
``GET /jobs/<id>/trace``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import socket
import socketserver
import threading
import time
import uuid
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from urllib.parse import parse_qs, urlsplit

from repro.batch.cache import RenderCache, cache_key_from_digest
from repro.batch.runner import cached_result
from repro.errors import ParseError, ReproError, ServeError
from repro.obs.export import to_chrome_events, trace_from_doc, trace_to_doc
from repro.render.api import RenderRequest, RenderResult
from repro.serve.jobqueue import FairQueue, QueueClosed, QueueFull
from repro.serve.metrics import Metrics
from repro.serve.pool import WorkerPool, WorkerTimeout
from repro.serve.protocol import (
    TRACE_HEADER,
    request_from_payload,
    result_to_payload,
    split_submission,
)
from repro.serve.tracing import stitch_job_trace

__all__ = ["RenderServer", "Job", "CONTENT_TYPES", "MAX_JOB_WAIT_S"]

#: output format -> HTTP content type of /jobs/<id>/result
CONTENT_TYPES = {
    "svg": "image/svg+xml",
    "png": "image/png",
    "ppm": "image/x-portable-pixmap",
    "bmp": "image/bmp",
    "pdf": "application/pdf",
    "eps": "application/postscript",
    "html": "text/html; charset=utf-8",
}

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd request bodies outright

#: longest ``GET /jobs/<id>?wait=<s>`` hold in seconds; a longer ``wait``
#: is cut to this, and the client simply asks again
MAX_JOB_WAIT_S = 30.0


@dataclass
class Job:
    """One submitted render job as it moves queued -> running -> done.

    A render-cache hit is done at admission: it never queues, and its
    ``submitted_at``, ``started_at`` and ``finished_at`` coincide.
    """

    id: str
    client: str
    request: RenderRequest
    schedule_bytes: bytes | None
    status: str = "queued"      # queued | running | done | failed
    submitted_at: float = 0.0   # admitted: answered from the cache or queued
    started_at: float | None = None
    finished_at: float | None = None
    received_at: float | None = None  # POST /render arrived (before its body)
    #: render-cache outcome decided at admission: "hit" (finished there),
    #: "miss" or "off" (queued for a worker)
    admit_cache: str | None = None
    #: whether admission decoded and checked the inline schedule; bytes
    #: that passed the check once are not checked again
    admit_checked: bool = False
    seq: int | None = None      # completion order, for fairness inspection
    result: RenderResult | None = None
    trace_id: str | None = None
    trace_doc: dict | None = None  # stitched request trace (wire form)
    debug: dict | None = None   # extra worker header keys (tests only)
    #: set once the final status is published, after everything it
    #: promises (result, seq, counters, trace) is in place
    published: threading.Event = field(default_factory=threading.Event,
                                       init=False, repr=False, compare=False)

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    def to_payload(self) -> dict:
        doc: dict[str, object] = {
            "id": self.id,
            "client": self.client,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "seq": self.seq,
            "trace_id": self.trace_id,
        }
        if self.result is not None:
            doc["result"] = result_to_payload(self.result)
        return doc


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    app: "RenderServer"


class _UnixHTTPServer(_HTTPServer):
    address_family = socket.AF_UNIX

    def server_bind(self):
        # HTTPServer.server_bind assumes an (host, port) tuple; a Unix
        # path needs only the raw bind.
        socketserver.TCPServer.server_bind(self)
        self.server_name = "unix"
        self.server_port = 0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "jedule-serve"

    @property
    def app(self) -> "RenderServer":
        return self.server.app

    def log_message(self, format, *args):  # route nothing to stderr
        pass

    # ------------------------------------------------------------- helpers
    def _send(self, status: int, body: bytes, content_type: str,
              headers: dict | None = None) -> None:
        """Write one reply: status line, headers and body in one write."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, str(value))
        # end_headers() would write the buffered headers on their own; on
        # a kept-alive connection the body's second write then waits out
        # Nagle plus the client's delayed ACK, about 40 ms.  (HTTP/0.9
        # replies have no headers, hence no buffer.)
        head = getattr(self, "_headers_buffer", None)
        self._headers_buffer = []
        self.wfile.write(b"".join([*head, b"\r\n", body]) if head else body)

    def _send_json(self, status: int, doc: dict,
                   headers: dict | None = None) -> None:
        self._send(status, json.dumps(doc).encode("utf-8"),
                   "application/json", headers)

    def _read_body(self) -> bytes | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return None
        if length < 0 or length > _MAX_BODY:
            return None
        return self.rfile.read(length) if length else b""

    # -------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        split = urlsplit(self.path)
        path = split.path
        if path == "/healthz":
            self._send_json(200, self.app.healthz_payload())
        elif path == "/statz":
            self._send_json(200, self.app.statz_payload())
        elif path == "/metricz":
            self._send(200, self.app.metricz_text().encode("utf-8"),
                       "text/plain; version=0.0.4; charset=utf-8")
        elif path.startswith("/jobs/"):
            parts = path.split("/")
            if len(parts) == 3:
                query = parse_qs(split.query, keep_blank_values=True)
                wait = (query.get("wait") or ["0"])[0]
                try:
                    wait_s = float(wait)
                except ValueError:
                    wait_s = math.nan
                if not 0.0 <= wait_s < math.inf:
                    self._send_json(400, _error(
                        "invalid-value", "wait must be a finite number of "
                        f"seconds >= 0, got {wait!r}", field="wait"))
                    return
                status, doc = self.app.job_payload(parts[2], wait=wait_s)
                self._send_json(status, doc)
            elif len(parts) == 4 and parts[3] == "result":
                status, payload, ctype = self.app.job_result(parts[2])
                if isinstance(payload, bytes):
                    self._send(status, payload, ctype)
                else:
                    self._send_json(status, payload)
            elif len(parts) == 4 and parts[3] == "trace":
                query = parse_qs(split.query)
                fmt = (query.get("format") or [None])[0]
                status, doc = self.app.job_trace_payload(parts[2], fmt=fmt)
                self._send_json(status, doc)
            else:
                self._send_json(404, _error("not-found", "unknown jobs path"))
        else:
            self._send_json(404, _error("not-found", f"no route {path!r}"))

    def do_POST(self) -> None:  # noqa: N802
        received_at = time.time()
        path = urlsplit(self.path).path
        if path == "/render":
            status, payload, headers = self.app.submit_payload(
                self._read_body(),
                client=self.headers.get("X-Jedule-Client") or None,
                trace_id=self.headers.get(TRACE_HEADER) or None,
                received_at=received_at)
            self._send_json(status, payload, headers)
        elif path == "/drain":
            self._send_json(200, self.app.begin_drain())
        else:
            self._send_json(404, _error("not-found", f"no route {path!r}"))


def _error(code: str, message: str, **extra) -> dict:
    return {"error": {"code": code, "message": message, **extra}}


def _parse_submission(body: bytes | None, *, debug_hooks: bool
                      ) -> tuple[dict, RenderRequest, bytes | None]:
    """``(header, request, schedule_bytes)`` of one ``POST /render`` body.

    ``body`` is ``None`` when it was missing or oversized.  Every fault
    in the body outside its inline schedule raises :class:`ServeError`,
    which the server answers with a 400.  ``schedule_bytes`` is the
    inline schedule exactly as sent, not decoded yet
    (:func:`_check_schedule`), or ``None`` for an ``input_path`` job.
    :class:`ServeClient` sends a schedule's canonical bytes, the ones
    ``jedule batch`` keys the render cache by.
    """
    if body is None:
        raise ServeError("missing or oversized body", code="bad-body")
    header, schedule_bytes = split_submission(body)
    allowed = {"request", "client"}
    if debug_hooks:  # test-only worker hooks (x_crash, ...)
        allowed.add("debug")
    unknown = set(header) - allowed
    if unknown:
        raise ServeError(
            f"unknown header field(s): {', '.join(sorted(unknown))}",
            code="unknown-field")
    request = request_from_payload(header.get("request") or {})
    if schedule_bytes is None and request.input_path is None:
        raise ServeError(
            "job needs either request.input_path or an inline schedule",
            code="missing-input", field="input_path")
    return header, request, schedule_bytes


def _check_schedule(schedule_bytes: bytes) -> None:
    """Raise :class:`ServeError` unless ``schedule_bytes`` decode to a
    valid schedule; the model it builds is dropped."""
    from repro.io import json_fmt

    try:
        doc = json.loads(schedule_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"schedule is not JSON: {exc}", code="bad-json",
                         field="schedule") from None
    except RecursionError:
        raise ServeError("schedule is nested too deeply to decode",
                         code="bad-json", field="schedule") from None
    try:
        json_fmt.from_dict(doc, source="<submit>")
    except ParseError as exc:
        raise ServeError(str(exc), code="bad-schedule") from None


def _percentiles(hist) -> dict[str, float]:
    """p50/p95/p99 of one stage histogram; zeros before its first sample."""
    return {label: hist.percentile(q) if hist is not None else 0.0
            for q, label in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99"))}


#: stage histogram family behind /metricz; its ``stage="total"`` series
#: also feeds /statz latency, the drain record and ``Retry-After``
STAGE_FAMILY = "jedule_serve_stage_seconds"

#: the server's own stage labels in pipeline order: receipt -> admitted,
#: admitted -> dispatched, dispatched -> finished, receipt -> finished.
#: A job answered at admission has no queue_wait or worker sample.
SERVER_STAGES = ("admit", "queue_wait", "worker", "total")

#: counter key, as /statz and the drain record name it -> the /metricz
#: counter family (+ labels) that is its only store
_METRIC_MAP: dict[str, tuple[str, dict[str, str] | None]] = {
    "serve.requests": ("jedule_serve_requests_total", None),
    "serve.jobs.submitted": ("jedule_serve_jobs_submitted_total", None),
    "serve.jobs.ok": ("jedule_serve_jobs_total", {"status": "ok"}),
    "serve.jobs.failed": ("jedule_serve_jobs_total", {"status": "failed"}),
    "serve.cache.hit": ("jedule_serve_cache_total", {"outcome": "hit"}),
    "serve.cache.miss": ("jedule_serve_cache_total", {"outcome": "miss"}),
    "serve.cache.off": ("jedule_serve_cache_total", {"outcome": "off"}),
    "serve.rejected.invalid":
        ("jedule_serve_rejected_total", {"reason": "invalid"}),
    "serve.rejected.queue_full":
        ("jedule_serve_rejected_total", {"reason": "queue-full"}),
    "serve.rejected.draining":
        ("jedule_serve_rejected_total", {"reason": "draining"}),
    "serve.worker.timeout":
        ("jedule_serve_worker_failures_total", {"kind": "timeout"}),
    "serve.worker.crash":
        ("jedule_serve_worker_failures_total", {"kind": "crash"}),
    "serve.worker.reload": ("jedule_serve_reloads_total", None),
}


class RenderServer:
    """Long-lived render service over a warm worker pool.

    ``port=0`` binds an ephemeral TCP port (read it back from
    :attr:`port`); ``socket_path`` switches to a Unix domain socket.
    ``debug_hooks`` enables the test-only worker crash/sleep hooks and
    must never be set from user-facing entry points.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 socket_path: str | None = None, workers: int = 2,
                 queue_depth: int = 64, cache_dir: str | None = None,
                 runlog: str | None = None, name: str = "serve",
                 job_timeout_s: float | None = None, keep_jobs: int = 1024,
                 trace_jobs: bool = True, debug_hooks: bool = False):
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.cache_dir = cache_dir
        self.runlog = runlog
        self.name = name
        self.job_timeout_s = job_timeout_s
        self.keep_jobs = keep_jobs
        self.trace_jobs = trace_jobs

        self._pool = WorkerPool(workers, debug_hooks=debug_hooks)
        self._queue = FairQueue(queue_depth)
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._seq = 0
        #: SHA-256 digests of inline schedule bytes that passed
        #: :func:`_check_schedule`, the last ``keep_jobs`` of them
        self._checked: OrderedDict[str, None] = OrderedDict()
        self._checked_lock = threading.Lock()

        self._started_at = time.time()
        self.metrics = self._build_metrics()

        self._gate = threading.Event()   # cleared = dispatch paused
        self._gate.set()
        self._busy = 0
        self._busy_cv = threading.Condition()
        self._parked = 0
        self._parked_cv = threading.Condition()

        self._dispatchers: list[threading.Thread] = []
        self._httpd: _HTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._draining = False
        self._drain_lock = threading.Lock()
        self._done = threading.Event()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "RenderServer":
        self._pool.start()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass
            self._httpd = _UnixHTTPServer(self.socket_path, _Handler,
                                          bind_and_activate=True)
        else:
            self._httpd = _HTTPServer((self.host, self.port), _Handler)
            self.port = self._httpd.server_address[1]
        self._httpd.app = self
        for index in range(self._pool.size):
            thread = threading.Thread(target=self._dispatch, args=(index,),
                                      name=f"serve-dispatch-{index}",
                                      daemon=True)
            thread.start()
            self._dispatchers.append(thread)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="serve-http", daemon=True)
        self._http_thread.start()
        self._started_at = time.time()
        return self

    @property
    def url(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has fully drained and shut down."""
        return self._done.wait(timeout)

    def begin_drain(self) -> dict:
        """Start a graceful drain in the background; returns immediately."""
        threading.Thread(target=self.drain, name="serve-drain",
                         daemon=True).start()
        return {"draining": True, "pending": len(self._queue)}

    def drain(self) -> None:
        """Stop admission, finish queued + in-flight jobs, shut down."""
        with self._drain_lock:
            if self._draining:
                self._done.wait()
                return
            self._draining = True
        self._queue.close()
        self.resume_dispatch()           # a paused server must still drain
        for thread in self._dispatchers:
            thread.join()
        self._write_runlog()
        self._pool.stop()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._done.set()

    def reload(self) -> None:
        """Rolling worker restart (SIGHUP): queue and jobs survive."""
        self.pause_dispatch()
        try:
            with self._busy_cv:
                while self._busy:
                    self._busy_cv.wait()
            self._pool.reload()
            self._count("serve.worker.reload")
        finally:
            self.resume_dispatch()

    def pause_dispatch(self, *, wait: bool = True,
                       timeout: float = 5.0) -> None:
        """Hold dispatchers before their next job (tests, reload).

        With ``wait=True`` (the default) this returns only once every
        idle dispatcher is parked on the gate, so a job submitted after
        the call is guaranteed to stay queued until resume.
        """
        self._gate.clear()
        if not wait:
            return
        deadline = time.monotonic() + timeout
        with self._parked_cv:
            while self._parked + self._busy < \
                    sum(1 for t in self._dispatchers if t.is_alive()):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._parked_cv.wait(remaining):
                    break

    def resume_dispatch(self) -> None:
        self._gate.set()

    # ------------------------------------------------------------ dispatch
    def _dispatch(self, index: int) -> None:
        """Feed worker slot ``index`` from the queue until drained.

        A slot whose restart budget is spent leaves the queue to the
        live ones.  Once no slot is left, the last dispatcher stays and
        every job it takes fails at once (``run_on`` answers for a
        retired slot), so no admitted job waits for a worker that will
        never come.
        """
        while True:
            if not self._gate.is_set():
                with self._parked_cv:
                    self._parked += 1
                    self._parked_cv.notify_all()
                self._gate.wait()
                with self._parked_cv:
                    self._parked -= 1
            if self._pool.retired(index) and self._pool.usable:
                return
            try:
                job = self._queue.get(timeout=0.2)
            except QueueClosed:
                return
            if job is None:
                continue
            with self._busy_cv:
                self._busy += 1
            try:
                self._run_job(index, job)
            finally:
                with self._busy_cv:
                    self._busy -= 1
                    self._busy_cv.notify_all()

    def _run_job(self, index: int, job: Job) -> None:
        job.started_at = time.time()
        job.status = "running"
        self._observe("queue_wait", job.started_at - job.submitted_at)
        result = self._pool.run_on(
            index, job.request, cache_dir=self.cache_dir,
            schedule_bytes=job.schedule_bytes, timeout=self.job_timeout_s,
            trace_id=job.trace_id, debug=job.debug,
            on_lost=self._count_lost_attempt)
        job.finished_at = time.time()
        self._observe("worker", job.finished_at - job.started_at)
        self._finish(job, result)

    def _finish(self, job: Job, result: RenderResult) -> None:
        """Publish a finished job, from a worker or from admission.

        Its admit and total stage samples, its counters and its stitched
        trace are all in place before its final status is published.
        """
        job.result = result
        with self._jobs_lock:
            self._seq += 1
            job.seq = self._seq
        status = "done" if result.ok else "failed"
        self._observe("admit", job.submitted_at - job.received_at)
        self._observe("total", job.finished_at - job.received_at)
        self._count("serve.jobs.ok" if result.ok else "serve.jobs.failed")
        if result.cache in ("hit", "miss", "off"):
            self._count(f"serve.cache.{result.cache}")
        if result.ok and result.nbytes:
            self.metrics.inc("jedule_serve_bytes_rendered_total",
                             result.nbytes)
        if job.trace_id is not None:
            self._stitch(job, status, result)
        # publish last: a client that sees the final status must find
        # the trace and the counters that go with it
        job.status = status
        job.published.set()

    def _observe(self, stage: str, seconds: float) -> None:
        self.metrics.observe(STAGE_FAMILY, max(seconds, 0.0),
                             labels={"stage": stage})

    def _stitch(self, job: Job, status: str, result: RenderResult) -> None:
        """Unify server-side intervals with the worker's span segment.

        The trace records the final ``status``, which ``job`` itself
        publishes only once the trace is attached.
        """
        final = dc_replace(job, status=status)
        try:
            trace = stitch_job_trace(final, result.worker_obs)
        except ValueError:
            # corrupt worker segment: keep the server-side view at least
            trace = stitch_job_trace(final, None)
        # worker-side root spans (the children of serve.worker) become
        # latency stages on /metricz
        worker = {s.index for s in trace.spans if s.name == "serve.worker"}
        for s in trace.spans:
            if s.parent in worker:
                self._observe(s.name, s.duration)
        job.trace_doc = trace_to_doc(trace)

    def _count_lost_attempt(self, exc: Exception) -> None:
        self._count("serve.worker.timeout" if isinstance(exc, WorkerTimeout)
                    else "serve.worker.crash")

    def _count(self, name: str) -> None:
        family, labels = _METRIC_MAP[name]
        self.metrics.inc(family, labels=labels)

    def _build_metrics(self) -> Metrics:
        """Declare every /metricz family (gauges read live at scrape)."""
        m = Metrics()
        m.gauge("jedule_serve_uptime_seconds",
                "Seconds since the service started.",
                lambda: time.time() - self._started_at)
        m.gauge("jedule_serve_draining",
                "1 while the service is draining, else 0.",
                lambda: 1.0 if self._draining else 0.0)
        m.gauge("jedule_serve_queue_depth",
                "Jobs currently queued.", lambda: len(self._queue))
        m.gauge("jedule_serve_queue_capacity",
                "Maximum queue depth before 429s.",
                lambda: self._queue.maxsize)
        m.gauge("jedule_serve_queue_peak",
                "High-water mark of the queue depth.",
                lambda: self._queue.peak_depth)
        m.gauge("jedule_serve_workers",
                "Size of the warm worker pool.", lambda: self._pool.size)
        m.gauge("jedule_serve_workers_alive",
                "Workers currently alive.", lambda: self._pool.alive_count)
        m.counter("jedule_serve_worker_restarts_total",
                  "Worker processes restarted after crash/timeout/reload.",
                  fn=lambda: self._pool.total_restarts)
        m.counter("jedule_serve_requests_total",
                  "POST /render requests, whatever the answer.")
        m.counter("jedule_serve_jobs_submitted_total",
                  "Jobs admitted to the queue (202 answers).")
        m.counter("jedule_serve_jobs_total",
                  "Finished jobs by status (ok|failed).")
        m.counter("jedule_serve_cache_total",
                  "Finished jobs by render-cache outcome (hit|miss|off).")
        m.counter("jedule_serve_rejected_total",
                  "Rejected submissions by reason "
                  "(queue-full|invalid|draining).")
        m.counter("jedule_serve_worker_failures_total",
                  "Job attempts lost to a worker crash or timeout.")
        m.counter("jedule_serve_reloads_total",
                  "Rolling worker restarts (SIGHUP reloads).")
        m.counter("jedule_serve_bytes_rendered_total",
                  "Total output bytes produced by successful jobs.")
        m.histogram(STAGE_FAMILY,
                    "Per-stage job latency in seconds (stage label: "
                    "admit|queue_wait|worker|total plus worker-side root "
                    "spans).")
        return m

    def metricz_text(self) -> str:
        """The /metricz body (Prometheus text exposition format)."""
        return self.metrics.render()

    # ------------------------------------------------------------ endpoints
    def submit_payload(self, body: bytes | None, *, received_at: float,
                       client: str | None = None,
                       trace_id: str | None = None):
        """One ``POST /render`` answer: ``(status, payload, headers)``.

        ``body`` is the raw request body, ``None`` when it was missing or
        oversized; ``received_at`` is the wall-clock instant the request
        arrived, before its body was read.  Each call counts one
        ``serve.requests`` and then exactly one of
        ``serve.jobs.submitted`` or ``serve.rejected.*``.  A render-cache
        hit is finished here and answered ``202`` with status ``done``;
        it never enters the queue, so a full queue does not refuse it.
        ``trace_id`` is the client-minted ``X-Jedule-Trace`` value; when
        absent (and job tracing is on) the server mints one, so every
        admitted job has a stitched request trace either way.
        """
        self._count("serve.requests")
        if self._draining:
            self._count("serve.rejected.draining")
            return 503, _error("draining", "server is draining"), {}
        try:
            header, request, schedule_bytes = _parse_submission(
                body, debug_hooks=self._pool.debug_hooks)
            digest = None if schedule_bytes is None \
                else hashlib.sha256(schedule_bytes).hexdigest()
            hit = self._cached_answer(request, digest)
            checked = hit is None and digest is not None \
                and self._check_once(digest, schedule_bytes)
        except ServeError as exc:
            self._count("serve.rejected.invalid")
            return 400, {"error": exc.to_payload()}, {}

        debug = header.get("debug") if self._pool.debug_hooks else None
        if self.trace_jobs and trace_id is None:
            trace_id = uuid.uuid4().hex[:16]
        if hit is not None:
            admit_cache, schedule_bytes = "hit", None
        else:
            admit_cache = "off" if self.cache_dir is None else "miss"
        admitted = time.time()
        job = Job(id=uuid.uuid4().hex[:12],
                  client=client or str(header.get("client") or "anon"),
                  request=request, schedule_bytes=schedule_bytes,
                  submitted_at=admitted, received_at=received_at,
                  admit_cache=admit_cache, admit_checked=checked,
                  trace_id=trace_id if self.trace_jobs else None,
                  debug=dict(debug) if isinstance(debug, dict) else None)
        if hit is not None:
            job.started_at = job.finished_at = admitted
            self._finish(job, hit)
            depth = len(self._queue)
        else:
            try:
                depth = self._queue.put(job, client=job.client)
            except (QueueFull, QueueClosed) as exc:
                if isinstance(exc, QueueFull):
                    self._count("serve.rejected.queue_full")
                    return (429, {"error": exc.to_payload()},
                            {"Retry-After": self._retry_after()})
                self._count("serve.rejected.draining")
                return 503, _error("draining", "server is draining"), {}
        with self._jobs_lock:
            self._jobs[job.id] = job
            self._prune_jobs()
        self._count("serve.jobs.submitted")
        return 202, {"job": job.to_payload(), "queue_depth": depth}, {}

    def _cached_answer(self, request: RenderRequest,
                       digest: str | None) -> RenderResult | None:
        """The render cache's answer at admission, or ``None`` to queue.

        An inline schedule is keyed by ``digest``, the SHA-256 of the
        bytes the client sent, an ``input_path`` (``digest`` is ``None``)
        by the digest the workers record in the cache's stat index.
        Nothing is decoded.  Only bytes a validated schedule was rendered
        from are ever keyed, so an invalid schedule cannot hit.  Whatever
        fails here (an input with no stat entry, a missing style or cmap
        file, an ``output_path`` that cannot be written) queues the job,
        and the worker answers it as it always has.
        """
        if self.cache_dir is None:
            return None
        started = perf_counter()
        cache = RenderCache(self.cache_dir)
        try:
            if digest is None:
                digest = cache.digest_hint(request.input_path)
                if digest is None:
                    return None
            return cached_result(request, cache,
                                 cache_key_from_digest(digest, request),
                                 started=started)
        except (ReproError, OSError, ValueError):
            return None

    def _check_once(self, digest: str, schedule_bytes: bytes) -> bool:
        """Run :func:`_check_schedule` unless bytes of this ``digest``
        passed it before; True when it ran.  Only bytes that pass are
        recorded, so a bad schedule is checked, and refused, every time
        it is sent.  The record keeps the last ``keep_jobs`` digests."""
        with self._checked_lock:
            if digest in self._checked:
                self._checked.move_to_end(digest)
                return False
        _check_schedule(schedule_bytes)
        with self._checked_lock:
            self._checked[digest] = None
            while len(self._checked) > max(self.keep_jobs, 0):
                self._checked.popitem(last=False)
        return True

    def _prune_jobs(self) -> None:
        # caller holds _jobs_lock; drop oldest *finished* jobs beyond cap
        excess = len(self._jobs) - self.keep_jobs
        if excess <= 0:
            return
        for job_id in [j.id for j in self._jobs.values()
                       if j.finished][:excess]:
            del self._jobs[job_id]

    def _retry_after(self) -> int:
        total = self.metrics.stage_histogram(STAGE_FAMILY, "total")
        avg = total.mean if total is not None else 1.0
        backlog = len(self._queue) * avg / max(self._pool.alive_count, 1)
        return max(1, min(60, math.ceil(backlog)))

    def job_payload(self, job_id: str, *, wait: float = 0.0):
        """The job document, after up to ``wait`` seconds (capped at
        :data:`MAX_JOB_WAIT_S`) spent waiting for the job to finish."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            return 404, _error("unknown-job", f"no job {job_id!r}")
        if wait > 0:
            job.published.wait(min(wait, MAX_JOB_WAIT_S))
        return 200, {"job": job.to_payload()}

    def job_result(self, job_id: str):
        """Raw result bytes: ``(status, bytes-or-error-doc, content_type)``."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            return 404, _error("unknown-job", f"no job {job_id!r}"), ""
        if not job.finished:
            return (409, _error("not-finished",
                                f"job is {job.status}", status=job.status), "")
        if job.status == "failed":
            return (410, {"error": {"code": "job-failed",
                                    "message": job.result.error or "failed"},
                          "job": job.to_payload()}, "")
        data = job.result.data
        if data is None and job.result.output_path:
            try:
                data = Path(job.result.output_path).read_bytes()
            except OSError:
                data = None
        if data is None:
            return 204, b"", "application/octet-stream"
        ctype = CONTENT_TYPES.get(job.result.format,
                                  "application/octet-stream")
        return 200, data, ctype

    def job_trace_payload(self, job_id: str, *, fmt: str | None = None):
        """The stitched request trace: wire doc, or Chrome trace JSON."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            return 404, _error("unknown-job", f"no job {job_id!r}")
        if job.trace_doc is None:
            if not job.finished:
                return 409, _error("not-finished", f"job is {job.status}",
                                   status=job.status)
            return 404, _error("no-trace",
                               "job has no stitched trace "
                               "(server started with tracing disabled?)")
        if fmt == "chrome":
            events = to_chrome_events(trace_from_doc(job.trace_doc))
            return 200, {"traceEvents": events, "displayTimeUnit": "ms"}
        if fmt not in (None, "doc"):
            return 400, _error("bad-format",
                               f"unknown trace format {fmt!r} "
                               f"(expected 'doc' or 'chrome')")
        return 200, {"trace": job.trace_doc}

    def healthz_payload(self) -> dict:
        return {
            "ok": self._pool.alive_count > 0 and not self._draining,
            "workers": self._pool.size,
            "workers_alive": self._pool.alive_count,
            "draining": self._draining,
            "queue_depth": len(self._queue),
        }

    def _stage_summary(self, stage: str) -> dict[str, float]:
        """p50/p95/p99 and sample count of one stage histogram."""
        hist = self.metrics.stage_histogram(STAGE_FAMILY, stage)
        return {**_percentiles(hist),
                "count": hist.count if hist is not None else 0}

    def statz_payload(self) -> dict:
        stages = {stage: self._stage_summary(stage)
                  for stage in SERVER_STAGES}
        with self._jobs_lock:  # at most keep_jobs entries, plus in flight
            states = Counter(job.status for job in self._jobs.values())
        return {
            "uptime_s": time.time() - self._started_at,
            "draining": self._draining,
            "queue": {
                "depth": len(self._queue),
                "capacity": self._queue.maxsize,
                "peak": self._queue.peak_depth,
                "by_client": self._queue.depth_by_client(),
            },
            "workers": {
                "total": self._pool.size,
                "alive": self._pool.alive_count,
                "restarts": self._pool.total_restarts,
            },
            "jobs": dict(states),
            "counters": self.metrics.counter_values(_METRIC_MAP),
            "latency_s": stages["total"],
            "stages_s": stages,
        }

    # ------------------------------------------------------------- runlog
    def _write_runlog(self) -> None:
        if not self.runlog:
            return
        from repro.obs.runlog import RunLog, record_from_trace

        counters = self.metrics.counter_values(_METRIC_MAP)
        # the drain record ALWAYS carries the whole-job percentiles and
        # every per-stage section, zeros included — consumers (CI, the
        # regress gate) must never have to guard against missing keys
        timings_s: dict[str, list[float]] = {}
        for stage in SERVER_STAGES:
            hist = self.metrics.stage_histogram(STAGE_FAMILY, stage)
            for label, value in _percentiles(hist).items():
                timings_s[f"{stage}_{label}"] = [value]
        # the whole-job percentiles are the total stage's
        for label in ("p50", "p95", "p99"):
            timings_s[label] = timings_s[f"total_{label}"]
        record = record_from_trace(
            "serve", self.name, timings_s=timings_s,
            meta={"workers": self._pool.size,
                  "queue_depth": self._queue.maxsize,
                  "queue_peak": self._queue.peak_depth,
                  "cache_dir": self.cache_dir,
                  "restarts": self._pool.total_restarts,
                  "jobs": int(counters["serve.jobs.submitted"])})
        record.counters = counters
        RunLog(self.runlog).append(record)
