"""Parallel batch renderer: fan render requests out across warm workers.

The paper's command-line mode exists to mass-produce figures; this runner
makes that cheap and repeatable.  Every batch, ``jobs=1`` and one-job
batches included, runs on the process-wide **warm pool**
(:func:`repro.serve.pool.shared_pool`): resident processes that
pre-import the render stack once and receive jobs over pipes as plain
JSON payloads, not pickled object graphs, so a request must have a wire
form.  Each worker consults the content-addressed
:class:`~repro.batch.cache.RenderCache` first: a hit is a file copy, a
miss renders and populates the cache.  Repeated batch runs in one
process (a test session, a notebook, the render service) reuse the same
workers, so spawn + import cost is paid exactly once; a format
registered after the pool has started is not seen by its workers.

Robustness rules:

* one bad schedule never sinks the batch — the failure is captured in the
  :class:`BatchReport` and every other job still runs;
* jobs that exceed ``timeout_s`` are recorded as failures and their stuck
  worker is killed and respawned instead of abandoned;
* failed jobs are retried up to ``retries`` extra rounds with exponential
  backoff, for transient failures (NFS hiccups, OOM-killed workers —
  a crashed warm worker is restarted within its bounded budget).

The parent process owns observability: the ``batch.run`` and
``batch.retry`` spans, with each job's worker-side spans grafted on a
lane of their own; cache hit/miss counters (``batch.cache.hit`` /
``batch.cache.miss``); and — via :func:`batch_record` — one run-registry
record per batch.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from pathlib import Path
from time import perf_counter

from repro.batch.cache import (
    RenderCache,
    cache_key_from_digest,
    schedule_digest,
    stat_token,
)
from repro.batch.manifest import BatchManifest, load_manifest
from repro.errors import BatchError, ReproError
from repro.obs import core as _obs
from repro.render.api import RenderRequest, RenderResult

__all__ = ["BatchReport", "run_batch", "run_manifest", "batch_record",
           "execute_with_cache", "cached_result", "DEFAULT_CACHE_DIR"]

#: Cache location when a batch asks for caching but names no directory.
DEFAULT_CACHE_DIR = ".jedule-cache"


def _finished(request: RenderRequest, data: bytes, cache: str,
              started: float) -> RenderResult:
    """The result of a request whose output bytes are ``data``; they go
    to ``request.output_path`` when it is set."""
    if request.output_path is not None:
        out = Path(request.output_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(data)
    return RenderResult(
        input_path=request.input_path,
        output_path=request.output_path,
        format=request.resolved_output_format(),
        nbytes=len(data),
        duration_s=perf_counter() - started,
        cache=cache,
        data=None if request.output_path is not None else data,
    )


def failed_result(request: RenderRequest | None, error: str, *,
                  cache_dir: str | None, started: float,
                  attempts: int = 1) -> RenderResult:
    """The result of a request that produced no output, ``error`` saying
    why; ``request`` is ``None`` when it could not even be decoded.

    The one failure path of a render job, whether a worker caught the
    error or the pool gave up on the job (crash, timeout, no worker).
    The format is best effort, and the cache outcome is ``"miss"`` when
    the job had a cache to consult.  ``started`` is the
    :func:`time.perf_counter` instant the job's handling began.
    """
    fmt = "?"
    if request is not None:
        try:
            fmt = request.resolved_output_format()
        except ReproError:
            pass
    return RenderResult(
        input_path=getattr(request, "input_path", None),
        output_path=getattr(request, "output_path", None),
        format=fmt,
        nbytes=0,
        duration_s=perf_counter() - started,
        cache="off" if cache_dir is None else "miss",
        error=error,
        attempts=attempts,
    )


def cached_result(request: RenderRequest, cache: RenderCache, key: str, *,
                  started: float) -> RenderResult | None:
    """The render cache's answer to ``request``, or ``None`` on a miss.

    The one hit path: a warm worker (:func:`execute_with_cache`) and the
    render service's admission both call it.  ``started`` is the
    :func:`time.perf_counter` instant the request's handling began.
    Raises ``OSError`` when ``request.output_path`` cannot be written.
    """
    data = cache.get(key)
    if data is None:
        return None
    return _finished(request, data, "hit", started)


def execute_with_cache(request: RenderRequest,
                       cache_dir: str | None, *,
                       schedule_bytes: bytes | None = None) -> RenderResult:
    """Execute one request through the content-addressed cache.

    This is the warm-worker entry point, and it runs just as well
    in-process.  With ``cache_dir=None`` it degrades to a plain
    :func:`~repro.render.api.execute_request`.

    ``schedule_bytes`` is an in-memory schedule as JSON bytes: the bytes
    the render service's client sent, which for
    :class:`~repro.serve.client.ServeClient` are
    :func:`repro.serve.protocol.canonical_schedule_bytes`, the bytes
    :func:`schedule_digest` hashes.  The cache key hashes them as they
    are, so a repeat request is served without parsing the schedule.

    Spans: ``io.load`` (format ``json``) decodes them, and
    ``batch.cache.digest``, ``.get`` and ``.put`` cover the cache.
    """
    from repro.render.api import execute_request

    def _schedule_from_bytes():
        from repro.serve.protocol import schedule_from_canonical

        with _obs.span("io.load", format="json"):
            return schedule_from_canonical(schedule_bytes)

    started = perf_counter()
    if cache_dir is None:
        return execute_request(
            request, _schedule_from_bytes() if schedule_bytes is not None
            else None)

    cache = RenderCache(cache_dir)
    schedule = None
    if schedule_bytes is not None:
        with _obs.span("batch.cache.digest"):
            digest = hashlib.sha256(schedule_bytes).hexdigest()
    else:
        digest = (cache.digest_hint(request.input_path)
                  if request.input_path else None)
        if digest is None:
            token = stat_token(request.input_path) \
                if request.input_path else None
            schedule = request.load_schedule()
            with _obs.span("batch.cache.digest"):
                digest = schedule_digest(schedule)
            if request.input_path:
                cache.remember_digest(request.input_path, digest, token=token)
    key = cache_key_from_digest(digest, request)
    with _obs.span("batch.cache.get"):
        hit = cached_result(request, cache, key, started=started)
    if hit is not None:
        return hit
    from repro.render.api import render_request_bytes

    if schedule is None:
        schedule = _schedule_from_bytes() if schedule_bytes is not None \
            else request.load_schedule()
    rendered = render_request_bytes(request, schedule)
    with _obs.span("batch.cache.put"):
        cache.put(key, rendered)
    return _finished(request, rendered, "miss", started)


@dataclass
class BatchReport:
    """Outcome of one batch run."""

    results: list[RenderResult] = field(default_factory=list)
    elapsed_s: float = 0.0
    workers: int = 1
    cache_dir: str | None = None
    name: str = "batch"

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> list[RenderResult]:
        return [r for r in self.results if not r.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cache == "hit")

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.results if r.ok and r.cache == "miss")

    def error_table(self) -> str:
        """Human-readable per-job failure table (empty string when ok)."""
        rows = self.failures
        if not rows:
            return ""
        width = max(len(str(r.input_path)) for r in rows)
        lines = [f"{'input':<{width}}  attempts  error"]
        for r in rows:
            lines.append(f"{str(r.input_path):<{width}}  {r.attempts:>8}  {r.error}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        done = len(self.results) - len(self.failures)
        return (f"{self.name}: {done}/{len(self.results)} job(s) ok, "
                f"{self.cache_hits} cache hit(s), "
                f"{self.cache_misses} miss(es), "
                f"{len(self.failures)} failed, "
                f"{self.elapsed_s:.2f}s on {self.workers} worker(s)")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "elapsed_s": self.elapsed_s,
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "jobs": [r.to_json() for r in self.results],
        }


def _record_result(result: RenderResult) -> None:
    if result.cache == "hit":
        _obs.add("batch.cache.hit")
    elif result.ok and result.cache == "miss":
        _obs.add("batch.cache.miss")
    _obs.add("batch.jobs.ok" if result.ok else "batch.jobs.failed")


def _run_pool(requests, cache_dir, jobs, timeout_s,
              report: BatchReport) -> None:
    """Fan requests across the process-wide warm pool.

    The pool outlives this batch: repeated runs reuse the same resident
    workers (the fix for per-invocation spawn + import cost).  A worker
    stuck past the batch deadline is killed and respawned; a crashed
    worker fails only its own job, which the retry rounds of
    :func:`run_batch` may still rescue.
    """
    from repro.serve.pool import shared_pool

    pool = shared_pool(jobs)
    results = pool.map_requests(requests, cache_dir=cache_dir,
                                deadline_s=timeout_s, max_parallel=jobs)
    _graft_worker_segments(results)
    for result in results:
        report.results.append(result)
        _record_result(result)


def _graft_worker_segments(results) -> None:
    """Splice worker-side span segments into the current batch trace.

    Warm-pool workers run each job under a local obs trace whenever the
    parent is capturing (see :mod:`repro.serve.pool`); grafting those
    segments here gives ``jedule batch --trace`` per-job ``render.*`` /
    ``io.*`` stage breakdowns across the process boundary for free.
    Segments of concurrently-run jobs overlap, so each becomes its own
    Chrome lane.
    """
    if not _obs.is_enabled():
        return
    from repro.obs.export import graft_trace_doc

    trace = _obs.current_trace()
    lane = 2  # lane 1 is the parent's own timeline
    for result in results:
        if result.worker_obs is None:
            continue
        try:
            graft_trace_doc(trace, result.worker_obs, tid=lane)
        except ValueError:
            _obs.add("batch.obs.bad_segment")
            continue
        lane += 1


def run_batch(
    requests,
    *,
    jobs: int | None = None,
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    timeout_s: float | None = None,
    retries: int = 1,
    backoff_s: float = 0.25,
    name: str = "batch",
) -> BatchReport:
    """Render a batch of requests, in parallel, through the render cache.

    ``jobs`` defaults to ``os.cpu_count()``; ``timeout_s`` bounds the whole
    batch (per retry round).  Failed jobs are retried up to ``retries``
    extra rounds with exponential backoff.  Never raises for per-job
    failures — inspect ``report.ok`` / ``report.failures``; raises
    :class:`~repro.errors.BatchError` only when the batch itself is
    unrunnable (no requests, bad worker count).
    """
    requests = list(requests)
    if not requests:
        raise BatchError("batch has no render jobs")
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise BatchError(f"need >= 1 worker, got {jobs}")
    if retries < 0:
        raise BatchError(f"retries must be >= 0, got {retries}")
    cache = str(cache_dir) if (use_cache and cache_dir is not None) else None

    report = BatchReport(workers=jobs, cache_dir=cache, name=name)
    started = perf_counter()
    with _obs.span("batch.run", jobs=len(requests), workers=jobs,
                   cache=cache or "off"):
        _run_pool(requests, cache, jobs, timeout_s, report)

        round_no = 0
        while not report.ok and round_no < retries:
            round_no += 1
            time.sleep(backoff_s * (2 ** (round_no - 1)))
            retry_idx = [i for i, r in enumerate(report.results) if not r.ok]
            retry_requests = [requests[i] for i in retry_idx]
            _obs.add("batch.jobs.retried", len(retry_requests))
            sub = BatchReport(workers=jobs, cache_dir=cache)
            with _obs.span("batch.retry", round=round_no,
                           jobs=len(retry_requests)):
                _run_pool(retry_requests, cache, jobs, timeout_s, sub)
            for slot, result in zip(retry_idx, sub.results):
                report.results[slot] = dc_replace(
                    result, attempts=report.results[slot].attempts + 1)
    report.elapsed_s = perf_counter() - started
    _obs.gauge("batch.elapsed_s", report.elapsed_s)
    return report


def run_manifest(
    manifest: BatchManifest | str | Path,
    **kwargs,
) -> BatchReport:
    """Run a parsed (or on-disk) manifest; manifest cache_dir is the default."""
    if not isinstance(manifest, BatchManifest):
        manifest = load_manifest(manifest)
    kwargs.setdefault("cache_dir", manifest.cache_dir or DEFAULT_CACHE_DIR)
    kwargs.setdefault("name", manifest.name)
    return run_batch(manifest.requests, **kwargs)


def batch_record(report: BatchReport, *, suite: str = "batch",
                 trace=None, meta: dict | None = None):
    """Build a run-registry record for one batch (append with ``RunLog``)."""
    from repro.obs.runlog import record_from_trace

    record = record_from_trace(
        suite, report.name, trace,
        timings_s={"batch_elapsed": [report.elapsed_s]},
        meta={"workers": report.workers, "jobs": len(report.results),
              "cache_dir": report.cache_dir,
              "failed": [str(r.input_path) for r in report.failures],
              **(meta or {})})
    # the trace counts per attempt; the report's final outcomes win
    record.counters["batch.cache.hit"] = float(report.cache_hits)
    record.counters["batch.cache.miss"] = float(report.cache_misses)
    record.counters["batch.jobs.ok"] = float(
        len(report.results) - len(report.failures))
    record.counters["batch.jobs.failed"] = float(len(report.failures))
    return record
