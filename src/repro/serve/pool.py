"""Warm worker pool: resident render processes fed over pipes.

The batch runner used to pay process spawn + interpreter import for every
invocation; a pool instance pays it **once**.  Each worker process
pre-imports the render stack, then sits in a loop receiving jobs over a
:func:`multiprocessing.Pipe`:

* frame 1 — a JSON header (the plain-payload render request, the cache
  directory, flags);
* frame 2 (optional) — an in-memory schedule as JSON bytes; from the
  render service, the bytes its client sent after the header line,
  which :class:`~repro.serve.client.ServeClient` writes with
  :func:`repro.serve.protocol.canonical_schedule_bytes`.

Nothing is pickled across the boundary.  A request must have a wire
form (:func:`~repro.serve.protocol.request_to_payload`); one that holds
an in-memory style, colormap or viewport fails as its own job, with an
error naming the field.

A worker hashes the schedule bytes as they are for the content-addressed
cache key, so a cache hit costs no parse of the schedule.  The render
service answers hits at admission and sends a worker only the jobs it
could not answer there (see :mod:`repro.serve.server`).

Every job runs through :meth:`WorkerPool.run_on`, which owns the job's
failure policy.  A worker found dead between jobs (OOM killer, an
external kill) is restarted before the job runs.  A worker that dies
mid-job is detected by the broken pipe, restarted, and the job retried
:data:`CRASH_RETRIES` time(s) on it; a worker that exceeds the job's
timeout is killed and restarted, and the job fails.  These restarts
come out of a bounded per-worker budget (a reload's do not), and a
crash, a timeout or an exhausted budget comes back as a failed result,
never as an exception.  The
render service's dispatcher threads (:mod:`repro.serve.server`) each
own one worker slot; the batch runner (:mod:`repro.batch.runner`, via
:func:`shared_pool`) borrows any idle one through
:meth:`WorkerPool.run_request`.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing as mp
import os
import queue as _queue
import threading
import time
import uuid
from collections.abc import Callable
from dataclasses import replace as dc_replace
from time import perf_counter

from repro.batch.runner import execute_with_cache, failed_result
from repro.errors import ReproError, ServeError
from repro.obs import core as _obs
from repro.render.api import RenderRequest, RenderResult
from repro.serve.protocol import (
    request_from_payload,
    request_to_payload,
    result_from_payload,
    result_to_payload,
)

__all__ = [
    "WorkerCrash",
    "WorkerTimeout",
    "WarmWorker",
    "WorkerPool",
    "shared_pool",
    "shutdown_shared_pool",
]

#: Modules a worker imports before accepting its first job, so the first
#: request is as fast as the hundredth.
_PREIMPORT = (
    "repro.io.registry",
    "repro.render.api",
    "repro.render.backends",
    "repro.batch.cache",
    "repro.batch.runner",
    "repro.obs.export",
)

_EXIT_CRASH_HOOK = 23  # worker exit code for the test-only crash hook

#: times :meth:`WorkerPool.run_on` retries a job whose worker crashed, on
#: the restarted worker, before it reports the crash
CRASH_RETRIES = 1


class WorkerCrash(ServeError):
    """A warm worker died while (or before) running a job."""

    def __init__(self, message: str):
        super().__init__(message, code="worker-crash")


class WorkerTimeout(ServeError):
    """A job exceeded its deadline; the worker was killed and replaced."""

    def __init__(self, message: str):
        super().__init__(message, code="worker-timeout")


# --------------------------------------------------------------- worker side
def _execute_job(header: dict, schedule_bytes: bytes | None):
    """Run one job inside a worker; returns (meta dict, data bytes|None)."""
    started = perf_counter()
    cache_dir = header.get("cache_dir")
    request = None
    try:
        request = request_from_payload(header["request"])
        result = execute_with_cache(request, cache_dir,
                                    schedule_bytes=schedule_bytes)
    except ReproError as exc:
        result = failed_result(request, str(exc), cache_dir=cache_dir,
                               started=started)
    except Exception as exc:  # a worker must answer, whatever happened
        result = failed_result(request, f"{type(exc).__name__}: {exc}",
                               cache_dir=cache_dir, started=started)
    return result_to_payload(result), result.data


def _worker_main(conn, debug_hooks: bool = False) -> None:
    """Entry point of one warm worker process."""
    import importlib

    for name in _PREIMPORT:
        importlib.import_module(name)
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            conn.send_bytes(b'{"op":"error","error":"bad job frame"}')
            continue
        op = header.get("op")
        if op == "shutdown":
            return
        if op == "ping":
            conn.send_bytes(json.dumps(
                {"op": "pong", "pid": os.getpid()}).encode("utf-8"))
            continue
        schedule_bytes = conn.recv_bytes() if header.get("schedule") else None
        if debug_hooks and header.get("x_crash"):
            os._exit(_EXIT_CRASH_HOOK)
        if debug_hooks and header.get("x_sleep_s"):
            time.sleep(float(header["x_sleep_s"]))
        trace_id = header.get("trace_id")
        if trace_id:
            # run the job under a local obs trace and ship the span
            # segment back with the result, so the parent can stitch a
            # cross-process request timeline (see repro.serve.tracing)
            from repro.obs import core as _obs_core
            from repro.obs.export import trace_to_doc

            with _obs_core.capture(trace_id=str(trace_id)) as worker_trace:
                meta, data = _execute_job(header, schedule_bytes)
            meta["obs"] = trace_to_doc(worker_trace)
        else:
            meta, data = _execute_job(header, schedule_bytes)
        meta["data"] = data is not None
        conn.send_bytes(json.dumps(meta).encode("utf-8"))
        if data is not None:
            conn.send_bytes(data)


# --------------------------------------------------------------- parent side
class WarmWorker:
    """One resident worker process plus its parent end of the pipe."""

    def __init__(self, ctx, index: int, *, debug_hooks: bool = False):
        self._ctx = ctx
        self.index = index
        self.debug_hooks = debug_hooks
        self.process = None
        self.conn = None
        self.restarts = 0
        self.jobs_done = 0

    def start(self) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        self.process = self._ctx.Process(
            target=_worker_main, args=(child, self.debug_hooks),
            name=f"jedule-warm-{self.index}", daemon=True)
        self.process.start()
        child.close()
        self.conn = parent

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def ping(self, timeout: float = 10.0) -> int:
        """Round-trip the pipe; returns the worker pid."""
        meta, _ = self.run({"op": "ping"}, timeout=timeout)
        return int(meta["pid"])

    def run(self, header: dict, schedule_bytes: bytes | None = None,
            *, timeout: float | None = None):
        """Send one job frame (plus optional schedule bytes); await reply.

        Returns ``(meta, data)``.  Raises :class:`WorkerCrash` when the
        pipe breaks and :class:`WorkerTimeout` when the reply does not
        arrive in time (the caller is expected to kill + restart).
        """
        try:
            self.conn.send_bytes(json.dumps(header).encode("utf-8"))
            if schedule_bytes is not None:
                self.conn.send_bytes(schedule_bytes)
            if timeout is not None and not self.conn.poll(timeout):
                raise WorkerTimeout(
                    f"worker {self.index} (pid {self.pid}) gave no answer "
                    f"within {timeout:g}s")
            raw = self.conn.recv_bytes()
            meta = json.loads(raw.decode("utf-8"))
            data = self.conn.recv_bytes() if meta.get("data") else None
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise WorkerCrash(
                f"worker {self.index} (pid {self.pid}) died: "
                f"{type(exc).__name__}") from exc
        self.jobs_done += 1
        return meta, data

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def stop(self, timeout: float = 5.0) -> None:
        """Polite shutdown; falls back to kill."""
        if self.conn is not None and self.alive:
            try:
                self.conn.send_bytes(b'{"op":"shutdown"}')
            except (OSError, BrokenPipeError):
                pass
        if self.process is not None:
            self.process.join(timeout=timeout)
        self.kill()


def _default_start_method() -> str:
    # fork inherits the parent's already-imported modules (near-free spawn);
    # spawn is the portable fallback and the safe choice once threads exist.
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class WorkerPool:
    """A fixed-size pool of :class:`WarmWorker` with crash replacement.

    :meth:`run_on` runs one job on one worker slot.  The serve
    dispatcher threads each own a slot and call it directly;
    :meth:`run_request` borrows any idle slot for it (the batch runner's
    fan-out, via :meth:`map_requests`).

    ``max_restarts`` bounds crash and timeout restarts *per worker*
    (:meth:`reload` spends none of it).  A dead worker whose
    budget is exhausted is :meth:`retired` and stays dead; once every
    worker is retired the pool is no longer :attr:`usable`, and jobs
    fail at once instead of hanging.
    """

    def __init__(self, workers: int, *, max_restarts: int = 3,
                 debug_hooks: bool = False):
        if workers < 1:
            raise ServeError(f"need >= 1 worker, got {workers}",
                             code="bad-config")
        self._ctx = mp.get_context(_default_start_method())
        self.max_restarts = max_restarts
        self.debug_hooks = debug_hooks
        self._workers: list[WarmWorker] = [
            WarmWorker(self._ctx, i, debug_hooks=debug_hooks)
            for i in range(workers)]
        self._idle: _queue.Queue[int] = _queue.Queue()
        self._lock = threading.Lock()
        self.total_restarts = 0
        self._started = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "WorkerPool":
        with self._lock:
            if self._started:
                return self
            for worker in self._workers:
                worker.start()
                self._idle.put(worker.index)
            self._started = True
        return self

    def ensure_workers(self, n: int) -> None:
        """Grow the pool to at least ``n`` workers (never shrinks)."""
        with self._lock:
            while len(self._workers) < n:
                worker = WarmWorker(self._ctx, len(self._workers),
                                    debug_hooks=self.debug_hooks)
                self._workers.append(worker)
                if self._started:
                    worker.start()
                    self._idle.put(worker.index)

    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def alive_count(self) -> int:
        return sum(1 for w in self._workers if w.alive)

    def worker(self, index: int) -> WarmWorker:
        return self._workers[index]

    def pids(self) -> list[int | None]:
        return [w.pid for w in self._workers]

    def stop(self) -> None:
        with self._lock:
            for worker in self._workers:
                worker.stop()
            self._started = False
            # drop stale idle tokens; a restart repopulates them
            while True:
                try:
                    self._idle.get_nowait()
                except _queue.Empty:
                    break

    def retired(self, index: int) -> bool:
        """Whether slot ``index`` is dead for good: its worker is not
        running and its restart budget is spent."""
        worker = self._workers[index]
        return worker.restarts >= self.max_restarts and not worker.alive

    @property
    def usable(self) -> bool:
        return self._started and not all(
            self.retired(i) for i in range(self.size))

    def restart_worker(self, index: int) -> bool:
        """Kill + respawn one worker, within its restart budget.

        Returns False (and leaves the slot dead, :meth:`retired`) once
        the budget is exhausted — a render input that reliably kills
        workers must not be allowed to respawn-loop the whole pool.
        """
        worker = self._workers[index]
        worker.kill()
        with self._lock:
            if worker.restarts >= self.max_restarts:
                return False
            worker.restarts += 1
            self.total_restarts += 1
        worker.start()
        return True

    def reload(self) -> None:
        """Replace every live worker with a fresh process (SIGHUP).

        A reload is not a crash: it neither spends nor refills any
        worker's restart budget, and a dead worker stays as it is.  Each
        replacement still counts in :attr:`total_restarts`.
        """
        for worker in self._workers:
            if worker.alive:
                worker.kill()
                with self._lock:
                    self.total_restarts += 1
                worker.start()

    # ------------------------------------------------------------ job plumbing
    def run_on(self, index: int, request: RenderRequest, *,
               cache_dir: str | None = None,
               schedule_bytes: bytes | None = None,
               timeout: float | None = None,
               trace_id: str | None = None,
               debug: dict | None = None,
               on_lost: Callable[[ServeError], object] | None = None
               ) -> RenderResult:
        """Run one job on worker slot ``index``; never raises for a job
        failure.

        A dead worker is restarted first, within its budget.  A worker
        that dies during the job is restarted and the job retried
        :data:`CRASH_RETRIES` time(s) on it; one that gives no answer
        within ``timeout`` seconds is killed and restarted, and the job
        fails.  Each lost attempt's :class:`WorkerCrash` or
        :class:`WorkerTimeout` is passed to ``on_lost`` once the slot
        has been restarted.  A timeout, a repeat crash, an exhausted
        restart budget or a request with no wire form comes back as a
        failed result whose ``attempts`` counts the attempts made.

        ``trace_id`` asks the worker to run the job under a local obs
        trace and return its span segment with the result; ``debug``
        adds test-only keys (``x_crash``, ``x_sleep_s``) to the job
        header.
        """
        started = perf_counter()

        def failed(error: str, attempts: int = 1) -> RenderResult:
            return failed_result(request, error, cache_dir=cache_dir,
                                 started=started, attempts=attempts)

        try:
            payload = request_to_payload(request)
        except ValueError as exc:
            return failed(str(exc))
        header = {"op": "render", "cache_dir": cache_dir,
                  "schedule": schedule_bytes is not None,
                  "request": payload, **(debug or {})}
        if trace_id is not None:
            header["trace_id"] = trace_id
        worker = self._workers[index]
        if not worker.alive and not self.restart_worker(index):
            return failed(f"worker {index} is gone: its restart budget of "
                          f"{self.max_restarts} is exhausted")
        attempt = 0
        while True:
            attempt += 1
            try:
                meta, data = worker.run(header, schedule_bytes,
                                        timeout=timeout)
            except (WorkerCrash, WorkerTimeout) as exc:
                restarted = self.restart_worker(index)
                if on_lost is not None:
                    on_lost(exc)
                if isinstance(exc, WorkerTimeout):
                    return failed(f"timed out after {timeout:g}s "
                                  f"(worker killed)", attempt)
                if restarted and attempt <= CRASH_RETRIES:
                    continue
                return failed(f"{exc} (after {attempt} attempt(s))", attempt)
            result = result_from_payload(meta, data)
            return result if attempt == 1 \
                else dc_replace(result, attempts=attempt)

    def run_request(self, request: RenderRequest, *,
                    cache_dir: str | None = None,
                    schedule_bytes: bytes | None = None,
                    timeout: float | None = None,
                    trace_id: str | None = None) -> RenderResult:
        """Run one job through :meth:`run_on` on any idle worker; never
        raises for job failures.

        When the caller is capturing an obs trace, a per-job trace id is
        minted automatically so the result carries the worker's span
        segment (``worker_obs``).
        """
        if trace_id is None and _obs.is_enabled():
            trace_id = uuid.uuid4().hex[:12]
        started = perf_counter()
        try:
            index = self._acquire(timeout=timeout)
        except _queue.Empty:
            return failed_result(request,
                                 f"no idle worker within {timeout:g}s",
                                 cache_dir=cache_dir, started=started)
        except ServeError as exc:  # pool broken: every worker is retired
            return failed_result(request, str(exc), cache_dir=cache_dir,
                                 started=started)
        try:
            return self.run_on(index, request, cache_dir=cache_dir,
                               schedule_bytes=schedule_bytes,
                               timeout=timeout, trace_id=trace_id)
        finally:
            self._idle.put(index)

    def map_requests(self, requests, *, cache_dir: str | None = None,
                     deadline_s: float | None = None,
                     max_parallel: int | None = None) -> list[RenderResult]:
        """Fan a request list across the pool; results keep input order.

        ``deadline_s`` bounds the whole map: jobs still queued when it
        expires come back as timeout failures, and a worker stuck past
        the deadline is killed rather than awaited.
        """
        requests = list(requests)
        results: list[RenderResult | None] = [None] * len(requests)
        deadline = None if deadline_s is None \
            else time.monotonic() + deadline_s
        pending: _queue.SimpleQueue[int] = _queue.SimpleQueue()
        for i in range(len(requests)):
            pending.put(i)

        def feed() -> None:
            while True:
                try:
                    i = pending.get_nowait()
                except _queue.Empty:
                    return
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        results[i] = failed_result(
                            requests[i], f"timed out after {deadline_s:g}s",
                            cache_dir=cache_dir, started=perf_counter())
                        continue
                results[i] = self.run_request(
                    requests[i], cache_dir=cache_dir, timeout=remaining)

        n_threads = min(self.size, len(requests), max_parallel or self.size)
        threads = [threading.Thread(target=feed, daemon=True,
                                    name=f"pool-feed-{t}")
                   for t in range(max(n_threads, 1))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [r if r is not None else
                failed_result(requests[i], "internal: job dropped",
                              cache_dir=cache_dir, started=perf_counter())
                for i, r in enumerate(results)]

    # ------------------------------------------------------------ internals
    def _acquire(self, timeout: float | None) -> int:
        while True:
            if not self.usable:
                raise ServeError("worker pool has no live workers",
                                 code="pool-broken")
            try:
                index = self._idle.get(timeout=timeout if timeout is not None
                                       else 1.0)
            except _queue.Empty:
                if timeout is not None:
                    raise
                continue  # poll usability again, then keep waiting
            if not self.retired(index):
                return index
            # a retired slot's token is dropped: look again


# ------------------------------------------------------------- shared pool
_shared: WorkerPool | None = None
_shared_lock = threading.Lock()


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide warm pool, grown on demand and reused forever.

    Repeated batch runs (or a long-lived embedder) pay worker spawn and
    import cost once, which is exactly the fix for per-invocation pool
    spawning.  The pool is stopped automatically at interpreter exit.
    """
    global _shared
    with _shared_lock:
        if _shared is None or not _shared.usable:
            if _shared is not None:
                _shared.stop()
            _shared = WorkerPool(workers).start()
            atexit.register(shutdown_shared_pool)
        elif _shared.size < workers:
            _shared.ensure_workers(workers)
        return _shared


def shutdown_shared_pool() -> None:
    """Stop the shared pool (tests and interpreter exit)."""
    global _shared
    with _shared_lock:
        if _shared is not None:
            _shared.stop()
            _shared = None
