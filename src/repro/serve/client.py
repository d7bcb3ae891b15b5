"""Client helper for the render service.

Used by ``jedule submit`` and the e2e tests; plain :mod:`http.client`
with an AF_UNIX variant so the same code talks to a TCP port or a Unix
socket.  Error payloads from the server come back as
:class:`~repro.errors.ServeError` carrying the server's structured
``code``/``field``.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import uuid
from collections import OrderedDict

from repro.errors import ServeError
from repro.render.api import RenderRequest
from repro.serve.protocol import (
    TRACE_HEADER,
    canonical_schedule_bytes,
    frame_submission,
    request_to_payload,
)

__all__ = ["ServeClient", "FINISHED_KEPT"]

#: most finished job documents a client keeps from ``202`` answers (cache
#: hits the server finished at admission) for :meth:`ServeClient.wait`;
#: past it the oldest is dropped, and ``wait`` asks the server for it
FINISHED_KEPT = 256


class _UnixHTTPConnection(http.client.HTTPConnection):
    """HTTP over an AF_UNIX socket path."""

    def __init__(self, socket_path: str, timeout: float | None = None):
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._socket_path)
        self.sock = sock


class ServeClient:
    """Talk to a :class:`~repro.serve.server.RenderServer`.

    Exactly one of ``url`` (``http://host:port``) or ``socket_path``
    must be given.  ``client_id`` becomes the ``X-Jedule-Client`` header
    the server's fair queue keys on.
    """

    def __init__(self, url: str | None = None, *,
                 socket_path: str | None = None,
                 client_id: str | None = None,
                 timeout: float = 30.0):
        if (url is None) == (socket_path is None):
            raise ServeError("give exactly one of url or socket_path",
                             code="bad-config")
        if url is not None and url.startswith("unix:"):
            socket_path, url = url[len("unix:"):], None
        self.url = url
        self.socket_path = socket_path
        self.client_id = client_id
        self.timeout = timeout
        self._finished: OrderedDict[str, dict] = OrderedDict()
        self._finished_lock = threading.Lock()
        if url is not None:
            if not url.startswith("http://"):
                raise ServeError(f"only http:// urls are supported, "
                                 f"got {url!r}", code="bad-config")
            hostport = url[len("http://"):].rstrip("/")
            host, _, port = hostport.partition(":")
            self._host = host
            self._port = int(port or "80")

    # --------------------------------------------------------------- plumbing
    def _connection(self) -> http.client.HTTPConnection:
        if self.socket_path is not None:
            return _UnixHTTPConnection(self.socket_path, timeout=self.timeout)
        return http.client.HTTPConnection(self._host, self._port,
                                          timeout=self.timeout)

    def request(self, method: str, path: str,
                doc: dict | bytes | None = None,
                *, headers: dict | None = None):
        """One round trip; returns ``(status, headers, body)``.

        ``doc`` is the request body: a dict is encoded here as JSON,
        bytes (a framed ``POST /render`` body, say) are sent as they
        are.  ``body`` is a parsed JSON document when
        the response is JSON, raw bytes otherwise.  ``headers``
        adds/overrides request headers (e.g. the ``X-Jedule-Trace``
        trace id).
        """
        body = None
        extra = dict(headers or {})
        headers = {}
        if doc is not None:
            body = doc if isinstance(doc, bytes) \
                else json.dumps(doc).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.client_id:
            headers["X-Jedule-Client"] = self.client_id
        headers.update(extra)
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            ctype = response.headers.get("Content-Type", "")
            if ctype.startswith("application/json"):
                payload = json.loads(payload.decode("utf-8")) if payload \
                    else {}
            return response.status, dict(response.headers), payload
        except (OSError, http.client.HTTPException) as exc:
            raise ServeError(f"cannot reach render service at "
                             f"{self.url or self.socket_path}: {exc}",
                             code="unreachable") from exc
        finally:
            conn.close()

    @staticmethod
    def _raise_for(status: int, body: object) -> None:
        if isinstance(body, dict) and "error" in body:
            err = body["error"]
            raise ServeError(err.get("message", f"HTTP {status}"),
                             code=err.get("code", "error"),
                             field=err.get("field"))
        raise ServeError(f"unexpected HTTP {status} from server",
                         code="http-error")

    # ---------------------------------------------------------------- calls
    def submit(self, request: RenderRequest, *, schedule=None,
               trace_id: str | None = None) -> dict:
        """Submit one job; returns the job document (``id``, ``status``).

        ``schedule`` may be an in-memory :class:`~repro.core.model.Schedule`
        (shipped as its canonical bytes after the header line) for
        input-path-less jobs.  A job the server finished at admission (a
        render-cache hit) comes back ``done``; :meth:`wait` returns that
        document without asking the server again.
        A ``trace_id`` is minted per submission (pass your own to join an
        outer trace) and sent as ``X-Jedule-Trace``; the server threads
        it through queue and worker and exposes the stitched request
        trace at ``/jobs/<id>/trace``.
        Raises :class:`ServeError` — ``queue-full`` carries the server's
        ``Retry-After`` estimate in :attr:`ServeError.retry_after`.
        """
        body = frame_submission(
            {"request": request_to_payload(request)},
            None if schedule is None else canonical_schedule_bytes(schedule))
        if trace_id is None:
            trace_id = uuid.uuid4().hex[:16]
        status, headers, reply = self.request(
            "POST", "/render", body, headers={TRACE_HEADER: trace_id})
        if status != 202:
            try:
                self._raise_for(status, reply)
            except ServeError as exc:
                if status == 429:
                    exc.retry_after = int(headers.get("Retry-After", "1"))
                raise
        job = reply["job"]
        if job["status"] in ("done", "failed"):
            with self._finished_lock:
                self._finished[job["id"]] = job
                while len(self._finished) > FINISHED_KEPT:
                    self._finished.popitem(last=False)
        return job

    def job(self, job_id: str, *, wait: float = 0.0) -> dict:
        """The job document; with ``wait`` > 0 the server holds the reply
        until the job finishes or ``wait`` seconds pass."""
        path = f"/jobs/{job_id}"
        if wait > 0:
            path += f"?wait={wait}"
        status, _, body = self.request("GET", path)
        if status != 200:
            self._raise_for(status, body)
        return body["job"]

    def wait(self, job_id: str, *, timeout: float = 60.0) -> dict:
        """Block until the job finishes; returns the final job document.

        A job whose ``202`` already said it finished is returned at once,
        with no request.  Otherwise the server holds each
        ``GET /jobs/<id>?wait=`` until the job finishes, so the reply
        comes as soon as the result exists.  No request asks for more
        than the time left, nor for more than half the socket timeout,
        so the reply lands well before the socket gives up.
        """
        with self._finished_lock:
            doc = self._finished.pop(job_id, None)
        if doc is not None:
            return doc
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            doc = self.job(job_id, wait=min(left, self.timeout / 2))
            if doc["status"] in ("done", "failed"):
                return doc
            if time.monotonic() >= deadline:
                raise ServeError(f"job {job_id} still {doc['status']} after "
                                 f"{timeout:g}s", code="client-timeout")

    def result_bytes(self, job_id: str) -> bytes | None:
        """Raw output bytes of a finished job (``None`` when the server
        wrote them to the job's ``output_path`` instead)."""
        status, _, body = self.request("GET", f"/jobs/{job_id}/result")
        if status == 200:
            return body
        if status == 204:
            return None
        self._raise_for(status, body)

    def render(self, request: RenderRequest, *, schedule=None,
               timeout: float = 60.0) -> dict:
        """Submit + wait; returns the finished job document."""
        job = self.submit(request, schedule=schedule)
        return self.wait(job["id"], timeout=timeout)

    def job_trace(self, job_id: str, *, chrome: bool = False) -> dict:
        """The stitched request trace of a finished job.

        Returns the wire-form doc (rebuild with
        :func:`repro.obs.export.trace_from_doc`), or a Chrome trace JSON
        document when ``chrome`` is true.
        """
        path = f"/jobs/{job_id}/trace"
        if chrome:
            path += "?format=chrome"
        status, _, body = self.request("GET", path)
        if status != 200:
            self._raise_for(status, body)
        return body if chrome else body["trace"]

    def metricz(self) -> str:
        """The raw /metricz body (Prometheus text exposition format)."""
        status, _, body = self.request("GET", "/metricz")
        if status != 200:
            self._raise_for(status, body)
        return body.decode("utf-8") if isinstance(body, bytes) else str(body)

    def healthz(self) -> dict:
        status, _, body = self.request("GET", "/healthz")
        if status != 200:
            self._raise_for(status, body)
        return body

    def statz(self) -> dict:
        status, _, body = self.request("GET", "/statz")
        if status != 200:
            self._raise_for(status, body)
        return body

    def drain(self) -> dict:
        """Ask the server to drain; returns immediately."""
        status, _, body = self.request("POST", "/drain")
        if status != 200:
            self._raise_for(status, body)
        return body
