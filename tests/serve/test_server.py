"""End-to-end tests of the render service over real HTTP."""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import socket
import statistics
import sys
import threading
import time
import warnings
from contextlib import contextmanager

import pytest

import repro.serve.client as client_module
import repro.serve.server as server_module
from repro.batch.cache import schedule_digest
from repro.errors import ServeError
from repro.io.json_fmt import to_dict
from repro.obs.export import trace_from_doc
from repro.render.api import RenderRequest, execute_request
from repro.serve.client import ServeClient
from repro.serve.metrics import parse_prometheus_text
from repro.serve.protocol import (
    canonical_schedule_bytes,
    frame_submission,
    request_to_payload,
    split_submission,
)
from repro.serve.server import RenderServer


@contextmanager
def serving(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("port", 0)  # ephemeral
    server = RenderServer(**kwargs).start()
    try:
        yield server
    finally:
        server.drain()
        assert server.wait(timeout=30)


def _request(**kwargs):
    kwargs.setdefault("output_format", "svg")
    kwargs.setdefault("width", 320)
    kwargs.setdefault("height", 240)
    return RenderRequest(**kwargs)


def _body(schedule, **header) -> bytes:
    """A framed POST /render body: ``header`` with an svg request by
    default, then ``schedule``'s canonical bytes."""
    header.setdefault("request", {"output_format": "svg"})
    return frame_submission(header, canonical_schedule_bytes(schedule))


def test_submit_poll_result_matches_direct_render(tmp_path, simple_schedule):
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        client = ServeClient(server.url, client_id="t1")
        request = _request()
        job = client.render(request, schedule=simple_schedule)
        assert job["status"] == "done"
        assert job["result"]["cache"] == "miss"
        served = client.result_bytes(job["id"])
        direct = execute_request(request, simple_schedule)
        assert served == direct.data

        again = client.render(request, schedule=simple_schedule)
        assert again["result"]["cache"] == "hit"
        assert client.result_bytes(again["id"]) == direct.data


def test_file_input_written_to_output_path(tmp_path, simple_schedule):
    from repro.io import save_schedule

    src = tmp_path / "s.jed"
    save_schedule(simple_schedule, src)
    out = tmp_path / "out" / "s.svg"
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        client = ServeClient(server.url)
        job = client.render(RenderRequest(input_path=str(src),
                                          output_path=str(out)))
        assert job["status"] == "done"
        assert out.stat().st_size == job["result"]["bytes"] > 0
        assert client.result_bytes(job["id"]) == out.read_bytes()


def test_output_path_result_is_read_without_leaking_the_file(
        tmp_path, simple_schedule):
    out = tmp_path / "out" / "s.svg"
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        job = client.render(_request(output_path=str(out)),
                            schedule=simple_schedule)
        assert job["status"] == "done"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, data, _ = server.job_result(job["id"])
        assert status == 200 and data == out.read_bytes()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)], caught


def test_unix_socket_transport(tmp_path, simple_schedule):
    sock = str(tmp_path / "jedule.sock")
    with serving(socket_path=sock, cache_dir=None) as server:
        assert server.url == f"unix:{sock}"
        client = ServeClient(socket_path=sock)
        assert client.healthz()["ok"] is True
        job = client.render(_request(), schedule=simple_schedule)
        assert job["status"] == "done"


def test_queue_full_answers_429_with_retry_after(tmp_path, simple_schedule):
    with serving(queue_depth=2, cache_dir=None) as server:
        server.pause_dispatch()
        client = ServeClient(server.url, client_id="flood")
        queued = [client.submit(_request(), schedule=simple_schedule)
                  for _ in range(2)]
        with pytest.raises(ServeError) as err:
            client.submit(_request(), schedule=simple_schedule)
        assert err.value.code == "queue-full"
        assert err.value.retry_after >= 1
        server.resume_dispatch()
        # the rejected submit succeeds once the queue drains
        for doc in queued:
            client.wait(doc["id"], timeout=60.0)
        job = client.render(_request(), schedule=simple_schedule,
                            timeout=60.0)
        assert job["status"] == "done"


def test_fairness_between_competing_clients(tmp_path, simple_schedule):
    with serving(cache_dir=None, queue_depth=16) as server:
        server.pause_dispatch()
        greedy = ServeClient(server.url, client_id="greedy")
        modest = ServeClient(server.url, client_id="modest")
        greedy_jobs = [greedy.submit(_request(), schedule=simple_schedule)
                       for _ in range(4)]
        modest_jobs = [modest.submit(_request(), schedule=simple_schedule)
                       for _ in range(2)]
        assert server.statz_payload()["queue"]["by_client"] == {
            "greedy": 4, "modest": 2}
        server.resume_dispatch()
        greedy_seq = [greedy.wait(j["id"])["seq"] for j in greedy_jobs]
        modest_seq = [modest.wait(j["id"])["seq"] for j in modest_jobs]
        # round-robin: modest's 2 jobs finish 2nd and 4th, not 5th and 6th —
        # they never wait behind the whole greedy backlog
        assert sorted(modest_seq) == [2, 4]
        assert sorted(greedy_seq) == [1, 3, 5, 6]


def test_drain_completes_inflight_and_queued_jobs(tmp_path, simple_schedule):
    with serving(cache_dir=None, debug_hooks=True) as server:
        client = ServeClient(server.url)
        payload = _body(simple_schedule, debug={"x_sleep_s": 0.4})
        slow = client.request("POST", "/render", payload)[2]["job"]
        queued = [client.submit(_request(), schedule=simple_schedule)
                  for _ in range(2)]
        server.drain()
        assert server.wait(timeout=30)
        for doc in [slow] + queued:
            job = server._jobs[doc["id"]]
            assert job.status == "done", (job.status, job.result)


def test_draining_server_refuses_new_jobs(tmp_path, simple_schedule):
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        server._draining = True  # simulate the window before shutdown
        with pytest.raises(ServeError) as err:
            client.submit(_request(), schedule=simple_schedule)
        assert err.value.code == "draining"
        server._draining = False


def test_worker_crash_retried_once_then_reported(tmp_path, simple_schedule):
    with serving(cache_dir=None, debug_hooks=True) as server:
        client = ServeClient(server.url)
        payload = _body(simple_schedule, debug={"x_crash": True})
        status, _, body = client.request("POST", "/render", payload)
        assert status == 202
        job = client.wait(body["job"]["id"], timeout=60.0)
        assert job["status"] == "failed"
        assert job["result"]["attempts"] == 2  # retried once, then reported
        assert "died" in job["result"]["error"]
        # the crash did not poison the service: a normal job still runs
        ok = client.render(_request(), schedule=simple_schedule)
        assert ok["status"] == "done"
        assert server.statz_payload()["workers"]["restarts"] >= 2
        # each lost attempt is counted once, on both surfaces
        assert client.statz()["counters"]["serve.worker.crash"] == 2
        metricz = parse_prometheus_text(client.metricz())
        assert metricz["jedule_serve_worker_failures_total"][
            (("kind", "crash"),)] == 2


def test_worker_killed_between_jobs_is_restarted(tmp_path, simple_schedule):
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        assert client.render(_request(),
                             schedule=simple_schedule)["status"] == "done"
        worker = server._pool.worker(0)
        os.kill(worker.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while worker.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        job = client.render(_request(), schedule=simple_schedule,
                            timeout=30.0)
        assert job["status"] == "done", job
        assert server.statz_payload()["workers"] == {
            "total": 1, "alive": 1, "restarts": 1}


def test_broken_pool_fails_every_admitted_job(tmp_path, simple_schedule):
    """Once crashes spend the last worker's restart budget, every job
    still queued and every job admitted later ends failed, and a drain
    leaves none queued or running."""
    with serving(cache_dir=None, debug_hooks=True) as server:
        client = ServeClient(server.url)
        server.pause_dispatch()
        crash = _body(simple_schedule, debug={"x_crash": True})
        ids = [client.request("POST", "/render", crash)[2]["job"]["id"]
               for _ in range(2)]
        ids.append(client.submit(_request(), schedule=simple_schedule)["id"])
        server.resume_dispatch()
        jobs = [client.wait(job_id, timeout=30.0) for job_id in ids]
        assert [job["status"] for job in jobs] == ["failed"] * 3
        assert not server._pool.usable
        started = time.monotonic()
        later = client.render(_request(), schedule=simple_schedule,
                              timeout=10.0)
        assert later["status"] == "failed"
        assert time.monotonic() - started < 5.0
        for job in (jobs[2], later):
            assert "restart budget" in job["result"]["error"], job
    assert {job.status for job in server._jobs.values()} == {"failed"}
    assert server.statz_payload()["jobs"] == {"failed": 4}


def test_validation_errors_are_structured_400s(tmp_path, simple_schedule):
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        cases = [
            ({"request": {"width": float("nan")}}, "invalid-value"),
            ({"request": {"width": -3}}, "invalid-dimension"),
            ({"request": {"output_format": "tiff"}}, "unknown-format"),
            ({"request": {"bogus": 1}}, "unknown-field"),
            ({"request": {}}, "missing-input"),
            (frame_submission({"request": {}}, b'{"tasks": "nope"}'),
             "bad-schedule"),
            (frame_submission({"request": {}}, b"[1, 2]"), "bad-schedule"),
            ({"debug": {"x_crash": True}}, "unknown-field"),  # hooks off
        ]
        for payload, code in cases:
            status, _, body = client.request("POST", "/render", payload)
            assert status == 400, (payload, body)
            assert body["error"]["code"] == code, (payload, body)


#: one POST /render per kind of 400:
#: (body, extra headers, error code, error field)
_BAD_SUBMISSIONS = [
    (None, {"Content-Length": "abc"}, "bad-body", None),
    (b"{not json", None, "bad-json", None),
    (b"[]", None, "bad-body", None),
    (b'[]\n{"clusters": [], "tasks": []}', None, "bad-body", None),
    ({"bogus": 1}, None, "unknown-field", None),
    ({"request": {"bogus": 1}}, None, "unknown-field", "bogus"),
    ({"request": {}}, None, "missing-input", "input_path"),
    # the one-document body of earlier versions
    ({"request": {}, "schedule": {"clusters": [], "tasks": []}}, None,
     "unknown-field", "schedule"),
    (frame_submission({"request": {}}, b"\xff\xfe{}"), None, "bad-json",
     "schedule"),
    (frame_submission({"request": {}}, b"{not json"), None, "bad-json",
     "schedule"),
    (frame_submission({"request": {}}, b"[1, 2]"), None, "bad-schedule",
     None),
    # a value the schedule reader cannot convert
    (frame_submission({"request": {}}, b'{"clusters": [{"id": "0", '
                      b'"hosts": 2}], "tasks": [{"id": "1", "type": "x", '
                      b'"start": "abc", "end": 1, "configurations": '
                      b'[{"cluster": "0", "ranges": [[0, 1]]}]}]}'), None,
     "bad-schedule", None),
]


def _send_bad_submissions(client, after_each=lambda: None):
    for body, headers, code, field in _BAD_SUBMISSIONS:
        status, _, reply = client.request("POST", "/render", body,
                                          headers=headers)
        assert status == 400 and reply["error"]["code"] == code, \
            (body, reply)
        assert reply["error"].get("field") == field, (body, reply)
        after_each()


def _flood_past_a_full_queue(server, client, schedule,
                             after_each=lambda: None):
    """One 202 that fills a one-slot queue, then one 429."""
    server.pause_dispatch()
    job = client.submit(_request(), schedule=schedule)
    after_each()
    with pytest.raises(ServeError) as err:
        client.submit(_request(), schedule=schedule)
    assert err.value.code == "queue-full"
    after_each()
    server.resume_dispatch()
    return client.wait(job["id"], timeout=60.0)


def test_every_render_answer_is_counted_once(tmp_path, simple_schedule):
    answers = 0

    def balanced():
        nonlocal answers
        answers += 1
        counters = server.statz_payload()["counters"]
        rejected = sum(value for key, value in counters.items()
                       if key.startswith("serve.rejected."))
        assert counters["serve.requests"] == answers == \
            counters["serve.jobs.submitted"] + rejected, counters
        parsed = parse_prometheus_text(server.metricz_text())
        assert parsed["jedule_serve_requests_total"][()] == \
            parsed["jedule_serve_jobs_submitted_total"][()] \
            + sum(parsed["jedule_serve_rejected_total"].values())

    with serving(cache_dir=None, queue_depth=1) as server:
        client = ServeClient(server.url)
        _send_bad_submissions(client, balanced)
        _flood_past_a_full_queue(server, client, simple_schedule, balanced)
        server._draining = True  # simulate the window before shutdown
        with pytest.raises(ServeError) as err:
            client.submit(_request(), schedule=simple_schedule)
        assert err.value.code == "draining"
        balanced()
        server._draining = False
        counters = server.statz_payload()["counters"]
        assert counters["serve.rejected.invalid"] == len(_BAD_SUBMISSIONS)
        assert counters["serve.jobs.submitted"] == 1
        assert counters["serve.rejected.queue_full"] == 1
        assert counters["serve.rejected.draining"] == 1


def test_deeply_nested_body_is_a_counted_400(tmp_path):
    depth = 100_000
    nested = b"[" * depth + b"]" * depth
    bodies = [(frame_submission({"request": {}}, nested), "schedule"),
              (b'{"request": ' + nested + b"}", None)]
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        for body, field in bodies:
            status, _, reply = client.request("POST", "/render", body)
            assert status == 400 and reply["error"]["code"] == "bad-json", \
                reply
            assert reply["error"].get("field") == field, reply
        counters = server.statz_payload()["counters"]
        assert counters["serve.requests"] == \
            counters["serve.rejected.invalid"] == len(bodies)


def _count_checks(monkeypatch) -> list[str]:
    """SHA-256 digests of the schedule bytes admission checks, from now on."""
    checked = []
    check = server_module._check_schedule

    def spy(schedule_bytes):
        checked.append(hashlib.sha256(schedule_bytes).hexdigest())
        return check(schedule_bytes)

    monkeypatch.setattr(server_module, "_check_schedule", spy)
    return checked


@pytest.mark.parametrize("cache", ["miss", "off"])
def test_each_distinct_schedule_is_checked_once(tmp_path, simple_schedule,
                                                overlap_schedule, monkeypatch,
                                                cache):
    checked = _count_checks(monkeypatch)
    cache_dir = str(tmp_path / "cache") if cache == "miss" else None
    with serving(cache_dir=cache_dir) as server:
        client = ServeClient(server.url)
        # two misses of the same bytes, with different options
        for width in (320, 330):
            done = client.render(_request(width=width), schedule=simple_schedule)
            assert done["status"] == "done" and done["result"]["cache"] == cache
        assert checked == [schedule_digest(simple_schedule)]
        client.render(_request(), schedule=overlap_schedule)
        assert checked == [schedule_digest(simple_schedule),
                           schedule_digest(overlap_schedule)]


def test_checked_schedules_are_kept_up_to_keep_jobs(tmp_path, simple_schedule,
                                                    overlap_schedule,
                                                    monkeypatch):
    checked = _count_checks(monkeypatch)
    with serving(cache_dir=None, keep_jobs=1) as server:
        client = ServeClient(server.url)
        for schedule in (simple_schedule, overlap_schedule, simple_schedule,
                         simple_schedule):
            assert client.render(_request(), schedule=schedule)["status"] == "done"
    assert checked == [schedule_digest(simple_schedule),
                       schedule_digest(overlap_schedule),
                       schedule_digest(simple_schedule)]


def test_a_bad_schedule_is_refused_every_time_it_is_sent(tmp_path,
                                                         monkeypatch):
    checked = _count_checks(monkeypatch)
    bad = [(body, code, field) for body, _, code, field in _BAD_SUBMISSIONS
           if isinstance(body, bytes) and b"\n" in body
           and code in ("bad-json", "bad-schedule")]
    assert len(bad) == 4
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        client = ServeClient(server.url)
        for body, code, field in bad:
            for _ in range(3):
                status, _, reply = client.request("POST", "/render", body)
                assert status == 400 and reply["error"]["code"] == code, reply
                assert reply["error"].get("field") == field, reply
    assert len(checked) == 3 * len(bad)


def test_statz_metricz_and_runlog_agree(tmp_path, simple_schedule,
                                        multi_cluster_schedule):
    runlog = tmp_path / "runlog.jsonl"
    with serving(cache_dir=str(tmp_path / "cache"), runlog=str(runlog),
                 queue_depth=1, debug_hooks=True) as server:
        client = ServeClient(server.url)
        assert client.render(_request(), schedule=simple_schedule)[
            "result"]["cache"] == "miss"
        assert client.render(_request(), schedule=simple_schedule)[
            "result"]["cache"] == "hit"
        status, _, body = client.request(
            "POST", "/render", _body(simple_schedule, debug={"x_crash": True}))
        assert status == 202
        assert client.wait(body["job"]["id"], timeout=60.0)["status"] \
            == "failed"
        _send_bad_submissions(client)
        # an uncached pair: the cached one is answered at admission
        assert _flood_past_a_full_queue(server, client,
                                        multi_cluster_schedule)[
            "status"] == "done"
        statz = client.statz()
        metricz = parse_prometheus_text(client.metricz())
    record = json.loads(runlog.read_text().splitlines()[-1])

    counters = statz["counters"]
    assert set(counters) == set(record["counters"]) \
        == set(server_module._METRIC_MAP)
    for key, (family, labels) in server_module._METRIC_MAP.items():
        sample = metricz[family].get(tuple(sorted((labels or {}).items())),
                                     0.0)
        assert counters[key] == sample == record["counters"][key], key
    assert counters["serve.jobs.ok"] == 3 and counters["serve.jobs.failed"] == 1
    assert counters["serve.rejected.invalid"] == len(_BAD_SUBMISSIONS)
    assert counters["serve.rejected.queue_full"] == 1
    finished = counters["serve.jobs.ok"] + counters["serve.jobs.failed"]
    total = metricz["jedule_serve_stage_seconds_count"][(("stage", "total"),)]
    assert statz["latency_s"]["count"] == total == finished
    assert record["timings_s"]["p95"] == record["timings_s"]["total_p95"]


def test_unknown_job_is_404(tmp_path):
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        status, _, body = client.request("GET", "/jobs/deadbeef")
        assert status == 404 and body["error"]["code"] == "unknown-job"
        # asking to wait does not hold the 404
        started = time.monotonic()
        status, _, body = client.request("GET", "/jobs/deadbeef?wait=20")
        assert status == 404 and body["error"]["code"] == "unknown-job"
        assert time.monotonic() - started < 5.0
        status, _, _ = client.request("GET", "/nope")
        assert status == 404


def test_result_of_unfinished_job_is_409(tmp_path, simple_schedule):
    with serving(cache_dir=None) as server:
        server.pause_dispatch()
        client = ServeClient(server.url)
        job = client.submit(_request(), schedule=simple_schedule)
        status, _, body = client.request("GET", f"/jobs/{job['id']}/result")
        assert status == 409 and body["error"]["code"] == "not-finished"
        server.resume_dispatch()
        client.wait(job["id"])


def test_kept_alive_replies_are_not_held_back(tmp_path):
    """A reply goes out in one write.  Written as headers, then body, on
    a kept-alive TCP connection the body waits out Nagle plus the
    client's delayed ACK, about 40 ms per reply."""
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        took = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())
                took.append(time.perf_counter() - started)
        finally:
            conn.close()
    assert statistics.median(took) < 0.020, took


def test_http09_request_gets_a_bare_body(tmp_path):
    """An HTTP/0.9 request line has no version: the reply is the body
    alone, with no status line or headers."""
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            reply = b"".join(iter(lambda: sock.recv(65536), b""))
    assert json.loads(reply)["workers"] == 1


def test_statz_counters_and_latency(tmp_path, simple_schedule):
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        client = ServeClient(server.url, client_id="statz")
        for _ in range(3):
            client.render(_request(), schedule=simple_schedule)
        stats = client.statz()
        assert stats["counters"]["serve.jobs.submitted"] == 3
        assert stats["counters"]["serve.jobs.ok"] == 3
        assert stats["counters"]["serve.cache.hit"] == 2
        assert stats["counters"]["serve.cache.miss"] == 1
        assert stats["latency_s"]["count"] == 3
        assert stats["latency_s"]["p50"] <= stats["latency_s"]["p99"]
        assert stats["workers"] == {"total": 1, "alive": 1, "restarts": 0}


def test_reload_replaces_workers_without_dropping_jobs(tmp_path,
                                                       simple_schedule):
    with serving(cache_dir=None, workers=2) as server:
        client = ServeClient(server.url)
        before = set(server._pool.pids())
        job = client.render(_request(), schedule=simple_schedule)
        assert job["status"] == "done"
        server.reload()
        assert set(server._pool.pids()).isdisjoint(before)
        job = client.render(_request(), schedule=simple_schedule)
        assert job["status"] == "done"


def test_reloads_do_not_spend_the_crash_budget(tmp_path, simple_schedule):
    """More reloads than the restart budget leave the worker serving, and
    a crash afterwards still gets its retry."""
    with serving(cache_dir=None, debug_hooks=True) as server:
        client = ServeClient(server.url)
        for _ in range(5):
            server.reload()
            job = client.render(_request(), schedule=simple_schedule,
                                timeout=30.0)
            assert job["status"] == "done", job
        assert client.statz()["workers"]["restarts"] == 5
        crash = _body(simple_schedule, debug={"x_crash": True})
        status, _, body = client.request("POST", "/render", crash)
        assert status == 202
        job = client.wait(body["job"]["id"], timeout=60.0)
        assert job["status"] == "failed"
        assert job["result"]["attempts"] == 2


def test_drain_writes_runlog_record(tmp_path, simple_schedule):
    runlog = tmp_path / "runlog.jsonl"
    with serving(cache_dir=str(tmp_path / "cache"),
                 runlog=str(runlog)) as server:
        client = ServeClient(server.url)
        client.render(_request(), schedule=simple_schedule)
        client.render(_request(), schedule=simple_schedule)
    record = json.loads(runlog.read_text().splitlines()[-1])
    assert record["suite"] == "serve"
    assert record["counters"]["serve.jobs.ok"] == 2
    assert record["counters"]["serve.cache.hit"] == 1
    assert record["meta"]["jobs"] == 2
    assert "p95" in record["timings_s"]


def test_drain_runlog_empty_sample_still_has_stage_keys(tmp_path):
    """A server drained before any job finished still writes a complete
    record: whole-job and per-stage percentile keys all present, zeroed."""
    runlog = tmp_path / "runlog.jsonl"
    with serving(cache_dir=None, runlog=str(runlog)):
        pass  # no jobs at all
    record = json.loads(runlog.read_text().splitlines()[-1])
    timings = record["timings_s"]
    for key in ("p50", "p95", "p99"):
        assert timings[key] == [0.0]
    for stage in ("queue_wait", "worker", "total"):
        for label in ("p50", "p95", "p99"):
            assert timings[f"{stage}_{label}"] == [0.0], (stage, label)
    assert record["meta"]["jobs"] == 0
    assert record["meta"]["queue_peak"] == 0


def test_drain_runlog_stage_timings_populated(tmp_path, simple_schedule):
    runlog = tmp_path / "runlog.jsonl"
    with serving(cache_dir=None, runlog=str(runlog)) as server:
        client = ServeClient(server.url)
        client.render(_request(), schedule=simple_schedule)
    record = json.loads(runlog.read_text().splitlines()[-1])
    timings = record["timings_s"]
    # one finished job: worker and total stage percentiles are real times
    assert timings["worker_p95"][0] > 0.0
    assert timings["total_p95"][0] >= timings["worker_p95"][0]
    assert record["meta"]["queue_peak"] >= 1


def test_statz_job_state_counts_incremental(tmp_path, simple_schedule):
    """/statz job states agree with a full walk of the jobs dict."""
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url, client_id="states")
        for _ in range(3):
            assert client.render(_request(),
                                 schedule=simple_schedule)["status"] == "done"
        assert server.statz_payload()["jobs"] == {"done": 3}
        with server._jobs_lock:
            walked = {}
            for job in server._jobs.values():
                walked[job.status] = walked.get(job.status, 0) + 1
        live = server.statz_payload()["jobs"]
        assert walked == live == {"done": 3}


def test_job_state_counts_survive_prune(tmp_path, simple_schedule):
    with serving(cache_dir=None, keep_jobs=2) as server:
        client = ServeClient(server.url, client_id="prune")
        for _ in range(5):
            client.render(_request(), schedule=simple_schedule)
        states = server.statz_payload()["jobs"]
        with server._jobs_lock:
            assert len(server._jobs) <= 2 + 1  # cap, +1 for in-flight slack
            assert states == {"done": len(server._jobs)}


def test_queue_peak_depth_reported(tmp_path, simple_schedule):
    with serving(queue_depth=8, cache_dir=None) as server:
        server.pause_dispatch()
        client = ServeClient(server.url, client_id="peaky")
        for _ in range(4):
            client.submit(_request(), schedule=simple_schedule)
        assert server.statz_payload()["queue"]["peak"] == 4
        server.resume_dispatch()


def test_job_wait_is_validated(tmp_path, simple_schedule):
    with serving(cache_dir=None) as server:
        server.pause_dispatch()
        client = ServeClient(server.url)
        job = client.submit(_request(), schedule=simple_schedule)
        for bad in ("abc", "", "-1", "-0.5", "nan", "inf", "-inf", "1e999"):
            status, _, body = client.request(
                "GET", f"/jobs/{job['id']}?wait={bad}")
            assert status == 400, (bad, body)
            assert body["error"]["code"] == "invalid-value", (bad, body)
            assert body["error"]["field"] == "wait", (bad, body)
        # no wait, or wait=0, answers at once: the job is still queued
        for query in ("", "?wait=0"):
            started = time.monotonic()
            status, _, body = client.request("GET",
                                             f"/jobs/{job['id']}{query}")
            assert status == 200 and body["job"]["status"] == "queued"
            assert time.monotonic() - started < 5.0
        server.resume_dispatch()
        client.wait(job["id"])


def test_job_wait_holds_until_finished_or_expired(tmp_path, simple_schedule,
                                                  monkeypatch):
    with serving(cache_dir=None) as server:
        server.pause_dispatch()
        client = ServeClient(server.url)
        job = client.submit(_request(), schedule=simple_schedule)
        path = f"/jobs/{job['id']}"
        started = time.monotonic()
        status, _, body = client.request("GET", f"{path}?wait=0.3")
        assert status == 200 and body["job"]["status"] == "queued"
        assert time.monotonic() - started >= 0.25  # held, not answered
        # a wait beyond the cap is cut to it
        monkeypatch.setattr(server_module, "MAX_JOB_WAIT_S", 0.2)
        started = time.monotonic()
        status, _, body = client.request("GET", f"{path}?wait=600")
        assert status == 200 and body["job"]["status"] == "queued"
        assert time.monotonic() - started < 5.0
        monkeypatch.undo()
        # the hold ends when the job finishes, not when it expires
        timer = threading.Timer(0.3, server.resume_dispatch)
        timer.start()
        started = time.monotonic()
        status, _, body = client.request("GET", f"{path}?wait=20")
        timer.join(timeout=5)
        assert not timer.is_alive()
        assert status == 200 and body["job"]["status"] == "done"
        assert time.monotonic() - started < 10.0


def test_wait_blocks_on_the_server_instead_of_polling(tmp_path,
                                                      simple_schedule):
    with serving(cache_dir=None) as server:
        server.pause_dispatch()
        client = ServeClient(server.url)
        job = client.submit(_request(), schedule=simple_schedule)
        paths = []
        send = client.request

        def counting(method, path, *args, **kwargs):
            paths.append(path)
            return send(method, path, *args, **kwargs)

        client.request = counting
        timer = threading.Timer(0.5, server.resume_dispatch)
        timer.start()
        assert client.wait(job["id"], timeout=30.0)["status"] == "done"
        timer.join(timeout=5)
        assert not timer.is_alive()
        # 50 ms polling would have sent about 10 requests
        assert 1 <= len(paths) <= 2, paths
        assert all(p.startswith(f"/jobs/{job['id']}") for p in paths), paths


def test_render_of_a_repeat_sends_one_request(tmp_path, simple_schedule,
                                              monkeypatch):
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        client = ServeClient(server.url)
        assert client.render(_request(), schedule=simple_schedule)[
            "result"]["cache"] == "miss"
        paths = []
        send = client.request

        def counting(method, path, *args, **kwargs):
            paths.append((method, path))
            return send(method, path, *args, **kwargs)

        client.request = counting
        job = client.render(_request(), schedule=simple_schedule)
        assert job["status"] == "done" and job["result"]["cache"] == "hit"
        # the 202 already carried the finished job: wait() asks nothing
        assert paths == [("POST", "/render")], paths
        # past FINISHED_KEPT the oldest kept document is dropped, and
        # wait() asks the server for that one
        monkeypatch.setattr(client_module, "FINISHED_KEPT", 1)
        paths.clear()
        jobs = [client.submit(_request(), schedule=simple_schedule)
                for _ in range(2)]
        assert [client.wait(job["id"])["result"]["cache"]
                for job in jobs] == ["hit", "hit"]
        assert paths == [("POST", "/render")] * 2 + [
            ("GET", f"/jobs/{jobs[0]['id']}?wait=15.0")], paths
        assert not client._finished


def test_threads_sharing_a_client_each_wait_for_their_own_hit(
        tmp_path, simple_schedule, monkeypatch):
    """More threads than kept documents and a short switch interval:
    every wait() returns its own job, and no kept document is left."""
    monkeypatch.setattr(client_module, "FINISHED_KEPT", 2)
    threads, jobs_each = 4, 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with serving(cache_dir=str(tmp_path / "cache")) as server:
            client = ServeClient(server.url)
            assert client.render(_request(), schedule=simple_schedule)[
                "result"]["cache"] == "miss"
            problems = []

            def loop():
                try:
                    for _ in range(jobs_each):
                        job = client.submit(_request(),
                                            schedule=simple_schedule)
                        doc = client.wait(job["id"], timeout=60.0)
                        if doc["id"] != job["id"] or \
                                doc["result"]["cache"] != "hit":
                            problems.append(doc)
                except Exception as exc:  # surfaced by the assert below
                    problems.append(repr(exc))

            workers = [threading.Thread(target=loop) for _ in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in workers)
            assert problems == []
            assert not client._finished
    finally:
        sys.setswitchinterval(interval)


def test_finished_job_is_published_last(tmp_path, simple_schedule,
                                        monkeypatch):
    """A client that sees a job finished finds its trace and counters."""
    stitch = server_module.stitch_job_trace

    def slow_stitch(*args, **kwargs):
        time.sleep(0.2)
        return stitch(*args, **kwargs)

    monkeypatch.setattr(server_module, "stitch_job_trace", slow_stitch)
    with serving(cache_dir=None) as server:
        client = ServeClient(server.url)
        for n in range(1, 6):
            job = client.render(_request(), schedule=simple_schedule)
            status, _, body = client.request("GET",
                                             f"/jobs/{job['id']}/trace")
            assert status == 200, body
            root = trace_from_doc(body["trace"]).spans[0]
            assert root.attrs["status"] == "done"
            parsed = parse_prometheus_text(client.metricz())
            assert parsed["jedule_serve_jobs_total"][(("status", "ok"),)] \
                == float(n)


def test_concurrent_waiters_only_see_published_jobs(tmp_path,
                                                    simple_schedule):
    """More client threads than cores and a short switch interval: every
    job a client sees finished already has its seq and its trace."""
    clients, jobs_each = 4, 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with serving(cache_dir=None, workers=2) as server:
            problems = []

            def client_loop(name):
                client = ServeClient(server.url, client_id=name)
                try:
                    for _ in range(jobs_each):
                        doc = client.render(_request(),
                                            schedule=simple_schedule)
                        job = server._jobs[doc["id"]]
                        if doc["status"] != "done" or doc["seq"] is None \
                                or job.trace_doc is None:
                            problems.append(doc)
                except Exception as exc:  # surfaced by the assert below
                    problems.append(repr(exc))

            threads = [threading.Thread(target=client_loop, args=(f"c{i}",))
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert problems == []
            assert server.statz_payload()["jobs"] == \
                {"done": clients * jobs_each}
    finally:
        sys.setswitchinterval(interval)


def test_submit_body_frames_the_canonical_schedule(tmp_path, simple_schedule,
                                                   monkeypatch):
    bodies = []
    send = http.client.HTTPConnection.request

    def record(self, method, url, body=None, *args, **kwargs):
        if method == "POST":
            bodies.append(body)
        return send(self, method, url, body, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", record)
    with serving(cache_dir=None) as server:
        server.pause_dispatch()
        client = ServeClient(server.url)
        request = _request()
        job = client.submit(request, schedule=simple_schedule)
        canonical = canonical_schedule_bytes(simple_schedule)
        assert split_submission(bodies[0]) == (
            {"request": request_to_payload(request)}, canonical)
        # the server holds the bytes as sent: the ones `jedule batch`
        # hashes, so both share render cache entries
        held = server._jobs[job["id"]].schedule_bytes
        assert held == canonical
        assert hashlib.sha256(held).hexdigest() == \
            schedule_digest(simple_schedule)
        server.resume_dispatch()
        assert client.wait(job["id"])["status"] == "done"


def _stage_counts(client) -> dict[str, float]:
    parsed = parse_prometheus_text(client.metricz())
    return {dict(key)["stage"]: value for key, value
            in parsed["jedule_serve_stage_seconds_count"].items()}


def test_repeat_is_answered_at_admission_without_a_model(
        tmp_path, simple_schedule, monkeypatch):
    from repro.errors import ParseError
    from repro.io import json_fmt

    request = _request()
    direct = execute_request(request, simple_schedule).data
    runlog = tmp_path / "runlog.jsonl"
    with serving(cache_dir=str(tmp_path / "cache"),
                 runlog=str(runlog)) as server:
        client = ServeClient(server.url)
        assert client.render(request, schedule=simple_schedule)[
            "result"]["cache"] == "miss"

        def no_model(*args, **kwargs):
            raise ParseError("a schedule model was built")

        decode = json.loads
        schedule_text = canonical_schedule_bytes(simple_schedule).decode()

        def no_schedule_decode(text, *args, **kwargs):
            if isinstance(text, (bytes, bytearray)):
                text = text.decode("utf-8")
            if schedule_text in text:
                raise json.JSONDecodeError("the schedule was decoded", text, 0)
            return decode(text, *args, **kwargs)

        # the repeat builds no model and does not even decode the
        # schedule's JSON
        monkeypatch.setattr(json_fmt, "from_dict", no_model)
        monkeypatch.setattr(json, "loads", no_schedule_decode)
        job = client.submit(request, schedule=simple_schedule)
        assert job["status"] == "done" and job["result"]["cache"] == "hit"
        assert client.result_bytes(job["id"]) == direct
        assert server._jobs[job["id"]].schedule_bytes is None
        counts = _stage_counts(client)
        assert counts["worker"] == counts["queue_wait"] == 1
        assert counts["admit"] == counts["total"] == 2
        # the miss's worker-side spans still become stages; the hit has none
        assert counts["render.layout"] == 1
        stages = client.statz()["stages_s"]
        assert {stage: stages[stage]["count"] for stage in stages} == \
            {"admit": 2, "queue_wait": 1, "worker": 1, "total": 2}
        # a finished job like any other: timestamps and a stitched trace
        assert job["submitted_at"] == job["started_at"] == job["finished_at"]
        trace = trace_from_doc(client.job_trace(job["id"]))
        assert [s.name for s in trace.spans] == ["serve.request",
                                                 "serve.admit"]
        assert trace.spans[1].attrs["cache"] == "hit"
        assert trace.spans[0].attrs["status"] == "done"
    timings = json.loads(runlog.read_text().splitlines()[-1])["timings_s"]
    assert timings["admit_p50"][0] > 0.0


def test_cached_pair_is_answered_while_the_queue_is_full(tmp_path,
                                                         simple_schedule):
    with serving(cache_dir=str(tmp_path / "cache"), queue_depth=1) as server:
        client = ServeClient(server.url)
        cached = _request()
        assert client.render(cached, schedule=simple_schedule)[
            "result"]["cache"] == "miss"
        server.pause_dispatch()
        queued = client.submit(_request(width=330), schedule=simple_schedule)
        job = client.submit(cached, schedule=simple_schedule)
        assert job["status"] == "done" and job["result"]["cache"] == "hit"
        with pytest.raises(ServeError) as err:
            client.submit(_request(width=340), schedule=simple_schedule)
        assert err.value.code == "queue-full"
        server.resume_dispatch()
        assert client.wait(queued["id"], timeout=60.0)["status"] == "done"


def test_file_input_repeat_is_a_hit_at_admission(tmp_path, simple_schedule):
    from repro.io import save_schedule

    src = tmp_path / "s.jed"
    save_schedule(simple_schedule, src)
    out = tmp_path / "out" / "s.svg"
    request = RenderRequest(input_path=str(src), output_path=str(out))
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        client = ServeClient(server.url)
        assert client.render(request)["result"]["cache"] == "miss"
        rendered = out.read_bytes()
        out.unlink()
        server.pause_dispatch()
        job = client.submit(request)
        assert job["status"] == "done" and job["result"]["cache"] == "hit"
        assert out.read_bytes() == rendered
        server.resume_dispatch()


def test_batch_cache_entry_is_served_at_admission(tmp_path, simple_schedule):
    from repro.batch.runner import execute_with_cache
    from repro.io import save_schedule

    src = tmp_path / "s.json"
    save_schedule(simple_schedule, src)
    cache_dir = str(tmp_path / "cache")
    batch = execute_with_cache(_request(input_path=str(src)), cache_dir)
    assert batch.cache == "miss"
    with serving(cache_dir=cache_dir) as server:
        server.pause_dispatch()
        client = ServeClient(server.url)
        job = client.submit(_request(), schedule=simple_schedule)
        assert job["status"] == "done" and job["result"]["cache"] == "hit"
        assert client.result_bytes(job["id"]) == batch.data
        # a to_dict schedule in its own key order and spacing is keyed by
        # its own bytes: a miss the first time, rendered to the same
        # bytes, and a hit when the exact body comes again
        body = frame_submission(
            {"request": request_to_payload(_request())},
            json.dumps(to_dict(simple_schedule), indent=1).encode("utf-8"))
        status, _, reply = client.request("POST", "/render", body)
        assert status == 202 and reply["job"]["status"] == "queued"
        server.resume_dispatch()
        done = client.wait(reply["job"]["id"], timeout=60.0)
        assert done["status"] == "done" and done["result"]["cache"] == "miss"
        assert client.result_bytes(done["id"]) == batch.data
        status, _, reply = client.request("POST", "/render", body)
        assert status == 202 and reply["job"]["status"] == "done"
        assert reply["job"]["result"]["cache"] == "hit"


def test_unwritable_output_on_a_hit_is_left_to_the_worker(tmp_path,
                                                          simple_schedule):
    from repro.io import save_schedule

    src = tmp_path / "s.jed"
    save_schedule(simple_schedule, src)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with serving(cache_dir=str(tmp_path / "cache")) as server:
        client = ServeClient(server.url)
        assert client.render(RenderRequest(
            input_path=str(src), output_path=str(tmp_path / "out.svg")))[
            "result"]["cache"] == "miss"
        job = client.render(RenderRequest(
            input_path=str(src), output_path=str(blocker / "s.svg")))
        assert job["status"] == "failed"
        assert job["result"]["error"].startswith("FileExistsError: ")
        assert _stage_counts(client)["worker"] == 2
