"""Trace propagation and stitching: unit tests plus e2e over real HTTP.

The acceptance path for the tracing tentpole lives here: a trace id
minted by the client travels through the HTTP handler, the fair queue,
and the worker process, and the stitched trace the server hands back
contains ``serve.queue_wait``, ``serve.worker`` and at least one
worker-side ``render.*`` span — all sharing the request's trace id —
and dog-foods into a multi-row Gantt.
"""

from __future__ import annotations

import pytest

from repro.obs.core import Trace
from repro.obs.export import (
    to_chrome_events,
    trace_from_doc,
    trace_to_doc,
    trace_to_schedule,
    validate_chrome_events,
)
from repro.render.api import RenderRequest
from repro.serve.client import ServeClient
from repro.serve.metrics import parse_prometheus_text
from repro.serve.server import Job
from repro.serve.tracing import merge_traces, stitch_job_trace

from .test_server import serving


def _request(**kwargs):
    kwargs.setdefault("output_format", "svg")
    kwargs.setdefault("width", 320)
    kwargs.setdefault("height", 240)
    return RenderRequest(**kwargs)


def _job(**overrides) -> Job:
    base = dict(id="j1", client="c1", request=_request(), schedule_bytes=None,
                status="done", submitted_at=1000.0, started_at=1000.25,
                finished_at=1000.75, trace_id="abcd1234")
    base.update(overrides)
    return Job(**base)


def _worker_doc() -> dict:
    worker = Trace(trace_id="abcd1234")
    worker.epoch_wall = 1000.30  # worker clock, 50ms after dispatch
    from repro.obs.core import SpanRecord

    worker.spans = [
        SpanRecord("render.job", 0.0, 0.40, 0, 0, None, {}),
        SpanRecord("render.layout", 0.0, 0.15, 1, 1, 0, {}),
        SpanRecord("render.encode", 0.15, 0.40, 1, 2, 0, {}),
    ]
    return trace_to_doc(worker)


class TestStitchJobTrace:
    def test_span_skeleton_and_timing(self):
        trace = stitch_job_trace(_job())
        names = [s.name for s in trace.spans]
        assert names == ["serve.request", "serve.queue_wait", "serve.worker"]
        root, wait, worker = trace.spans
        assert trace.trace_id == "abcd1234"
        assert trace.epoch_wall == 1000.0
        assert (root.start, root.end) == (0.0, pytest.approx(0.75))
        assert (wait.start, wait.end) == (0.0, pytest.approx(0.25))
        assert (worker.start, worker.end) == (pytest.approx(0.25),
                                              pytest.approx(0.75))
        assert wait.parent == root.index and worker.parent == root.index
        assert root.attrs["job"] == "j1" and root.attrs["client"] == "c1"

    def test_worker_segment_grafts_on_wall_clock(self):
        trace = stitch_job_trace(_job(), _worker_doc())
        by_name = {s.name: s for s in trace.spans}
        job_span = by_name["render.job"]
        # worker epoch was 0.30s after submit: spans shift by that offset
        assert job_span.start == pytest.approx(0.30)
        assert job_span.end == pytest.approx(0.70)
        assert job_span.parent == by_name["serve.worker"].index
        assert by_name["render.layout"].parent == job_span.index
        assert by_name["render.encode"].depth == job_span.depth + 1

    def test_unstarted_job_collapses_to_zero_width(self):
        trace = stitch_job_trace(_job(status="queued", started_at=None,
                                      finished_at=None))
        for span in trace.spans:
            assert span.start == 0.0 and span.end == 0.0

    def test_round_trips_through_wire_form(self):
        trace = stitch_job_trace(_job(), _worker_doc())
        clone = trace_from_doc(trace_to_doc(trace))
        assert [s.name for s in clone.spans] == [s.name for s in trace.spans]
        assert clone.trace_id == trace.trace_id


class TestMergeTraces:
    def test_lanes_and_common_epoch(self):
        first = stitch_job_trace(_job())
        second = stitch_job_trace(
            _job(id="j2", submitted_at=999.5, started_at=1000.0,
                 finished_at=1000.5, trace_id="ffff0000"))
        merged = merge_traces([first, second])
        assert merged.epoch_wall == 999.5
        roots = [s for s in merged.spans if s.parent is None]
        assert [s.attrs.get("tid") for s in roots] == [1, 2]
        # first trace's spans shifted by the 0.5s epoch difference
        by_lane = {s.attrs["tid"]: s for s in roots}
        assert by_lane[1].start == pytest.approx(0.5)
        assert by_lane[2].start == pytest.approx(0.0)
        events = to_chrome_events(merged)
        validate_chrome_events(events)
        assert {e["tid"] for e in events} == {1, 2}

    def test_empty_merge_raises(self):
        with pytest.raises(ValueError):
            merge_traces([])


class TestEndToEnd:
    def test_trace_propagates_client_to_worker_and_back(
            self, tmp_path, simple_schedule):
        with serving(cache_dir=None, workers=1) as server:
            client = ServeClient(server.url, client_id="tracer")
            job = client.submit(_request(), schedule=simple_schedule,
                                trace_id="feedc0de00000001")
            done = client.wait(job["id"])
            assert done["trace_id"] == "feedc0de00000001"

            trace = trace_from_doc(client.job_trace(job["id"]))
            assert trace.trace_id == "feedc0de00000001"
            names = [s.name for s in trace.spans]
            assert "serve.queue_wait" in names
            assert "serve.worker" in names
            render_spans = [n for n in names if n.startswith("render.")]
            assert render_spans, f"no worker-side render.* span in {names}"

            chrome = client.job_trace(job["id"], chrome=True)
            assert chrome["displayTimeUnit"] == "ms"
            assert any(e["name"] == "serve.worker"
                       for e in chrome["traceEvents"])

    def test_inline_miss_traces_worker_decode_digest_and_cache(
            self, tmp_path, simple_schedule):
        """A miss's worker decodes, digests, looks up and stores under
        spans of their own, so its trace explains the worker's time."""
        with serving(cache_dir=str(tmp_path / "cache"), workers=1) as server:
            client = ServeClient(server.url, client_id="cache-spans")
            job = client.submit(_request(), schedule=simple_schedule)
            assert client.wait(job["id"])["status"] == "done"
            trace = trace_from_doc(client.job_trace(job["id"]))
        worker = trace.find("serve.worker").index

        def under_worker(span) -> bool:
            while span.parent is not None:
                if span.parent == worker:
                    return True
                span = trace.spans[span.parent]
            return False

        spans = {s.name: s for s in trace.spans if under_worker(s)}
        for name in ("io.load", "batch.cache.digest", "batch.cache.get",
                     "batch.cache.put"):
            assert name in spans, f"no {name} under serve.worker: {sorted(spans)}"
        assert spans["io.load"].attrs["format"] == "json"

    def test_admit_span_says_whether_the_schedule_was_checked(
            self, tmp_path, simple_schedule):
        """A first miss checks the schedule, a repeated miss of the same
        bytes does not, and a hit never does."""
        with serving(cache_dir=str(tmp_path / "cache"), workers=1) as server:
            client = ServeClient(server.url, client_id="checks")
            jobs = [client.render(_request(), schedule=simple_schedule),
                    client.render(_request(width=330), schedule=simple_schedule),
                    client.render(_request(), schedule=simple_schedule)]
            admits = [trace_from_doc(client.job_trace(job["id"]))
                      .find("serve.admit").attrs for job in jobs]
        # span attributes travel as strings
        assert [(a["cache"], a["checked"]) for a in admits] == \
            [("miss", "True"), ("miss", "False"), ("hit", "False")]

    def test_metricz_stage_histograms_sum_to_jobs(
            self, tmp_path, simple_schedule):
        jobs = 3
        with serving(cache_dir=None, workers=1) as server:
            client = ServeClient(server.url, client_id="counter")
            for _ in range(jobs):
                done = client.render(_request(), schedule=simple_schedule)
                assert done["status"] == "done"
            parsed = parse_prometheus_text(client.metricz())
        counts = {
            dict(key)["stage"]: value
            for key, value in parsed["jedule_serve_stage_seconds_count"]
            .items()
        }
        for stage in ("queue_wait", "worker", "total"):
            assert counts[stage] == float(jobs), (stage, counts)
        assert parsed["jedule_serve_jobs_total"][(("status", "ok"),)] \
            == float(jobs)

    def test_stitched_trace_dogfoods_to_multi_row_gantt(
            self, tmp_path, simple_schedule):
        with serving(cache_dir=None, workers=2) as server:
            client = ServeClient(server.url, client_id="gantt")
            traces = []
            for _ in range(2):
                done = client.render(_request(), schedule=simple_schedule)
                traces.append(trace_from_doc(client.job_trace(done["id"])))
        schedule = trace_to_schedule(merge_traces(traces),
                                     name="serve requests")
        rows = sum(cluster.num_hosts for cluster in schedule.clusters)
        assert rows >= 2  # one depth-row per nesting level, multiple levels
        assert len(schedule.tasks) >= 6  # 2 requests x >= 3 spans each

    def test_trace_disabled_server_returns_404(
            self, tmp_path, simple_schedule):
        from repro.errors import ServeError

        with serving(cache_dir=None, trace_jobs=False) as server:
            client = ServeClient(server.url)
            done = client.render(_request(), schedule=simple_schedule)
            assert done["trace_id"] is None
            with pytest.raises(ServeError) as err:
                client.job_trace(done["id"])
            assert err.value.code == "no-trace"
