"""Tests for structured JSON logging (repro.obs.log)."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.obs.log import JsonlLogger, get_sink, log_to, set_sink


def collect_events():
    """Run a small instrumented pipeline with a capturing sink."""
    events: list[dict] = []
    set_sink(events.append)
    try:
        with obs.capture() as trace:
            with obs.span("io.load", path="x.csv"):
                with obs.span("parse.csv"):
                    obs.add("io.records", 12)
            obs.gauge("sim.queue", 3.0)
    finally:
        set_sink(None)
    return events, trace


class TestSink:
    def test_span_events_share_ids_with_trace(self):
        events, trace = collect_events()
        starts = [e for e in events if e["event"] == "span_start"]
        ends = [e for e in events if e["event"] == "span_end"]
        assert [e["name"] for e in starts] == ["io.load", "parse.csv"]
        by_name = {s.name: s.index for s in trace.spans}
        for e in starts + ends:
            assert e["span_id"] == by_name[e["name"]]
        # parent linkage mirrors the trace
        parse_start = next(e for e in starts if e["name"] == "parse.csv")
        assert parse_start["parent"] == by_name["io.load"]
        assert parse_start["depth"] == 1

    def test_span_end_carries_duration(self):
        events, trace = collect_events()
        end = next(e for e in events if e["event"] == "span_end"
                   and e["name"] == "io.load")
        span = trace.spans[end["span_id"]]
        assert end["dur"] == pytest.approx(span.end - span.start)

    def test_counter_and_gauge_events(self):
        events, trace = collect_events()
        counter = next(e for e in events if e["event"] == "counter")
        assert counter["name"] == "io.records"
        assert counter["value"] == 12 and counter["total"] == 12
        # attributed to the innermost open span
        assert trace.spans[counter["span_id"]].name == "parse.csv"
        gauge = next(e for e in events if e["event"] == "gauge")
        assert gauge["name"] == "sim.queue" and gauge["peak"] == 3.0
        assert gauge["span_id"] is None  # no span open at that point

    def test_start_event_carries_attrs(self):
        events, _ = collect_events()
        start = next(e for e in events if e["event"] == "span_start"
                     and e["name"] == "io.load")
        assert start["attrs"] == {"path": "x.csv"}

    def test_disabled_path_emits_nothing(self):
        events: list[dict] = []
        set_sink(events.append)
        try:
            assert not obs.is_enabled()
            with obs.span("quiet"):
                obs.add("n")
        finally:
            set_sink(None)
        assert events == []


class TestJsonlLogger:
    def test_lines_are_json_with_seq_and_time(self):
        buf = io.StringIO()
        logger = JsonlLogger(buf)
        logger({"event": "span_start", "name": "a"})
        logger({"event": "span_end", "name": "a"})
        docs = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [d["seq"] for d in docs] == [0, 1]
        assert all("time" in d and d["name"] == "a" for d in docs)

    def test_non_serializable_values_stringified(self):
        buf = io.StringIO()
        JsonlLogger(buf)({"event": "span_start", "attrs": {"obj": object()}})
        (doc,) = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert "object object" in doc["attrs"]


class TestLogTo:
    def test_writes_parseable_jsonl_matching_trace(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with log_to(path):
            with obs.capture() as trace:
                with obs.span("render.layout"):
                    obs.add("layout.rects", 5)
        lines = path.read_text().splitlines()
        docs = [json.loads(line) for line in lines]  # every line parses
        assert len(docs) == 3  # start, counter, end
        assert {d["event"] for d in docs} == {"span_start", "counter",
                                              "span_end"}
        span_ids = {d["span_id"] for d in docs}
        assert span_ids == {trace.spans[0].index}

    def test_restores_previous_sink(self, tmp_path):
        marker = [].append
        set_sink(marker)
        try:
            with log_to(tmp_path / "x.jsonl"):
                assert get_sink() is not marker
            assert get_sink() is marker
        finally:
            set_sink(None)

    def test_sink_restored_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with log_to(tmp_path / "x.jsonl"):
                raise RuntimeError("boom")
        assert get_sink() is None

    def test_nested_captures_do_not_cross_stream(self, tmp_path):
        # events from a capture opened inside log_to land in the file;
        # after the block, instrumentation is silent again
        path = tmp_path / "events.jsonl"
        with log_to(path):
            with obs.capture():
                with obs.span("inside"):
                    pass
        with obs.capture():
            with obs.span("outside"):
                pass
        names = [json.loads(line).get("name")
                 for line in path.read_text().splitlines()]
        assert "inside" in names and "outside" not in names


class TestTraceIdInEvents:
    def test_events_carry_trace_id_when_set(self):
        events: list[dict] = []
        set_sink(events.append)
        try:
            with obs.capture(trace_id="feed0001"):
                with obs.span("work"):
                    obs.add("n", 1)
                    obs.gauge("g", 2.0)
        finally:
            set_sink(None)
        assert events, "sink saw no events"
        assert all(e["trace_id"] == "feed0001" for e in events), events

    def test_events_omit_trace_id_when_unset(self):
        events: list[dict] = []
        set_sink(events.append)
        try:
            with obs.capture():
                with obs.span("work"):
                    pass
        finally:
            set_sink(None)
        assert events and all("trace_id" not in e for e in events)

    def test_jsonl_lines_carry_trace_id(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with log_to(path):
            with obs.capture(trace_id="0ddba11"):
                with obs.span("io.load"):
                    pass
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines and all(e["trace_id"] == "0ddba11" for e in lines)
