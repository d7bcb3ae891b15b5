"""Tests for the observability core: spans, counters, gauges, capture()."""

import pytest

from repro import obs
from repro.obs import core as obs_core


@pytest.fixture(autouse=True)
def _clean_state():
    st = obs_core._state
    prev = (st.enabled, st.trace, st.stack)
    st.enabled, st.trace, st.stack = False, None, []
    yield
    st.enabled, st.trace, st.stack = prev


class TestSpans:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        with obs.span("a"):
            pass
        assert obs.current_trace() is None

    def test_basic_span_records_timing(self):
        with obs.capture() as trace:
            with obs.span("work"):
                pass
        (s,) = trace.spans
        assert s.name == "work"
        assert s.end >= s.start
        assert s.duration >= 0.0
        assert s.depth == 0 and s.parent is None

    def test_nesting_depth_and_parent(self):
        with obs.capture() as trace:
            with obs.span("outer"):
                with obs.span("mid"):
                    with obs.span("inner"):
                        pass
                with obs.span("mid2"):
                    pass
        by_name = {s.name: s for s in trace.spans}
        assert by_name["outer"].depth == 0
        assert by_name["mid"].depth == 1
        assert by_name["inner"].depth == 2
        assert by_name["mid2"].depth == 1
        assert by_name["inner"].parent == by_name["mid"].index
        assert by_name["mid"].parent == by_name["outer"].index
        assert by_name["mid2"].parent == by_name["outer"].index

    def test_roots_and_children(self):
        with obs.capture() as trace:
            with obs.span("a"):
                with obs.span("a.1"):
                    pass
            with obs.span("b"):
                pass
        roots = trace.roots()
        assert [s.name for s in roots] == ["a", "b"]
        kids = trace.children(roots[0])
        assert [s.name for s in kids] == ["a.1"]

    def test_attrs_and_set(self):
        with obs.capture() as trace:
            with obs.span("load", path="x.csv") as sp:
                sp.set(rows=42)
        (s,) = trace.spans
        assert s.attrs == {"path": "x.csv", "rows": 42}

    def test_exception_recorded_and_propagates(self):
        with pytest.raises(ValueError):
            with obs.capture() as trace:
                with obs.span("boom"):
                    raise ValueError("nope")
        (s,) = trace.spans
        assert s.attrs["error"] == "ValueError"
        assert s.end >= s.start  # closed despite the exception

    def test_decorator_respects_enable_at_call_time(self):
        @obs.span("fn")
        def f(x):
            return x * 2

        assert f(3) == 6  # disabled: plain call, nothing recorded
        with obs.capture() as trace:
            assert f(4) == 8
        assert [s.name for s in trace.spans] == ["fn"]
        assert f.__name__ == "f"

    def test_find_helpers(self):
        with obs.capture() as trace:
            with obs.span("a"):
                pass
            with obs.span("a"):
                pass
        assert trace.find("a").index == 0
        assert trace.find("zzz") is None
        assert len(trace.find_all("a")) == 2


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        with obs.capture() as trace:
            obs.add("io.records", 10)
            obs.add("io.records", 5)
            obs.add("render.bytes", 100)
        assert trace.counters == {"io.records": 15.0, "render.bytes": 100.0}

    def test_default_increment_is_one(self):
        with obs.capture() as trace:
            obs.add("hits")
            obs.add("hits")
        assert trace.counters["hits"] == 2.0

    def test_gauges_track_last_and_peak(self):
        with obs.capture() as trace:
            obs.gauge("depth", 3)
            obs.gauge("depth", 9)
            obs.gauge("depth", 4)
        assert trace.gauges["depth"] == 4
        assert trace.gauge_peaks["depth"] == 9

    def test_disabled_paths_record_nothing(self):
        obs.add("x", 1)
        obs.gauge("y", 2)
        with obs.span("z"):
            obs.add("x", 1)
        assert obs.current_trace() is None


class TestCapture:
    def test_capture_enables_then_restores(self):
        assert not obs.is_enabled()
        with obs.capture() as trace:
            assert obs.is_enabled()
            assert obs.current_trace() is trace
        assert not obs.is_enabled()
        assert obs.current_trace() is None

    def test_nested_capture_isolated(self):
        with obs.capture() as outer:
            with obs.span("before"):
                pass
            with obs.capture() as inner:
                with obs.span("inside"):
                    pass
            with obs.span("after"):
                pass
        assert [s.name for s in inner.spans] == ["inside"]
        assert [s.name for s in outer.spans] == ["before", "after"]

    def test_open_span_survives_capture_exit(self):
        # A span still open when its trace is swapped away must not corrupt
        # the restored state.
        with obs.capture() as trace:
            with obs.span("a"):
                pass
        with obs.span("late"):  # disabled again: no-op
            pass
        assert len(trace.spans) == 1

    def test_total_time_nonnegative(self):
        with obs.capture() as trace:
            with obs.span("a"):
                pass
        assert trace.total_time() >= 0.0


class TestEnableDisableReset:
    def test_enable_creates_and_keeps_trace(self):
        trace = obs.enable()
        assert obs.is_enabled()
        assert obs.current_trace() is trace
        assert obs.enable() is trace  # idempotent: same trace
        with obs.span("x"):
            pass
        obs.disable()
        assert not obs.is_enabled()
        assert obs.current_trace() is trace  # data survives disable
        assert len(trace) == 1

    def test_reset_drops_data(self):
        obs.enable()
        obs.add("n", 3)
        fresh = obs.reset()
        assert obs.current_trace() is fresh
        assert fresh.counters == {} and len(fresh) == 0


class TestChildIndex:
    def test_index_matches_parents(self):
        with obs.capture() as trace:
            with obs.span("a"):
                with obs.span("a.1"):
                    pass
                with obs.span("a.2"):
                    pass
            with obs.span("b"):
                pass
        index = trace.child_index()
        assert len(index) == len(trace.spans)
        for i, kids in enumerate(index):
            for k in kids:
                assert trace.spans[k].parent == i

    def test_incremental_extension(self):
        trace = obs.enable()
        try:
            with obs.span("first"):
                pass
            assert [s.name for s in trace.roots()] == ["first"]
            with obs.span("second"):
                with obs.span("second.child"):
                    pass
            # spans appended after the first query are picked up
            roots = trace.roots()
            assert [s.name for s in roots] == ["first", "second"]
            assert [s.name for s in trace.children(roots[1])] == ["second.child"]
        finally:
            obs.disable()

    def test_replaced_span_list_resets_index(self):
        from repro.obs.core import SpanRecord, Trace

        trace = Trace()
        trace.spans = [
            SpanRecord("x", 0.0, 1.0, 0, 0, None),
            SpanRecord("x.1", 0.0, 1.0, 1, 1, 0),
        ]
        assert [s.name for s in trace.roots()] == ["x"]
        trace.spans = [SpanRecord("y", 0.0, 1.0, 0, 0, None)]
        assert [s.name for s in trace.roots()] == ["y"]
        assert trace.children(trace.spans[0]) == []

    def test_children_of_leaf_empty(self):
        with obs.capture() as trace:
            with obs.span("leaf"):
                pass
        assert trace.children(trace.spans[0]) == []


class TestTraceId:
    def test_capture_tags_trace(self):
        with obs.capture(trace_id="cafe0001") as trace:
            pass
        assert trace.trace_id == "cafe0001"

    def test_capture_without_id_leaves_none(self):
        with obs.capture() as trace:
            pass
        assert trace.trace_id is None
