"""``jedule render`` traced end to end.

A two-task schedule is rendered once with ``--trace --stats``, which must
write a valid Chrome trace holding the pipeline's spans, and once with
``--trace-gantt``, which must draw those spans as a Gantt chart.
"""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.core.model import Schedule
from repro.io import jedule_xml
from repro.obs import validate_chrome_events


@pytest.fixture
def smoke_jed(tmp_path):
    s = Schedule()
    s.new_cluster(0, 8, "cluster 0")
    s.new_task(1, "computation", 0.0, 0.31, cluster=0, host_start=0, host_nb=8)
    s.new_task(2, "transfer", 0.31, 0.50, cluster=0, host_start=0, host_nb=4)
    path = tmp_path / "smoke.jed"
    jedule_xml.dump(s, path)
    return path


def test_render_trace_is_valid_chrome_events(smoke_jed, tmp_path):
    trace = tmp_path / "trace.json"
    assert main(["render", str(smoke_jed), "-o", str(tmp_path / "smoke.png"),
                 "--trace", str(trace), "--stats"]) == 0
    events = json.loads(trace.read_text())["traceEvents"]
    assert events, "trace recorded no events"
    validate_chrome_events(events)  # sorted ts, matched B/E pairs
    names = {e["name"] for e in events}
    for required in ("io.load", "render.layout", "render.encode"):
        assert required in names, f"missing span {required}"


def test_trace_gantt_draws_the_pipeline(smoke_jed, tmp_path):
    gantt = tmp_path / "pipeline.svg"
    assert main(["render", str(smoke_jed), "-o", str(tmp_path / "smoke.svg"),
                 "--trace-gantt", str(gantt)]) == 0
    text = gantt.read_text()
    assert "<svg" in text and text.count("<rect") >= 3
