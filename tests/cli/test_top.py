"""Tests for the ``jedule top`` operator dashboard."""

from __future__ import annotations

import pytest

from repro.cli.main import main
from repro.cli.top import render_dashboard
from repro.io import save_schedule
from repro.render.api import RenderRequest
from repro.serve.client import ServeClient
from repro.serve.server import RenderServer


@pytest.fixture
def server(tmp_path):
    srv = RenderServer(workers=1, cache_dir=str(tmp_path / "cache")).start()
    yield srv
    srv.drain()
    assert srv.wait(timeout=30)


def test_top_once_snapshot(tmp_path, server, simple_schedule, capsys):
    client = ServeClient(server.url, client_id="warmup")
    request = RenderRequest(output_format="svg", width=320, height=240)
    for _ in range(2):
        assert client.render(request, schedule=simple_schedule)["status"] \
            == "done"

    assert main(["top", "--url", server.url, "--once"]) == 0
    out = capsys.readouterr().out
    assert "jedule serve - serving" in out
    assert "workers  1/1 alive" in out
    assert "2 submitted  2 ok  0 failed" in out
    assert "1 hit / 1 miss" in out
    # the stage table carries every pipeline stage with its job count;
    # the hit was answered at admission, so only the miss was queued
    for stage, count in (("admit", "2"), ("queue_wait", "1"),
                         ("worker", "1"), ("total", "2")):
        assert any(line.split()[:2] == [stage, count]
                   for line in out.splitlines()), (stage, out)


def test_top_once_over_unix_socket(tmp_path, simple_schedule):
    sock = str(tmp_path / "jedule.sock")
    srv = RenderServer(workers=1, socket_path=sock, cache_dir=None).start()
    try:
        assert main(["top", "--socket", sock, "--once"]) == 0
    finally:
        srv.drain()
        assert srv.wait(timeout=30)


def test_top_requires_a_target():
    with pytest.raises(SystemExit):
        main(["top", "--once"])


def test_render_dashboard_handles_empty_server():
    frame = render_dashboard(
        {"uptime_s": 1.0, "draining": False,
         "queue": {"depth": 0, "capacity": 64, "peak": 0, "by_client": {}},
         "workers": {"total": 2, "alive": 2, "restarts": 0},
         "jobs": {}, "counters": {}},
        "")
    assert "(no jobs finished yet)" in frame
    assert "0/64" in frame


def test_render_dashboard_draining_flag():
    frame = render_dashboard(
        {"uptime_s": 5.0, "draining": True,
         "queue": {"depth": 3, "capacity": 8, "peak": 5, "by_client": {}},
         "workers": {"total": 1, "alive": 1, "restarts": 0},
         "jobs": {}, "counters": {}},
        "")
    assert "DRAINING" in frame
    assert "peak 5" in frame
