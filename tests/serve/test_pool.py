"""Tests for the warm worker pool (resident processes, crash recovery)."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.render.api import RenderRequest, execute_request
from repro.serve.pool import (
    WorkerCrash,
    WorkerPool,
    WorkerTimeout,
    shared_pool,
    shutdown_shared_pool,
)
from repro.serve.protocol import canonical_schedule_bytes


@pytest.fixture
def pool():
    p = WorkerPool(2, debug_hooks=True).start()
    yield p
    p.stop()


def _request():
    return RenderRequest(output_format="svg", width=320, height=240)


def _raise(exc):
    """An ``on_lost`` that stops :meth:`WorkerPool.run_on` at its first
    lost attempt, once the slot has been restarted."""
    raise exc


def test_ping_roundtrip(pool):
    pids = {pool.worker(i).ping() for i in range(pool.size)}
    assert pids == set(pool.pids())
    assert os.getpid() not in pids  # really separate processes


def test_render_via_canonical_bytes(pool, tmp_path, simple_schedule):
    request = _request()
    data = canonical_schedule_bytes(simple_schedule)
    first = pool.run_request(request, cache_dir=str(tmp_path / "c"),
                             schedule_bytes=data)
    again = pool.run_request(request, cache_dir=str(tmp_path / "c"),
                             schedule_bytes=data)
    assert first.ok and first.cache == "miss"
    assert again.ok and again.cache == "hit"
    assert first.data == again.data == execute_request(
        request, simple_schedule).data


def test_workers_share_one_cache(pool, tmp_path, simple_schedule):
    request = _request()
    data = canonical_schedule_bytes(simple_schedule)
    pool.run_request(request, cache_dir=str(tmp_path / "c"),
                     schedule_bytes=data)
    # force the job onto each worker: both must see the first one's blob
    for index in range(pool.size):
        result = pool.run_on(index, request,
                             cache_dir=str(tmp_path / "c"),
                             schedule_bytes=data)
        assert result.cache == "hit"


def test_file_input_render(pool, tmp_path, simple_schedule):
    from repro.io import save_schedule

    src = tmp_path / "s.jed"
    save_schedule(simple_schedule, src)
    out = tmp_path / "s.svg"
    result = pool.run_request(
        RenderRequest(input_path=str(src), output_path=str(out)),
        cache_dir=str(tmp_path / "c"))
    assert result.ok and out.stat().st_size == result.nbytes > 0


def test_crash_hook_raises_and_restarts(pool, tmp_path, simple_schedule):
    request = _request()
    before = pool.worker(0).pid
    with pytest.raises(WorkerCrash):
        pool.run_on(0, request,
                    schedule_bytes=canonical_schedule_bytes(simple_schedule),
                    debug={"x_crash": True}, on_lost=_raise)
    assert pool.worker(0).alive
    assert pool.worker(0).pid != before
    assert pool.total_restarts == 1


def test_timeout_kills_and_restarts(pool, simple_schedule):
    request = _request()
    before = pool.worker(1).pid
    started = time.monotonic()
    with pytest.raises(WorkerTimeout):
        pool.run_on(1, request,
                    schedule_bytes=canonical_schedule_bytes(simple_schedule),
                    debug={"x_sleep_s": 30.0}, timeout=0.3, on_lost=_raise)
    assert time.monotonic() - started < 10.0
    assert pool.worker(1).alive and pool.worker(1).pid != before


def test_externally_killed_workers_recover(pool, tmp_path, simple_schedule):
    request = _request()
    data = canonical_schedule_bytes(simple_schedule)
    cache = str(tmp_path / "c")
    pool.run_request(request, cache_dir=cache, schedule_bytes=data)
    for pid in pool.pids():
        os.kill(pid, signal.SIGKILL)
    time.sleep(0.2)
    result = pool.run_request(request, cache_dir=cache, schedule_bytes=data)
    assert result.ok and result.cache == "hit"


def test_restart_budget_exhaustion_reports_not_hangs(simple_schedule):
    pool = WorkerPool(1, max_restarts=1, debug_hooks=True).start()
    try:
        request = _request()
        data = canonical_schedule_bytes(simple_schedule)
        crash = {"x_crash": True}
        with pytest.raises(WorkerCrash):
            pool.run_on(0, request, schedule_bytes=data, debug=crash,
                        on_lost=_raise)
        with pytest.raises(WorkerCrash):
            pool.run_on(0, request, schedule_bytes=data, debug=crash,
                        on_lost=_raise)
        assert not pool.usable  # the only worker stays dead
        result = pool.run_request(request, schedule_bytes=data, timeout=5.0)
        assert not result.ok
        assert "worker" in result.error
    finally:
        pool.stop()


def test_bad_schedule_is_an_error_result_not_a_crash(pool, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    result = pool.run_request(RenderRequest(input_path=str(bad)),
                              cache_dir=None)
    assert not result.ok and result.error
    assert pool.alive_count == pool.size  # workers survived the bad input


def test_map_requests_keeps_order(pool, tmp_path, simple_schedule,
                                  overlap_schedule):
    from repro.io import save_schedule

    paths = []
    for i, schedule in enumerate(
            [simple_schedule, overlap_schedule] * 3):
        path = tmp_path / f"s{i}.jed"
        save_schedule(schedule, path)
        paths.append(path)
    requests = [RenderRequest(input_path=str(p),
                              output_path=str(p.with_suffix(".svg")))
                for p in paths]
    results = pool.map_requests(requests, cache_dir=str(tmp_path / "c"))
    assert [r.input_path for r in results] == [str(p) for p in paths]
    assert all(r.ok for r in results)


def test_shared_pool_is_reused_and_grows():
    shutdown_shared_pool()
    try:
        first = shared_pool(1)
        assert shared_pool(1) is first
        assert first.size == 1
        grown = shared_pool(2)
        assert grown is first and grown.size == 2
        assert shared_pool(1).size == 2  # never shrinks
    finally:
        shutdown_shared_pool()
