"""Render service observability — tracing/metrics overhead budget.

PR-over-PR the serve path gained per-request tracing (trace id threading,
worker span capture, cross-process stitching) and a Prometheus metrics
registry on the hot path (histogram observe per stage, counter per
event).  The claim: all of it rides inside the existing request lifecycle
and costs < 3% wall-clock on a render-bound stream of jobs.

Two identical servers, caches off so every job really renders: one with
``trace_jobs=True`` (stitching + /metricz live, the default), one with
``trace_jobs=False``.  The same wave of jobs goes through both; the
overhead ratio is printed and bounded only loosely (wall clock varies per
runner) while job counts, stage-histogram totals and the /metricz
parse-back are asserted.
"""

from __future__ import annotations

from time import perf_counter

from conftest import pinned, report

from bench_lod_scaling import synthetic_trace

from repro.render.api import RenderRequest
from repro.serve.client import ServeClient
from repro.serve.metrics import parse_prometheus_text
from repro.serve.server import RenderServer

N_JOBS = 12
N_TASKS = 800
WORKERS = 2
REPEATS = 2             # best-of waves, to damp runner noise
OVERHEAD_BUDGET = 1.03  # advisory: instrumented <= 3% over bare


def _requests() -> list[RenderRequest]:
    return [RenderRequest(output_format="svg", width=640, height=400,
                          lod="off", title=f"serve obs bench {i}")
            for i in range(N_JOBS)]


def _run_wave(server: RenderServer, *, repeats: int = REPEATS
              ) -> tuple[float, int, dict]:
    """Best-of-``repeats`` waves of N_JOBS; (seconds, ok-per-wave, statz)."""
    schedule = synthetic_trace(N_TASKS, seed=42)
    client = ServeClient(server.url, client_id="bench-obs")
    for index in range(WORKERS):  # spawn cost out of the measurement
        server._pool.worker(index).ping()
    best, ok = float("inf"), 0
    for _ in range(repeats):
        started = perf_counter()
        pending = [client.submit(request, schedule=schedule)
                   for request in _requests()]
        jobs = [client.wait(doc["id"], timeout=600.0) for doc in pending]
        best = min(best, perf_counter() - started)
        ok = sum(1 for j in jobs if j["status"] == "done")
    return best, ok, server.statz_payload()


def test_tracing_and_metrics_overhead():
    traced = RenderServer(workers=WORKERS, queue_depth=N_JOBS * 2,
                          cache_dir=None, trace_jobs=True).start()
    try:
        traced_s, traced_ok, _ = _run_wave(traced)
        client = ServeClient(traced.url, client_id="bench-obs")
        metricz = client.metricz()
    finally:
        traced.drain()
        assert traced.wait(timeout=60)

    bare = RenderServer(workers=WORKERS, queue_depth=N_JOBS * 2,
                        cache_dir=None, trace_jobs=False).start()
    try:
        bare_s, bare_ok, _ = _run_wave(bare)
    finally:
        bare.drain()
        assert bare.wait(timeout=60)

    parsed = parse_prometheus_text(metricz)
    stage_counts = {
        dict(key)["stage"]: value
        for key, value in parsed["jedule_serve_stage_seconds_count"].items()
    }
    jobs_ok = parsed["jedule_serve_jobs_total"][(("status", "ok"),)]
    overhead = traced_s / max(bare_s, 1e-9)

    total_jobs = N_JOBS * REPEATS
    report("serve tracing/metrics overhead", [
        ("jobs per wave", str(N_JOBS), str(N_JOBS)),
        ("bare wave (best)", "-", f"{bare_s * 1e3:.1f} ms"),
        ("traced wave (best)", "-", f"{traced_s * 1e3:.1f} ms"),
        ("overhead", f"<= {OVERHEAD_BUDGET:.2f}x", f"{overhead:.3f}x"),
        ("stage samples (worker)", str(total_jobs),
         str(int(stage_counts.get("worker", 0)))),
        ("/metricz families", ">= 8", str(len(parsed))),
    ])
    assert {"jobs": N_JOBS, "traced_ok": traced_ok, "bare_ok": bare_ok,
            "metricz_jobs_ok": int(jobs_ok),
            "stage_samples": int(stage_counts.get("worker", 0))} == pinned(
        {"jobs": 12, "traced_ok": 12, "bare_ok": 12, "metricz_jobs_ok": 24,
         "stage_samples": 24})

    assert traced_ok == N_JOBS and bare_ok == N_JOBS
    assert jobs_ok == float(total_jobs)
    # every finished job feeds every pipeline stage exactly once
    for stage in ("queue_wait", "worker", "total"):
        assert stage_counts.get(stage) == float(total_jobs), \
            (stage, stage_counts)
    # the wall-clock ratio is advisory; only a blow-up fails
    assert overhead < 2.0, f"tracing overhead blew up: {overhead:.2f}x"
