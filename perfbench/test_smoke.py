"""Smoke test of the benchmark at tiny input sizes.

Runs every workload untraced and traced through ``run.py --scale tiny``
and checks that every metric is emitted under its fixed name and unit,
that no output failed its check, and that layers a workload bypasses
report 0.  Run with ``python -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: the gated end-to-end metrics (BENCHMARK.json), pinned here so that a
#: rename shows up as a test failure
END_TO_END = {"setup_s": "s", "time_a_s": "s", "time_b_s": "s",
              "output_bytes": "bytes", "peak_rss_mb": "MB"}
#: the workload's own metrics, printed on the ``detail`` line
DETAIL = {
    "trace_100k": {"open_png_s": "s", "open_html_s": "s", "zoom_p50_s": "s",
                   "zoom_p90_s": "s"},
    "figure_set": {"figure_p50_s": "s", "figure_p90_s": "s",
                   "figure_png_s": "s", "figure_svg_s": "s",
                   "figure_png_norm_s": "s", "figure_svg_norm_s": "s",
                   "batch_cold_s": "s", "batch_warm_s": "s",
                   "host_slice_ms": "ms"},
    "serve_mix": {"serve_hit_p50_s": "s", "serve_hit_p90_s": "s",
                  "serve_miss_p50_s": "s", "serve_miss_p90_s": "s",
                  "serve_hit_mean_s": "s", "serve_miss_mean_s": "s"},
}
COMMON = {"setup_s": "s", "output_bytes": "bytes", "peak_rss_mb": "MB",
          "error_rate": "ratio"}
#: the detail metric each gated timing slot carries, per workload
SLOTS = {
    "trace_100k": {"time_a_s": "open_png_s", "time_b_s": "open_html_s"},
    "figure_set": {"time_a_s": "figure_png_norm_s",
                   "time_b_s": "figure_svg_norm_s"},
    "serve_mix": {"time_a_s": "serve_miss_mean_s",
                  "time_b_s": "serve_hit_p50_s"},
}

#: per-layer metrics each workload must drive above 0
REACHED = {
    "trace_100k": ["io.load_s", "io.tasks", "render.layout_s",
                   "render.layout.primitives", "render.lod_s",
                   "render.lod.cells", "render.rasterize_s",
                   "render.png.filter_s", "render.png.compress_s",
                   "render.html.payload_s", "render.html.tier_runs",
                   "render.html.emit_s"],
    "figure_set": ["io.load_s", "io.tasks", "render.layout_s",
                   "render.rasterize_s", "render.png.filter_s",
                   "render.png.compress_s", "render.svg_s",
                   "batch.cache.digest_s", "batch.cache.get_s",
                   "batch.cache.put_s", "batch.cache.hit_ratio",
                   "batch.job_s"],
    "serve_mix": ["serve.submit_s", "serve.worker_s", "serve.poll_gap_s",
                  "serve.cache_hit_ratio", "serve.queue_peak",
                  "serve.worker.render.layout_s",
                  "serve.worker.render.rasterize_s",
                  "serve.worker.render.png.compress_s"],
}
#: bypass predictions: layers a workload never reaches report exactly 0
BYPASSED = {
    "trace_100k": ["batch.cache.digest_s", "batch.cache.get_s",
                   "batch.cache.put_s", "batch.cache.hit_ratio",
                   "serve.poll_gap_s"],
    "figure_set": ["render.lod_s", "render.lod.cells", "serve.poll_gap_s"],
    "serve_mix": ["batch.cache.digest_s", "batch.cache.get_s",
                  "batch.cache.put_s", "render.lod_s"],
}


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    """(detail doc, result object) of one tiny run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return detail, json.loads(lines[-1])


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_every_metric(workload):
    detail, result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert _units(SPEC["end_to_end"]) == END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    emitted = {k: v["unit"] for k, v in detail["metrics"].items()}
    assert emitted == {**DETAIL[workload], **COMMON}
    assert all(v["n"] >= 1 for v in detail["metrics"].values())
    assert detail["metrics"]["error_rate"]["value"] == 0
    slots = {**SLOTS[workload], "setup_s": "setup_s"}
    for slot, name in slots.items():
        assert result["metrics"][slot]["value"] == \
            detail["metrics"][name]["value"], slot


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_attributes_layers(workload):
    _, result = run_bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        _units(SPEC["per_layer"])
    assert metrics["obs.trace_overhead"]["value"] > 0
    for name in REACHED[workload]:
        assert metrics[name]["value"] > 0, name
    for name in BYPASSED[workload]:
        assert metrics[name]["value"] == 0, name
