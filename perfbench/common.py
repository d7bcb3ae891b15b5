"""Shared pieces of the benchmark: result book-keeping, output checks,
percentiles and per-layer accounting over captured obs traces."""

from __future__ import annotations

import gc
import json
import math
import re
import xml.etree.ElementTree as ET
import zlib
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

_DATA_RE = re.compile(
    rb'<script type="application/json" id="jedule-data">(.*?)</script>', re.S)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    data = sorted(values)
    return data[max(0, math.ceil(q * len(data)) - 1)]


class Results:
    """Everything one run reports: end-to-end metrics, per-layer metrics,
    attempted/failed operation counts and the reasons for each failure."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}   # the workload's own metric names
        self.layers: dict[str, dict] = {}    # per-layer metric names
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.trace_docs: list[dict] = []     # traced phases, wire form

    def metric(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "n": n}

    def timing(self, name: str, samples, *, p90: str | None = None) -> None:
        """Median of ``samples`` as ``name``; with ``p90`` also its p90."""
        self.metric(name, median(samples), "s", len(samples))
        if p90 is not None:
            self.metric(p90, percentile(samples, 0.90), "s", len(samples))

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = {"value": value, "unit": unit}

    def add_layer(self, name: str, value: float, unit: str = "s") -> None:
        prev = self.layers.get(name, {"value": 0.0})["value"]
        self.layer(name, prev + value, unit)

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a wrong output counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


# ------------------------------------------------------------ output checks
def png_ok(data: bytes, width: int, height: int) -> bool:
    from repro.errors import RenderError
    from repro.render.png_codec import decode_png

    try:
        pixels = decode_png(data)
    except (RenderError, ValueError, zlib.error):
        return False
    return tuple(pixels.shape[:2]) == (height, width)


def svg_ok(data: bytes) -> bool:
    try:
        root = ET.fromstring(data)
    except ET.ParseError:
        return False
    return root.tag.endswith("svg")


def html_ok(data: bytes, task_count: int) -> bool:
    from repro.errors import RenderError
    from repro.render.html_payload import validate_payload

    match = _DATA_RE.search(data)
    if match is None:
        return False
    try:
        payload = validate_payload(json.loads(match.group(1)))
    except (RenderError, ValueError):
        return False
    return payload["task_count"] == task_count


def output_ok(data: bytes, fmt: str, *, width: int, height: int,
              task_count: int) -> bool:
    if fmt == "png":
        return png_ok(data, width, height)
    if fmt == "svg":
        return svg_ok(data)
    return html_ok(data, task_count)


def html_tier_runs(data: bytes) -> int:
    """Run count over every LOD tier embedded in an HTML page."""
    payload = json.loads(_DATA_RE.search(data).group(1))
    lod = payload.get("lod") or {"tiers": []}
    return sum(len(band["runs"]) for tier in lod["tiers"]
               for band in tier["clusters"])


# ------------------------------------------------------- staged rendering
# Each render layer is called through its public function, in the order
# render_request_bytes calls it, inside a ``bench.*`` span.  The spans the
# program emits itself (io.load, parse.*, render.lod, render.png.*) nest
# inside them, so per-layer self time falls out of one captured trace.
def staged_render(request, schedule=None):
    """Stage-by-stage equivalent of ``render_request_bytes``."""
    from repro.core.timeframe import ViewMode
    from repro.io.registry import load_schedule
    from repro.obs import core as obs
    from repro.render.layout import LayoutOptions, layout_schedule

    if schedule is None:
        with obs.span("bench.io.load"):
            schedule = load_schedule(request.input_path, request.input_format)
    with obs.span("bench.transform"):
        schedule = request.transformed(schedule)
    fmt = request.resolved_output_format()
    if fmt == "html":
        from repro.render.backends.html import render_html_interactive
        from repro.render.html_payload import build_payload

        lod = request.lod if isinstance(request.lod, str) else request.lod.mode
        with obs.span("bench.html.payload"):
            payload = build_payload(
                schedule, cmap=request.resolve_cmap(schedule),
                title=request.title, threshold=request.html_threshold,
                tiers=request.html_tiers, lod_mode=lod,
                initial=request.resolve_viewport(schedule))
        with obs.span("bench.html.emit"):
            return render_html_interactive(payload, width=request.width,
                                           height=request.height)
    with obs.span("bench.layout"):
        options = LayoutOptions(width=request.width, height=request.height,
                                mode=ViewMode.parse(request.mode),
                                title=request.title)
        drawing = layout_schedule(
            schedule, cmap=request.resolve_cmap(schedule),
            style=request.resolve_style(), options=options,
            viewport=request.resolve_viewport(schedule), lod=request.lod)
    if fmt == "svg":
        from repro.render.backends.svg import render_svg

        with obs.span("bench.svg"):
            return render_svg(drawing)
    from repro.render.png_codec import encode_png
    from repro.render.raster import rasterize

    with obs.span("bench.rasterize"):
        pixels = rasterize(drawing).pixels
    with obs.span("bench.encode_png"):
        return encode_png(pixels)


#: per-layer metric -> span whose summed duration it is (render.layout_s
#: is handled separately: it is bench.layout minus the render.lod inside)
LAYER_SPANS = {
    "io.load_s": "bench.io.load",
    "render.lod_s": "render.lod",
    "render.rasterize_s": "bench.rasterize",
    "render.png.filter_s": "render.png.filter",
    "render.png.compress_s": "render.png.compress",
    "render.svg_s": "bench.svg",
    "render.html.payload_s": "bench.html.payload",
    "render.html.emit_s": "bench.html.emit",
}


def attribute_phase(res: Results, phase: str, trace, wall: float) -> None:
    """Fold one captured phase into the per-layer metrics.

    Layer times are self times and never overlap, so they plus the
    phase's ``unattributed`` remainder add up to its traced wall time.
    """
    from repro.obs.export import trace_to_doc

    res.trace_docs.append(trace_to_doc(trace))
    totals: dict[str, float] = {}
    for s in trace.spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
    layers = {name: totals.get(span, 0.0) for name, span in LAYER_SPANS.items()}
    layers["render.layout_s"] = (totals.get("bench.layout", 0.0)
                                 - totals.get("render.lod", 0.0))
    for name, value in layers.items():
        res.add_layer(name, value)
    counters = trace.counters
    res.add_layer("io.tasks", counters.get("io.tasks_loaded", 0.0), "count")
    res.add_layer("render.layout.primitives",
                  counters.get("render.primitives", 0.0), "count")
    res.add_layer("render.lod.cells", counters.get("render.lod_cells", 0.0),
                  "count")
    res.layer(f"obs.unattributed.{phase}_s", wall - sum(layers.values()), "s")


def pipeline_gantt(res: Results, path: Path, title: str) -> None:
    """Render the traced phases as a Jedule Gantt chart of the pipeline.

    Each span becomes a task and each root span name a cluster band
    (``obs.export.trace_to_schedule``), so the chart shows per layer where
    the traced run spent its time.
    """
    from repro.obs.core import Trace
    from repro.obs.export import graft_trace_doc, trace_to_schedule
    from repro.render.api import RenderRequest, render_request_bytes

    merged = Trace()
    for lane, doc in enumerate(res.trace_docs, start=1):
        graft_trace_doc(merged, doc, tid=lane)
    schedule = trace_to_schedule(merged, name=title)
    data = render_request_bytes(
        RenderRequest(output_format="svg", width=1200, height=600,
                      title=title), schedule)
    res.check(svg_ok(data), "pipeline Gantt is not valid SVG")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def traced_phase(fn):
    """Run ``fn`` under a fresh obs capture; returns (result, trace, wall)."""
    from repro.obs import core as obs

    with obs.capture() as trace:
        started = perf_counter()
        out = fn()
        wall = perf_counter() - started
    return out, trace, wall


def timed(fn):
    """(result, seconds) of one call."""
    started = perf_counter()
    out = fn()
    return out, perf_counter() - started


# ------------------------------------------------------------- host speed
# The benchmark shares a few cores with other tenants of its host, whose
# load changes the speed of this process by 15-30% over seconds to
# minutes; every timing follows it.  A fixed pure-Python loop that runs no
# Jedule code, timed in short slices between in-process renders, follows
# the same swings.  A render time scaled to a host on which one slice
# takes REF_SLICE_S moves with the program's speed and not with the
# neighbours' load.  Slices run only while no Jedule code does, so the
# program's own load never enters them.
REF_SLICE_S = 0.6e-3
_REF_LOOPS = 5000


def reference_slice() -> float:
    """Seconds one run of the reference loop took."""
    # with the collector on, a slice could pay for a collection of the
    # program's heap
    collecting = gc.isenabled()
    gc.disable()
    started = perf_counter()
    acc: dict[int, int] = {}
    for i in range(_REF_LOOPS):
        acc[i % 97] = acc.get(i % 97, 0) + i
    took = perf_counter() - started
    if collecting:
        gc.enable()
    return took
