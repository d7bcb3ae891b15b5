"""``trace_100k``: one trace-scale schedule opened, then zoomed and panned.

*open* parses the ``.jed`` file once and renders it to PNG (``lod="auto"``)
and to HTML; *zoom* renders a seeded sequence of viewports of the parsed
schedule, built the way ``jedule interactive`` builds them.
Parse, layout and LOD carry the cost here.  A run is one such round,
which already takes longer than the benchmark's run length.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

from common import (
    ROOT,
    Results,
    attribute_phase,
    html_ok,
    html_tier_runs,
    png_ok,
    staged_render,
    timed,
    traced_phase,
)

#: the render stack whose import is this workload's set-up
STACK = ("repro.io.registry", "repro.render.api", "repro.render.backends",
         "repro.core.viewport")
SETUP_REPEATS = 11
#: 10 dives x (4 zoom-ins, 3 pans, 3 clamped zoom-outs) from the full view
DIVES = {"full": 10, "tiny": 2}
#: zoom factor of one step; with four steps a dive ends 16x in
ZOOM = 2.0
WIDTH, HEIGHT = 900, 480


def measure_setup() -> list[float]:
    """Fresh-interpreter import time of the render stack, several times."""
    code = ("import time; t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in STACK)
            + "; print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        samples.append(float(out.stdout.strip()))
    return samples


def zoom_sequence(schedule, seed: int, dives: int):
    """Seeded zoom/pan/clamp viewports; the structure is fixed, the seed
    only jitters the zoom anchors and picks the pan directions.

    Dive ``d`` anchors in the ``d``-th of ``dives`` equal time strips and
    in a row strip of its own (a seeded permutation), so every seed
    samples the whole schedule the same way.  Every view is clamped into
    the schedule, so views of one zoom depth show equally large windows
    and the p50/p90 fall inside a depth rather than between two.
    """
    from repro.core.viewport import Viewport

    rng = random.Random(f"zoom:{seed}")
    fit = Viewport.fit(schedule)
    row_strips = list(range(dives))
    rng.shuffle(row_strips)
    views = []
    for d in range(dives):
        vp = fit
        anchor = (fit.t0 + (d + rng.random()) / dives * fit.time_span,
                  fit.r0 + (row_strips[d] + rng.random()) / dives
                  * fit.resource_span)
        for _ in range(4):
            vp = vp.zoom(ZOOM, at=anchor).clamped_to(fit)
            views.append(vp)
        for dt, dr in ((rng.choice((-0.25, 0.25)), 0.0),
                       (rng.choice((-0.25, 0.25)), 0.0),
                       (0.0, rng.choice((-0.25, 0.25)))):
            vp = vp.pan_fraction(dt, dr).clamped_to(fit)
            views.append(vp)
        for _ in range(3):
            vp = vp.zoom(1 / ZOOM).clamped_to(fit)
            views.append(vp)
    return views


def run(res: Results, inputs: dict, in_dir, seed: int, traced: bool) -> dict:
    from repro.io.registry import load_schedule
    from repro.render.api import RenderRequest, render_request_bytes

    path = str(in_dir / "trace.jed")
    n_jobs = inputs["jobs"]
    png_req = RenderRequest(input_path=path, output_format="png", lod="auto",
                            width=WIDTH, height=HEIGHT)
    html_req = RenderRequest(input_path=path, output_format="html",
                             width=WIDTH, height=HEIGHT)

    # An open is load_schedule + render_request_bytes, exactly what
    # render_request_bytes does for a request with an input path; the one
    # parse is shared by both formats and by the zoom phase.
    schedule, t_load = timed(lambda: load_schedule(path))
    png, t_png = timed(lambda: render_request_bytes(png_req, schedule))
    html, t_html = timed(lambda: render_request_bytes(html_req, schedule))
    res.check(png_ok(png, WIDTH, HEIGHT), "open png does not decode")
    res.check(html_ok(html, n_jobs), "open html payload invalid")

    views = zoom_sequence(schedule, seed, DIVES[inputs["scale"]])
    zoom_reqs = [RenderRequest(output_format="png", viewport=vp,
                               width=WIDTH, height=HEIGHT) for vp in views]
    zoom_times, zoom_bytes = [], []
    for req in zoom_reqs:
        data, t = timed(lambda req=req: render_request_bytes(req, schedule))
        zoom_times.append(t)
        zoom_bytes.append(data)
    for data in zoom_bytes:
        res.check(png_ok(data, WIDTH, HEIGHT), "zoom png does not decode")

    res.metric("open_png_s", t_load + t_png, "s", 1)
    res.metric("open_html_s", t_load + t_html, "s", 1)
    res.timing("zoom_p50_s", zoom_times, p90="zoom_p90_s")
    res.metric("output_bytes", len(png) + len(html), "bytes", 2)
    e2e = {"time_a_s": t_load + t_png, "time_b_s": t_load + t_html}
    if traced:
        del schedule  # the staged replay parses the file again
        untraced = t_load + t_png + t_html + sum(zoom_times)
        _traced(res, png_req, html_req, png, html, zoom_reqs, zoom_bytes,
                untraced)
    return e2e


def _traced(res, png_req, html_req, png, html, zoom_reqs, zoom_bytes,
            untraced: float) -> None:
    """Stage-by-stage replay of every phase under obs capture.

    The replayed open_png phase includes the parse, as the untraced one
    does; open_html and zoom reuse the schedule it loaded.
    """
    from repro.io.registry import load_schedule
    from repro.obs import core as obs

    def open_png():
        with obs.span("bench.io.load"):
            schedule = load_schedule(png_req.input_path)
        return schedule, staged_render(png_req, schedule)

    walls = {}
    (schedule, data), trace, walls["open_png"] = traced_phase(open_png)
    res.check(data == png, "staged open png differs from end-to-end bytes")
    attribute_phase(res, "open_png", trace, walls["open_png"])

    data, trace, walls["open_html"] = traced_phase(
        lambda: staged_render(html_req, schedule))
    res.check(data == html, "staged open html differs from end-to-end bytes")
    attribute_phase(res, "open_html", trace, walls["open_html"])
    res.layer("render.html.tier_runs", html_tier_runs(data), "count")

    outs, trace, walls["zoom"] = traced_phase(
        lambda: [staged_render(req, schedule) for req in zoom_reqs])
    res.check(outs == zoom_bytes, "staged zoom views differ from end-to-end")
    attribute_phase(res, "zoom", trace, walls["zoom"])
    res.layer("obs.trace_overhead", sum(walls.values()) / untraced, "ratio")
