"""Every view of one schedule agrees on what it draws and in which colour.

The full view, its LOD cells, a zoom view, the utilization profile and
the ANSI terminal view each colour a task type the same way, and the
full view, the zoom view and LOD all draw a task that the row mask
selects, however thin it is.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.core.colormap import default_colormap
from repro.core.composite import with_composites
from repro.core.model import Schedule
from repro.core.timeframe import TimeFrame
from repro.core.viewport import Viewport
from repro.render.backends.ascii_art import ansi_256, render_ascii
from repro.render.html_payload import build_payload
from repro.render.layout import LayoutOptions, layout_schedule
from repro.render.lod import aggregate
from repro.render.profile import layout_profile
from repro.render.style import Style

OPTIONS = LayoutOptions(width=600, height=320)


def three_tasks() -> Schedule:
    """``a1`` (alpha, cluster 1), ``b2`` (beta, cluster 0) and ``c3`` (alpha,
    cluster 0): the band of cluster 0 and a zoom onto ``[0, 20)`` meet
    beta first, and beta has the larger busy-host peak."""
    s = Schedule()
    s.new_cluster("0", 4)
    s.new_cluster("1", 1)
    s.new_task("a1", "alpha", 20.0, 30.0, cluster="1", host_start=0, host_nb=1)
    s.new_task("b2", "beta", 0.0, 10.0, cluster="0", host_start=0, host_nb=4)
    s.new_task("c3", "alpha", 10.0, 20.0, cluster="0", host_start=0, host_nb=1)
    return s


def expected_fills() -> dict:
    """Palette entries taken in ``task_types()`` order: alpha, then beta."""
    cmap = default_colormap()
    return {t: cmap.style_for_type(t).bg for t in ("alpha", "beta")}


def _one(fills: dict) -> dict:
    """Type -> its colour, or the set of colours when it has several."""
    return {t: f.pop() if len(f) == 1 else f for t, f in fills.items()}


def task_fills(drawing, schedule) -> dict:
    fills: dict = {}
    for r in drawing.rects:
        if r.ref and r.ref.startswith("task:"):
            fills.setdefault(schedule.task(r.ref[5:]).type, set()).add(r.fill)
    return _one(fills)


def lod_fills(drawing, per_task, schedule) -> dict:
    """Type -> fill of LOD cells, each typed by the per-task rect of the
    same layout that holds its centre."""
    fills: dict = {}
    for r in drawing.rects:
        if not (r.ref and r.ref.startswith("lod:")):
            continue
        cx, cy = r.x + r.w / 2, r.y + r.h / 2
        under = [t for t in per_task.rects if t.ref and t.ref.startswith("task:")
                 and t.x <= cx <= t.x + t.w and t.y <= cy <= t.y + t.h]
        fills.setdefault(schedule.task(under[-1].ref[5:]).type, set()).add(r.fill)
    return _one(fills)


def full(schedule, *, legend=True, lod="off"):
    return layout_schedule(schedule, cmap=default_colormap(),
                           style=Style(draw_legend=legend), options=OPTIONS,
                           lod=lod)


def view_fills(name: str) -> dict:
    s = three_tasks()
    if name == "legend-on":
        return task_fills(full(s), s)
    if name == "legend-off":
        return task_fills(full(s, legend=False), s)
    if name == "lod-on":
        return lod_fills(full(s, legend=False, lod="on"),
                         full(three_tasks(), legend=False), s)
    if name == "zoom":
        zoom = Viewport(0.0, 20.0, 0.0, 5.0)
        return task_fills(layout_schedule(s, cmap=default_colormap(),
                                          style=Style(draw_legend=False),
                                          options=OPTIONS, viewport=zoom,
                                          lod="off"), s)
    if name == "profile":
        types = ["alpha", "beta"]
        swatches = [r.fill for r in layout_profile(
            s, cmap=default_colormap(), types=types).rects
            if r.fill is not None and r.stroke is not None]
        return dict(zip(types, swatches))
    assert name == "ascii"
    text = render_ascii(s, ansi=True, viewport=Viewport(0.0, 20.0, 0.0, 5.0))
    codes: dict = {}
    for code, ch in re.findall(r"\x1b\[48;5;(\d+)m(.)", text):
        codes.setdefault({"b": "beta", "c": "alpha"}[ch], set()).add(int(code))
    return _one(codes)


@pytest.mark.parametrize("views", [
    ("legend-on", "legend-off"),
    ("lod-on", "legend-off"),
    ("zoom",),
    ("profile",),
    ("ascii",),
], ids=["legend-on-and-off", "lod-on-and-off", "zoom", "profile", "ascii"])
def test_a_type_has_one_colour_in_every_view(views):
    fills = expected_fills()
    for name in views:
        want = {t: ansi_256(c) for t, c in fills.items()} if name == "ascii" else fills
        assert view_fills(name) == want, name


def test_a_composite_takes_no_palette_entry():
    def schedule(types):
        s = Schedule()
        s.new_cluster("0", 1)
        for i, task_type in enumerate(types):
            s.new_task(f"t{i}", task_type, i, i + 1.0, cluster="0", host_start=0, host_nb=1)
        return s

    styles = default_colormap().type_styles(schedule(["alpha", "composite", "beta"]))
    plain = default_colormap().type_styles(schedule(["alpha", "beta"]))
    assert [styles[0], styles[2]] == plain


def test_the_payload_colours_a_composite_as_its_tasks_are_drawn():
    """The HTML viewer paints the composite type in the colour of the
    composite rects and legend swatch of the PNG/SVG views: its rule
    colour, not a palette entry."""
    s = Schedule()
    s.new_cluster(0, 4)
    s.new_task("c", "computation", 0.0, 10.0, cluster=0, host_start=0, host_nb=4)
    s.new_task("t", "transfer", 5.0, 15.0, cluster=0, host_start=0, host_nb=2)
    s = with_composites(s)
    payload = build_payload(s, cmap=default_colormap())
    drawn = layout_schedule(s, cmap=default_colormap(), options=OPTIONS,
                            lod="off").find_rect("task:c+t").fill
    assert payload["colors"][payload["types"].index("composite")] == drawn.css()


def test_an_lod_cell_of_composites_takes_the_composite_fill():
    """Two overlapping pairs of four types in one LOD cell: the composite
    type covers the most and fills the cell as its first task is drawn."""
    s = Schedule()
    s.new_cluster(0, 2)
    for task_id, task_type, host in [("c", "computation", 0), ("t", "transfer", 0),
                                     ("x", "x", 1), ("y", "y", 1)]:
        s.new_task(task_id, task_type, 0.0, 10.0, cluster=0, host_start=host,
                   host_nb=1)
    s = with_composites(s)
    cmap = default_colormap()
    cells = aggregate(s, np.ones(len(s.columns), dtype=bool), TimeFrame(0.0, 10.0),
                      0, 2, 0.0, 0.0, 2.0, 2.0, cmap, "lod:cell")
    assert [r.fill for r in cells] == [cmap.style_for_task(s.task("c+t")).bg]


def thin_task() -> Schedule:
    """A task one float step long at ``1e9`` in a ``[0, 1e10]`` schedule,
    alone on host row 1."""
    s = Schedule()
    s.new_cluster(0, 2)
    s.new_task("lo", "computation", 0.0, 1.0, cluster=0, host_start=0, host_nb=1)
    s.new_task("hi", "computation", 1e10 - 1.0, 1e10, cluster=0, host_start=0,
               host_nb=1)
    s.new_task("thin", "transfer", 1e9, math.nextafter(1e9, math.inf),
               cluster=0, host_start=1, host_nb=1)
    return s


@pytest.mark.parametrize("view", ["full", "fit"])
def test_a_masked_task_is_drawn_however_thin(view):
    s = thin_task()
    viewport = Viewport.fit(s) if view == "fit" else None
    drawing = layout_schedule(s, options=OPTIONS, viewport=viewport, lod="off")
    assert drawing.find_rect("task:thin") is not None


def test_a_masked_task_is_drawn_however_thin_in_lod():
    s = thin_task()
    thin = layout_schedule(s, options=OPTIONS, viewport=Viewport.fit(s),
                           lod="off").find_rect("task:thin")
    transfer = default_colormap().style_for_type("transfer").bg
    assert any(r.fill == transfer
               and r.y <= thin.y + thin.h / 2 <= r.y + r.h
               and r.x - 1e-6 <= thin.x <= r.x + r.w + 1e-6
               for r in layout_schedule(s, options=OPTIONS, lod="on").rects
               if r.ref and r.ref.startswith("lod:"))
