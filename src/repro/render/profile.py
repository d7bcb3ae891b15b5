"""Utilization-profile charts.

The case studies repeatedly reason about "how many processors are actually
running" over time (Sections III, VI).  This module draws that quantity
directly: a step chart of the busy-host count, optionally stacked per task
type, sharing the time-axis conventions of the Gantt layout so the two
charts can be composed one above the other.
"""

from __future__ import annotations

from repro.core.colormap import ColorMap, default_colormap
from repro.core.model import Schedule
from repro.core.stats import utilization_profile
from repro.core.timeframe import global_frame
from repro.errors import RenderError
from repro.obs import core as _obs
from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign
from repro.render.layout import _time_axis, nice_ticks  # shared axis drawing
from repro.render.style import Style

__all__ = ["layout_profile", "export_profile"]


def layout_profile(
    schedule: Schedule,
    *,
    cmap: ColorMap | None = None,
    style: Style | None = None,
    width: int = 900,
    height: int = 240,
    types: list[str] | None = None,
    title: str | None = None,
) -> Drawing:
    """Draw the busy-host step function of a schedule.

    With ``types`` (a list of task types) one filled step area is drawn per
    type, painted in the type's color map color and overlaid from largest
    to smallest peak; otherwise a single profile over all tasks is drawn.
    """
    cmap = cmap or default_colormap()
    cmap.type_styles(schedule)  # fixes each type's colour before drawing
    style = (style or Style()).with_config(cmap.config)
    drawing = Drawing(width, height, style.background)
    with _obs.span("render.profile", tasks=len(schedule)):
        _layout_profile_into(drawing, schedule, cmap, style, width, height,
                             types, title)
    return drawing


def _layout_profile_into(drawing, schedule, cmap, style, width, height,
                         types, title) -> None:
    """Emit the profile chart's primitives into ``drawing``."""
    x = style.margin_left
    top = style.margin_top + (style.font_size_title if title else 0.0)
    w = width - x - style.margin_right
    h = height - top - style.margin_bottom
    if w <= 10 or h <= 10:
        raise RenderError(f"drawing {width}x{height} too small for margins")

    if title:
        drawing.add(Text(width / 2, 4, title, size=style.font_size_title,
                         color=style.axis_color, halign=HAlign.CENTER,
                         valign=VAlign.TOP))

    frame = global_frame(schedule)
    if frame.span == 0:
        frame = type(frame)(frame.start, frame.start + 1.0)

    groups = [None] if types is None else list(types)
    profiles = []
    for g in groups:
        prof = utilization_profile(schedule, types=None if g is None else [g])
        profiles.append((g, prof))
    peak = max((p.peak for _, p in profiles), default=0)
    ymax = max(peak, 1)

    def px(t: float) -> float:
        return x + frame.fraction(t) * w

    def py(count: float) -> float:
        return top + h - (count / ymax) * h

    # horizontal grid at nice count levels
    for level in nice_ticks(0, ymax, 5):
        gy = py(level)
        drawing.add(Line(x, gy, x + w, gy, style.grid_color, 0.5))
        drawing.add(Text(x - 6, gy, f"{level:.0f}", size=style.font_size_axes,
                         color=style.axis_color, halign=HAlign.RIGHT,
                         valign=VAlign.MIDDLE))

    # filled step areas, biggest peak first so smaller ones stay visible
    profiles.sort(key=lambda gp: -gp[1].peak)
    for g, prof in profiles:
        color = (cmap.style_for_type(g).bg if g is not None
                 else cmap.style_for_type("computation").bg)
        fill = color.lightened(0.45)
        for i in range(len(prof.times) - 1):
            c = prof.counts[i]
            if c <= 0:
                continue
            x0, x1 = px(prof.times[i]), px(prof.times[i + 1])
            drawing.add(Rect(x0, py(c), max(x1 - x0, 0.0), top + h - py(c),
                             fill=fill, ref=None))
        # the step outline on top
        for i in range(len(prof.times) - 1):
            c, cn = prof.counts[i], prof.counts[i + 1] if i + 1 < len(prof.counts) else 0
            x0, x1 = px(prof.times[i]), px(prof.times[i + 1])
            drawing.add(Line(x0, py(c), x1, py(c), color, 1.5))
            drawing.add(Line(x1, py(c), x1, py(cn), color, 1.5))

    drawing.add(Rect(x, top, w, h, fill=None, stroke=style.axis_color))
    _time_axis(drawing, style, x, w, top + h + 2, frame)

    # small legend when splitting by type
    if types:
        cx = x
        for g in types:
            sw = style.font_size_axes
            drawing.add(Rect(cx, height - sw - 4, sw, sw,
                             fill=cmap.style_for_type(g).bg,
                             stroke=style.task_border))
            drawing.add(Text(cx + sw + 4, height - sw / 2 - 4, g,
                             size=style.font_size_axes,
                             color=style.axis_color, valign=VAlign.MIDDLE))
            cx += sw + 10 + len(g) * style.font_size_axes * 0.6


def export_profile(schedule: Schedule, path, format: str | None = None, **kwargs):
    """Render the utilization profile straight to a file."""
    from repro.render.api import export_drawing

    return export_drawing(layout_profile(schedule, **kwargs), path, format)
