"""Layout engine: schedule -> device-space :class:`Drawing`.

This is the core of the visualizer.  Given a schedule, a color map, a style
and a view mode it computes the Gantt chart geometry of Section II of the
paper:

* the resource axis is divided into ``p`` equal segments (one per host),
  clusters stacked top-to-bottom in registration order with a gap between
  cluster bands;
* each task configuration becomes one rectangle per contiguous host range,
  spanning its hosts vertically and its time interval horizontally;
* in ``SCALED`` view each cluster band has its own local time frame and its
  own time axis; in ``ALIGNED`` view all bands share the global frame and a
  single bottom axis;
* rectangles are labeled with the task identifier when the label fits at no
  less than ``min_font_size_label``;
* when a :class:`~repro.core.viewport.Viewport` is supplied the layout
  renders exactly that window (always aligned), clipping tasks to it — this
  is what interactive zooming/panning draws.

The produced :class:`Drawing` keeps entity references on task rectangles so
hit-testing (and tests) can map pixels back to tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.colormap import ColorMap, TaskStyle, default_colormap
from repro.core.model import Schedule, Task
from repro.core.select import rows_in_region
from repro.core.slices import is_continuation, is_preempted, job_of
from repro.core.timeframe import TimeFrame, ViewMode, cluster_frame, global_frame
from repro.core.viewport import Viewport
from repro.errors import RenderError
from repro.obs import core as _obs
from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign
from repro.render.lod import LOD_REF_PREFIX, aggregate, check_lod_mode, lod_active
from repro.render.style import Style

__all__ = ["LayoutOptions", "layout_schedule", "nice_ticks", "estimate_text_width"]

#: Mean glyph advance as a fraction of the em size (Helvetica-like).
_CHAR_ASPECT = 0.60


def estimate_text_width(text: str, size: float) -> float:
    """Approximate rendered width of ``text`` at em size ``size``."""
    return len(text) * size * _CHAR_ASPECT


def nice_ticks(lo: float, hi: float, target: int = 8) -> list[float]:
    """Tick positions at "nice" steps (1/2/5 x 10^k) covering [lo, hi].

    Returns ticks inside the interval, inclusive of endpoints that land on a
    step.  Degenerate intervals yield the single position ``lo``.
    """
    if target < 2:
        target = 2
    span = hi - lo
    if span <= 0 or not math.isfinite(span):
        return [lo]
    raw = span / (target - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target - 1:
            break
    # Ticks are integer multiples of the step, computed fresh per tick so no
    # floating-point error accumulates over long axes.
    k0 = math.ceil(lo / step - 1e-9)
    ticks = []
    k = k0
    while True:
        t = k * step
        if t > hi + step * 1e-6:
            break
        t = 0.0 if abs(t) < step * 1e-9 else t
        if ticks and t <= ticks[-1]:
            # The step is below the float resolution at this magnitude
            # (sub-epsilon span): k advances but t cannot, so stop rather
            # than emit duplicate tick positions.
            break
        ticks.append(t)
        k += 1
        if len(ticks) > 4 * target:
            break  # hard cap: never emit unboundedly many ticks
    return ticks or [lo]


def _format_tick(value: float, step: float) -> str:
    """Tick label with just enough decimals for the step size."""
    if step >= 1 or step == 0:
        return f"{value:.0f}"
    decimals = min(6, max(0, -math.floor(math.log10(step))))
    return f"{value:.{decimals}f}"


@dataclass(frozen=True, slots=True)
class LayoutOptions:
    """Rendering options of the command-line interface."""

    width: int = 900
    height: int = 480
    mode: ViewMode = ViewMode.ALIGNED
    title: str | None = None


@dataclass(frozen=True, slots=True)
class _Band:
    """One cluster band: its vertical extent, host rows and time frame."""

    cluster_id: str
    index: int
    y: float
    height: float
    row0: int
    rows: int
    frame: TimeFrame


def _cluster_bands(
    schedule: Schedule, style: Style, plot_y: float, plot_h: float, mode: ViewMode,
    axis_gap: float,
) -> list[_Band]:
    """Split the vertical plot area into per-cluster bands."""
    clusters = schedule.clusters
    n = len(clusters)
    total_rows = sum(c.num_hosts for c in clusters)
    if total_rows == 0:
        raise RenderError("schedule has no resources to draw")
    gaps = (n - 1) * (style.cluster_gap + axis_gap) + (axis_gap if axis_gap else 0.0)
    usable = plot_h - gaps
    if usable <= 0:
        raise RenderError(f"drawing too small: {plot_h:.0f}px cannot fit {n} cluster bands")
    row_h = usable / total_rows
    gframe = global_frame(schedule)
    bands: list[_Band] = []
    y = plot_y
    row0 = 0
    for i, c in enumerate(clusters):
        frame = gframe if mode is ViewMode.ALIGNED else cluster_frame(schedule, c.id)
        if frame.span == 0:  # empty or instantaneous cluster: give it a unit frame
            frame = TimeFrame(frame.start, frame.start + 1.0)
        h = row_h * c.num_hosts
        bands.append(_Band(c.id, i, y, h, row0, c.num_hosts, frame))
        y += h + style.cluster_gap + axis_gap
        row0 += c.num_hosts
    return bands


def _task_label(drawing: Drawing, task: Task, x: float, y: float, w: float, h: float,
                style: Style, tstyle: TaskStyle) -> None:
    """Centered task-id label, shrunk to fit, dropped below the minimum size;
    its colour is ``tstyle``'s label colour, computed only for a label drawn.

    Slices of a preempted job are labelled with the *job* id, and only on
    the first slice — continuation slices stay unlabelled so a job chopped
    into ten quanta does not repeat its name ten times.
    """
    if is_continuation(task):
        return
    label = job_of(task)
    size = style.font_size_label
    needed = estimate_text_width(label, size)
    if needed > w * 0.9:
        size *= (w * 0.9) / max(needed, 1e-9)
    if size < style.min_font_size_label or size > h:
        return
    drawing.add(Text(x + w / 2, y + h / 2, label, size=size,
                     color=tstyle.label_color(), halign=HAlign.CENTER,
                     valign=VAlign.MIDDLE))


def _preempt_mark(drawing: Drawing, x: float, y: float, w: float, h: float,
                  style: Style) -> None:
    """Right-edge chevron on a slice that was cut short by preemption.

    Two diagonal strokes notching into the rectangle — the visual cue that
    the job does not end here but continues in a later slice.
    """
    d = min(w * 0.4, h * 0.35, 5.0)
    if d < 1.0:
        return
    drawing.add(Line(x + w, y, x + w - d, y + h / 2, style.axis_color, 1.0))
    drawing.add(Line(x + w - d, y + h / 2, x + w, y + h, style.axis_color, 1.0))


def _time_axis(drawing: Drawing, style: Style, x: float, w: float, y: float,
               frame: TimeFrame) -> None:
    """Horizontal time axis with nice ticks below a band (or the whole plot)."""
    drawing.add(Line(x, y, x + w, y, style.axis_color))
    ticks = nice_ticks(frame.start, frame.end, style.time_ticks)
    step = ticks[1] - ticks[0] if len(ticks) > 1 else 1.0
    for t in ticks:
        px = x + frame.fraction(t) * w
        drawing.add(Line(px, y, px, y + style.tick_length, style.axis_color))
        drawing.add(Text(px, y + style.tick_length + 2, _format_tick(t, step),
                         size=style.font_size_axes, color=style.axis_color,
                         halign=HAlign.CENTER, valign=VAlign.TOP))


def _legend(drawing: Drawing, schedule: Schedule, cmap: ColorMap, style: Style,
            x: float, y: float, width: float) -> None:
    """One row of type swatches at the bottom of the drawing."""
    sw = style.font_size_axes
    cx = x
    for task_type, s in zip(schedule.task_types(), cmap.type_styles(schedule)):
        label_w = estimate_text_width(task_type, style.font_size_axes)
        if cx + sw + 4 + label_w > x + width:
            break
        drawing.add(Rect(cx, y, sw, sw, fill=s.bg, stroke=style.task_border))
        drawing.add(Text(cx + sw + 4, y + sw / 2, task_type, size=style.font_size_axes,
                         color=style.axis_color, valign=VAlign.MIDDLE))
        cx += sw + 4 + label_w + 16


def layout_schedule(
    schedule: Schedule,
    *,
    cmap: ColorMap | None = None,
    style: Style | None = None,
    options: LayoutOptions | None = None,
    viewport: Viewport | None = None,
    lod: str = "auto",
) -> Drawing:
    """Lay a schedule out as a :class:`Drawing`.

    With ``viewport`` the drawing shows exactly that plane window with a
    single shared axis (interactive view); otherwise the full schedule is
    drawn in the requested :class:`ViewMode`.

    ``lod`` selects the level-of-detail aggregation for large schedules
    (one of :data:`~repro.render.lod.LOD_MODES`, case and surrounding
    blanks ignored): ``"auto"`` (default) aggregates only when tasks
    outnumber the available pixels, ``"on"`` forces aggregation, ``"off"``
    always draws one rectangle per task configuration.
    """
    cmap = cmap or default_colormap()
    cmap.type_styles(schedule)  # fixes each type's colour before drawing
    style = (style or Style()).with_config(cmap.config)
    options = options or LayoutOptions()
    lod = check_lod_mode(str(lod).strip().lower())
    with _obs.span("render.layout", tasks=len(schedule),
                   windowed=viewport is not None):
        if viewport is not None:
            drawing = _layout_windowed(schedule, cmap, style, options,
                                       viewport, lod)
        else:
            drawing = _layout_full(schedule, cmap, style, options, lod)
    _obs.add("render.primitives", len(drawing))
    return drawing


def _chrome(drawing: Drawing, schedule: Schedule, cmap: ColorMap, style: Style,
            options: LayoutOptions) -> tuple[float, float, float, float]:
    """Title, meta line and legend; returns the inner plot box (x, y, w, h)."""
    top = style.margin_top
    if options.title:
        drawing.add(Text(drawing.width / 2, 4, options.title, size=style.font_size_title,
                         color=style.axis_color, halign=HAlign.CENTER, valign=VAlign.TOP))
        top += style.font_size_title
    if style.draw_meta and schedule.meta:
        meta_text = "  ".join(f"{k}={v}" for k, v in sorted(schedule.meta.items()))
        drawing.add(Text(style.margin_left, top - 4, meta_text, size=style.font_size_meta,
                         color=style.axis_color, valign=VAlign.BOTTOM))
    bottom = style.margin_bottom + (style.legend_height if style.draw_legend else 0.0)
    x = style.margin_left
    w = drawing.width - x - style.margin_right
    h = drawing.height - top - bottom
    if w <= 10 or h <= 10:
        raise RenderError(
            f"drawing {drawing.width}x{drawing.height} too small for margins")
    if style.draw_legend:
        _legend(drawing, schedule, cmap, style, x,
                drawing.height - style.legend_height, w)
    return x, top, w, h


def _band_chrome(drawing: Drawing, band: _Band, style: Style, x: float,
                 w: float) -> None:
    """Cluster name and host indices along the left edge of a band, its
    host grid and its outline."""
    drawing.add(Text(4, band.y + band.height / 2, band.cluster_id,
                     size=style.font_size_axes, color=style.axis_color,
                     valign=VAlign.MIDDLE, rotated=True))
    row_h = band.height / band.rows
    step = max(1, math.ceil((style.font_size_axes + 2) / row_h))
    for host in range(0, band.rows, step):
        cy = band.y + (host + 0.5) * row_h
        drawing.add(Text(x - 6, cy, str(host), size=style.font_size_axes,
                         color=style.axis_color, halign=HAlign.RIGHT,
                         valign=VAlign.MIDDLE))
    if style.draw_grid:
        for host in range(band.rows + 1):
            gy = band.y + host * row_h
            drawing.add(Line(x, gy, x + w, gy, style.grid_color, 0.5))
    drawing.add(Rect(x, band.y, w, band.height, fill=None, stroke=style.axis_color))


def _draw_rows(drawing: Drawing, schedule: Schedule, rows: np.ndarray,
               frame: TimeFrame, r0: float, r1: float,
               box: tuple[float, float, float, float], cmap: ColorMap,
               style: Style, aggregated: bool, ref: str) -> None:
    """The task rectangles of the column ``rows`` in one plane window.

    ``rows`` masks :attr:`~repro.core.model.Schedule.columns` and alone
    decides what is drawn.  The window is ``frame`` x host rows
    ``[r0, r1)``, mapped onto the device ``box`` ``(x, y, w, h)``: a time
    ``t`` to ``x + frame.fraction(frame.clamp(t)) * w``, a host row, clipped
    to ``[r0, r1)``, to ``ty(row) = y + (row - r0) / (r1 - r0) * h``, so a
    row's rect is ``ty(hi) - ty(lo)`` high.  When ``aggregated`` the rows
    become LOD cells tagged ``lod:<ref>``; otherwise each row is one rect
    with its preempt chevron and label.
    """
    x, y, w, h = box
    if aggregated:
        with _obs.span("render.lod", window=ref, rows=int(np.count_nonzero(rows))):
            cells = aggregate(schedule, rows, frame, r0, r1, x, y, w, h, cmap,
                              f"{LOD_REF_PREFIX}{ref}")
            drawing.extend(cells)
            _obs.add("render.lod_cells", len(cells))
        return

    cols = schedule.columns
    # The float operations of the rules above, on all rows at once.
    top = y + (np.maximum(cols.row0[rows], r0) - r0) / (r1 - r0) * h
    bottom = y + (np.minimum(cols.row1[rows], r1) - r0) / (r1 - r0) * h
    fx0, fx1 = ((np.minimum(np.maximum(t, frame.start), frame.end) - frame.start)
                / frame.span for t in (cols.start[rows], cols.end[rows]))
    border = style.task_border if style.draw_task_borders else None
    current = None
    for ti, rx, rw, ry, rh in zip(cols.task[rows].tolist(), (x + fx0 * w).tolist(),
                                  np.maximum((fx1 - fx0) * w, 0.0).tolist(),
                                  top.tolist(), (bottom - top).tolist()):
        if ti != current:
            current, task = ti, schedule.task_at(ti)
            tstyle = cmap.style_for_task(task)
        drawing.add(Rect(rx, ry, rw, rh, fill=tstyle.bg, stroke=border,
                         ref=f"task:{task.id}"))
        if is_preempted(task):
            _preempt_mark(drawing, rx, ry, rw, rh, style)
        if style.draw_labels:
            _task_label(drawing, task, rx, ry, rw, rh, style, tstyle)


def _layout_full(schedule: Schedule, cmap: ColorMap, style: Style,
                 options: LayoutOptions, lod: str) -> Drawing:
    drawing = Drawing(options.width, options.height, style.background)
    x, y, w, h = _chrome(drawing, schedule, cmap, style, options)
    per_band_axis = options.mode is ViewMode.SCALED and len(schedule.clusters) > 1
    axis_gap = (style.font_size_axes + style.tick_length + 8) if per_band_axis else 0.0
    bands = _cluster_bands(schedule, style, y, h, options.mode, axis_gap)
    aggregated = lod_active(lod, len(schedule), w, h)
    for band in bands:
        _band_chrome(drawing, band, style, x, w)
        _draw_rows(drawing, schedule, schedule.columns.cluster == band.index,
                   band.frame, band.row0, band.row0 + band.rows,
                   (x, band.y, w, band.height), cmap, style, aggregated,
                   band.cluster_id)
        if per_band_axis:
            _time_axis(drawing, style, x, w, band.y + band.height + 2, band.frame)
    if not per_band_axis:
        frame = bands[0].frame if bands else global_frame(schedule)
        _time_axis(drawing, style, x, w, y + h + 2, frame)
    return drawing


def _layout_windowed(schedule: Schedule, cmap: ColorMap, style: Style,
                     options: LayoutOptions, viewport: Viewport,
                     lod: str) -> Drawing:
    """Interactive view: draw exactly the viewport window, rows continuous."""
    drawing = Drawing(options.width, options.height, style.background)
    x, y, w, h = _chrome(drawing, schedule, cmap, style, options)
    rspan = viewport.resource_span

    def ty(row: float) -> float:
        return y + (row - viewport.r0) / rspan * h

    # cluster separators + grid on visible whole rows
    if style.draw_grid:
        first = math.ceil(viewport.r0)
        for row in range(first, math.floor(viewport.r1) + 1):
            gy = ty(row)
            if y <= gy <= y + h:
                drawing.add(Line(x, gy, x + w, gy, style.grid_color, 0.5))
    offset = 0
    for c in schedule.clusters:
        sep = ty(float(offset))
        if offset > 0 and y <= sep <= y + h:
            drawing.add(Line(x, sep, x + w, sep, style.axis_color, 1.5))
        offset += c.num_hosts
    drawing.add(Rect(x, y, w, h, fill=None, stroke=style.axis_color))

    # Viewport culling: off-screen host ranges never produce primitives (nor
    # style lookups), so the zoom cost scales with what is visible.  The one
    # mask feeds the task count and the drawing.
    visible = rows_in_region(schedule, viewport.t0, viewport.t1,
                             viewport.r0, viewport.r1)
    n_visible = np.unique(schedule.columns.task[visible]).size
    _draw_rows(drawing, schedule, visible, viewport.time_frame, viewport.r0,
               viewport.r1, (x, y, w, h), cmap, style,
               lod_active(lod, n_visible, w, h), "viewport")
    _time_axis(drawing, style, x, w, y + h + 2, viewport.time_frame)
    return drawing
