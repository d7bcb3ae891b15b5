"""The ``repro report`` dashboard: the run registry, rendered.

Dog-fooding, one level up from :func:`~repro.obs.export.trace_to_schedule`:
where that function renders a *single* run's trace as a Gantt chart, this
module reads the persisted :class:`~repro.obs.runlog.RunLog` and lays the
*trajectory across runs* out as a dashboard — per-stage timing trends,
makespan, utilization/fairness and stretch/slowdown panels — built from
the same :class:`~repro.render.geometry.Drawing` primitives and serialized
by the same SVG/HTML/PNG/… backends as every schedule picture.

No new rendering machinery: panels are line charts made of ``Line`` /
``Rect`` / ``Text`` primitives, stacked with
:func:`~repro.render.compose.stack_drawings`.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.colormap import Color
from repro.errors import RenderError
from repro.obs.runlog import RunLog, RunRecord
from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign
from repro.render.layout import nice_ticks
from repro.render.style import Style

__all__ = ["build_report", "export_report", "report_from_runlog"]

#: categorical palette for trend lines (colorbrewer-ish, readable on white)
_PALETTE = (
    Color(31, 119, 180), Color(255, 127, 14), Color(44, 160, 44),
    Color(214, 39, 40), Color(148, 103, 189), Color(140, 86, 75),
    Color(227, 119, 194), Color(127, 127, 127),
)

#: quality-metric panels: title, unit label, metric keys drawn together
_QUALITY_PANELS = (
    ("makespan", "seconds", ("makespan",)),
    ("utilization / fairness", "ratio", ("utilization", "jain_fairness")),
    ("stretch / slowdown", "x", ("max_stretch", "mean_stretch",
                                 "bounded_slowdown")),
)


def _timing_series(records: list[RunRecord], max_stages: int
                   ) -> dict[str, list[tuple[int, float]]]:
    """Per-stage/per-timing trend points: label -> [(run index, ms)].

    Stage totals and explicit benchmark timings (best of each run list)
    share the panel; the ``max_stages`` heaviest series survive.
    """
    series: dict[str, list[tuple[int, float]]] = {}
    for i, r in enumerate(records):
        for name, stage in r.stages.items():
            series.setdefault(name, []).append(
                (i, float(stage.get("total_s", 0.0)) * 1e3))
        for name, runs in r.timings_s.items():
            values = [float(v) for v in runs] if isinstance(runs, (list, tuple)) \
                else [float(runs)]
            if values:
                series.setdefault(name, []).append((i, min(values) * 1e3))
    ranked = sorted(series,
                    key=lambda n: -max(y for _, y in series[n]))
    return {name: series[name] for name in ranked[:max_stages]}


def _metric_series(records: list[RunRecord], keys: tuple[str, ...]
                   ) -> dict[str, list[tuple[int, float]]]:
    series: dict[str, list[tuple[int, float]]] = {}
    for i, r in enumerate(records):
        for key in keys:
            if key in r.metrics:
                series.setdefault(key, []).append((i, float(r.metrics[key])))
    return series


def _line_panel(
    title: str,
    unit: str,
    series: dict[str, list[tuple[int, float]]],
    n_runs: int,
    *,
    width: int,
    height: int,
    style: Style,
) -> Drawing:
    """One dashboard panel: a line chart of value-per-run-index series."""
    drawing = Drawing(width, height, style.background)
    x0 = style.margin_left
    top = style.margin_top + style.font_size_title
    w = width - x0 - style.margin_right
    h = height - top - style.margin_bottom
    if w <= 10 or h <= 10:
        raise RenderError(f"panel {width}x{height} too small for margins")

    drawing.add(Text(width / 2, 4, title, size=style.font_size_title,
                     color=style.axis_color, halign=HAlign.CENTER,
                     valign=VAlign.TOP))

    ymax = max((y for pts in series.values() for _, y in pts), default=1.0)
    ymax = ymax if ymax > 0 else 1.0
    xmax = max(n_runs - 1, 1)

    def px(i: float) -> float:
        return x0 + (i / xmax) * w

    def py(v: float) -> float:
        return top + h - (v / (ymax * 1.05)) * h

    for level in nice_ticks(0.0, ymax, 5):
        gy = py(level)
        if gy < top:
            continue
        drawing.add(Line(x0, gy, x0 + w, gy, style.grid_color, 0.5))
        drawing.add(Text(x0 - 6, gy, f"{level:g}", size=style.font_size_axes,
                         color=style.axis_color, halign=HAlign.RIGHT,
                         valign=VAlign.MIDDLE))
    for tick in nice_ticks(0.0, float(n_runs - 1), min(n_runs, 8)):
        if tick != int(tick) or not 0 <= tick <= n_runs - 1:
            continue
        gx = px(tick)
        drawing.add(Line(gx, top + h, gx, top + h + 4, style.axis_color, 1.0))
        drawing.add(Text(gx, top + h + 6, f"{int(tick)}",
                         size=style.font_size_axes, color=style.axis_color,
                         halign=HAlign.CENTER, valign=VAlign.TOP))

    for k, (label, points) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        for (i0, v0), (i1, v1) in zip(points, points[1:]):
            drawing.add(Line(px(i0), py(v0), px(i1), py(v1), color, 1.8))
        for i, v in points:  # markers keep single-run series visible
            drawing.add(Rect(px(i) - 2, py(v) - 2, 4, 4, fill=color,
                             ref=f"report:{title}:{label}:{i}"))

    drawing.add(Rect(x0, top, w, h, fill=None, stroke=style.axis_color))
    drawing.add(Text(x0 + w, top + h + 6, f"run index ({unit})",
                     size=style.font_size_axes, color=style.axis_color,
                     halign=HAlign.RIGHT, valign=VAlign.TOP))

    # legend along the bottom edge
    cx = x0
    sw = style.font_size_axes
    for k, label in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        drawing.add(Rect(cx, height - sw - 4, sw, sw, fill=color,
                         stroke=style.task_border))
        drawing.add(Text(cx + sw + 4, height - sw / 2 - 4, label,
                         size=style.font_size_axes, color=style.axis_color,
                         valign=VAlign.MIDDLE))
        cx += sw + 12 + len(label) * style.font_size_axes * 0.6
    return drawing


def build_report(
    records: list[RunRecord],
    *,
    width: int = 1000,
    panel_height: int = 260,
    max_stages: int = 6,
    title: str | None = None,
    style: Style | None = None,
) -> Drawing:
    """Lay the perf trajectory of a record series out as one dashboard.

    Always draws the per-stage timing-trend panel; quality panels
    (makespan, utilization/fairness, stretch/slowdown) appear when the
    records carry the corresponding metrics.
    """
    if not records:
        raise RenderError("cannot build a report from an empty run log")
    style = style or Style()
    n_runs = len(records)

    from repro.render.compose import stack_drawings

    panels: list[Drawing] = []

    header = Drawing(width, 28, style.background)
    suites = ", ".join(sorted({r.suite for r in records if r.suite}))
    span = f"{records[0].created_at} .. {records[-1].created_at}"
    header.add(Text(8, 4, title or f"repro run report — {suites or 'runs'}",
                    size=style.font_size_title, color=style.axis_color,
                    valign=VAlign.TOP))
    header.add(Text(8, 22, f"{n_runs} run(s), {span}",
                    size=style.font_size_meta, color=style.axis_color,
                    valign=VAlign.MIDDLE))
    panels.append(header)

    timing = _timing_series(records, max_stages)
    if timing:
        panels.append(_line_panel("stage / benchmark timings", "ms", timing,
                                  n_runs, width=width, height=panel_height,
                                  style=style))
    for panel_title, unit, keys in _QUALITY_PANELS:
        series = _metric_series(records, keys)
        if series:
            panels.append(_line_panel(panel_title, unit, series, n_runs,
                                      width=width, height=panel_height,
                                      style=style))
    if len(panels) == 1:
        raise RenderError("run log records carry no stage timings, "
                          "benchmark timings or metrics to plot")
    return stack_drawings(panels)


def export_report(records: list[RunRecord], path: str | Path,
                  format: str | None = None, **kwargs) -> Path:
    """Render a run-record dashboard straight to a file."""
    from repro.render.api import export_drawing

    return export_drawing(build_report(records, **kwargs), path, format)


def report_from_runlog(
    runlog_path: str | Path,
    out_path: str | Path,
    *,
    suite: str | None = None,
    name: str | None = None,
    last: int | None = None,
    format: str | None = None,
    **kwargs,
) -> tuple[Path, int]:
    """Read a JSONL registry, filter it, and export the dashboard.

    Returns the output path and the number of records plotted.
    """
    log = RunLog(runlog_path)
    records = log.records(suite=suite, name=name)
    if last is not None and last > 0:
        records = records[-last:]
    if not records:
        raise RenderError(f"no matching run records in {runlog_path}")
    export_report(records, out_path, format=format, **kwargs)
    return Path(out_path), len(records)
