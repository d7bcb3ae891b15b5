"""Task-graph structure rendering (the Figure 6 artifact).

Figure 6 of the paper shows the Montage workflow as a layered node-link
diagram where "nodes with the same color are of same task type".  This
module draws any :class:`~repro.dag.graph.TaskGraph` that way:

* one row per precedence level, top to bottom;
* nodes ordered within a row by the barycenter of their predecessors (one
  median-heuristic pass, which removes most edge crossings in layered
  DAGs like Montage);
* node fill from the color map by task *type*, label = task id;
* straight edges, drawn beneath the nodes.
"""

from __future__ import annotations

import math

from repro.core.colormap import ColorMap, auto_colormap_types, default_colormap
from repro.dag.graph import TaskGraph
from repro.errors import RenderError
from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign
from repro.render.layout import estimate_text_width
from repro.render.style import Style

__all__ = ["layout_dag", "export_dag"]


def _order_rows(graph: TaskGraph) -> list[list[str]]:
    """Levels top-down, with a barycenter pass to reduce crossings."""
    levels = graph.precedence_levels()
    depth = max(levels.values(), default=0) + 1
    rows: list[list[str]] = [[] for _ in range(depth)]
    for node_id in graph.task_ids:
        rows[levels[node_id]].append(node_id)
    # barycenter ordering, one top-down sweep
    position: dict[str, float] = {}
    for i, node_id in enumerate(rows[0]):
        position[node_id] = float(i)
    for row in rows[1:]:
        def key(node_id: str) -> float:
            preds = graph.predecessors(node_id)
            if not preds:
                return 0.0
            return sum(position[p] for p in preds) / len(preds)

        row.sort(key=lambda n: (key(n), n))
        for i, node_id in enumerate(row):
            position[node_id] = float(i)
    return rows


def layout_dag(
    graph: TaskGraph,
    *,
    cmap: ColorMap | None = None,
    style: Style | None = None,
    width: int = 900,
    height: int = 600,
    title: str | None = None,
    show_labels: bool = True,
) -> Drawing:
    """Draw a task graph as a layered node-link diagram."""
    if len(graph) == 0:
        raise RenderError("empty task graph")
    style = style or Style()
    cmap = cmap or auto_colormap_types(sorted({n.type for n in graph}))
    drawing = Drawing(width, height, style.background)

    top = style.margin_top + (style.font_size_title if title else 0.0)
    if title:
        drawing.add(Text(width / 2, 4, title, size=style.font_size_title,
                         color=style.axis_color, halign=HAlign.CENTER,
                         valign=VAlign.TOP))
    x0 = style.margin_right
    w = width - 2 * style.margin_right
    h = height - top - style.margin_bottom
    if w <= 10 or h <= 10:
        raise RenderError(f"drawing {width}x{height} too small for margins")

    rows = _order_rows(graph)
    depth = len(rows)
    max_row = max(len(r) for r in rows)
    node_h = min(max(h / depth * 0.55, 8.0), 30.0)
    node_w = min(max(w / max_row * 0.8, 10.0), 110.0)
    row_pitch = h / depth

    centers: dict[str, tuple[float, float]] = {}
    for level, row in enumerate(rows):
        cy = top + (level + 0.5) * row_pitch
        pitch = w / len(row)
        for i, node_id in enumerate(row):
            centers[node_id] = (x0 + (i + 0.5) * pitch, cy)

    # edges first, so nodes paint over them
    for e in graph.edges:
        sx, sy = centers[e.src]
        dx, dy = centers[e.dst]
        drawing.add(Line(sx, sy + node_h / 2, dx, dy - node_h / 2,
                         style.grid_color, 1.0))

    for node in graph:
        cx, cy = centers[node.id]
        tstyle = cmap.style_for_type(node.type)
        drawing.add(Rect(cx - node_w / 2, cy - node_h / 2, node_w, node_h,
                         fill=tstyle.bg, stroke=style.task_border,
                         ref=f"node:{node.id}"))
        if show_labels:
            size = style.font_size_label
            needed = estimate_text_width(node.id, size)
            if needed > node_w * 0.95:
                size *= (node_w * 0.95) / max(needed, 1e-9)
            if size >= style.min_font_size_label * 0.6:
                drawing.add(Text(cx, cy, node.id, size=size,
                                 color=tstyle.label_color(),
                                 halign=HAlign.CENTER, valign=VAlign.MIDDLE))
    return drawing


def export_dag(graph: TaskGraph, path, format: str | None = None, **kwargs):
    """Render a task graph straight to a file (suffix picks the backend)."""
    from repro.render.api import export_drawing

    return export_drawing(layout_dag(graph, **kwargs), path, format)
