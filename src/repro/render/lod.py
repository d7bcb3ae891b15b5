"""Level-of-detail (LOD) aggregation for rendering very large schedules.

The plain layout emits one rectangle per task configuration, so both layout
and rasterization cost grow linearly with task count even when thousands of
jobs collapse into a single pixel column — a one-day Thunder window is 834
jobs, but the full PWA trace is ~120k.  Gantt charts stop being readable
*and* renderable at that scale without aggregation (Scully-Allison & Isaacs,
"Design and Evaluation of Scalable Representations of Communication in
Gantt Charts for Large-scale Execution Traces").

This module implements the aggregation stage that runs *before* primitive
emission: the (host, time) plane of a cluster band (or of an interactive
viewport window) is divided into a grid of (host-band x time-bucket) cells a
few pixels on a side; every task deposits its approximate covered area into
the cells it touches, split by task type; each cell is then colored by its
dominant type and horizontal runs of equally-colored cells merge into one
:class:`~repro.render.geometry.Rect`.  The number of emitted primitives is
bounded by the pixel grid, not by the task count.

The per-type accumulation uses a 2-D difference array: each task rectangle
contributes four corner updates via ``np.add.at`` and a double cumulative
sum recovers the per-cell totals, so the cost per task is O(1) regardless of
how many cells the task spans.

Aggregated rects carry ``ref`` values starting with :data:`LOD_REF_PREFIX`
so hit-testing and tests can tell them apart from per-task rects.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.colormap import ColorMap
from repro.core.model import Schedule
from repro.core.select import rows_in_region
from repro.core.timeframe import TimeFrame
from repro.core.viewport import Viewport
from repro.errors import RenderError
from repro.render.geometry import Rect

__all__ = [
    "LOD_MODES",
    "LOD_REF_PREFIX",
    "LodOptions",
    "resolve_lod",
    "lod_active",
    "cell_grid",
    "band_cell_grid",
    "cell_runs",
    "aggregate_band",
    "aggregate_window",
]

#: Valid values of the ``lod=`` rendering parameter / ``--lod`` CLI flag.
LOD_MODES = ("auto", "on", "off")

#: ``ref`` prefix of aggregated rectangles.
LOD_REF_PREFIX = "lod:"


@dataclass(frozen=True, slots=True)
class LodOptions:
    """Knobs of the level-of-detail aggregation.

    ``mode``:
        ``"off"`` never aggregates, ``"on"`` always does, ``"auto"``
        aggregates when the (visible) task count exceeds ``task_threshold``
        or the plot offers fewer than ``min_pixels_per_task`` pixels per
        task.
    ``time_bucket_px`` / ``row_bucket_px``:
        approximate cell size of the aggregation grid, in device pixels.
    """

    mode: str = "auto"
    task_threshold: int = 4000
    min_pixels_per_task: float = 1.0
    time_bucket_px: float = 2.0
    row_bucket_px: float = 2.0

    def __post_init__(self) -> None:
        if self.mode not in LOD_MODES:
            raise RenderError(
                f"unknown lod mode {self.mode!r}; expected one of: {', '.join(LOD_MODES)}")
        if self.task_threshold < 1:
            raise RenderError(f"lod task threshold must be >= 1, got {self.task_threshold}")
        if self.time_bucket_px <= 0 or self.row_bucket_px <= 0:
            raise RenderError(
                f"lod bucket sizes must be > 0, got "
                f"{self.time_bucket_px}x{self.row_bucket_px}")


def resolve_lod(lod: str | LodOptions | None) -> LodOptions:
    """Normalize the ``lod=`` parameter to a :class:`LodOptions`."""
    if lod is None:
        return LodOptions()
    if isinstance(lod, LodOptions):
        return lod
    return LodOptions(mode=str(lod).strip().lower())


def lod_active(options: LodOptions, n_tasks: int, plot_w: float, plot_h: float) -> bool:
    """Decide whether aggregation should run for ``n_tasks`` in a plot area."""
    if options.mode == "off":
        return False
    if options.mode == "on":
        return True
    if n_tasks > options.task_threshold:
        return True
    if n_tasks <= 0:
        return False
    return (plot_w * plot_h) / n_tasks < options.min_pixels_per_task


def cell_runs(cells: np.ndarray) -> Iterable[tuple[int, int, int, int]]:
    """Yield ``(iy, x0, x1, type_index)`` runs of equally-typed cells.

    Horizontal runs of the same type merge into one entry; empty cells
    (type -1) are skipped.  Shared by the raster LOD path (runs become
    :class:`Rect` primitives) and the HTML exporter (runs become tier
    payload entries).
    """
    ny, nx = cells.shape
    for iy in range(ny):
        row = cells[iy]
        if not (row >= 0).any():
            continue
        change = np.flatnonzero(np.diff(row)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [nx]))
        for s, e in zip(starts, ends):
            ti = int(row[s])
            if ti >= 0:
                yield iy, int(s), int(e), ti


def _cells_to_rects(types: list[str], cells: np.ndarray, x: float, y: float,
                    w: float, h: float, cmap: ColorMap, ref: str) -> list[Rect]:
    """Merge horizontal runs of equally-typed cells into filled rects."""
    ny, nx = cells.shape
    cell_w = w / nx
    cell_h = h / ny
    fills = [cmap.style_for_type(t).bg for t in types]
    return [Rect(x + s * cell_w, y + iy * cell_h, (e - s) * cell_w, cell_h,
                 fill=fills[ti], ref=ref)
            for iy, s, e, ti in cell_runs(cells)]


def _grid_shape(options: LodOptions, w: float, h: float, rows: int) -> tuple[int, int]:
    nx = max(1, int(w / options.time_bucket_px))
    ny = max(1, min(rows, int(h / options.row_bucket_px)))
    return nx, ny


def cell_grid(
    schedule: Schedule,
    rows: np.ndarray,
    frame: TimeFrame,
    row0: float,
    row1: float,
    nx: int,
    ny: int,
) -> np.ndarray:
    """Dominant-type cell grid of one window of the schedule plane.

    ``rows`` selects the :attr:`~repro.core.model.Schedule.columns` rows
    (task host ranges) that deposit; the grid covers ``frame``
    horizontally and the global host rows ``[row0, row1)`` vertically.
    ``cells[iy, ix]`` indexes :meth:`~repro.core.model.Schedule.task_types`
    (-1 where nothing deposited).  The one grid behind cluster bands
    (:func:`band_cell_grid`), viewports (:func:`aggregate_window`) and the
    HTML tiers (:mod:`repro.render.html_payload`).
    """
    cols = schedule.columns
    span = frame.span or 1.0
    f0, f1 = frame.start, frame.end
    ti, st, en, r0, r1 = (a[rows] for a in (
        cols.type, cols.start, cols.end, cols.row0, cols.row1))
    cst = np.maximum(st, f0)
    cen = np.minimum(en, f1)
    # Keep tasks with positive in-frame overlap, plus zero-duration tasks
    # lying inside the frame (they get a defined one-cell deposit below).
    # Anything with cen < cst is entirely outside; tasks merely *touching*
    # the frame edge (cen == cst but en > st) cover zero in-frame area and
    # used to deposit phantom epsilon slivers in the first/last column.
    keep = (cen > cst) | ((en == st) & (cen == cst))
    if not keep.all():
        ti, st, en, r0, r1, cst, cen = (
            a[keep] for a in (ti, st, en, r0, r1, cst, cen))
    if not ti.size:
        return np.full((ny, nx), -1, dtype=np.intp)
    gx0 = (cst - f0) * (nx / span)
    gx1 = (cen - f0) * (nx / span)
    bx0 = np.minimum(gx0.astype(np.intp), nx - 1)
    # Zero-duration tasks have gx1 == gx0, so bx1 collapses to bx0 + 1:
    # exactly one cell, carrying the epsilon weight term below.
    bx1 = np.maximum(np.minimum(np.ceil(gx1).astype(np.intp), nx), bx0 + 1)
    gy0 = (np.maximum(r0, row0) - row0) * (ny / (row1 - row0))
    gy1 = (np.minimum(r1, row1) - row0) * (ny / (row1 - row0))
    by0 = np.minimum(gy0.astype(np.intp), ny - 1)
    by1 = np.maximum(np.minimum(np.ceil(gy1).astype(np.intp), ny), by0 + 1)
    # Approximate per-cell covered area: exact for interior cells, an
    # overestimate on the boundary cells a task only partly covers.
    cell_t = 1.0 / nx
    cell_r = 1.0 / ny
    wt = ((np.minimum((gx1 - gx0) * cell_t, cell_t) + 1e-12)
          * (np.minimum((gy1 - gy0) * cell_r, cell_r) + 1e-12))
    # Per-type difference arrays over the types present: the four corner
    # updates plus a double cumulative sum make the cost per deposit O(1)
    # no matter how many cells the rectangle spans.
    present, ti = np.unique(ti, return_inverse=True)
    diff = np.zeros((present.size, ny + 1, nx + 1))
    np.add.at(diff, (ti, by0, bx0), wt)
    np.add.at(diff, (ti, by0, bx1), -wt)
    np.add.at(diff, (ti, by1, bx0), -wt)
    np.add.at(diff, (ti, by1, bx1), wt)
    stacked = diff.cumsum(axis=1).cumsum(axis=2)[:, :ny, :nx]
    cells = present[np.argmax(stacked, axis=0)]
    # Emptiness by an exact deposit count from the same corner updates: the
    # float sums leave cancellation residue in cells no deposit covers.
    count = np.zeros((ny + 1, nx + 1), dtype=np.int64)
    np.add.at(count, (by0, bx0), 1)
    np.add.at(count, (by0, bx1), -1)
    np.add.at(count, (by1, bx0), -1)
    np.add.at(count, (by1, bx1), 1)
    cells[count.cumsum(axis=0).cumsum(axis=1)[:ny, :nx] == 0] = -1
    return cells


def band_cell_grid(
    schedule: Schedule,
    cluster_id: str,
    frame: TimeFrame,
    rows: int,
    nx: int,
    ny: int,
) -> tuple[list[str], np.ndarray]:
    """Dominant-type cell grid of one cluster band: ``(types, cells)``.

    ``cells[iy, ix]`` indexes ``types``, the schedule's task types (-1
    where nothing deposited); the grid covers ``frame`` horizontally and
    the cluster-local host rows ``[0, rows)`` vertically.  Shared by the
    raster LOD path (:func:`aggregate_band`) and the HTML tier exporter
    (:mod:`repro.render.html_payload`).
    """
    offset = schedule.cluster_offset(cluster_id)
    index = [c.id for c in schedule.clusters].index(str(cluster_id))
    cells = cell_grid(schedule, schedule.columns.cluster == index, frame,
                      offset, offset + rows, nx, ny)
    return list(schedule.task_types()), cells


def aggregate_band(
    schedule: Schedule,
    cluster_id: str,
    frame: TimeFrame,
    rows: int,
    x: float,
    band_y: float,
    w: float,
    band_h: float,
    cmap: ColorMap,
    options: LodOptions,
) -> list[Rect]:
    """Aggregated rectangles for one cluster band of the full layout.

    Mirrors the geometry of the per-task path: time maps through ``frame``
    onto ``[x, x+w]``, cluster-local host rows onto ``[band_y,
    band_y+band_h]``.
    """
    nx, ny = _grid_shape(options, w, band_h, rows)
    types, cells = band_cell_grid(schedule, cluster_id, frame, rows, nx, ny)
    if not types:
        return []
    return _cells_to_rects(types, cells, x, band_y, w, band_h, cmap,
                           f"{LOD_REF_PREFIX}{cluster_id}")


def aggregate_window(
    schedule: Schedule,
    viewport: Viewport,
    x: float,
    y: float,
    w: float,
    h: float,
    cmap: ColorMap,
    options: LodOptions,
) -> list[Rect]:
    """Aggregated rectangles for the interactive (viewport) layout.

    Deposits exactly the host ranges the viewport shows
    (:func:`repro.core.select.rows_in_region`); rows are global
    (flattened) resource indices as in the windowed layout.
    """
    nx, ny = _grid_shape(options, w, h, max(1, math.ceil(viewport.resource_span)))
    visible = rows_in_region(schedule, viewport.t0, viewport.t1,
                             viewport.r0, viewport.r1)
    cells = cell_grid(schedule, visible, viewport.time_frame,
                      viewport.r0, viewport.r1, nx, ny)
    return _cells_to_rects(list(schedule.task_types()), cells, x, y, w, h,
                           cmap, f"{LOD_REF_PREFIX}viewport")
