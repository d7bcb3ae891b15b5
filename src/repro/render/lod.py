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

import numpy as np

from repro.core.colormap import ColorMap
from repro.core.model import Schedule
from repro.core.timeframe import TimeFrame
from repro.errors import RenderError
from repro.render.geometry import Rect

__all__ = [
    "LOD_MODES",
    "LOD_REF_PREFIX",
    "TASK_THRESHOLD",
    "MIN_PIXELS_PER_TASK",
    "TIME_BUCKET_PX",
    "ROW_BUCKET_PX",
    "check_lod_mode",
    "lod_active",
    "cell_grid",
    "cell_runs",
    "aggregate",
]

#: Valid values of the ``lod=`` rendering parameter / ``--lod`` CLI flag.
LOD_MODES = ("auto", "on", "off")

#: ``ref`` prefix of aggregated rectangles.
LOD_REF_PREFIX = "lod:"

#: ``auto`` aggregates above this many (visible) tasks ...
TASK_THRESHOLD = 4000
#: ... or when the plot offers fewer pixels per task than this.
MIN_PIXELS_PER_TASK = 1.0

#: Approximate aggregation cell size, in device pixels.
TIME_BUCKET_PX = 2.0
ROW_BUCKET_PX = 2.0


def check_lod_mode(mode: str) -> str:
    """Return ``mode`` when it is one of :data:`LOD_MODES`, else raise."""
    if mode not in LOD_MODES:
        raise RenderError(f"unknown lod mode {mode!r} (expected one of: "
                          f"{', '.join(LOD_MODES)})")
    return mode


def lod_active(mode: str, n_tasks: int, plot_w: float, plot_h: float) -> bool:
    """Decide whether aggregation should run for ``n_tasks`` in a plot area.

    ``"off"`` never aggregates, ``"on"`` always does, ``"auto"`` does when
    ``n_tasks`` exceeds :data:`TASK_THRESHOLD` or the plot offers fewer
    than :data:`MIN_PIXELS_PER_TASK` pixels per task.
    """
    if mode == "off":
        return False
    if mode == "on":
        return True
    if n_tasks > TASK_THRESHOLD:
        return True
    if n_tasks <= 0:
        return False
    return (plot_w * plot_h) / n_tasks < MIN_PIXELS_PER_TASK


def cell_runs(cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """Runs of equally-typed cells as ``(iy, x0, x1, type_index)`` arrays.

    Horizontal runs of the same type merge into one entry, ``[x0, x1)`` in
    row ``iy``, in row-major order; empty cells (type -1) are skipped.
    Shared by the raster LOD path (runs become :class:`Rect` primitives)
    and the HTML exporter (runs become tier payload entries).
    """
    ny, nx = cells.shape
    # A run starts at the first cell of a row and wherever the type changes.
    starts = np.ones((ny, nx), dtype=bool)
    np.not_equal(cells[:, 1:], cells[:, :-1], out=starts[:, 1:])
    iy, x0 = np.nonzero(starts)
    # It ends where the next one starts; the run after a row's last run
    # starts at x0 == 0 of the next row, so the row's width ends it.
    x1 = np.append(x0[1:], 0)
    x1[x1 == 0] = nx
    kind = cells[iy, x0]
    keep = kind >= 0
    return iy[keep], x0[keep], x1[keep], kind[keep]


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
    (-1 where nothing deposited).  The one grid behind the raster LOD
    path (:func:`aggregate`, for cluster bands and viewports) and the
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
    np.cumsum(diff, axis=1, out=diff)  # in place: no copy of the grid
    np.cumsum(diff, axis=2, out=diff)
    # The dominant type of a cell is the first of the largest totals, as
    # np.argmax(diff, axis=0) picks it, without the copy of the whole grid
    # that argmax makes to reduce over its first axis.
    best = diff[0, :ny, :nx].copy()
    dominant = np.zeros((ny, nx), dtype=np.intp)
    for k in range(1, present.size):
        np.copyto(dominant, k, where=diff[k, :ny, :nx] > best)
        np.maximum(best, diff[k, :ny, :nx], out=best)
    del diff, best  # so the count grid below takes their place
    cells = present[dominant]
    # Emptiness by an exact deposit count from the same corner updates: the
    # float sums leave cancellation residue in cells no deposit covers.
    count = np.zeros((ny + 1, nx + 1), dtype=np.int64)
    np.add.at(count, (by0, bx0), 1)
    np.add.at(count, (by0, bx1), -1)
    np.add.at(count, (by1, bx0), -1)
    np.add.at(count, (by1, bx1), 1)
    np.cumsum(count, axis=0, out=count)
    np.cumsum(count, axis=1, out=count)
    cells[count[:ny, :nx] == 0] = -1
    return cells


def aggregate(
    schedule: Schedule,
    rows: np.ndarray,
    frame: TimeFrame,
    row0: float,
    row1: float,
    x: float,
    y: float,
    w: float,
    h: float,
    cmap: ColorMap,
    ref: str,
) -> list[Rect]:
    """Aggregated rectangles of one window of the schedule plane.

    The selected column ``rows`` deposit into a :func:`cell_grid` of
    cells about :data:`TIME_BUCKET_PX` x :data:`ROW_BUCKET_PX` device
    pixels (at most one per host row); time maps through ``frame`` onto
    ``[x, x+w]`` and the host rows ``[row0, row1)`` onto ``[y, y+h]``.
    Horizontal runs of equally-typed cells merge into one rect tagged
    ``ref`` and filled as :meth:`~repro.core.colormap.ColorMap.type_styles`
    styles its type.
    """
    nx = max(1, int(w / TIME_BUCKET_PX))
    ny = max(1, min(math.ceil(row1 - row0), int(h / ROW_BUCKET_PX)))
    cells = cell_grid(schedule, rows, frame, row0, row1, nx, ny)
    cell_w = w / nx
    cell_h = h / ny
    fills = [s.bg for s in cmap.type_styles(schedule)]
    return [Rect(x + s * cell_w, y + iy * cell_h, (e - s) * cell_w, cell_h,
                 fill=fills[ti], ref=ref)
            for iy, s, e, ti in zip(*(a.tolist() for a in cell_runs(cells)))]
