"""ASCII/ANSI terminal backend.

Renders a schedule directly (not via the pixel layout) into a character
grid: one text row per resource, time along columns.  Used by the terminal
interactive mode and handy for quick looks in CI logs.  With ``ansi=True``
task cells are painted with 256-color background escapes approximating the
color map.
"""

from __future__ import annotations

import math

from repro.core.colormap import Color, ColorMap, default_colormap
from repro.core.model import Schedule, Task
from repro.core.select import rows_in_region
from repro.core.viewport import Viewport

__all__ = ["render_ascii", "ansi_256"]


def ansi_256(color: Color) -> int:
    """Nearest xterm-256 palette index (6x6x6 color cube)."""
    def level(v: int) -> int:
        return 0 if v < 48 else 1 if v < 114 else (v - 35) // 40
    return 16 + 36 * level(color.r) + 6 * level(color.g) + level(color.b)


def _cell_char(task: Task) -> str:
    """Representative character for a task: first alnum of its id."""
    for ch in task.id:
        if ch.isalnum():
            return ch
    return "#"


def render_ascii(
    schedule: Schedule,
    *,
    width: int = 100,
    cmap: ColorMap | None = None,
    ansi: bool = False,
    viewport: Viewport | None = None,
    show_axis: bool = True,
    show_labels: bool = True,
) -> str:
    """Render a schedule as text, one row per host.

    Later tasks overwrite earlier ones in shared cells (matching z-order);
    idle cells show ``.``.  ``width`` is the number of time columns.
    """
    cmap = cmap or default_colormap()
    cmap.type_styles(schedule)  # fixes each type's colour before drawing
    if viewport is None:
        viewport = Viewport.fit(schedule)
    frame = viewport.time_frame
    row_lo = int(math.floor(viewport.r0))
    row_hi = int(math.ceil(viewport.r1))
    n_rows = max(row_hi - row_lo, 1)

    grid: list[list[str]] = [["." for _ in range(width)] for _ in range(n_rows)]
    colors: list[list[int | None]] = [[None] * width for _ in range(n_rows)]

    # the host ranges with a host row in the grid, in task order
    cols = schedule.columns
    rows = rows_in_region(schedule, viewport.t0, viewport.t1,
                          row_lo, row_lo + n_rows)
    current = None
    for ti, row0, row1 in zip(cols.task[rows].tolist(), cols.row0[rows].tolist(),
                              cols.row1[rows].tolist()):
        if ti != current:
            current, task = ti, schedule.task_at(ti)
            x0 = int(frame.fraction(frame.clamp(task.start_time)) * width)
            x1 = int(math.ceil(frame.fraction(frame.clamp(task.end_time)) * width))
            x1 = min(max(x1, x0 + 1), width)
            ch = _cell_char(task)
            code = ansi_256(cmap.style_for_task(task).bg)
        for row in range(max(row0, row_lo) - row_lo, min(row1 - row_lo, n_rows)):
            grid[row][x0:x1] = [ch] * (x1 - x0)
            colors[row][x0:x1] = [code] * (x1 - x0)

    label_w = len(str(row_hi - 1)) + 1 if show_labels else 0
    lines: list[str] = []
    cluster_bounds = set()
    off = 0
    for c in schedule.clusters:
        off += c.num_hosts
        cluster_bounds.add(off)

    global_row = row_lo
    for row in range(n_rows):
        prefix = f"{global_row:>{label_w - 1}} " if show_labels else ""
        if ansi:
            cells = []
            for x in range(width):
                code = colors[row][x]
                if code is None:
                    cells.append(grid[row][x])
                else:
                    cells.append(f"\x1b[48;5;{code}m{grid[row][x]}\x1b[0m")
            lines.append(prefix + "".join(cells))
        else:
            lines.append(prefix + "".join(grid[row]))
        global_row += 1
        if global_row - row_lo < n_rows and global_row in cluster_bounds:
            lines.append(" " * label_w + "-" * width)

    if show_axis:
        axis = [" "] * width
        marks = []
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = min(int(frac * (width - 1)), width - 1)
            axis[x] = "|"
            marks.append((x, f"{frame.at_fraction(frac):.4g}"))
        lines.append(" " * label_w + "".join(axis))
        label_line = [" "] * (width + 12)
        for x, text in marks:
            for i, ch in enumerate(text):
                if x + i < len(label_line):
                    label_line[x + i] = ch
        lines.append(" " * label_w + "".join(label_line).rstrip())
    return "\n".join(lines) + "\n"
