"""Selection, hit-testing and task inspection (interactive mode logic).

In the original Swing GUI, clicking a task rectangle pops up the task's
start/finish times and its resource list; typing filters restrict the view
to clusters, types, or users.  This module implements that logic as pure
functions over the schedule plane, where time is the x axis and global
resource rows (see :meth:`repro.core.model.Schedule.cluster_offset`) the
y axis: resource row ``k`` spans ``[k, k+1)``.

All intervals here are half-open — task time ``[start, end)``, rows
``[k, k+1)`` — matching the :class:`repro.core.viewport.Viewport`
convention, so hit-testing and viewport containment agree on boundary
points.  The embedded JavaScript of the HTML export
(:mod:`repro.render.backends.html`) mirrors exactly these semantics.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.model import Schedule, Task

__all__ = ["TaskInfo", "hit_test", "tasks_in_region", "rows_in_region",
           "describe_task", "Selection"]


def rows_in_region(
    schedule: Schedule, t0: float, t1: float, row0: float, row1: float
) -> np.ndarray:
    """Mask over :attr:`Schedule.columns` of the host ranges intersecting
    the plane region ``[t0, t1) x [row0, row1)``.

    A task rectangle ``[start, end) x [lo, hi)`` intersects the region when
    ``start < t1 and t0 < end`` and ``lo < row1 and row0 < hi``; a
    zero-duration task therefore shows only strictly inside ``(t0, t1)``.
    """
    cols = schedule.columns
    return ((cols.start < t1) & (t0 < cols.end)
            & (cols.row0 < row1) & (row0 < cols.row1))


def hit_test(schedule: Schedule, t: float, row: float) -> Task | None:
    """The topmost task whose rectangle contains plane point ``(t, row)``.

    "Topmost" is the task registered last, matching draw order where later
    tasks (e.g. composites) paint over earlier ones.  Returns ``None`` when
    the point lies on idle background.
    """
    # The point is the region [t, t+) x [row, row+), where x+ is the next
    # float above x: ``start < t+`` holds exactly when ``start <= t``.
    hits = np.flatnonzero(rows_in_region(
        schedule, t, np.nextafter(t, math.inf), row, np.nextafter(row, math.inf)))
    if not hits.size:
        return None
    return schedule.task_at(schedule.columns.task[hits[-1]])


def tasks_in_region(
    schedule: Schedule, t0: float, t1: float, row0: float, row1: float
) -> tuple[Task, ...]:
    """All tasks whose rectangles intersect the given plane region."""
    if t1 < t0:
        t0, t1 = t1, t0
    if row1 < row0:
        row0, row1 = row1, row0
    hits = schedule.columns.task[rows_in_region(schedule, t0, t1, row0, row1)]
    return tuple(map(schedule.task_at, np.unique(hits).tolist()))


@dataclass(frozen=True, slots=True)
class TaskInfo:
    """Inspector payload shown when a task is clicked."""

    task_id: str
    type: str
    start_time: float
    end_time: float
    duration: float
    num_hosts: int
    resources: tuple[tuple[str, tuple[int, ...]], ...]
    meta: tuple[tuple[str, str], ...]

    def to_json(self) -> dict:
        """Plain-JSON form of the inspector payload.

        This is the exact shape the HTML export embeds per task (see
        :mod:`repro.render.html_payload`), so the browser inspector and
        :meth:`lines` stay field-for-field equivalent.
        """
        return {
            "id": self.task_id,
            "type": self.type,
            "start": self.start_time,
            "end": self.end_time,
            "duration": self.duration,
            "num_hosts": self.num_hosts,
            "resources": [[cluster_id, _format_hosts(hosts)]
                          for cluster_id, hosts in self.resources],
            "meta": {k: v for k, v in self.meta},
        }

    def lines(self) -> list[str]:
        """Human-readable inspector text."""
        out = [
            f"task {self.task_id} ({self.type})",
            f"  start:    {self.start_time:.6g}",
            f"  finish:   {self.end_time:.6g}",
            f"  duration: {self.duration:.6g}",
            f"  hosts:    {self.num_hosts}",
        ]
        for cluster_id, hosts in self.resources:
            out.append(f"  cluster {cluster_id}: {_format_hosts(hosts)}")
        for k, v in self.meta:
            out.append(f"  {k} = {v}")
        return out


def _format_hosts(hosts: tuple[int, ...]) -> str:
    """Compact host list: '0-7' or '0-3,8,12-13'."""
    from repro.core.model import hosts_to_ranges

    parts = []
    for r in hosts_to_ranges(hosts):
        parts.append(str(r.start) if r.nb == 1 else f"{r.start}-{r.stop - 1}")
    return ",".join(parts)


def describe_task(task: Task) -> TaskInfo:
    """Build the inspector payload for a task."""
    return TaskInfo(
        task_id=task.id,
        type=task.type,
        start_time=task.start_time,
        end_time=task.end_time,
        duration=task.duration,
        num_hosts=task.num_hosts,
        resources=tuple((c.cluster_id, c.hosts()) for c in task.configurations),
        meta=tuple(sorted(task.meta.items())),
    )


class Selection:
    """A mutable set of selected task ids with toggle semantics.

    Models click-to-select / click-again-to-deselect of the GUI, plus
    predicate-based bulk selection (e.g. "select all of user 6447").
    """

    def __init__(self, schedule: Schedule):
        self._schedule = schedule
        self._ids: set[str] = set()

    @property
    def ids(self) -> frozenset[str]:
        return frozenset(self._ids)

    @property
    def tasks(self) -> tuple[Task, ...]:
        return tuple(t for t in self._schedule if t.id in self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, task_id: object) -> bool:
        return task_id in self._ids

    def toggle(self, task_id: str) -> bool:
        """Toggle one task; returns True when it ends up selected."""
        self._schedule.task(task_id)  # validate existence
        if task_id in self._ids:
            self._ids.discard(task_id)
            return False
        self._ids.add(task_id)
        return True

    def select_where(self, predicate: Callable[[Task], bool]) -> int:
        """Add every matching task; returns how many were added."""
        added = 0
        for t in self._schedule:
            if predicate(t) and t.id not in self._ids:
                self._ids.add(t.id)
                added += 1
        return added

    def select_meta(self, key: str, value: str) -> int:
        """Select all tasks whose meta ``key`` equals ``value``."""
        return self.select_where(lambda t: t.meta.get(key) == value)

    def clear(self) -> None:
        self._ids.clear()

    def highlighted_schedule(self, *, highlight_type: str | None = None) -> Schedule:
        """Copy of the schedule with selected tasks retyped for highlighting.

        Selected tasks get type ``highlight_type`` (default
        ``"<type>:selected"``) so a color map can paint them distinctly —
        this is how Figure 13 turns one user's jobs yellow.
        """
        out = Schedule(self._schedule.clusters, meta=self._schedule.meta)
        for t in self._schedule:
            if t.id in self._ids:
                new_type = highlight_type if highlight_type else f"{t.type}:selected"
                out.add_task(Task(t.id, new_type, t.start_time, t.end_time,
                                  t.configurations, t.meta))
            else:
                out.add_task(t)
        return out
