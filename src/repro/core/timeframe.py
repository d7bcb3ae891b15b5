"""Per-cluster time frames: scaled vs. aligned views (paper Section II-C-3).

Each cluster schedule ``S_Cj`` is self-contained, starting at ``t_s^Cj`` (the
minimal start time of its tasks) and ending at ``t_f^Cj`` (their maximal
finish time).  Jedule offers two view modes when clusters are displayed side
by side:

* **scaled**: every cluster uses its local ``[t_s^Cj, t_f^Cj]`` frame, so
  each cluster's schedule fills its full width;
* **aligned**: all clusters share the global ``[min_j t_s^Cj, max_j t_f^Cj]``
  frame, so the overall utilization across resources is directly visible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.model import Schedule

__all__ = ["ViewMode", "TimeFrame", "cluster_frame", "global_frame", "frames_for"]


class ViewMode(enum.Enum):
    """How per-cluster time axes are established when rendering."""

    SCALED = "scaled"
    ALIGNED = "aligned"

    @classmethod
    def parse(cls, text: str) -> "ViewMode":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown view mode {text!r} (expected one of: {valid})") from None


@dataclass(frozen=True, slots=True)
class TimeFrame:
    """A closed time interval used as a drawing frame."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"empty time frame [{self.start}, {self.end}]")

    @property
    def span(self) -> float:
        return self.end - self.start

    def contains(self, t: float) -> bool:
        return self.start <= t <= self.end

    def clamp(self, t: float) -> float:
        return min(max(t, self.start), self.end)

    def fraction(self, t: float) -> float:
        """Map time ``t`` to [0, 1] within the frame (0 when degenerate)."""
        if self.span == 0:
            return 0.0
        return (t - self.start) / self.span

    def at_fraction(self, f: float) -> float:
        """Inverse of :meth:`fraction`."""
        return self.start + f * self.span

    def union(self, other: "TimeFrame") -> "TimeFrame":
        return TimeFrame(min(self.start, other.start), max(self.end, other.end))

    def intersect(self, other: "TimeFrame") -> "TimeFrame | None":
        lo, hi = max(self.start, other.start), min(self.end, other.end)
        return TimeFrame(lo, hi) if lo <= hi else None


def cluster_frame(schedule: Schedule, cluster_id: str | int) -> TimeFrame:
    """Local frame ``[t_s^Cj, t_f^Cj]`` of one cluster.

    A cluster with no task gets the degenerate frame ``[0, 0]``.
    """
    if not schedule.has_cluster(cluster_id):
        return TimeFrame(0.0, 0.0)
    cols = schedule.columns
    rows = cols.cluster == schedule.cluster_index(cluster_id)
    if not rows.any():
        return TimeFrame(0.0, 0.0)
    start, end = cols.start[rows], cols.end[rows]
    # argmin/argmax keep the first of equal extremes, as min()/max() do
    return TimeFrame(float(start[start.argmin()]), float(end[end.argmax()]))


def global_frame(schedule: Schedule) -> TimeFrame:
    """Global frame across all tasks of the schedule."""
    return TimeFrame(schedule.start_time, schedule.end_time)


def frames_for(schedule: Schedule, mode: ViewMode) -> dict[str, TimeFrame]:
    """Per-cluster frames under the given view mode, keyed by cluster id."""
    if mode is ViewMode.ALIGNED:
        g = global_frame(schedule)
        return {c.id: g for c in schedule.clusters}
    return {c.id: cluster_frame(schedule, c.id) for c in schedule.clusters}
