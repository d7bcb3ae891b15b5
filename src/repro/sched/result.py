"""The uniform outcome type of every registered scheduler.

Historically each scheduler family grew its own result shape —
``MTaskResult`` (CPA family), ``HeftResult``/``MHeftResult`` (list
schedulers), ``CRAResult`` (multi-DAG) — which meant every consumer had to
know which scheduler it had called.  :class:`SchedResult` is the common
denominator the registry (:mod:`repro.sched.registry`) normalizes all of
them to: the schedule itself, a flat dict of deterministic quality metrics,
string meta, and the scheduler-specific result object under ``raw`` for
callers that need the bookkeeping (mappings, ranks, shares...).
"""

from __future__ import annotations

import types
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.model import Schedule
from repro.core.stats import utilization
from repro.errors import SchedulingError

__all__ = ["SchedResult", "base_metrics"]


def base_metrics(schedule: Schedule) -> dict[str, float]:
    """The metrics every scheduler reports: makespan, utilization, counts."""
    return {
        "makespan": float(schedule.makespan),
        "utilization": float(utilization(schedule)) if len(schedule) else 0.0,
        "tasks": float(len(schedule)),
        "hosts": float(schedule.num_hosts),
    }


@dataclass(frozen=True)
class SchedResult:
    """What running any scheduler through the registry yields.

    ``metrics`` values must be deterministic for a given problem + options
    (``benchmarks/bench_sched_zoo.py`` pins them); ``meta``
    carries free-form strings (policy names, option echoes).  Both are
    exposed as read-only mapping proxies.
    """

    scheduler: str
    schedule: Schedule
    metrics: Mapping[str, float]
    meta: Mapping[str, str] = field(default_factory=dict)
    raw: object = None

    def __post_init__(self) -> None:
        if not isinstance(self.schedule, Schedule):
            raise SchedulingError(
                f"scheduler {self.scheduler!r} produced "
                f"{type(self.schedule).__name__}, not a Schedule")
        object.__setattr__(self, "metrics", types.MappingProxyType(
            {str(k): float(v) for k, v in dict(self.metrics).items()}))
        object.__setattr__(self, "meta", types.MappingProxyType(
            {str(k): str(v) for k, v in dict(self.meta).items()}))

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    def to_json(self) -> dict:
        """JSON-ready summary (schedule omitted; use io formats for that)."""
        return {
            "scheduler": self.scheduler,
            "metrics": dict(self.metrics),
            "meta": dict(self.meta),
        }
