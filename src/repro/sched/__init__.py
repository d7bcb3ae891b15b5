"""Scheduling algorithms behind the scheduler registry.

The supported way to run any scheduler is the registry API::

    from repro.sched import run_scheduler, DagProblem
    result = run_scheduler("cpa", DagProblem(graph, platform))

:func:`repro.sched.registry.available_schedulers` lists everything —
the offline CPA/HEFT families, the multi-DAG CRA algorithms, the cluster
space-sharing policies, and the online zoo (:mod:`repro.sched.online`).
Every run returns the same :class:`~repro.sched.result.SchedResult` shape.
A family's own function and raw result type live in its submodule
(:mod:`repro.sched.heft`, :mod:`repro.sched.cra`, ...).
"""

from __future__ import annotations

from repro.sched.metrics import (
    efficiency,
    flow_metrics,
    jain_fairness,
    max_stretch,
    speedup,
    stretch,
    stretch_imbalance,
    stretch_summary,
    stretches,
)
from repro.sched.registry import (
    DagProblem,
    JobsProblem,
    MultiDagProblem,
    SchedulerSpec,
    available_schedulers,
    canonical_problem,
    register_scheduler,
    run_scheduler,
    scheduler_for,
)
from repro.sched.result import SchedResult, base_metrics

__all__ = [
    "DagProblem",
    "JobsProblem",
    "MultiDagProblem",
    "SchedResult",
    "SchedulerSpec",
    "available_schedulers",
    "base_metrics",
    "canonical_problem",
    "efficiency",
    "flow_metrics",
    "jain_fairness",
    "max_stretch",
    "register_scheduler",
    "run_scheduler",
    "scheduler_for",
    "speedup",
    "stretch",
    "stretch_imbalance",
    "stretch_summary",
    "stretches",
]
