"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri & Wu 2002).

The Section V scheduler: single-processor tasks on a heterogeneous
multi-cluster.  Tasks are prioritized by decreasing *upward rank* (average
execution cost plus the maximum over successors of average edge cost plus
the successor's rank); each task then goes to the processor minimizing its
Earliest Finish Time, with the insertion policy (a task may slot into an
idle gap between two already-scheduled tasks when it fits).

Communication costs use the platform's actual routes, so the backbone
latency of the Figure 7 platform flows into every EFT decision — flat
backbone latency makes a remote same-speed processor exactly as attractive
as a local one, which is the anomaly Figure 8 visualizes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.core.model import Configuration, Schedule, Task
from repro.dag.graph import TaskGraph
from repro.errors import SchedulingError
from repro.obs import core as _obs
from repro.platform.model import Platform
from repro.platform.network import CommModel
from repro.simulate.executor import platform_to_clusters

__all__ = ["HeftResult", "heft_schedule", "upward_ranks"]


def upward_ranks(graph: TaskGraph, platform: Platform,
                 comm: CommModel | None = None) -> dict[str, float]:
    """Average-cost upward rank of every task."""
    comm = comm or CommModel(platform)
    inv_speeds = [1.0 / h.speed for h in platform]
    mean_inv_speed = sum(inv_speeds) / len(inv_speeds)

    ranks: dict[str, float] = {}
    for v in reversed(graph.topo_order()):
        w = graph.node(v).work * mean_inv_speed
        best = 0.0
        for s in graph.successors(v):
            e = graph.edge(v, s)
            best = max(best, comm.average_time(e.data) + ranks[s])
        ranks[v] = w + best
    return ranks


@dataclass
class _HostAgenda:
    """Sorted busy intervals of one processor, for the insertion policy."""

    intervals: list[tuple[float, float]] = field(default_factory=list)

    def earliest_slot(self, ready: float, duration: float) -> float:
        """Earliest start >= ready of a free slot of the given duration."""
        t = ready
        for s, e in self.intervals:
            if t + duration <= s:
                return t
            t = max(t, e)
        return t

    def insert(self, start: float, end: float) -> None:
        bisect.insort(self.intervals, (start, end))


@dataclass(frozen=True)
class HeftResult:
    """A HEFT schedule plus its bookkeeping."""

    schedule: Schedule
    assignment: dict[str, int]
    start: dict[str, float]
    finish: dict[str, float]
    ranks: dict[str, float]

    @property
    def makespan(self) -> float:
        return max(self.finish.values(), default=0.0)


def heft_schedule(
    graph: TaskGraph,
    platform: Platform,
    *,
    task_type_from_node: bool = True,
) -> HeftResult:
    """Run HEFT and build the Jedule schedule of the result.

    With ``task_type_from_node`` each Jedule task takes its DAG node's type
    (Montage stage names color Figure 8/9); otherwise all tasks are typed
    ``computation``.
    """
    if len(graph) == 0:
        raise SchedulingError("empty task graph")
    comm = CommModel(platform)
    with _obs.span("sched.heft.priorities", tasks=len(graph)):
        ranks = upward_ranks(graph, platform, comm)
        order = sorted(graph.task_ids, key=lambda v: (-ranks[v], v))

    agendas = {h.index: _HostAgenda() for h in platform}
    assignment: dict[str, int] = {}
    start: dict[str, float] = {}
    finish: dict[str, float] = {}

    with _obs.span("sched.heft.place"):
        for v in order:
            node = graph.node(v)
            best_host: int | None = None
            best_eft = float("inf")
            best_est = 0.0
            for host in platform:
                ready = 0.0
                for pred in graph.predecessors(v):
                    if pred not in finish:
                        raise SchedulingError(
                            f"rank order placed {v!r} before predecessor {pred!r}; "
                            "edge costs must be non-negative")
                    e = graph.edge(pred, v)
                    delay = 0.0 if assignment[pred] == host.index else \
                        comm.time(assignment[pred], host.index, e.data)
                    ready = max(ready, finish[pred] + delay)
                duration = host.compute_time(node.work)
                est = agendas[host.index].earliest_slot(ready, duration)
                eft = est + duration
                if eft < best_eft - 1e-12:
                    best_host, best_eft, best_est = host.index, eft, est
            assert best_host is not None
            assignment[v] = best_host
            start[v], finish[v] = best_est, best_eft
            agendas[best_host].insert(best_est, best_eft)
    _obs.add("sched.tasks_placed", len(order))

    schedule = Schedule(platform_to_clusters(platform),
                        meta={"algorithm": "heft", "platform": platform.name})
    for v in order:
        node = graph.node(v)
        host = platform.host(assignment[v])
        conf = Configuration(host.cluster_id, [(platform.local_index(host), 1)])
        schedule.add_task(Task(
            v,
            node.type if task_type_from_node else "computation",
            start[v], finish[v], [conf],
            meta={"host": str(assignment[v]), **dict(node.attrs)},
        ))
    return HeftResult(schedule, assignment, start, finish, ranks)
