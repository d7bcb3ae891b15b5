"""Core schedule data model.

This module implements the data model described in Section II of the paper:

* a :class:`Schedule` ``S`` consists of ``v`` tasks;
* each :class:`Task` ``v_i`` has a start time ``t_s``, a finish time ``t_f``,
  a unique identifier and a free-form *type* (used for grouping/coloring);
* a task allocates ``p_v <= p`` resources via one or more
  :class:`Configuration` records (a task needs multiple rectangles when its
  resources are not contiguous, or when it spans clusters);
* resources are partitioned into :class:`Cluster` objects ``C_j`` with
  ``union(C_j) == P`` and ``C_i ∩ C_j == ∅``;
* a schedule carries *meta information* as key/value pairs.

Host indices are **cluster-local**: configuration host ranges index into the
hosts of their cluster, ``0 .. cluster.num_hosts - 1``, matching the XML
format of Figure 1 of the paper where the host list ``start=0 nb=8`` refers to
processors 0..7 *of cluster 0*.  Global (flattened) indices are available via
:meth:`Schedule.global_host_index`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ScheduleError

__all__ = [
    "HostRange",
    "Configuration",
    "Task",
    "Cluster",
    "Schedule",
    "COMPOSITE_TYPE",
    "merge_host_ranges",
    "hosts_to_ranges",
]

#: Task type assigned to synthesized composite (overlap) tasks.
COMPOSITE_TYPE = "composite"


@dataclass(frozen=True, slots=True)
class HostRange:
    """A contiguous run of hosts ``start, start+1, ..., start+nb-1``.

    Mirrors the ``<hosts start=".." nb=".."/>`` element of the Jedule XML
    input format (paper Figure 1).
    """

    start: int
    nb: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ScheduleError(f"host range start must be >= 0, got {self.start}")
        if self.nb <= 0:
            raise ScheduleError(f"host range length must be >= 1, got {self.nb}")

    @property
    def stop(self) -> int:
        """Exclusive end index of the range."""
        return self.start + self.nb

    def hosts(self) -> range:
        """The hosts covered by this range, as a ``range`` object."""
        return range(self.start, self.stop)

    def __contains__(self, host: object) -> bool:
        return isinstance(host, int) and self.start <= host < self.stop

    def overlaps(self, other: "HostRange") -> bool:
        """True when the two ranges share at least one host."""
        return self.start < other.stop and other.start < self.stop


def merge_host_ranges(ranges: Iterable[HostRange]) -> tuple[HostRange, ...]:
    """Normalize ranges: sort, merge adjacent/overlapping runs.

    The result covers exactly the union of the input hosts using the minimal
    number of maximal contiguous runs.
    """
    items = sorted(ranges, key=lambda r: (r.start, r.stop))
    merged: list[HostRange] = []
    for r in items:
        if merged and r.start <= merged[-1].stop:
            last = merged[-1]
            if r.stop > last.stop:
                merged[-1] = HostRange(last.start, r.stop - last.start)
        else:
            merged.append(r)
    return tuple(merged)


def hosts_to_ranges(hosts: Iterable[int]) -> tuple[HostRange, ...]:
    """Compress an arbitrary host set into maximal contiguous ranges."""
    ordered = sorted(set(hosts))
    if not ordered:
        return ()
    runs: list[HostRange] = []
    run_start = prev = ordered[0]
    for h in ordered[1:]:
        if h == prev + 1:
            prev = h
            continue
        runs.append(HostRange(run_start, prev - run_start + 1))
        run_start = prev = h
    runs.append(HostRange(run_start, prev - run_start + 1))
    return tuple(runs)


@dataclass(frozen=True, slots=True)
class Configuration:
    """One resource binding of a task: a set of hosts inside one cluster.

    A task has one configuration per cluster it touches (and possibly several
    for non-contiguous allocations inside one cluster, although a single
    configuration already supports multiple host ranges).
    """

    cluster_id: str
    host_ranges: tuple[HostRange, ...]

    def __init__(self, cluster_id: str | int, host_ranges: Iterable[HostRange | tuple[int, int]]):
        normalized = tuple(
            hr if isinstance(hr, HostRange) else HostRange(int(hr[0]), int(hr[1]))
            for hr in host_ranges
        )
        if not normalized:
            raise ScheduleError("a configuration needs at least one host range")
        object.__setattr__(self, "cluster_id", str(cluster_id))
        object.__setattr__(self, "host_ranges", merge_host_ranges(normalized))

    @classmethod
    def from_hosts(cls, cluster_id: str | int, hosts: Iterable[int]) -> "Configuration":
        """Build a configuration from an explicit (possibly scattered) host set."""
        ranges = hosts_to_ranges(hosts)
        if not ranges:
            raise ScheduleError("a configuration needs at least one host")
        return cls(cluster_id, ranges)

    @property
    def num_hosts(self) -> int:
        """Number of hosts bound by this configuration."""
        return sum(r.nb for r in self.host_ranges)

    def hosts(self) -> tuple[int, ...]:
        """All bound host indices, ascending."""
        return tuple(itertools.chain.from_iterable(r.hosts() for r in self.host_ranges))

    def host_set(self) -> frozenset[int]:
        return frozenset(self.hosts())

    @property
    def is_contiguous(self) -> bool:
        """True when the allocation forms one contiguous run of hosts."""
        return len(self.host_ranges) == 1


@dataclass(frozen=True, slots=True)
class Task:
    """A scheduled task: identifier, type, time interval, resource bindings.

    ``start_time``/``end_time`` use arbitrary user units (typically seconds).
    ``meta`` holds per-task key/value annotations shown by the interactive
    inspector (e.g. the user id of a job, an application name...).
    """

    id: str
    type: str
    start_time: float
    end_time: float
    configurations: tuple[Configuration, ...]
    meta: Mapping[str, str] = field(default_factory=dict)

    def __init__(
        self,
        id: str | int,
        type: str,
        start_time: float,
        end_time: float,
        configurations: Iterable[Configuration],
        meta: Mapping[str, str] | None = None,
    ):
        start_time = float(start_time)
        end_time = float(end_time)
        if not (math.isfinite(start_time) and math.isfinite(end_time)):
            raise ScheduleError(f"task {id!r}: non-finite times [{start_time}, {end_time}]")
        if end_time < start_time:
            raise ScheduleError(
                f"task {id!r}: end_time {end_time} precedes start_time {start_time}"
            )
        configs = tuple(configurations)
        if not configs:
            raise ScheduleError(f"task {id!r} needs at least one configuration")
        seen_clusters = [c.cluster_id for c in configs]
        if len(seen_clusters) != len(set(seen_clusters)):
            raise ScheduleError(f"task {id!r}: duplicate configuration for one cluster")
        object.__setattr__(self, "id", str(id))
        object.__setattr__(self, "type", str(type))
        object.__setattr__(self, "start_time", start_time)
        object.__setattr__(self, "end_time", end_time)
        object.__setattr__(self, "configurations", configs)
        object.__setattr__(self, "meta", dict(meta or {}))

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def num_hosts(self) -> int:
        """Total hosts bound across all configurations (``p_v`` in the paper)."""
        return sum(c.num_hosts for c in self.configurations)

    @property
    def cluster_ids(self) -> tuple[str, ...]:
        return tuple(c.cluster_id for c in self.configurations)

    def configuration_for(self, cluster_id: str | int) -> Configuration | None:
        """The configuration binding hosts of ``cluster_id``, or ``None``."""
        wanted = str(cluster_id)
        for c in self.configurations:
            if c.cluster_id == wanted:
                return c
        return None

    def hosts_in(self, cluster_id: str | int) -> tuple[int, ...]:
        """Hosts this task binds in ``cluster_id`` (empty when it doesn't)."""
        conf = self.configuration_for(cluster_id)
        return conf.hosts() if conf is not None else ()

    def overlaps_time(self, other: "Task") -> bool:
        """True when the two tasks' half-open time intervals intersect."""
        return self.start_time < other.end_time and other.start_time < self.end_time

    def shares_resources(self, other: "Task") -> bool:
        """True when the two tasks bind at least one common host."""
        for c in self.configurations:
            oc = other.configuration_for(c.cluster_id)
            if oc is None:
                continue
            for r in c.host_ranges:
                for orr in oc.host_ranges:
                    if r.overlaps(orr):
                        return True
        return False

    def with_meta(self, **meta: str) -> "Task":
        """Copy of this task with additional meta entries."""
        merged = dict(self.meta)
        merged.update({k: str(v) for k, v in meta.items()})
        return Task(self.id, self.type, self.start_time, self.end_time,
                    self.configurations, merged)

    def shifted(self, delta: float) -> "Task":
        """Copy of this task translated in time by ``delta``."""
        return Task(self.id, self.type, self.start_time + delta, self.end_time + delta,
                    self.configurations, self.meta)


@dataclass(frozen=True, slots=True)
class Cluster:
    """A named group of ``num_hosts`` resources.

    A cluster may model a commodity cluster, a multicore node, or any logical
    grouping; the union of clusters is the full resource set ``P``.
    """

    id: str
    num_hosts: int
    name: str = ""

    def __init__(self, id: str | int, num_hosts: int, name: str | None = None):
        num_hosts = int(num_hosts)
        if num_hosts <= 0:
            raise ScheduleError(f"cluster {id!r} must have >= 1 host, got {num_hosts}")
        object.__setattr__(self, "id", str(id))
        object.__setattr__(self, "num_hosts", num_hosts)
        object.__setattr__(self, "name", name if name is not None else f"cluster {id}")

    def hosts(self) -> range:
        return range(self.num_hosts)


#: Row layout of :attr:`Schedule.columns`.
_COLUMNS = np.dtype([("task", np.intp), ("type", np.intp), ("cluster", np.intp),
                     ("start", np.float64), ("end", np.float64),
                     ("row0", np.intp), ("row1", np.intp)])


class Schedule:
    """A complete schedule: ordered clusters, tasks, and meta information.

    Mutable builder-style container; rendering, statistics and IO all consume
    it read-only.  Task identifiers must be unique.
    """

    def __init__(
        self,
        clusters: Iterable[Cluster] = (),
        tasks: Iterable[Task] = (),
        meta: Mapping[str, str] | None = None,
    ):
        self._clusters: dict[str, Cluster] = {}
        self._tasks: dict[str, Task] = {}
        self._columns: np.recarray | None = None
        self._types: tuple[str, ...] | None = None
        self.meta: dict[str, str] = dict(meta or {})
        for c in clusters:
            self.add_cluster(c)
        for t in tasks:
            self.add_task(t)

    # ------------------------------------------------------------------ build
    def add_cluster(self, cluster: Cluster) -> Cluster:
        """Register a cluster; its id must be new."""
        if cluster.id in self._clusters:
            raise ScheduleError(f"duplicate cluster id {cluster.id!r}")
        self._clusters[cluster.id] = cluster
        self._columns = None
        return cluster

    def new_cluster(self, id: str | int, num_hosts: int, name: str | None = None) -> Cluster:
        """Create and register a cluster in one step."""
        return self.add_cluster(Cluster(id, num_hosts, name))

    def add_task(self, task: Task) -> Task:
        """Register a task; its id must be new and its clusters known."""
        if task.id in self._tasks:
            raise ScheduleError(f"duplicate task id {task.id!r}")
        for conf in task.configurations:
            cluster = self._clusters.get(conf.cluster_id)
            if cluster is None:
                raise ScheduleError(
                    f"task {task.id!r} references unknown cluster {conf.cluster_id!r}"
                )
            top = conf.host_ranges[-1].stop
            if top > cluster.num_hosts:
                raise ScheduleError(
                    f"task {task.id!r} binds host {top - 1} but cluster "
                    f"{conf.cluster_id!r} only has hosts 0..{cluster.num_hosts - 1}"
                )
        self._tasks[task.id] = task
        self._columns = self._types = None
        return task

    def new_task(
        self,
        id: str | int,
        type: str,
        start_time: float,
        end_time: float,
        *,
        cluster: str | int = "0",
        hosts: Iterable[int] | None = None,
        host_start: int | None = None,
        host_nb: int | None = None,
        configurations: Iterable[Configuration] | None = None,
        meta: Mapping[str, str] | None = None,
    ) -> Task:
        """Convenience task constructor covering the common single-cluster case.

        Exactly one of ``hosts``, ``(host_start, host_nb)`` or
        ``configurations`` selects the resource binding.
        """
        if configurations is not None:
            confs: tuple[Configuration, ...] = tuple(configurations)
        elif hosts is not None:
            confs = (Configuration.from_hosts(cluster, hosts),)
        elif host_start is not None and host_nb is not None:
            confs = (Configuration(cluster, [(host_start, host_nb)]),)
        else:
            raise ScheduleError(
                "new_task needs hosts=, host_start=/host_nb=, or configurations="
            )
        return self.add_task(Task(id, type, start_time, end_time, confs, meta))

    def remove_task(self, task_id: str) -> Task:
        """Remove and return a task by id."""
        try:
            task = self._tasks.pop(str(task_id))
        except KeyError:
            raise ScheduleError(f"no task with id {task_id!r}") from None
        self._columns = self._types = None
        return task

    # ------------------------------------------------------------------ access
    @property
    def clusters(self) -> tuple[Cluster, ...]:
        """Clusters in registration order."""
        return tuple(self._clusters.values())

    @property
    def tasks(self) -> tuple[Task, ...]:
        """Tasks in registration order."""
        return tuple(self._tasks.values())

    def cluster(self, cluster_id: str | int) -> Cluster:
        try:
            return self._clusters[str(cluster_id)]
        except KeyError:
            raise ScheduleError(f"no cluster with id {cluster_id!r}") from None

    def has_cluster(self, cluster_id: str | int) -> bool:
        return str(cluster_id) in self._clusters

    def task(self, task_id: str | int) -> Task:
        try:
            return self._tasks[str(task_id)]
        except KeyError:
            raise ScheduleError(f"no task with id {task_id!r}") from None

    def has_task(self, task_id: str | int) -> bool:
        return str(task_id) in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def __contains__(self, task_id: object) -> bool:
        return isinstance(task_id, (str, int)) and str(task_id) in self._tasks

    # ------------------------------------------------------------- derived
    @property
    def num_hosts(self) -> int:
        """Total resources ``|P|`` across all clusters."""
        return sum(c.num_hosts for c in self._clusters.values())

    def tasks_in_cluster(self, cluster_id: str | int) -> tuple[Task, ...]:
        """Tasks with at least one configuration in ``cluster_id``."""
        wanted = str(cluster_id)
        return tuple(t for t in self._tasks.values()
                     if any(c.cluster_id == wanted for c in t.configurations))

    def tasks_of_type(self, type: str) -> tuple[Task, ...]:
        return tuple(t for t in self._tasks.values() if t.type == type)

    def task_types(self) -> tuple[str, ...]:
        """Distinct task types in first-appearance order.

        Cached until the next :meth:`add_task` or :meth:`remove_task`.
        """
        if self._types is None:
            self._types = tuple(dict.fromkeys(t.type for t in self._tasks.values()))
        return self._types

    @property
    def columns(self) -> np.recarray:
        """Task geometry as a read-only numpy record array, built on first use.

        One row per host range of every task configuration, in registration
        order: ``task`` indexes :attr:`tasks`, ``type`` indexes
        :meth:`task_types`, ``cluster`` indexes :attr:`clusters`, then
        ``start``, ``end`` and the global host rows ``[row0, row1)``.  Every
        plane query (LOD grids, viewport culling, hit-testing) reads these
        columns instead of walking the tasks.  Cached until the next
        :meth:`add_cluster`, :meth:`add_task` or :meth:`remove_task`.
        """
        if self._columns is None:
            placement = {c.id: (i, self.cluster_offset(c.id))
                         for i, c in enumerate(self._clusters.values())}
            type_ids = {t: i for i, t in enumerate(self.task_types())}
            table = np.fromiter(
                ((ti, type_ids[t.type], ci,
                  t.start_time, t.end_time, off + r.start, off + r.stop)
                 for ti, t in enumerate(self._tasks.values())
                 for conf in t.configurations
                 for ci, off in (placement[conf.cluster_id],)
                 for r in conf.host_ranges), dtype=_COLUMNS)
            table.flags.writeable = False
            self._columns = table.view(np.recarray)
        return self._columns

    @property
    def start_time(self) -> float:
        """Global minimum task start time (0.0 for an empty schedule)."""
        return min((t.start_time for t in self._tasks.values()), default=0.0)

    @property
    def end_time(self) -> float:
        """Global maximum task end time (0.0 for an empty schedule)."""
        return max((t.end_time for t in self._tasks.values()), default=0.0)

    @property
    def makespan(self) -> float:
        """``end_time - start_time`` of the whole schedule."""
        return self.end_time - self.start_time

    def cluster_offset(self, cluster_id: str | int) -> int:
        """Flattened index of the first host of ``cluster_id``.

        Clusters are stacked in registration order, which is also the
        top-to-bottom rendering order.
        """
        wanted = str(cluster_id)
        off = 0
        for c in self._clusters.values():
            if c.id == wanted:
                return off
            off += c.num_hosts
        raise ScheduleError(f"no cluster with id {cluster_id!r}")

    def global_host_index(self, cluster_id: str | int, host: int) -> int:
        """Map a cluster-local host index to a global (flattened) index."""
        cluster = self.cluster(cluster_id)
        if not 0 <= host < cluster.num_hosts:
            raise ScheduleError(
                f"host {host} out of range for cluster {cluster_id!r} "
                f"(0..{cluster.num_hosts - 1})"
            )
        return self.cluster_offset(cluster_id) + host

    def filtered(
        self,
        *,
        types: Iterable[str] | None = None,
        clusters: Iterable[str | int] | None = None,
        time_window: tuple[float, float] | None = None,
        predicate=None,
    ) -> "Schedule":
        """A new schedule keeping tasks matching all given criteria.

        ``time_window`` keeps tasks whose interval intersects ``[t0, t1)``.
        All clusters are preserved (so layouts stay comparable); only tasks
        are filtered.  ``predicate`` is an optional ``Task -> bool``.
        """
        type_set = set(types) if types is not None else None
        cluster_set = {str(c) for c in clusters} if clusters is not None else None
        kept = []
        for t in self._tasks.values():
            if type_set is not None and t.type not in type_set:
                continue
            if cluster_set is not None and not (set(t.cluster_ids) & cluster_set):
                continue
            if time_window is not None:
                t0, t1 = time_window
                if not (t.start_time < t1 and t0 < t.end_time):
                    continue
            if predicate is not None and not predicate(t):
                continue
            kept.append(t)
        return Schedule(self.clusters, kept, self.meta)

    def copy(self) -> "Schedule":
        """Shallow copy (tasks/clusters are immutable, so this is safe)."""
        return Schedule(self.clusters, self.tasks, self.meta)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Schedule({len(self._clusters)} clusters, {len(self._tasks)} tasks, "
            f"makespan={self.makespan:.6g})"
        )
