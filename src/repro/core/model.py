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

A :class:`Schedule` keeps its tasks as columns (a :class:`TaskStore`), not
as objects: tasks enter through :meth:`TaskStore.add` (or its bulk form,
:meth:`TaskStore.extend`) and leave through :meth:`TaskStore.walk`, task by
task as :meth:`TaskStore.record` reads them, and a :class:`Task` is built
from a record only when something asks for it.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from repro.errors import ScheduleError

__all__ = [
    "HostRange",
    "Configuration",
    "Task",
    "Cluster",
    "Schedule",
    "TaskStore",
    "COMPOSITE_TYPE",
    "merge_host_ranges",
    "hosts_to_ranges",
    "host_span",
    "merge_spans",
]

#: Task type assigned to synthesized composite (overlap) tasks.
COMPOSITE_TYPE = "composite"

#: The largest host index, host count or range end a schedule holds.
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True, slots=True)
class HostRange:
    """A contiguous run of hosts ``start, start+1, ..., start+nb-1``.

    Mirrors the ``<hosts start=".." nb=".."/>`` element of the Jedule XML
    input format (paper Figure 1).
    """

    start: int
    nb: int

    def __post_init__(self) -> None:
        host_span(self.start, self.nb)

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


_NO_RANGE = "a configuration needs at least one host range"

#: The meta of a task that has none.
_NO_META: Mapping[str, str] = MappingProxyType({})


def host_span(start: int, nb: int) -> tuple[int, int]:
    """The host span ``(start, stop)`` of a valid :class:`HostRange`.

    ``stop`` must fit in int64, the type of the task store's host columns.
    """
    if start < 0:
        raise ScheduleError(f"host range start must be >= 0, got {start}")
    if nb <= 0:
        raise ScheduleError(f"host range length must be >= 1, got {nb}")
    stop = start + nb
    if stop > _INT64_MAX:
        raise ScheduleError(
            f"host range start={start} nb={nb} ends past int64 ({_INT64_MAX})")
    return start, stop


def _merged(spans: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted ``(start, stop)`` spans with adjacent and overlapping ones
    merged: the fewest maximal runs covering exactly their union."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def merge_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The host spans of one configuration, sorted and merged as
    :class:`Configuration` merges its ranges; there must be at least one."""
    if not spans:
        raise ScheduleError(_NO_RANGE)
    return spans if len(spans) == 1 else _merged(spans)


def task_times(task_id: object, start_time: object,
               end_time: object) -> tuple[float, float]:
    """A task's times as floats, checked as :class:`Task` checks them."""
    start_time = float(start_time)  # type: ignore[arg-type]
    end_time = float(end_time)  # type: ignore[arg-type]
    if not (math.isfinite(start_time) and math.isfinite(end_time)):
        raise ScheduleError(f"task {task_id!r}: non-finite times [{start_time}, {end_time}]")
    if end_time < start_time:
        raise ScheduleError(
            f"task {task_id!r}: end_time {end_time} precedes start_time {start_time}"
        )
    return start_time, end_time


def check_task_clusters(task_id: object, cluster_ids: Sequence[object]) -> None:
    """A task binds at least one cluster, each through one configuration."""
    if not cluster_ids:
        raise ScheduleError(f"task {task_id!r} needs at least one configuration")
    if len(cluster_ids) > 1 and len(cluster_ids) != len(set(cluster_ids)):
        raise ScheduleError(f"task {task_id!r}: duplicate configuration for one cluster")


def merge_host_ranges(ranges: Iterable[HostRange]) -> tuple[HostRange, ...]:
    """Normalize ranges: sort, merge adjacent/overlapping runs.

    The result covers exactly the union of the input hosts using the minimal
    number of maximal contiguous runs.
    """
    items = tuple(ranges)
    if len(items) < 2:
        return items
    return tuple(_host_range(lo, hi - lo)
                 for lo, hi in _merged((r.start, r.stop) for r in items))


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
            raise ScheduleError(_NO_RANGE)
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
    inspector (e.g. the user id of a job, an application name...): a
    read-only mapping over the task's own copy, so a task never changes
    once built (:meth:`with_meta` makes a task with more).
    """

    id: str
    type: str
    start_time: float
    end_time: float
    configurations: tuple[Configuration, ...]
    meta: Mapping[str, str] = field(default_factory=lambda: _NO_META)

    def __init__(
        self,
        id: str | int,
        type: str,
        start_time: float,
        end_time: float,
        configurations: Iterable[Configuration],
        meta: Mapping[str, str] | None = None,
    ):
        start_time, end_time = task_times(id, start_time, end_time)
        configs = tuple(configurations)
        if len(configs) != 1:  # one configuration always passes
            check_task_clusters(id, [c.cluster_id for c in configs])
        object.__setattr__(self, "id", str(id))
        object.__setattr__(self, "type", str(type))
        object.__setattr__(self, "start_time", start_time)
        object.__setattr__(self, "end_time", end_time)
        object.__setattr__(self, "configurations", configs)
        object.__setattr__(self, "meta", MappingProxyType(dict(meta)) if meta else _NO_META)

    def __reduce__(self):
        # a read-only mapping does not pickle: a task pickles as its arguments
        return Task, (self.id, self.type, self.start_time, self.end_time,
                      self.configurations, dict(self.meta))

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
        if num_hosts > _INT64_MAX:
            raise ScheduleError(
                f"cluster {id!r} has {num_hosts} hosts, past int64 ({_INT64_MAX})")
        object.__setattr__(self, "id", str(id))
        object.__setattr__(self, "num_hosts", num_hosts)
        object.__setattr__(self, "name", name if name is not None else f"cluster {id}")

    def hosts(self) -> range:
        return range(self.num_hosts)


#: Row layout of :attr:`Schedule.columns`.
_COLUMNS = np.dtype([("task", np.intp), ("type", np.intp), ("cluster", np.intp),
                     ("start", np.float64), ("end", np.float64),
                     ("row0", np.intp), ("row1", np.intp)])

#: ``array`` typecode of the store's integer columns (numpy's int64).
_INT = "q"


#: The host spans of one configuration as the store gives them: cluster-local
#: ``(start, stop)`` pairs, sorted and merged.
Spans = Sequence[tuple[int, int]]

#: One task as :meth:`TaskStore.record` gives it: id, type, start, end,
#: its ``(cluster id, spans)`` configurations, and meta.
Record = tuple[str, str, float, float, tuple[tuple[str, Spans], ...], Mapping[str, str]]


class TaskStore:
    """The tasks of a :class:`Schedule`, as typed columns and side tables.

    One entry per task, in registration order: ``ids`` (with ``index``,
    id -> first position), ``kind`` (the position of its type in ``types``,
    inverted by ``type_index``), ``start``, ``end`` and ``first``, the row
    of its first host range.  One row per host range of every
    configuration, in task order: ``cluster`` (the position of its cluster
    id in ``clusters``, inverted by ``cluster_index``) and the
    cluster-local host rows ``[row0, row1)``; a task's rows are
    ``first[i]`` up to the next task's first row.  ``meta`` maps a position
    to its task's meta, a read-only mapping, and holds only tasks that
    have one.

    :meth:`add` is the one way in, with :meth:`extend` its bulk form for
    tasks of one host range, and :meth:`walk` (:meth:`record` per task)
    the one way out; :meth:`gather` copies a selection of tasks.  A store
    needs no platform: the checks of :meth:`Schedule.add_task` are the
    schedule's.
    """

    __slots__ = ("ids", "index", "types", "type_index", "kind", "start", "end",
                 "first", "clusters", "cluster_index", "cluster", "row0", "row1",
                 "meta")

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.index: dict[str, int] = {}
        self.types: list[str] = []
        self.type_index: dict[str, int] = {}
        self.kind = array(_INT)
        self.start = array("d")
        self.end = array("d")
        self.first = array(_INT)
        self.clusters: list[str] = []
        self.cluster_index: dict[str, int] = {}
        self.cluster = array(_INT)
        self.row0 = array(_INT)
        self.row1 = array(_INT)
        self.meta: dict[int, Mapping[str, str]] = {}

    def __len__(self) -> int:
        return len(self.ids)

    # a read-only mapping does not pickle: the store pickles each meta as a dict
    def __getstate__(self) -> dict:
        state = {name: getattr(self, name) for name in self.__slots__}
        state["meta"] = {i: dict(m) for i, m in self.meta.items()}
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.meta = {i: MappingProxyType(m) for i, m in self.meta.items()}

    def add(self, task_id: object, type: object, start: object, end: object,
            confs: Sequence[tuple[str, Spans]], meta: Mapping[str, str] | None) -> None:
        """Append one task as a reader parsed it, after the checks a
        :class:`Task` makes of the whole task, in its order: the times,
        then one configuration per cluster.  ``confs`` holds one ``(cluster
        id, spans)`` pair per configuration, its spans through
        :func:`host_span` and :func:`merge_spans` as the configuration was
        read.  The store keeps ``meta``, a dict the caller hands over or a
        :class:`Task`'s read-only meta, as a read-only mapping.  A failed
        check appends nothing."""
        start, end = task_times(task_id, start, end)
        if len(confs) != 1:  # one configuration always passes
            check_task_clusters(task_id, [cluster_id for cluster_id, _ in confs])
        task_id, type, i = str(task_id), str(type), len(self.ids)
        self.ids.append(task_id)
        self.index.setdefault(task_id, i)
        kind = self.type_index.get(type)
        if kind is None:
            kind = self.type_index[type] = len(self.types)
            self.types.append(type)
        self.kind.append(kind)
        self.start.append(start)
        self.end.append(end)
        cluster, row0, row1 = self.cluster, self.row0, self.row1
        self.first.append(len(cluster))
        for cluster_id, spans in confs:
            ref = self.cluster_index.get(cluster_id)
            if ref is None:
                ref = self.cluster_index[cluster_id] = len(self.clusters)
                self.clusters.append(cluster_id)
            for lo, hi in spans:
                cluster.append(ref)
                row0.append(lo)
                row1.append(hi)
        if meta:
            self.meta[i] = meta if isinstance(meta, MappingProxyType) else MappingProxyType(meta)

    def extend(self, ids: Sequence[str], types: Sequence[str], start: array, end: array,
               cluster_ids: Sequence[str], row0: array, nb: array) -> bool:
        """Append tasks of one configuration with one host range each, as
        :meth:`add` appends them one by one: task ``k`` is ``ids[k]`` of
        type ``types[k]`` over ``[start[k], end[k]]`` (``array('d')``) on
        hosts ``row0[k]`` up to ``row0[k] + nb[k]`` (``array('q')``) of
        cluster ``cluster_ids[k]``.  The checks of :meth:`add` run over
        the whole columns first: finite times, no end before its start, and
        spans :func:`host_span` takes (``row0 >= 0``, ``nb >= 1``).  When
        any task fails one, nothing is appended and the answer is False."""
        t0, t1 = np.frombuffer(start), np.frombuffer(end)
        lo, count = np.frombuffer(row0, dtype=np.int64), np.frombuffer(nb, dtype=np.int64)
        if not (np.isfinite(t0).all() and np.isfinite(t1).all() and (t0 <= t1).all()
                and (lo >= 0).all() and (count >= 1).all()):
            return False
        base, n, rows = len(self.ids), len(ids), len(self.cluster)
        self.ids += ids
        known = len(self.index)
        self.index.update(zip(ids, range(base, base + n)))
        if len(self.index) < known + n:  # an id seen before keeps its first position
            self.index = dict(zip(reversed(self.ids), range(base + n - 1, -1, -1)))
        self.kind.extend(_codes(types, self.types, self.type_index))
        self.start.extend(start)
        self.end.extend(end)
        self.first.frombytes(np.arange(rows, rows + n, dtype=np.int64).tobytes())
        self.cluster.extend(_codes(cluster_ids, self.clusters, self.cluster_index))
        self.row0.extend(row0)
        self.row1.frombytes((lo + count).tobytes())
        return True

    def record(self, i: int) -> Record:
        """The task at position ``i`` as ``(id, type, start, end,
        configurations, meta)``: one ``(cluster id, spans)`` per
        configuration, its spans cluster-local ``(start, stop)`` pairs, and
        meta the store's read-only mapping (an empty one for a task with
        none)."""
        first, cluster = self.first, self.cluster
        r = first[i]
        last = first[i + 1] if i + 1 < len(first) else len(cluster)
        if last == r + 1:
            confs: tuple = ((self.clusters[cluster[r]], ((self.row0[r], self.row1[r]),)),)
        else:
            row0, row1, runs = self.row0, self.row1, []
            while r < last:  # one configuration per run of rows in one cluster
                end = r + 1
                while end < last and cluster[end] == cluster[r]:
                    end += 1
                runs.append((self.clusters[cluster[r]], tuple(zip(row0[r:end], row1[r:end]))))
                r = end
            confs = tuple(runs)
        return (self.ids[i], self.types[self.kind[i]], self.start[i], self.end[i],
                confs, self.meta.get(i, _NO_META))

    def walk(self) -> Iterator[Record]:
        """Every task in store order as :meth:`record` gives it: the one
        way out."""
        return map(self.record, range(len(self.ids)))

    def gather(self, kept: np.ndarray) -> "TaskStore":
        """A new store of the tasks at the ascending positions ``kept``:
        the store :meth:`add` fills from their records in that order,
        gathered from the columns with no check, since these tasks passed
        them.  Types and clusters are numbered anew in their order of first
        appearance, and each meta moves to its task's new position."""
        out = TaskStore()
        kept = np.asarray(kept, dtype=np.intp)
        first = np.array(self.first, dtype=np.intp)
        counts = np.append(first[1:], len(self.cluster))[kept] - first[kept]
        offsets = np.cumsum(counts) - counts  # the first row of each kept task
        rows = np.repeat(first[kept] - offsets, counts) + np.arange(counts.sum())
        positions = kept.tolist()
        out.ids = [self.ids[i] for i in positions]
        out.index = dict(zip(reversed(out.ids), range(len(positions) - 1, -1, -1)))
        out.kind, out.types, out.type_index = _first_seen(
            np.array(self.kind, dtype=np.int64)[kept], self.types)
        out.start = array("d", np.array(self.start)[kept].tobytes())
        out.end = array("d", np.array(self.end)[kept].tobytes())
        out.first = array(_INT, offsets.astype(np.int64).tobytes())
        out.cluster, out.clusters, out.cluster_index = _first_seen(
            np.array(self.cluster, dtype=np.int64)[rows], self.clusters)
        out.row0 = array(_INT, np.array(self.row0)[rows].tobytes())
        out.row1 = array(_INT, np.array(self.row1)[rows].tobytes())
        if self.meta:
            moved = dict(zip(positions, range(len(positions))))
            out.meta = {moved[i]: m for i, m in self.meta.items() if i in moved}
        return out


def _codes(names: Sequence[str], table: list[str], index: dict[str, int]) -> Iterator[int]:
    """The position of each of ``names`` in ``table``, which ``index``
    inverts; a name not there yet is appended, in first-appearance order."""
    for name in dict.fromkeys(names):
        if name not in index:
            index[name] = len(table)
            table.append(name)
    return map(index.__getitem__, names)


def _first_seen(codes: np.ndarray, table: list[str]) -> tuple[array, list[str], dict[str, int]]:
    """``codes`` into ``table`` numbered anew over the names they use, in
    their order of first appearance, with that table and its inverse."""
    present, at = np.unique(codes, return_index=True)
    order = present[np.argsort(at)]
    renumber = np.zeros(len(table), dtype=np.int64)
    renumber[order] = np.arange(order.size)
    names = [table[k] for k in order.tolist()]
    return (array(_INT, renumber[codes].tobytes()), names,
            {name: k for k, name in enumerate(names)})


# A Task built from the store skips the checks the store already passed: each
# object is allocated bare and its slots are filled through their descriptors,
# the cheapest way to fill a frozen slotted dataclass.
_new = object.__new__
_range_start, _range_nb = HostRange.start.__set__, HostRange.nb.__set__  # type: ignore[attr-defined]
_conf_cluster = Configuration.cluster_id.__set__  # type: ignore[attr-defined]
_conf_ranges = Configuration.host_ranges.__set__  # type: ignore[attr-defined]
_task_id, _task_type = Task.id.__set__, Task.type.__set__  # type: ignore[attr-defined]
_task_start, _task_end = Task.start_time.__set__, Task.end_time.__set__  # type: ignore[attr-defined]
_task_confs, _task_meta = Task.configurations.__set__, Task.meta.__set__  # type: ignore[attr-defined]


def _host_range(start: int, nb: int) -> HostRange:
    r = _new(HostRange)
    _range_start(r, start)
    _range_nb(r, nb)
    return r


def _configuration(cluster_id: str, host_ranges: tuple[HostRange, ...]) -> Configuration:
    c = _new(Configuration)
    _conf_cluster(c, cluster_id)
    _conf_ranges(c, host_ranges)
    return c


class Schedule:
    """A complete schedule: ordered clusters, tasks, and meta information.

    Mutable builder-style container; rendering, statistics and IO all consume
    it read-only.  Task identifiers must be unique.

    The tasks live in a :class:`TaskStore`.  :attr:`columns` reads them as
    arrays; :meth:`task_at`, :meth:`task`, iteration and :attr:`tasks`
    build a :class:`Task` per position on first use and keep it.

    :attr:`version` counts the changes to the clusters and tasks:
    :meth:`add_cluster`, :meth:`add_task` (so :meth:`new_task`),
    :meth:`remove_task` and a reader's adopt step each add one.  Clusters
    and tasks are immutable, so a schedule whose version has not moved
    holds the same clusters and tasks.  :attr:`meta` is a plain dict,
    outside the count.
    """

    def __init__(
        self,
        clusters: Iterable[Cluster] = (),
        tasks: Iterable[Task] = (),
        meta: Mapping[str, str] | None = None,
    ):
        self._clusters: dict[str, Cluster] = {}
        #: cluster id -> (index, first global row, hosts)
        self._slot: dict[str, tuple[int, int, int]] = {}
        self._store = TaskStore()
        self._built: list[Task | None] = []
        #: the configurations of built tasks, by their ``(cluster id, spans)``
        self._shared: dict[tuple[str, Spans], Configuration] = {}
        self._columns: np.recarray | None = None
        self._types: tuple[str, ...] = ()
        self.version = 0
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
        self._slot[cluster.id] = (len(self._slot), self.num_hosts, cluster.num_hosts)
        self._clusters[cluster.id] = cluster
        self._changed()
        return cluster

    def _changed(self) -> None:
        """Count one change to the clusters or tasks, once it is made, and
        drop the columns joined before it."""
        self._columns = None
        self.version += 1

    def new_cluster(self, id: str | int, num_hosts: int, name: str | None = None) -> Cluster:
        """Create and register a cluster in one step."""
        return self.add_cluster(Cluster(id, num_hosts, name))

    def _check_task(self, task_id: str, seen: Container[str],
                    confs: Iterable[tuple[str, Spans]]) -> None:
        """The checks of :meth:`add_task`, in its order: ``task_id`` is not
        in ``seen``, then per ``(cluster id, spans)`` configuration, the
        cluster is known and holds the last span."""
        if task_id in seen:
            raise ScheduleError(f"duplicate task id {task_id!r}")
        for cluster_id, spans in confs:
            cluster = self._clusters.get(cluster_id)
            if cluster is None:
                raise ScheduleError(
                    f"task {task_id!r} references unknown cluster {cluster_id!r}"
                )
            top = spans[-1][1]
            if top > cluster.num_hosts:
                raise ScheduleError(
                    f"task {task_id!r} binds host {top - 1} but cluster "
                    f"{cluster_id!r} only has hosts 0..{cluster.num_hosts - 1}"
                )

    def add_task(self, task: Task) -> Task:
        """Register a task; its id must be new and its clusters known."""
        confs = [(c.cluster_id, [(r.start, r.start + r.nb) for r in c.host_ranges])
                 for c in task.configurations]
        self._check_task(task.id, self._store.index, confs)
        self._store.add(task.id, task.type, task.start_time, task.end_time,
                        confs, task.meta)
        self._built.append(task)
        self._changed()
        return task

    def _adopt(self, store: TaskStore) -> None:
        """Take over a store filled through :meth:`TaskStore.add`, in place
        of no tasks, after the checks of :meth:`add_task` over all its rows
        at once; the first task that fails one raises what ``add_task``
        raises for it."""
        assert not self._store, "a schedule adopts a store only while empty"
        hosts = np.array([self._slot.get(c, (0, 0, 0))[2] for c in store.clusters],
                         dtype=np.intp)
        # an unknown cluster holds no hosts, and every row binds one
        if len(store.index) < len(store) or np.any(
                np.array(store.row1) > hosts[np.array(store.cluster, dtype=np.intp)]):
            seen: set[str] = set()
            for task_id, _, _, _, confs, _ in store.walk():
                self._check_task(task_id, seen, confs)
                seen.add(task_id)
            raise AssertionError("a task passed the checks it failed")
        self._store = store
        self._built = [None] * len(store)
        self._types = ()
        self._changed()

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
        """Remove and return a task by id; the tasks after it move up one
        position."""
        removed = self.task(task_id)
        i = self._store.index[removed.id]
        self._store = self._store.gather(np.delete(np.arange(len(self)), i))
        del self._built[i]
        self._types = ()
        self._changed()
        return removed

    # ------------------------------------------------------------------ access
    @property
    def clusters(self) -> tuple[Cluster, ...]:
        """Clusters in registration order."""
        return tuple(self._clusters.values())

    @property
    def tasks(self) -> tuple[Task, ...]:
        """Tasks in registration order."""
        return tuple(self)

    def task_at(self, i: int) -> Task:
        """The task at position ``i`` in registration order (the ``task``
        index of :attr:`columns`), built on first use and then kept."""
        task = self._built[i]
        if task is None:
            task = self._built[i] = self._build(int(i) % len(self._built))
        return task

    def _build(self, i: int) -> Task:
        task_id, type, start, end, confs, meta = self._store.record(i)
        shared, built = self._shared, []
        for conf in confs:  # frozen, so shared by the tasks that bind it
            c = shared.get(conf)
            if c is None:
                c = shared[conf] = _configuration(conf[0], tuple(
                    [_host_range(lo, hi - lo) for lo, hi in conf[1]]))
            built.append(c)
        task = _new(Task)
        _task_id(task, task_id)
        _task_type(task, type)
        _task_start(task, start)
        _task_end(task, end)
        _task_confs(task, tuple(built))
        _task_meta(task, meta)
        return task

    def records(self) -> Iterator[Record]:
        """Every task in registration order as :meth:`TaskStore.record`
        gives it to :meth:`task_at`, without building a :class:`Task`: how
        writers read a schedule."""
        return self._store.walk()

    def cluster(self, cluster_id: str | int) -> Cluster:
        try:
            return self._clusters[str(cluster_id)]
        except KeyError:
            raise ScheduleError(f"no cluster with id {cluster_id!r}") from None

    def has_cluster(self, cluster_id: str | int) -> bool:
        return str(cluster_id) in self._clusters

    def task(self, task_id: str | int) -> Task:
        try:
            return self.task_at(self._store.index[str(task_id)])
        except KeyError:
            raise ScheduleError(f"no task with id {task_id!r}") from None

    def has_task(self, task_id: str | int) -> bool:
        return str(task_id) in self._store.index

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Task]:
        return map(self.task_at, range(len(self._store)))

    def __contains__(self, task_id: object) -> bool:
        return isinstance(task_id, (str, int)) and str(task_id) in self._store.index

    # ------------------------------------------------------------- derived
    @property
    def num_hosts(self) -> int:
        """Total resources ``|P|`` across all clusters."""
        return sum(c.num_hosts for c in self._clusters.values())

    def tasks_in_cluster(self, cluster_id: str | int) -> tuple[Task, ...]:
        """Tasks with at least one configuration in ``cluster_id``."""
        slot = self._slot.get(str(cluster_id))
        if slot is None:
            return ()
        cols = self.columns
        return tuple(map(self.task_at,
                         np.unique(cols.task[cols.cluster == slot[0]]).tolist()))

    def tasks_of_type(self, type: str) -> tuple[Task, ...]:
        return tuple(t for t in self if t.type == type)

    def task_types(self) -> tuple[str, ...]:
        """Distinct task types in first-appearance order (the store's
        interned type names), kept until a new type appears."""
        if len(self._types) != len(self._store.types):
            self._types = tuple(self._store.types)
        return self._types

    @property
    def columns(self) -> np.recarray:
        """Task geometry as a read-only numpy record array.

        One row per host range of every task configuration, in registration
        order: ``task`` indexes :attr:`tasks`, ``type`` indexes
        :meth:`task_types`, ``cluster`` indexes :attr:`clusters`, then
        ``start``, ``end`` and the global host rows ``[row0, row1)``.  Every
        plane query (LOD grids, viewport culling, hit-testing) reads these
        columns instead of walking the tasks.  Joined from the
        :class:`TaskStore` on first use, then kept until the next
        change (:attr:`version`).
        """
        if self._columns is None:
            st = self._store
            table = np.empty(len(st.cluster), dtype=_COLUMNS)
            if len(st.cluster) == len(st):  # one host range per task
                task = np.arange(len(st), dtype=np.intp)
            else:
                task = np.repeat(np.arange(len(st), dtype=np.intp),
                                 np.diff(np.array(st.first), append=len(st.cluster)))
            # each interned cluster id -> (cluster index, first global row)
            slot = np.array([self._slot[c][:2] for c in st.clusters],
                            dtype=np.intp).reshape(-1, 2)
            index, offset = slot[np.array(st.cluster, dtype=np.intp)].T
            table["task"] = task
            table["type"] = np.array(st.kind)[task]
            table["cluster"] = index
            table["start"] = np.array(st.start)[task]
            table["end"] = np.array(st.end)[task]
            table["row0"] = offset + np.array(st.row0)
            table["row1"] = offset + np.array(st.row1)
            table.flags.writeable = False
            self._columns = table.view(np.recarray)
        return self._columns

    @property
    def start_time(self) -> float:
        """Global minimum task start time (0.0 for an empty schedule)."""
        start = np.array(self._store.start)
        # argmin keeps the first of equal minima, as min() over the tasks
        return float(start[start.argmin()]) if start.size else 0.0

    @property
    def end_time(self) -> float:
        """Global maximum task end time (0.0 for an empty schedule)."""
        end = np.array(self._store.end)
        return float(end[end.argmax()]) if end.size else 0.0

    @property
    def makespan(self) -> float:
        """``end_time - start_time`` of the whole schedule."""
        return self.end_time - self.start_time

    def cluster_index(self, cluster_id: str | int) -> int:
        """Position of ``cluster_id`` in :attr:`clusters`, the ``cluster``
        index of :attr:`columns`."""
        try:
            return self._slot[str(cluster_id)][0]
        except KeyError:
            raise ScheduleError(f"no cluster with id {cluster_id!r}") from None

    def cluster_offset(self, cluster_id: str | int) -> int:
        """Flattened index of the first host of ``cluster_id``.

        Clusters are stacked in registration order, which is also the
        top-to-bottom rendering order.
        """
        try:
            return self._slot[str(cluster_id)][1]
        except KeyError:
            raise ScheduleError(f"no cluster with id {cluster_id!r}") from None

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

        The types, clusters and window select over the store's columns;
        ``predicate`` is asked only about the tasks they keep, so only
        those are built.  The kept tasks are gathered from the columns
        (:meth:`TaskStore.gather`) with no check, since every cluster is
        kept, and the ones built already are shared.
        """
        st = self._store
        keep = np.ones(len(st), dtype=bool)
        if types is not None:
            wanted = set(types)
            keep &= np.array([t in wanted for t in st.types], dtype=bool)[
                np.array(st.kind, dtype=np.intp)]
        if clusters is not None:
            wanted = {str(c) for c in clusters}
            rows = np.array([c in wanted for c in st.clusters], dtype=bool)[
                np.array(st.cluster, dtype=np.intp)]
            # a task is kept when any of its rows is
            keep &= np.logical_or.reduceat(rows, np.array(st.first, dtype=np.intp))
        if time_window is not None:
            t0, t1 = time_window
            keep &= (np.array(st.start) < t1) & (t0 < np.array(st.end))
        kept = np.flatnonzero(keep)
        if predicate is not None:
            kept = np.array([i for i in kept.tolist() if predicate(self.task_at(i))],
                            dtype=np.intp)
        out = Schedule(self.clusters, meta=self.meta)
        out._store = st.gather(kept)
        out._built = [self._built[i] for i in kept.tolist()]  # tasks are immutable
        out._changed()
        return out

    def copy(self) -> "Schedule":
        """Shallow copy (tasks/clusters are immutable, so this is safe)."""
        return self.filtered()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Schedule({len(self._clusters)} clusters, {len(self)} tasks, "
            f"makespan={self.makespan:.6g})"
        )
