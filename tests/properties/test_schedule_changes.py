"""Changes to a schedule, against the task-by-task path as the oracle.

``filtered``, ``copy`` and ``remove_task`` select and cut over the task
store; each must give what rebuilding the schedule from its ``Task``
objects through ``add_task`` gives.  ``canonical_schedule_bytes`` keeps
a schedule's bytes until it changes; after any interleaving of changes
it must return what a fresh encode returns.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import threading
from array import array

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.model import Configuration, Schedule, Task, TaskStore, host_span
from repro.errors import ScheduleError
from repro.io.json_fmt import from_dict, to_dict
from repro.serve.protocol import canonical_schedule_bytes

from .test_io_properties import _COLUMN_FIELDS, _ID_ALPHABET, plain_schedules, rich_schedules


def _fresh_bytes(schedule: Schedule) -> bytes:
    return json.dumps(to_dict(schedule), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _assert_same(got: Schedule, want: Schedule) -> None:
    assert got.clusters == want.clusters and got.meta == want.meta
    assert got.task_types() == want.task_types()
    for name in _COLUMN_FIELDS:
        assert np.array_equal(getattr(got.columns, name),
                              getattr(want.columns, name)), name
    assert list(got) == list(want)
    assert _fresh_bytes(got) == _fresh_bytes(want)


def _filtered_task_by_task(s: Schedule, *, types=None, clusters=None,
                           time_window=None, predicate=None) -> Schedule:
    """``Schedule.filtered`` as it was: every task built, the kept ones
    added again one by one."""
    type_set = set(types) if types is not None else None
    cluster_set = {str(c) for c in clusters} if clusters is not None else None
    kept = []
    for t in s:
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
    return Schedule(s.clusters, kept, s.meta)


_TIMES = st.floats(-10, 1.2e4, allow_nan=False, allow_infinity=False)


@given(rich_schedules(), st.data())
@settings(max_examples=150, deadline=None)
def test_filtered_equals_the_task_by_task_path(schedule, data):
    options = {}
    if data.draw(st.booleans()):
        options["types"] = data.draw(st.lists(
            st.sampled_from(["comp", "xfer", "io", "other"]), max_size=3))
    if data.draw(st.booleans()):
        options["clusters"] = data.draw(st.lists(
            st.sampled_from(["0", "1", "2", "9", 1]), max_size=3))
    if data.draw(st.booleans()):
        t0 = data.draw(_TIMES)
        options["time_window"] = (t0, data.draw(_TIMES))
    if data.draw(st.booleans()):
        options["predicate"] = lambda t: t.num_hosts % 2 == 0
    _assert_same(schedule.filtered(**options),
                 _filtered_task_by_task(schedule, **options))


@given(rich_schedules(), st.data())
@settings(max_examples=100, deadline=None)
def test_copy_and_remove_equal_the_task_by_task_path(schedule, data):
    _assert_same(schedule.copy(), Schedule(schedule.clusters, schedule.tasks,
                                           schedule.meta))
    while len(schedule):
        victim = data.draw(st.sampled_from([t.id for t in schedule]))
        want = Schedule(schedule.clusters,
                        [t for t in schedule if t.id != victim], schedule.meta)
        removed = schedule.remove_task(victim)
        assert removed.id == victim and victim not in schedule
        _assert_same(schedule, want)


def _per_record_copy(store: TaskStore, kept: list[int]) -> TaskStore:
    """``TaskStore.gather`` as it was: each kept record added again."""
    copy = TaskStore()
    for i in kept:
        copy.add(*store.record(i))
    return copy


def _assert_same_store(got: TaskStore, want: TaskStore) -> None:
    for name in TaskStore.__slots__:
        assert getattr(got, name) == getattr(want, name), name


@given(st.one_of(rich_schedules(), plain_schedules()), st.data())
@settings(max_examples=150, deadline=None)
def test_filtered_and_remove_gather_what_the_per_record_copy_adds(schedule, data):
    """``filtered`` (so ``copy``) and ``remove_task`` gather the tasks they
    keep from the store's columns: the store equals the one that adding
    each kept record again fills, and each kept position shares its built
    task, or its lack of one."""
    s = from_dict(to_dict(schedule))  # no Task built yet
    if len(s):
        for i in data.draw(st.sets(st.integers(0, len(s) - 1))):
            s.task_at(i)
    t0 = data.draw(_TIMES)
    out = s.filtered(
        types=data.draw(st.none() | st.lists(st.sampled_from(["comp", "xfer", "io"]))),
        clusters=data.draw(st.none() | st.lists(st.sampled_from(["0", "1", "2"]))),
        time_window=data.draw(st.none() | st.tuples(st.just(t0), _TIMES)))
    kept = [i for i, record in enumerate(s.records()) if out.has_task(record[0])]
    _assert_same_store(out._store, _per_record_copy(s._store, kept))
    assert len(out._built) == len(kept)
    assert all(out._built[j] is s._built[i] for j, i in enumerate(kept))
    if len(s):
        victim = data.draw(st.integers(0, len(s) - 1))
        left = [i for i in range(len(s)) if i != victim]
        want, built = _per_record_copy(s._store, left), [s._built[i] for i in left]
        s.remove_task(s._store.ids[victim])
        _assert_same_store(s._store, want)
        assert all(a is b for a, b in zip(s._built, built, strict=True))


_ONE_RANGE_TASKS = st.lists(st.tuples(
    st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["comp", "xfer"]),
    st.floats(-5, 5) | st.sampled_from([math.inf, math.nan]), st.floats(-5, 5),
    st.sampled_from(["0", "1"]), st.integers(-1, 3), st.integers(0, 3)), max_size=6)


@given(st.lists(_ONE_RANGE_TASKS, max_size=4))
@settings(max_examples=150, deadline=None)
def test_extend_appends_what_add_appends_one_by_one(batches):
    """``TaskStore.extend`` takes a batch of one-range tasks as ``add``
    takes them one by one, repeated ids keeping their first position, or,
    when ``add`` refuses one of them, takes none of the batch."""
    got, want = TaskStore(), TaskStore()
    for batch in batches:
        ids, types, start, end, clusters, row0, nb = (list(c) for c in zip(*batch)) \
            if batch else ([], [], [], [], [], [], [])
        ok = got.extend(ids, types, array("d", start), array("d", end), clusters,
                        array("q", row0), array("q", nb))
        trial = copy.deepcopy(want)
        try:
            for task in batch:
                trial.add(*task[:4], [(task[4], [host_span(task[5], task[6])])], None)
        except ScheduleError:
            assert not ok
        else:
            assert ok
            want = trial
        _assert_same_store(got, want)


# one step of a schedule's life: (name, argument drawn for it)
_STEPS = st.sampled_from([
    "add_cluster", "new_task", "add_task", "remove_task", "filtered", "copy",
    "set_meta", "same_meta", "delete_meta", "replace_meta", "nothing"])


def _step(s: Schedule, step: str, data) -> Schedule:
    """Apply ``step`` to ``s``; returns the schedule to go on with."""
    text = st.text(_ID_ALPHABET, min_size=1, max_size=6)
    if step == "add_cluster":
        cid = data.draw(text)
        if not s.has_cluster(cid):
            s.new_cluster(cid, data.draw(st.integers(1, 8)))
    elif step in ("new_task", "add_task") and s.clusters:
        cluster = data.draw(st.sampled_from(s.clusters))
        tid = data.draw(text)
        if tid in s:
            return s
        start = data.draw(st.floats(0, 100, allow_nan=False))
        hosts = data.draw(st.sets(st.integers(0, cluster.num_hosts - 1),
                                  min_size=1))
        meta = data.draw(st.dictionaries(text, text, max_size=2))
        kind = data.draw(st.sampled_from(["comp", "xfer"]))
        if step == "new_task":
            s.new_task(tid, kind, start, start + 1, cluster=cluster.id,
                       hosts=hosts, meta=meta)
        else:
            s.add_task(Task(tid, kind, start, start + 2,
                            [Configuration.from_hosts(cluster.id, hosts)], meta))
    elif step == "remove_task" and len(s):
        s.remove_task(data.draw(st.sampled_from([t.id for t in s])))
    elif step == "filtered":
        return s.filtered(types=data.draw(st.sampled_from([None, ["comp"]])),
                          time_window=data.draw(st.sampled_from([None, (0, 50)])))
    elif step == "copy":
        return s.copy()
    elif step == "set_meta":
        s.meta[data.draw(text)] = data.draw(text)
    elif step == "same_meta" and s.meta:
        key = data.draw(st.sampled_from(sorted(s.meta)))
        s.meta[key] = s.meta[key]
    elif step == "delete_meta" and s.meta:
        del s.meta[data.draw(st.sampled_from(sorted(s.meta)))]
    elif step == "replace_meta":
        s.meta = data.draw(st.dictionaries(text, text, max_size=2))
    return s


@given(rich_schedules(), st.lists(_STEPS, max_size=25), st.data())
@settings(max_examples=150, deadline=None)
def test_kept_bytes_follow_every_change(schedule, steps, data):
    """After every step the kept bytes are what a fresh encode gives,
    and so are those of each schedule left behind by filtered or copy."""
    seen = [schedule]
    assert canonical_schedule_bytes(schedule) == _fresh_bytes(schedule)
    for step in steps:
        schedule = _step(schedule, step, data)
        if schedule is not seen[-1]:
            seen.append(schedule)
        for s in seen:
            assert canonical_schedule_bytes(s) == _fresh_bytes(s), step


def test_threads_sharing_a_schedule_get_equal_bytes():
    s = Schedule(meta={"algorithm": "demo"})
    s.new_cluster(0, 64)
    for i in range(3000):
        s.new_task(i, "comp" if i % 3 else "xfer", float(i), i + 2.5,
                   cluster=0, host_start=i % 60, host_nb=4, meta={"n": str(i)})

    def encode(start: threading.Barrier, got: list[bytes]) -> None:
        start.wait(timeout=30)
        got.append(canonical_schedule_bytes(s))
        got.append(canonical_schedule_bytes(s))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # one round on the new schedule, one after a task change, one after
        # a meta edit: every thread gets what a fresh encode gives
        for change in (None, lambda: s.remove_task("7"),
                       lambda: s.meta.update(algorithm="other")):
            if change is not None:
                change()
            want = _fresh_bytes(s)
            start, got = threading.Barrier(4), []
            threads = [threading.Thread(target=encode, args=(start, got))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(got) == 8 and all(b == want for b in got)
    finally:
        sys.setswitchinterval(interval)
