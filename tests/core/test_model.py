"""Unit tests for the core schedule data model."""

from __future__ import annotations

import pytest

from repro.core.model import (
    Cluster,
    Configuration,
    HostRange,
    Schedule,
    Task,
    hosts_to_ranges,
    merge_host_ranges,
)
from repro.errors import ScheduleError


class TestHostRange:
    def test_basic(self):
        r = HostRange(2, 3)
        assert r.stop == 5
        assert list(r.hosts()) == [2, 3, 4]

    def test_contains(self):
        r = HostRange(2, 3)
        assert 2 in r and 4 in r
        assert 5 not in r and 1 not in r
        assert "2" not in r

    def test_negative_start_rejected(self):
        with pytest.raises(ScheduleError):
            HostRange(-1, 3)

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            HostRange(0, 0)

    @pytest.mark.parametrize("a,b,expected", [
        ((0, 3), (2, 3), True),
        ((0, 3), (3, 3), False),   # touching is not overlapping
        ((5, 2), (0, 10), True),
        ((0, 1), (1, 1), False),
    ])
    def test_overlaps(self, a, b, expected):
        assert HostRange(*a).overlaps(HostRange(*b)) is expected


class TestRangeHelpers:
    def test_merge_adjacent(self):
        merged = merge_host_ranges([HostRange(0, 2), HostRange(2, 2)])
        assert merged == (HostRange(0, 4),)

    def test_merge_overlapping_and_disjoint(self):
        merged = merge_host_ranges([HostRange(4, 4), HostRange(0, 2), HostRange(5, 1)])
        assert merged == (HostRange(0, 2), HostRange(4, 4))

    def test_hosts_to_ranges_scattered(self):
        assert hosts_to_ranges([0, 1, 2, 6, 8, 9]) == (
            HostRange(0, 3), HostRange(6, 1), HostRange(8, 2))

    def test_hosts_to_ranges_duplicates(self):
        assert hosts_to_ranges([3, 3, 4]) == (HostRange(3, 2),)

    def test_hosts_to_ranges_empty(self):
        assert hosts_to_ranges([]) == ()


class TestConfiguration:
    def test_from_tuples(self):
        c = Configuration(0, [(0, 8)])
        assert c.cluster_id == "0"
        assert c.num_hosts == 8
        assert c.is_contiguous

    def test_from_hosts_non_contiguous(self):
        c = Configuration.from_hosts("x", [5, 0, 1])
        assert c.hosts() == (0, 1, 5)
        assert not c.is_contiguous
        assert c.host_set() == frozenset({0, 1, 5})

    def test_ranges_normalized(self):
        c = Configuration(0, [(4, 2), (0, 2), (2, 2)])
        assert c.host_ranges == (HostRange(0, 6),)

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            Configuration(0, [])
        with pytest.raises(ScheduleError):
            Configuration.from_hosts(0, [])


class TestTask:
    def _conf(self):
        return [Configuration(0, [(0, 4)])]

    def test_basic_properties(self):
        t = Task(7, "computation", 1.0, 3.5, self._conf(), {"user": "42"})
        assert t.id == "7"
        assert t.duration == 2.5
        assert t.num_hosts == 4
        assert t.meta["user"] == "42"

    def test_reversed_times_rejected(self):
        with pytest.raises(ScheduleError):
            Task(1, "x", 2.0, 1.0, self._conf())

    def test_nonfinite_times_rejected(self):
        with pytest.raises(ScheduleError):
            Task(1, "x", float("nan"), 1.0, self._conf())
        with pytest.raises(ScheduleError):
            Task(1, "x", 0.0, float("inf"), self._conf())

    def test_zero_duration_allowed(self):
        t = Task(1, "marker", 1.0, 1.0, self._conf())
        assert t.duration == 0.0

    def test_no_configuration_rejected(self):
        with pytest.raises(ScheduleError):
            Task(1, "x", 0.0, 1.0, [])

    def test_duplicate_cluster_config_rejected(self):
        confs = [Configuration(0, [(0, 2)]), Configuration(0, [(4, 2)])]
        with pytest.raises(ScheduleError):
            Task(1, "x", 0.0, 1.0, confs)

    def test_multi_cluster_task(self):
        confs = [Configuration("a", [(0, 2)]), Configuration("b", [(1, 3)])]
        t = Task(1, "transfer", 0.0, 1.0, confs)
        assert t.num_hosts == 5
        assert t.cluster_ids == ("a", "b")
        assert t.hosts_in("b") == (1, 2, 3)
        assert t.hosts_in("missing") == ()

    def test_overlaps_time(self):
        a = Task(1, "x", 0.0, 2.0, self._conf())
        b = Task(2, "x", 1.0, 3.0, self._conf())
        c = Task(3, "x", 2.0, 3.0, self._conf())
        assert a.overlaps_time(b)
        assert not a.overlaps_time(c)  # half-open intervals touch

    def test_shares_resources(self):
        a = Task(1, "x", 0.0, 1.0, [Configuration(0, [(0, 2)])])
        b = Task(2, "x", 0.0, 1.0, [Configuration(0, [(1, 2)])])
        c = Task(3, "x", 0.0, 1.0, [Configuration(0, [(2, 2)])])
        d = Task(4, "x", 0.0, 1.0, [Configuration(1, [(0, 2)])])
        assert a.shares_resources(b)
        assert not a.shares_resources(c)
        assert not a.shares_resources(d)  # other cluster

    def test_with_meta_and_shifted(self):
        t = Task(1, "x", 0.0, 1.0, self._conf(), {"a": "1"})
        t2 = t.with_meta(b="2").shifted(5.0)
        assert t2.meta == {"a": "1", "b": "2"}
        assert (t2.start_time, t2.end_time) == (5.0, 6.0)
        assert t.start_time == 0.0  # original untouched


class TestCluster:
    def test_default_name(self):
        c = Cluster(3, 16)
        assert c.id == "3"
        assert c.name == "cluster 3"
        assert len(c.hosts()) == 16

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            Cluster(0, 0)


class TestSchedule:
    def test_build_and_access(self, simple_schedule):
        s = simple_schedule
        assert len(s) == 2
        assert s.num_hosts == 8
        assert s.task("1").type == "computation"
        assert s.has_task(2) and not s.has_task(99)
        assert s.task_types() == ("computation", "transfer")

    def test_duplicate_task_id_rejected(self, simple_schedule):
        with pytest.raises(ScheduleError):
            simple_schedule.new_task(1, "x", 0, 1, cluster=0, host_start=0, host_nb=1)

    def test_duplicate_cluster_id_rejected(self, simple_schedule):
        with pytest.raises(ScheduleError):
            simple_schedule.new_cluster(0, 4)

    def test_unknown_cluster_rejected(self, simple_schedule):
        with pytest.raises(ScheduleError):
            simple_schedule.new_task(9, "x", 0, 1, cluster="nope", host_start=0, host_nb=1)

    def test_host_out_of_range_rejected(self, simple_schedule):
        with pytest.raises(ScheduleError):
            simple_schedule.new_task(9, "x", 0, 1, cluster=0, host_start=6, host_nb=4)

    def test_new_task_requires_binding(self, simple_schedule):
        with pytest.raises(ScheduleError):
            simple_schedule.new_task(9, "x", 0, 1, cluster=0)

    def test_makespan_and_span(self, simple_schedule):
        assert simple_schedule.start_time == 0.0
        assert simple_schedule.end_time == 0.5
        assert simple_schedule.makespan == 0.5

    def test_empty_schedule_span(self):
        s = Schedule()
        assert s.makespan == 0.0

    def test_remove_task(self, simple_schedule):
        removed = simple_schedule.remove_task("2")
        assert removed.id == "2"
        assert len(simple_schedule) == 1
        with pytest.raises(ScheduleError):
            simple_schedule.remove_task("2")

    def test_cluster_offsets(self, multi_cluster_schedule):
        s = multi_cluster_schedule
        assert s.cluster_offset("a") == 0
        assert s.cluster_offset("b") == 4
        assert s.global_host_index("b", 1) == 5
        with pytest.raises(ScheduleError):
            s.global_host_index("b", 2)

    def test_tasks_in_cluster(self, multi_cluster_schedule):
        s = multi_cluster_schedule
        assert {t.id for t in s.tasks_in_cluster("a")} == {"1", "3"}
        assert {t.id for t in s.tasks_in_cluster("b")} == {"2", "3"}

    def test_filtered_by_type(self, multi_cluster_schedule):
        f = multi_cluster_schedule.filtered(types=["transfer"])
        assert [t.id for t in f] == ["3"]
        # clusters preserved for layout comparability
        assert len(f.clusters) == 2

    def test_filtered_by_cluster(self, multi_cluster_schedule):
        f = multi_cluster_schedule.filtered(clusters=["b"])
        assert {t.id for t in f} == {"2", "3"}

    def test_filtered_by_window(self, multi_cluster_schedule):
        f = multi_cluster_schedule.filtered(time_window=(0.0, 4.0))
        assert {t.id for t in f} == {"1"}  # task 3 starts exactly at 4.0

    def test_filtered_by_predicate(self, multi_cluster_schedule):
        f = multi_cluster_schedule.filtered(predicate=lambda t: t.duration > 6)
        assert {t.id for t in f} == {"2", "3"}

    def test_copy_independent(self, simple_schedule):
        c = simple_schedule.copy()
        c.remove_task("1")
        assert len(simple_schedule) == 2 and len(c) == 1

    def test_iteration_order_is_insertion(self, simple_schedule):
        assert [t.id for t in simple_schedule] == ["1", "2"]


class TestColumns:
    FIELDS = ("task", "type", "cluster", "start", "end", "row0", "row1")

    def test_one_row_per_host_range(self, multi_cluster_schedule):
        cols = multi_cluster_schedule.columns
        # task 3 binds host 0 of cluster a and host 0 of cluster b (row 4)
        assert cols.task.tolist() == [0, 1, 2, 2]
        assert cols.type.tolist() == [0, 0, 1, 1]
        assert cols.cluster.tolist() == [0, 1, 0, 1]
        assert cols.start.tolist() == [0.0, 10.0, 4.0, 4.0]
        assert cols.end.tolist() == [5.0, 30.0, 11.0, 11.0]
        assert cols.row0.tolist() == [0, 4, 0, 4]
        assert cols.row1.tolist() == [4, 6, 1, 5]

    def test_scattered_hosts_split_into_ranges(self, simple_schedule):
        cols = simple_schedule.columns  # task 2 binds hosts 0, 1, 2 and 6
        assert cols.task.tolist() == [0, 1, 1]
        assert list(zip(cols.row0.tolist(), cols.row1.tolist())) == [
            (0, 8), (0, 3), (6, 7)]

    def test_arrays_are_read_only(self, simple_schedule):
        cols = simple_schedule.columns
        for name in self.FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(cols, name)[0] = 1

    def test_empty_schedules(self):
        s = Schedule()
        assert all(getattr(s.columns, n).size == 0 for n in self.FIELDS)
        s.new_cluster("c", 4)
        assert all(getattr(s.columns, n).size == 0 for n in self.FIELDS)
        assert s.columns.start.dtype.kind == "f"
        assert s.columns.row0.dtype.kind == "i"

    def test_cached_until_the_schedule_changes(self, simple_schedule):
        s = simple_schedule
        cols = s.columns
        assert s.columns is cols
        s.new_cluster(1, 2)
        assert s.columns is not cols
        s.new_task(3, "computation", 1.0, 2.0, cluster=1, host_start=0, host_nb=2)
        assert s.columns.task.tolist() == [0, 1, 1, 2]
        assert s.columns.row0.tolist() == [0, 0, 6, 8]
        s.remove_task("1")
        # type indices follow task_types(): now transfer, computation
        assert s.task_types() == ("transfer", "computation")
        assert s.columns.task.tolist() == [0, 0, 1]
        assert s.columns.type.tolist() == [0, 0, 1]

    def test_task_types_cached_until_tasks_change(self, simple_schedule):
        s = simple_schedule
        types = s.task_types()
        assert types == ("computation", "transfer")
        assert s.task_types() is types
        s.new_cluster(1, 2)  # clusters do not change the types
        assert s.task_types() is types

        def indexes_types():
            cols = s.columns
            return ([s.task_types()[i] for i in cols.type.tolist()]
                    == [s.tasks[i].type for i in cols.task.tolist()])

        s.new_task(3, "io", 1.0, 2.0, cluster=1, host_start=0, host_nb=2)
        assert s.task_types() == ("computation", "transfer", "io")
        assert s.task_types() is s.task_types()
        assert indexes_types()
        s.remove_task("1")
        assert s.task_types() == ("transfer", "io")
        assert indexes_types()
        s.remove_task("2")
        s.remove_task("3")
        assert s.task_types() == ()
        assert s.columns.type.size == 0


class TestReadOnlyMeta:
    """A task's meta cannot be written in place: a task never changes once
    built, so a schedule's version counts every change to its tasks."""

    def test_task_meta_is_read_only(self):
        meta = {"user": "42"}
        t = Task(1, "computation", 0.0, 1.0, [Configuration(0, [(0, 2)])], meta)
        with pytest.raises(TypeError):
            t.meta["user"] = "43"
        meta["user"] = "43"  # the task keeps its own copy
        assert t.meta == {"user": "42"}
        assert t.with_meta(app="x").meta == {"user": "42", "app": "x"}
        with pytest.raises(TypeError):
            Task(2, "x", 0.0, 1.0, [Configuration(0, [(0, 1)])]).meta["a"] = "b"

    def test_schedule_and_record_meta_are_read_only(self, simple_schedule):
        s = simple_schedule
        s.new_task(3, "io", 0.5, 0.6, cluster=0, host_start=7, host_nb=1,
                   meta={"user": "7"})
        with pytest.raises(TypeError):
            s.task("3").meta["user"] = "8"
        with pytest.raises(TypeError):
            s.task("1").meta["user"] = "8"  # a task with no meta
        for record in s.records():
            with pytest.raises(TypeError):
                record[5]["user"] = "8"
        # the store and the task it builds share one mapping
        assert [r[5] for r in s.records()][2] is s.task("3").meta
        # read from a file, built on demand
        from repro.io import json_fmt

        back = json_fmt.from_dict(json_fmt.to_dict(s))
        with pytest.raises(TypeError):
            back.task("3").meta["user"] = "8"
        assert [r[5] for r in back.records()][2] is back.task("3").meta

    def test_tasks_and_schedules_still_pickle(self, simple_schedule):
        import copy
        import pickle

        from repro.io import json_fmt

        s = simple_schedule
        s.new_task(3, "io", 0.5, 0.6, cluster=0, host_start=7, host_nb=1,
                   meta={"user": "7"})
        s.task("1")  # one task built, the others only in the store
        for clone in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert json_fmt.to_dict(clone) == json_fmt.to_dict(s)
            assert list(clone) == list(s)
            for record in clone.records():
                with pytest.raises(TypeError):
                    record[5]["user"] = "8"
            with pytest.raises(TypeError):
                clone.task("3").meta["user"] = "8"
        task = pickle.loads(pickle.dumps(s.task("3")))
        assert task == s.task("3")
        with pytest.raises(TypeError):
            task.meta["user"] = "8"


class TestVersion:
    def test_every_change_counts_once(self, simple_schedule):
        s = simple_schedule
        v = s.version
        s.new_cluster(1, 2)
        assert s.version == v + 1
        s.new_task(3, "io", 1.0, 2.0, cluster=1, host_start=0, host_nb=2)
        assert s.version == v + 2
        s.remove_task("1")
        assert s.version == v + 3
        s.meta["x"] = "y"  # meta is outside the count
        s.columns, s.task_types(), list(s), s.copy(), s.filtered(types=["io"])
        assert s.version == v + 3

    def test_a_failed_change_does_not_count(self, simple_schedule):
        s = simple_schedule
        v = s.version
        with pytest.raises(ScheduleError):
            s.new_task(1, "x", 0.0, 1.0, cluster=0, host_start=0, host_nb=1)
        with pytest.raises(ScheduleError):
            s.remove_task("nope")
        with pytest.raises(ScheduleError):
            s.new_cluster(0, 2)
        assert s.version == v

    def test_a_read_schedule_counts_its_adopt_step(self, simple_schedule):
        from repro.io import jedule_xml, json_fmt

        for back in (json_fmt.from_dict(json_fmt.to_dict(simple_schedule)),
                     jedule_xml.loads(jedule_xml.dumps(simple_schedule))):
            v = back.version
            assert v > 0
            back.remove_task("1")
            assert back.version == v + 1


def _unbuilt(schedule: Schedule) -> Schedule:
    """``schedule`` as a reader gives it: no Task built yet."""
    from repro.io import json_fmt

    return json_fmt.from_dict(json_fmt.to_dict(schedule))


def _count_builds(monkeypatch) -> list[int]:
    """Positions :meth:`Schedule._build` builds a Task for, from now on."""
    built: list[int] = []
    build = Schedule._build

    def spy(self, i):
        built.append(i)
        return build(self, i)

    monkeypatch.setattr(Schedule, "_build", spy)
    return built


class TestFilterAndRemoveBuildNoTask:
    def test_types_clusters_and_window_build_no_task(
            self, multi_cluster_schedule, monkeypatch):
        s = _unbuilt(multi_cluster_schedule)
        built = _count_builds(monkeypatch)
        kept = [s.filtered(types=["transfer"]), s.filtered(clusters=["b"]),
                s.filtered(time_window=(0.0, 4.0)),
                s.filtered(types=["computation"], clusters=["a"],
                           time_window=(0.0, 100.0)), s.copy()]
        assert built == []
        assert [[t.id for t in f] for f in kept] == \
            [["3"], ["2", "3"], ["1"], ["1"], ["1", "2", "3"]]

    def test_predicate_sees_only_the_tasks_the_others_kept(
            self, multi_cluster_schedule, monkeypatch):
        s = _unbuilt(multi_cluster_schedule)
        built = _count_builds(monkeypatch)
        asked = []
        f = s.filtered(types=["computation"],
                       predicate=lambda t: asked.append(t.id) or t.duration > 6)
        assert asked == ["1", "2"] and built == [0, 1]
        assert [t.id for t in f] == ["2"]
        # the tasks built for the predicate are shared, not rebuilt
        assert f.task("2") is s.task("2") and built == [0, 1]

    def test_remove_builds_only_the_removed_task(self, multi_cluster_schedule,
                                                 monkeypatch):
        s = _unbuilt(multi_cluster_schedule)
        built = _count_builds(monkeypatch)
        removed = s.remove_task("2")
        assert built == [1]
        assert removed == multi_cluster_schedule.task("2")
        assert [t.id for t in s] == ["1", "3"]
        assert s.task("3") == multi_cluster_schedule.task("3")
