"""Tests for hit-testing, inspection and selection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import Cluster, Configuration, Schedule, Task
from repro.core.select import Selection, describe_task, hit_test, tasks_in_region
from repro.errors import ScheduleError


class TestHitTest:
    def test_hit_single_task(self, simple_schedule):
        task = hit_test(simple_schedule, 0.1, 3.5)
        assert task is not None and task.id == "1"

    def test_miss_in_idle_region(self, simple_schedule):
        assert hit_test(simple_schedule, 0.4, 4.5) is None  # host 4 idle after 0.31

    def test_miss_outside_time(self, simple_schedule):
        assert hit_test(simple_schedule, 0.6, 1.0) is None

    def test_half_open_end(self, simple_schedule):
        assert hit_test(simple_schedule, 0.31, 7.0) is None  # task 1 ends at 0.31

    def test_topmost_wins_on_overlap(self, overlap_schedule):
        # both tasks cover (1.5, host 0); t1 was added later -> on top
        task = hit_test(overlap_schedule, 1.5, 0.5)
        assert task is not None and task.id == "t1"

    def test_multi_cluster_rows(self, multi_cluster_schedule):
        # task 2 lives on cluster b (global rows 4-5)
        task = hit_test(multi_cluster_schedule, 20.0, 4.5)
        assert task is not None and task.id == "2"


class TestRegionQuery:
    def test_region_finds_intersecting(self, simple_schedule):
        found = tasks_in_region(simple_schedule, 0.0, 0.2, 0.0, 8.0)
        assert {t.id for t in found} == {"1"}

    def test_region_normalizes_corners(self, simple_schedule):
        found = tasks_in_region(simple_schedule, 0.5, 0.0, 8.0, 0.0)
        assert {t.id for t in found} == {"1", "2"}

    def test_empty_region(self, simple_schedule):
        assert tasks_in_region(simple_schedule, 0.6, 0.9, 0, 8) == ()


class TestDescribe:
    def test_describe_fields(self, simple_schedule):
        info = describe_task(simple_schedule.task("2"))
        assert info.task_id == "2"
        assert info.num_hosts == 4
        assert info.resources == (("0", (0, 1, 2, 6)),)

    def test_lines_format(self, simple_schedule):
        lines = describe_task(simple_schedule.task("2")).lines()
        text = "\n".join(lines)
        assert "task 2 (transfer)" in text
        assert "0-2,6" in text  # compact host list

    def test_meta_in_lines(self):
        s = Schedule()
        s.new_cluster(0, 1)
        s.new_task(1, "job", 0, 1, cluster=0, host_start=0, host_nb=1,
                   meta={"user": "6447"})
        assert any("user = 6447" in line for line in describe_task(s.task(1)).lines())


class TestSelection:
    def test_toggle(self, simple_schedule):
        sel = Selection(simple_schedule)
        assert sel.toggle("1") is True
        assert "1" in sel and len(sel) == 1
        assert sel.toggle("1") is False
        assert len(sel) == 0

    def test_toggle_unknown_raises(self, simple_schedule):
        with pytest.raises(ScheduleError):
            Selection(simple_schedule).toggle("zzz")

    def test_select_where(self, simple_schedule):
        sel = Selection(simple_schedule)
        added = sel.select_where(lambda t: t.type == "transfer")
        assert added == 1
        assert sel.ids == {"2"}

    def test_select_meta(self):
        s = Schedule()
        s.new_cluster(0, 2)
        s.new_task(1, "job", 0, 1, cluster=0, host_start=0, host_nb=1,
                   meta={"user": "6447"})
        s.new_task(2, "job", 0, 1, cluster=0, host_start=1, host_nb=1,
                   meta={"user": "12"})
        sel = Selection(s)
        assert sel.select_meta("user", "6447") == 1
        assert sel.ids == {"1"}

    def test_highlighted_schedule(self, simple_schedule):
        sel = Selection(simple_schedule)
        sel.toggle("2")
        high = sel.highlighted_schedule()
        assert high.task("2").type == "transfer:selected"
        assert high.task("1").type == "computation"
        # original untouched
        assert simple_schedule.task("2").type == "transfer"

    def test_highlighted_custom_type(self, simple_schedule):
        sel = Selection(simple_schedule)
        sel.toggle("1")
        high = sel.highlighted_schedule(highlight_type="hot")
        assert high.task("1").type == "hot"

    def test_clear(self, simple_schedule):
        sel = Selection(simple_schedule)
        sel.toggle("1")
        sel.clear()
        assert len(sel) == 0


# ---------------------------------------------------------------------------
# Parity of the column-view queries with the scalar loops they replaced,
# kept here verbatim as the reference.

def _ref_task_rows(schedule, task):
    rows = []
    for conf in task.configurations:
        off = schedule.cluster_offset(conf.cluster_id)
        for r in conf.host_ranges:
            rows.append((off + r.start, off + r.stop))
    return rows


def _ref_hit_test(schedule, t, row):
    hit = None
    for task in schedule:
        if not (task.start_time <= t < task.end_time):
            continue
        for lo, hi in _ref_task_rows(schedule, task):
            if lo <= row < hi:
                hit = task
                break
    return hit


def _ref_tasks_in_region(schedule, t0, t1, row0, row1):
    if t1 < t0:
        t0, t1 = t1, t0
    if row1 < row0:
        row0, row1 = row1, row0
    found = []
    for task in schedule:
        if not (task.start_time < t1 and t0 < task.end_time):
            continue
        if any(lo < row1 and row0 < hi for lo, hi in _ref_task_rows(schedule, task)):
            found.append(task)
    return tuple(found)


@st.composite
def _schedules(draw):
    """Multi-cluster schedules on a coarse grid of times, so that query
    points land on task boundaries; zero-duration and overlapping tasks."""
    s = Schedule()
    for c in range(draw(st.integers(1, 3))):
        s.add_cluster(Cluster(f"c{c}", draw(st.integers(1, 6))))
    for i in range(draw(st.integers(0, 10))):
        configs = []
        for c in draw(st.sets(st.sampled_from(s.clusters), min_size=1)):
            hosts = draw(st.sets(st.integers(0, c.num_hosts - 1), min_size=1))
            configs.append(Configuration.from_hosts(c.id, hosts))
        start = draw(st.integers(0, 8)) / 2
        end = start + draw(st.integers(0, 6)) / 2
        s.add_task(Task(f"t{i}", draw(st.sampled_from("ab")), start, end, configs))
    return s


_TIMES = st.one_of(st.integers(-1, 12).map(lambda k: k / 2),
                   st.floats(-1, 8, allow_nan=False))
_ROWS = st.one_of(st.integers(-1, 19).map(float),
                  st.floats(-1, 19, allow_nan=False))


@given(_schedules(), _TIMES, _ROWS)
@settings(max_examples=300, deadline=None)
def test_hit_test_matches_scalar_reference(schedule, t, row):
    assert hit_test(schedule, t, row) is _ref_hit_test(schedule, t, row)


@given(_schedules(), _TIMES, _TIMES, _ROWS, _ROWS)
@settings(max_examples=300, deadline=None)
def test_tasks_in_region_matches_scalar_reference(schedule, t0, t1, r0, r1):
    assert (tasks_in_region(schedule, t0, t1, r0, r1)
            == _ref_tasks_in_region(schedule, t0, t1, r0, r1))
