"""Property-based tests (hypothesis) for the core data structures."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core.composite import build_composite_tasks, find_overlaps
from repro.core.model import (
    Cluster,
    Configuration,
    HostRange,
    Schedule,
    Task,
    hosts_to_ranges,
    merge_host_ranges,
)
from repro.core.stats import total_busy_area, utilization_profile
from repro.core.viewport import Viewport
from repro.render.layout import nice_ticks

# ---------------------------------------------------------------- strategies

host_sets = st.sets(st.integers(0, 63), min_size=1, max_size=24)

host_ranges = st.builds(
    HostRange,
    start=st.integers(0, 50),
    nb=st.integers(1, 10),
)


@st.composite
def schedules(draw) -> Schedule:
    n_hosts = draw(st.integers(1, 32))
    s = Schedule()
    s.add_cluster(Cluster("0", n_hosts))
    n_tasks = draw(st.integers(0, 12))
    for i in range(n_tasks):
        start = draw(st.floats(0, 100, allow_nan=False, allow_infinity=False))
        dur = draw(st.floats(0.01, 50, allow_nan=False, allow_infinity=False))
        hosts = draw(st.sets(st.integers(0, n_hosts - 1), min_size=1,
                             max_size=n_hosts))
        s.add_task(Task(str(i), draw(st.sampled_from(["a", "b", "c"])),
                        start, start + dur,
                        [Configuration.from_hosts("0", hosts)]))
    return s


# ------------------------------------------------------------------- ranges

@given(host_sets)
def test_hosts_to_ranges_roundtrip(hosts):
    ranges = hosts_to_ranges(hosts)
    covered = set()
    for r in ranges:
        covered.update(r.hosts())
    assert covered == hosts


@given(host_sets)
def test_hosts_to_ranges_minimal(hosts):
    """Produced runs are maximal: no two consecutive runs touch."""
    ranges = hosts_to_ranges(hosts)
    for a, b in zip(ranges, ranges[1:]):
        assert a.stop < b.start


@given(st.lists(host_ranges, min_size=0, max_size=10))
def test_merge_host_ranges_covers_union(ranges):
    merged = merge_host_ranges(ranges)
    union = set()
    for r in ranges:
        union.update(r.hosts())
    covered = set()
    for r in merged:
        covered.update(r.hosts())
    assert covered == union
    for a, b in zip(merged, merged[1:]):
        assert a.stop < b.start  # disjoint, non-touching, sorted


# --------------------------------------------------------------- composites

@given(schedules())
@settings(max_examples=60)
def test_composite_fragments_disjoint_per_host(schedule):
    """On one host, composite fragments never overlap each other."""
    frags = find_overlaps(schedule.tasks)
    per_host: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for (members, t0, t1), resources in frags.items():
        for key in resources:
            per_host.setdefault(key, []).append((t0, t1))
    for intervals in per_host.values():
        intervals.sort()
        for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
            assert b0 >= a1 - 1e-12


@given(schedules())
@settings(max_examples=60)
def test_composites_exactly_where_two_or_more_tasks_run(schedule):
    """A probe inside a composite fragment sees >= 2 member tasks on that
    host; a probe outside all fragments sees <= 1 task."""
    tasks = list(schedule.tasks)
    frags = find_overlaps(tasks)

    def active_on(host: int, t: float) -> int:
        return sum(1 for task in tasks
                   if task.start_time <= t < task.end_time
                   and host in task.hosts_in("0"))

    for (members, t0, t1), resources in frags.items():
        # t0 catches a fragment that starts too early, the midpoint one that
        # ends too late; a fragment one float step wide has no midpoint
        # inside it, since (t0 + t1) / 2 rounds onto t0 or t1
        mid = (t0 + t1) / 2
        probes = [t0, mid] if t0 < mid < t1 else [t0]
        for (_, host) in resources:
            for t in probes:
                assert active_on(host, t) >= 2


@given(schedules())
@settings(max_examples=60)
def test_composite_ids_unique(schedule):
    comps = build_composite_tasks(schedule.tasks)
    ids = [c.id for c in comps]
    assert len(ids) == len(set(ids))


# -------------------------------------------------------------------- stats

@given(schedules())
@settings(max_examples=60)
def test_profile_integral_equals_busy_area(schedule):
    prof = utilization_profile(schedule)
    integral = 0.0
    for i in range(len(prof.times) - 1):
        integral += prof.counts[i] * (prof.times[i + 1] - prof.times[i])
    assert math.isclose(integral, total_busy_area(schedule),
                        rel_tol=1e-9, abs_tol=1e-9)


@given(schedules())
@settings(max_examples=60)
def test_profile_counts_never_negative(schedule):
    prof = utilization_profile(schedule)
    assert all(c >= 0 for c in prof.counts)
    if prof.counts:
        assert prof.counts[-1] == 0


# ----------------------------------------------------------------- viewport

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(t0=finite, dt=st.floats(0.01, 1e6), r0=finite, dr=st.floats(0.01, 1e3),
       factor=st.floats(0.1, 10))
def test_zoom_unzoom_identity(t0, dt, r0, dr, factor):
    vp = Viewport(t0, t0 + dt, r0, r0 + dr)
    back = vp.zoom(factor).zoom(1 / factor)
    assert math.isclose(back.t0, vp.t0, rel_tol=1e-6, abs_tol=1e-6)
    assert math.isclose(back.t1, vp.t1, rel_tol=1e-6, abs_tol=1e-6)


@given(t0=finite, dt=st.floats(0.01, 1e6), r0=finite, dr=st.floats(0.01, 1e3),
       x=st.floats(0, 1), y=st.floats(0, 1))
def test_unit_mapping_roundtrip(t0, dt, r0, dr, x, y):
    vp = Viewport(t0, t0 + dt, r0, r0 + dr)
    t, r = vp.from_unit(x, y)
    x2, y2 = vp.to_unit(t, r)
    assert math.isclose(x, x2, abs_tol=1e-6)
    assert math.isclose(y, y2, abs_tol=1e-6)


@given(lo=st.floats(-1e5, 1e5, allow_nan=False),
       span=st.floats(1e-3, 1e6), target=st.integers(3, 15))
def test_nice_ticks_properties(lo, span, target):
    hi = lo + span
    ticks = nice_ticks(lo, hi, target)
    assert all(lo - span * 1e-6 <= t <= hi + span * 1e-6 for t in ticks)
    assert ticks == sorted(ticks)
    if len(ticks) >= 3:
        steps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(math.isclose(s, steps[0], rel_tol=1e-6) for s in steps)
