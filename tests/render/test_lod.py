"""Tests for level-of-detail aggregation (:mod:`repro.render.lod`)."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.colormap import Color, ColorMap
from repro.core.model import Schedule
from repro.core.select import hit_test, rows_in_region, tasks_in_region
from repro.core.timeframe import TimeFrame
from repro.core.viewport import Viewport
from repro.errors import RenderError
from repro.io import jedule_xml
from repro.io.registry import load_schedule
from repro.render.api import RenderRequest, render_request_bytes
from repro.render.html_payload import build_payload
from repro.render.layout import layout_schedule
from repro.render.lod import (
    LOD_REF_PREFIX,
    MIN_PIXELS_PER_TASK,
    TASK_THRESHOLD,
    aggregate,
    cell_grid,
    lod_active,
)


def _render(schedule, fmt, **options):
    return render_request_bytes(
        RenderRequest(output_format=fmt, **options), schedule)


def _schedule(n: int, hosts: int = 64, types: tuple[str, ...] = ("a", "b")) -> Schedule:
    s = Schedule()
    s.new_cluster("c0", hosts)
    for i in range(n):
        start = float((i * 37) % 500)
        s.new_task(f"t{i}", types[i % len(types)], start, start + 40.0,
                   cluster="c0", host_start=(i * 7) % (hosts - 4), host_nb=4)
    return s


def _lod_rects(drawing):
    return [r for r in drawing.rects
            if r.ref and r.ref.startswith(LOD_REF_PREFIX)]


def _task_rects(drawing):
    return [r for r in drawing.rects if r.ref and r.ref.startswith("task:")]


class TestOptions:
    def test_invalid_mode_rejected(self):
        s = _schedule(10)
        with pytest.raises(RenderError, match="lod mode"):
            layout_schedule(s, lod="sometimes")
        with pytest.raises(RenderError, match="lod mode"):
            layout_schedule(s, lod="max", viewport=Viewport(0.0, 10.0, 0.0, 8.0))
        with pytest.raises(RenderError, match="lod mode"):
            RenderRequest(lod="max")
        with pytest.raises(RenderError, match="lod mode"):
            build_payload(s, lod_mode="ON")

    def test_resolve_normalizes_strings(self):
        s = _schedule(30)
        d = layout_schedule(s, lod="  ON ")
        assert _lod_rects(d)
        assert not _task_rects(d)

    def test_lod_active_modes(self):
        assert TASK_THRESHOLD == 4000 and MIN_PIXELS_PER_TASK == 1.0
        assert not lod_active("off", 10**6, 800, 400)
        assert lod_active("on", 1, 800, 400)
        # 4000 tasks on 8000x8000 px: at the threshold, plenty of pixels
        assert not lod_active("auto", TASK_THRESHOLD, 8000, 8000)
        assert lod_active("auto", TASK_THRESHOLD + 1, 8000, 8000)
        assert not lod_active("auto", 0, 800, 400)
        # fewer pixels than tasks also activates auto
        assert not lod_active("auto", 25, 5, 5)
        assert lod_active("auto", 26, 5, 5)


class TestSmallInputsUnchanged:
    def test_auto_matches_off_pixels(self):
        s = _schedule(150)
        assert _render(s, "png", lod="auto") == _render(s, "png", lod="off")

    def test_auto_matches_off_svg(self):
        s = _schedule(150)
        assert _render(s, "svg", lod="auto") == _render(s, "svg", lod="off")

    def test_off_never_aggregates(self):
        # past the threshold, where auto aggregates
        s = _schedule(TASK_THRESHOLD + 1)
        d = layout_schedule(s, lod="off")
        assert not _lod_rects(d)
        assert len(_task_rects(d)) == TASK_THRESHOLD + 1


class TestAggregation:
    def test_forced_on_replaces_task_rects(self):
        s = _schedule(80)
        d = layout_schedule(s, lod="on")
        assert _lod_rects(d)
        assert not _task_rects(d)

    def test_auto_threshold_activates(self):
        at = layout_schedule(_schedule(TASK_THRESHOLD), lod="auto")
        assert not _lod_rects(at)
        assert len(_task_rects(at)) == TASK_THRESHOLD
        d = layout_schedule(_schedule(TASK_THRESHOLD + 1), lod="auto")
        assert _lod_rects(d)
        assert not _task_rects(d)

    def test_rect_count_bounded_by_grid_not_tasks(self):
        n1 = len(_lod_rects(layout_schedule(_schedule(2000), lod="on")))
        n2 = len(_lod_rects(layout_schedule(_schedule(8000), lod="on")))
        # 4x the tasks must not mean 4x the rects: the grid caps the output
        assert 0 < n2 <= n1 * 1.25
        assert n2 < 8000

    def test_dominant_type_wins(self):
        s = Schedule()
        s.new_cluster("c0", 8)
        for i in range(20):
            s.new_task(f"a{i}", "big", 0.0, 100.0, cluster="c0",
                       host_start=0, host_nb=8)
        s.new_task("b0", "tiny", 40.0, 41.0, cluster="c0", host_start=3, host_nb=1)
        cmap = ColorMap()
        cmap.set_style("big", "#112233")
        cmap.set_style("tiny", "#445566")
        d = layout_schedule(s, cmap=cmap, lod="on")
        fills = {r.fill for r in _lod_rects(d)}
        assert fills == {Color.from_hex("#112233")}

    def test_band_ref_names_cluster(self):
        s = _schedule(30)
        d = layout_schedule(s, lod="on")
        refs = {r.ref for r in _lod_rects(d)}
        assert refs == {f"{LOD_REF_PREFIX}c0"}


class TestViewportLod:
    def test_windowed_lod_renders(self):
        s = _schedule(400)
        vp = Viewport(t0=50.0, t1=300.0, r0=0.0, r1=32.0)
        d = layout_schedule(s, viewport=vp, lod="on")
        rects = _lod_rects(d)
        assert rects
        assert {r.ref for r in rects} == {f"{LOD_REF_PREFIX}viewport"}

    def test_windowed_culling_keeps_off_path_small(self):
        s = _schedule(400)
        vp = Viewport(t0=0.0, t1=100.0, r0=0.0, r1=16.0)
        d = layout_schedule(s, viewport=vp, lod="off")
        # far fewer task rects than tasks: off-window tasks are culled
        assert 0 < len(_task_rects(d)) < 400


class TestBandCellGrid:
    """Regression tests for the aggregation keep mask (phantom cells).

    The old mask ``~((cen <= cst) & (en > st))`` only dropped *nonzero*
    tasks clipped to nothing, so zero-duration tasks entirely outside the
    frame slipped through and deposited phantom cells in the first or
    last grid column.
    """

    @staticmethod
    def _grid(s, frame=(0.0, 100.0), nx=10, ny=4):
        from repro.core.timeframe import TimeFrame

        return cell_grid(s, s.columns.cluster == 0, TimeFrame(*frame),
                         0, 4, nx, ny)

    @staticmethod
    def _base():
        s = Schedule()
        s.new_cluster("c0", 4)
        return s

    def test_zero_duration_outside_frame_drops(self):
        s = self._base()
        s.new_task("before", "a", -5.0, -5.0, cluster="c0", host_start=0,
                   host_nb=4)
        s.new_task("after", "a", 200.0, 200.0, cluster="c0", host_start=0,
                   host_nb=4)
        cells = self._grid(s)
        assert (cells == -1).all()  # no phantom first/last-column cells

    def test_nonzero_task_outside_frame_drops(self):
        s = self._base()
        s.new_task("t", "a", 150.0, 190.0, cluster="c0", host_start=0,
                   host_nb=4)
        cells = self._grid(s)
        assert (cells == -1).all()

    def test_task_ending_at_frame_start_drops(self):
        # [start, end) touching f0 exactly is invisible — used to deposit
        # an epsilon sliver in column 0
        s = self._base()
        s.new_task("t", "a", -40.0, 0.0, cluster="c0", host_start=0, host_nb=4)
        cells = self._grid(s)
        assert (cells == -1).all()

    def test_zero_duration_inside_frame_one_cell(self):
        s = self._base()
        s.new_task("t", "a", 50.0, 50.0, cluster="c0", host_start=0, host_nb=4)
        cells = self._grid(s)
        filled = (cells >= 0).nonzero()
        # exactly one column of cells, at the task's position (col 5 of 10)
        assert set(filled[1].tolist()) == {5}

    def test_cancellation_residue_leaves_idle_cells_empty(self):
        # the float corner updates of these three deposits cancel to a
        # nonzero residue in columns 2-3, where nothing runs
        s = Schedule()
        s.new_cluster("c0", 16)
        s.new_task("z", "a", 0.0, 0.0, cluster="c0", host_start=0, host_nb=2)
        s.new_task("one", "a", 0.0, 1.0, cluster="c0", host_start=0, host_nb=1)
        s.new_task("two", "a", 0.0, 1.0, cluster="c0", host_start=0, host_nb=2)
        from repro.core.timeframe import TimeFrame

        cells = cell_grid(s, s.columns.cluster == 0, TimeFrame(0.0, 2.0),
                          0, 16, 4, 1)
        assert cells[0].tolist() == [0, 0, -1, -1]

    def test_aggregate_band_no_phantom_rects(self):
        from repro.core.timeframe import TimeFrame

        s = self._base()
        s.new_task("ghost", "a", 500.0, 500.0, cluster="c0", host_start=0,
                   host_nb=4)
        cmap = ColorMap()
        cmap.set_style("a", "#112233")
        rects = aggregate(s, s.columns.cluster == 0, TimeFrame(0.0, 100.0),
                          0, 4, 0.0, 0.0, 100.0, 40.0, cmap, "lod:c0")
        assert rects == []


class TestTraceScale:
    def test_cell_grid_peak_stays_near_one_difference_array(self):
        """The grid accumulates in place: its traced peak stays within
        1.75x of one per-type difference array (it was about 3.3x when
        each cumulative sum and argmax made a copy of the grid)."""
        s = _schedule(2000, hosts=256, types=("a", "b", "c", "d"))
        rows = s.columns.cluster == 0
        frame, nx, ny = TimeFrame(0.0, 540.0), 2048, 128
        cell_grid(s, rows, frame, 0, 256, nx, ny)  # warm up outside the trace
        tracemalloc.start()
        try:
            cell_grid(s, rows, frame, 0, 256, nx, ny)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one = 4 * (ny + 1) * (nx + 1) * 8
        assert peak < 1.75 * one, peak / one

    def test_dominant_type_is_the_first_largest_total(self):
        """A tie goes to the type seen first, as np.argmax would pick it;
        a later type wins only with a larger total."""
        s = Schedule()
        s.new_cluster("c", 2)
        for i, (task_type, host) in enumerate([("x", 0), ("y", 0), ("y", 1),
                                                ("z", 1), ("z", 1)]):
            s.new_task(f"t{i}", task_type, 0.0, 1.0, cluster="c",
                       host_start=host, host_nb=1)
        cells = cell_grid(s, s.columns.cluster == 0, TimeFrame(0.0, 1.0),
                          0, 2, 1, 2)
        assert [s.task_types()[k] for k in cells[:, 0]] == ["x", "z"]

    def test_open_and_zoom_build_only_the_tasks_they_draw(self, tmp_path,
                                                         monkeypatch):
        """A .jed above the LOD threshold loads and opens to PNG
        (lod="auto") and HTML without building a Task; a per-task zoom
        view and a hit test build only the tasks they touch."""
        path = tmp_path / "trace.jed"
        jedule_xml.dump(_schedule(TASK_THRESHOLD + 1), path)
        built = []
        build = Schedule._build
        monkeypatch.setattr(Schedule, "_build",
                            lambda self, i: built.append(i) or build(self, i))
        s = load_schedule(str(path))
        for fmt in ("png", "html"):
            render_request_bytes(RenderRequest(
                input_path=str(path), output_format=fmt, lod="auto",
                width=900, height=480), s)
        assert built == []
        view = Viewport(0.0, 2.0, 0.0, 8.0)
        drawn = s.columns.task[rows_in_region(s, view.t0, view.t1,
                                              view.r0, view.r1)].tolist()
        assert 0 < len(drawn) < 100
        drawing = layout_schedule(s, viewport=view)
        assert not _lod_rects(drawing)
        assert sorted(built) == sorted(set(drawn))
        built.clear()  # built once, then kept
        assert len(tasks_in_region(s, view.t0, view.t1, view.r0, view.r1)) \
            == len(set(drawn))
        assert hit_test(s, 1.0, 1.5) is not None and built == []
