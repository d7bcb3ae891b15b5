"""Tests for the layout engine."""

from __future__ import annotations

import math

import pytest

from repro.core.colormap import Color, TaskStyle, default_colormap
from repro.core.model import Schedule
from repro.core.timeframe import ViewMode
from repro.core.viewport import Viewport
from repro.errors import RenderError
from repro.render.geometry import Rect, Text
from repro.render.layout import LayoutOptions, layout_schedule, nice_ticks
from repro.render.style import Style


class TestNiceTicks:
    def test_simple_range(self):
        ticks = nice_ticks(0.0, 10.0, 6)
        assert ticks[0] == 0.0 and ticks[-1] == 10.0
        steps = {round(b - a, 9) for a, b in zip(ticks, ticks[1:])}
        assert len(steps) == 1  # uniform

    def test_steps_are_nice(self):
        for lo, hi in [(0, 7), (0, 123), (0.3, 0.9), (5, 5000), (-3, 3)]:
            ticks = nice_ticks(lo, hi, 8)
            assert len(ticks) >= 2
            step = ticks[1] - ticks[0]
            mantissa = step / (10 ** __import__("math").floor(__import__("math").log10(step)))
            assert round(mantissa, 6) in (1.0, 2.0, 2.5, 5.0, 10.0)

    def test_ticks_within_range(self):
        ticks = nice_ticks(0.37, 9.12, 8)
        assert all(0.37 - 1e-9 <= t <= 9.12 + 1e-9 for t in ticks)

    def test_degenerate_range(self):
        assert nice_ticks(5.0, 5.0) == [5.0]

    def test_count_close_to_target(self):
        ticks = nice_ticks(0, 100, 8)
        assert 4 <= len(ticks) <= 9

    def test_sub_epsilon_span_no_duplicates(self):
        # span below the float resolution at lo: k*step cannot advance t,
        # which used to emit thousands of identical tick positions
        lo = 1.0
        hi = lo + 1e-18
        ticks = nice_ticks(lo, hi, 8)
        assert len(ticks) <= 33  # bounded, not thousands
        assert ticks == sorted(set(ticks))  # strictly increasing

    def test_sub_epsilon_span_large_magnitude(self):
        lo = 1e12
        ticks = nice_ticks(lo, lo + 1e-6, 8)
        assert len(ticks) <= 33
        assert all(b > a for a, b in zip(ticks, ticks[1:]))

    def test_very_large_magnitudes(self):
        ticks = nice_ticks(0.0, 1e308, 8)
        assert 2 <= len(ticks) <= 33
        assert all(math.isfinite(t) for t in ticks)
        ticks = nice_ticks(-1e308, 1e308, 8)
        assert all(math.isfinite(t) for t in ticks)

    def test_very_small_magnitudes(self):
        ticks = nice_ticks(0.0, 1e-300, 8)
        assert ticks[0] == 0.0
        assert all(b > a for a, b in zip(ticks, ticks[1:]))

    def test_target_below_two_clamped(self):
        for target in (1, 0, -5):
            ticks = nice_ticks(0.0, 10.0, target)
            assert 1 <= len(ticks) <= 9
            assert all(b > a for a, b in zip(ticks, ticks[1:]))

    def test_infinite_span_degenerates(self):
        assert nice_ticks(0.0, float("inf")) == [0.0]
        assert nice_ticks(3.0, float("nan")) == [3.0]


class TestLayoutBasics:
    def test_task_rects_carry_refs(self, simple_schedule):
        drawing = layout_schedule(simple_schedule)
        assert drawing.find_rect("task:1") is not None
        assert drawing.find_rect("task:2") is not None

    def test_task_rect_geometry(self, simple_schedule):
        drawing = layout_schedule(simple_schedule)
        r1 = drawing.find_rect("task:1")
        r2 = drawing.find_rect("task:2")
        # task 1 spans [0, 0.31) of [0, 0.5]: 62% of the plot width
        assert r1.w / (r1.w + r2.w) == pytest.approx(0.31 / 0.5, rel=1e-6)
        # task 1 binds all 8 hosts; task 2 only 4 -> r1 is taller in total
        assert r1.h > r2.h

    def test_non_contiguous_task_gets_multiple_rects(self, simple_schedule):
        rects = [r for r in layout_schedule(simple_schedule).rects
                 if r.ref == "task:2"]
        assert len(rects) == 2  # hosts 0-2 and host 6

    def test_colors_from_colormap(self, simple_schedule):
        drawing = layout_schedule(simple_schedule)
        assert drawing.find_rect("task:1").fill == Color.from_hex("0000FF")
        assert drawing.find_rect("task:2").fill == Color.from_hex("F10000")

    def test_task_labels_present(self, simple_schedule):
        texts = [t.text for t in layout_schedule(simple_schedule).texts]
        assert "1" in texts and "2" in texts

    def test_meta_line_rendered(self, simple_schedule):
        drawing = layout_schedule(simple_schedule)
        assert any("algorithm=demo" in t.text for t in drawing.texts)

    def test_title(self, simple_schedule):
        opts = LayoutOptions(title="My Schedule")
        drawing = layout_schedule(simple_schedule, options=opts)
        assert any(t.text == "My Schedule" for t in drawing.texts)

    def test_legend_lists_types(self, simple_schedule):
        texts = [t.text for t in layout_schedule(simple_schedule).texts]
        assert "computation" in texts and "transfer" in texts

    def test_legend_can_be_disabled(self, simple_schedule):
        style = Style(draw_legend=False)
        texts = [t.text for t in layout_schedule(simple_schedule, style=style).texts]
        assert "computation" not in texts

    def test_too_small_canvas_rejected(self, simple_schedule):
        with pytest.raises(RenderError, match="too small"):
            layout_schedule(simple_schedule, options=LayoutOptions(width=50, height=30))

    def test_empty_platform_rejected(self):
        with pytest.raises(RenderError):
            layout_schedule(Schedule())

    def test_colormap_config_overrides_style(self, simple_schedule):
        cmap = default_colormap()
        cmap.config["font_size_axes"] = "20"
        drawing = layout_schedule(simple_schedule, cmap=cmap)
        tick_texts = [t for t in drawing.texts if t.size == 20.0]
        assert tick_texts  # axis labels grew


class TestViewModes:
    def test_aligned_same_x_scale(self, multi_cluster_schedule):
        opts = LayoutOptions(mode=ViewMode.ALIGNED)
        drawing = layout_schedule(multi_cluster_schedule, options=opts)
        r1 = drawing.find_rect("task:1")  # [0, 5] on cluster a
        r2 = drawing.find_rect("task:2")  # [10, 30] on cluster b
        # durations 5 vs 20 at a shared scale
        assert r2.w / r1.w == pytest.approx(4.0, rel=1e-6)

    def test_scaled_local_frames(self, multi_cluster_schedule):
        opts = LayoutOptions(mode=ViewMode.SCALED)
        drawing = layout_schedule(multi_cluster_schedule, options=opts)
        r1 = drawing.find_rect("task:1")   # 5 of cluster a's local span 11
        r2 = drawing.find_rect("task:2")   # 20 of cluster b's local span 26
        assert r1.w / r2.w == pytest.approx((5 / 11) / (20 / 26), rel=1e-6)

    def test_scaled_mode_has_per_cluster_axes(self, multi_cluster_schedule):
        aligned = layout_schedule(multi_cluster_schedule,
                                  options=LayoutOptions(mode=ViewMode.ALIGNED))
        scaled = layout_schedule(multi_cluster_schedule,
                                 options=LayoutOptions(mode=ViewMode.SCALED))
        # scaled mode draws one axis per cluster -> more tick labels
        assert len(scaled.texts) > len(aligned.texts)


class TestWindowedLayout:
    def test_viewport_clips_tasks(self, multi_cluster_schedule):
        vp = Viewport(0.0, 8.0, 0.0, 6.0)  # task 2 [10,30] is outside
        drawing = layout_schedule(multi_cluster_schedule, viewport=vp)
        assert drawing.find_rect("task:1") is not None
        assert drawing.find_rect("task:2") is None

    def test_viewport_partial_clip(self, multi_cluster_schedule):
        full = layout_schedule(multi_cluster_schedule,
                               viewport=Viewport(0.0, 30.0, 0.0, 6.0))
        half = layout_schedule(multi_cluster_schedule,
                               viewport=Viewport(0.0, 30.0, 0.0, 3.0))
        # task 1 binds rows 0-3.  With all 6 rows visible it covers 4/6 of
        # the plot height; with only rows [0,3) visible, the clipped task
        # fills the entire plot height (rows get taller when zoomed).
        plot_h_full = full.find_rect("task:1").h / (4 / 6)
        assert half.find_rect("task:1").h == pytest.approx(plot_h_full, rel=1e-6)

    def test_row_window_excludes_other_cluster(self, multi_cluster_schedule):
        vp = Viewport(0.0, 30.0, 0.0, 4.0)  # only cluster a rows
        drawing = layout_schedule(multi_cluster_schedule, viewport=vp)
        assert drawing.find_rect("task:2") is None

    def test_zoom_enlarges_task_rect(self, simple_schedule):
        fit = Viewport.fit(simple_schedule)
        normal = layout_schedule(simple_schedule, viewport=fit)
        zoomed = layout_schedule(simple_schedule, viewport=fit.zoom(2.0))
        # at 2x zoom the visible portion of task 1 is wider on screen
        assert zoomed.find_rect("task:1").w > normal.find_rect("task:1").w


def test_labels_that_do_not_fit_compute_no_label_colour(monkeypatch):
    calls = []
    label_color = TaskStyle.label_color
    monkeypatch.setattr(TaskStyle, "label_color",
                        lambda self: calls.append(self) or label_color(self))
    s = Schedule()
    s.new_cluster(0, 4)
    for i in range(40):
        s.new_task(f"task-{i}", "computation", float(i), i + 1.0, cluster=0,
                   host_start=i % 4, host_nb=1)
    drawing = layout_schedule(s, lod="off")
    assert not any(t.text.startswith("task-") for t in drawing.texts)
    assert calls == []
