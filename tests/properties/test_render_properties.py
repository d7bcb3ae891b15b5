"""Property-based tests for the rendering pipeline."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.colormap import Color
from repro.core.model import Cluster, Configuration, Schedule, Task
from repro.core.timeframe import ViewMode
from repro.render.backends.svg import render_svg
from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign
from repro.render.layout import LayoutOptions, layout_schedule
from repro.render.png_codec import decode_png, encode_indexed, encode_png
from repro.render.backends.png import render_png
from repro.render.raster import rasterize
from tests.render.test_raster import reference_rasterize


@st.composite
def render_schedules(draw, max_clusters: int = 3) -> Schedule:
    """Multi-cluster schedules small enough to render fast."""
    s = Schedule()
    n_clusters = draw(st.integers(1, max_clusters))
    sizes = []
    for c in range(n_clusters):
        size = draw(st.integers(1, 8))
        sizes.append(size)
        s.add_cluster(Cluster(str(c), size))
    for i in range(draw(st.integers(1, 10))):
        start = draw(st.floats(0, 50, allow_nan=False))
        dur = draw(st.floats(0.1, 20, allow_nan=False))
        c = draw(st.integers(0, n_clusters - 1))
        hosts = draw(st.sets(st.integers(0, sizes[c] - 1), min_size=1,
                             max_size=sizes[c]))
        s.add_task(Task(str(i), draw(st.sampled_from(["a", "b"])),
                        start, start + dur,
                        [Configuration.from_hosts(str(c), hosts)]))
    return s


@given(render_schedules(), st.sampled_from(list(ViewMode)))
@settings(max_examples=30, deadline=None)
def test_every_task_rect_inside_canvas(schedule, mode):
    opts = LayoutOptions(width=500, height=320, mode=mode)
    drawing = layout_schedule(schedule, options=opts)
    for rect in drawing.rects:
        assert rect.x >= -1e-6
        assert rect.y >= -1e-6
        assert rect.x1 <= drawing.width + 1e-6
        assert rect.y1 <= drawing.height + 1e-6


@given(render_schedules())
@settings(max_examples=30, deadline=None)
def test_every_task_has_a_rect(schedule):
    drawing = layout_schedule(schedule,
                              options=LayoutOptions(width=500, height=320))
    for task in schedule:
        assert drawing.rects_for(f"task:{task.id}")


@given(render_schedules())
@settings(max_examples=20, deadline=None)
def test_rect_widths_proportional_to_durations(schedule):
    """In aligned mode, rect width / duration is constant across tasks."""
    drawing = layout_schedule(schedule,
                              options=LayoutOptions(width=600, height=320))
    ratios = []
    for task in schedule:
        if task.duration <= 0:
            continue
        rect = drawing.rects_for(f"task:{task.id}")[0]
        ratios.append(rect.w / task.duration)
    if len(ratios) >= 2:
        assert max(ratios) - min(ratios) < 1e-6 * max(ratios)


@given(render_schedules())
@settings(max_examples=12, deadline=None)
def test_png_roundtrips_through_own_decoder(schedule):
    drawing = layout_schedule(schedule,
                              options=LayoutOptions(width=300, height=200))
    png = render_png(drawing)
    img = decode_png(png)
    assert img.shape == (200, 300, 3)
    # the decoded image equals the rasterized pixels exactly
    assert (img == rasterize(drawing).pixels).all()


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_codec_roundtrip_random_images(h, w, seed):
    """decode(encode(img)) == img for arbitrary raw pixel data.

    Random images hit all three encoder filter choices (None/Sub/Up) via
    the per-row cost heuristic; exactness here pins the whole codec."""
    img = np.random.default_rng(seed).integers(0, 256, (h, w, 3),
                                               dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png(img)), img)


# ---------------------------------------------------------------------------
# The batched painter against the one-call-per-primitive reference walk.

_COLORS = (Color(200, 30, 30), Color(0, 0, 0), Color(30, 160, 60),
           Color(255, 255, 255))
_COORD = st.one_of(st.integers(-30, 90),
                   st.integers(-60, 180).map(lambda v: v / 2),
                   st.floats(-30, 90, allow_nan=False))
_EXTENT = st.one_of(st.just(0.0), st.floats(0.01, 0.99),
                    st.integers(-20, 100).map(lambda v: v / 2),
                    st.floats(-40, 120, allow_nan=False))


def _rect(x, y, w, h, **style) -> Rect:
    """A Rect that may have the negative extents ``Rect()`` rejects; the
    painter normalizes them as ``fill_rect`` and ``stroke_rect`` do."""
    rect = Rect(x, y, abs(w), abs(h), **style)
    object.__setattr__(rect, "w", w)
    object.__setattr__(rect, "h", h)
    return rect


@st.composite
def _primitive(draw, colors):
    color = st.sampled_from(colors)
    kind = draw(st.sampled_from(["fill", "stroke", "both", "hline", "vline",
                                 "line", "text"]))
    x, y = draw(_COORD), draw(_COORD)
    if kind in ("fill", "stroke", "both"):
        return _rect(x, y, draw(_EXTENT), draw(_EXTENT),
                     fill=None if kind == "stroke" else draw(color),
                     stroke=None if kind == "fill" else draw(color),
                     stroke_width=draw(st.one_of(st.sampled_from([1, 2, 3, 4]),
                                                 st.floats(1, 4))))
    width = draw(st.one_of(st.sampled_from([1, 2, 3]), st.floats(0.5, 4)))
    nudge = st.floats(-0.49, 0.49)
    if kind == "hline":
        return Line(x, y, draw(_COORD), y + draw(nudge), draw(color), width)
    if kind == "vline":
        return Line(x, y, x + draw(nudge), draw(_COORD), draw(color), width)
    if kind == "line":
        return Line(x, y, draw(_COORD), draw(_COORD), draw(color), width)
    return Text(x, y, draw(st.text("Ab1 ?-é", max_size=6)),
                size=draw(st.floats(3, 30)), color=draw(color),
                halign=draw(st.sampled_from(list(HAlign))),
                valign=draw(st.sampled_from(list(VAlign))),
                rotated=draw(st.booleans()))


@st.composite
def drawings(draw) -> Drawing:
    """Small drawings of every primitive kind.  A crowd of 1-px rects in
    distinct colours puts some canvases past 256 colours and others just
    under."""
    crowd = draw(st.sampled_from([0, 0, 250, 300]))
    lo = 20 if crowd else 1
    d = Drawing(draw(st.integers(lo, 60)), draw(st.integers(lo, 40)),
                background=draw(st.sampled_from(_COLORS)))
    crowd_colors = [Color(i % 256, 100 + i // 256, 77) for i in range(crowd)]
    for i, c in enumerate(crowd_colors):
        d.add(Rect(i % d.width, i // d.width % d.height, 1, 1, fill=c))
    colors = list(_COLORS) + crowd_colors[:3]
    d.extend(draw(st.lists(_primitive(colors), max_size=25)))
    return d


@given(drawings())
@settings(max_examples=200, deadline=None)
def test_batched_painter_matches_reference_walk(drawing):
    assert np.array_equal(rasterize(drawing).pixels,
                          reference_rasterize(drawing).pixels)


# ---------------------------------------------------------------------------
# The two PNG entry points: an index canvas and its palette, or the RGB image.


def _index_image(h, w, entries, shown, repeats, seed):
    """An ``(h, w)`` index canvas over a palette of ``entries`` colours, of
    which ``shown`` (at most ``h * w``) appear.  The rest were assigned and
    never painted, or painted over.  With ``repeats`` some entries share
    a colour.  Past 256 entries the canvas is uint16, as the painter's is."""
    rng = np.random.default_rng(seed)
    pool = (max(1, entries // 3) if repeats else entries)
    keys = rng.choice(1 << 24, pool, replace=False)
    keys = keys if pool == entries else rng.choice(keys, entries)
    palette = (keys[:, None] >> np.array([16, 8, 0]) & 0xFF).astype(np.uint8)
    used = rng.choice(entries, min(shown, entries, h * w), replace=False)
    flat = used[rng.integers(0, len(used), h * w)]
    flat[:len(used)] = used  # every shown entry appears
    rng.shuffle(flat)
    dtype = np.uint8 if entries <= 256 else np.uint16
    return flat.reshape(h, w).astype(dtype), palette


@given(st.integers(1, 24), st.integers(1, 24),
       st.sampled_from([1, 2, 17, 256, 257, 300, 600]), st.integers(1, 600),
       st.booleans(), st.integers(0, 2**32 - 1))
@example(1, 1, 1, 1, False, 0)          # a 1x1 image
@example(1, 1, 300, 1, False, 0)        # ... on a uint16 canvas
@example(9, 7, 17, 1, False, 1)         # one colour of 17 shown
@example(20, 20, 300, 250, False, 2)    # uint16, at most 256 shown
@example(20, 20, 300, 300, False, 3)    # more than 256 shown
@example(20, 20, 600, 400, True, 4)     # ... with shared colours
@settings(max_examples=150, deadline=None)
def test_index_entry_writes_the_rgb_entrys_bytes(h, w, entries, shown,
                                                 repeats, seed):
    canvas, palette = _index_image(h, w, entries, shown, repeats, seed)
    data = encode_indexed(canvas, palette)
    assert data == encode_png(palette[canvas])
    assert np.array_equal(decode_png(data), palette[canvas])


@given(drawings())
@settings(max_examples=100, deadline=None)
def test_index_entry_writes_the_rgb_entrys_bytes_for_drawings(drawing):
    img = rasterize(drawing)
    assert render_png(drawing) == encode_indexed(img.canvas, img.palette) \
        == encode_png(img.pixels)


@given(render_schedules())
@settings(max_examples=15, deadline=None)
def test_svg_well_formed(schedule):
    import xml.etree.ElementTree as ET

    drawing = layout_schedule(schedule,
                              options=LayoutOptions(width=400, height=250))
    ET.fromstring(render_svg(drawing))


# ---------------------------------------------------------------------------
# LOD conservation: a grid cell is filled exactly when some deposit touches
# it.  Integer times and rows with power-of-two spans and grid sizes keep
# the grid arithmetic exact, so the reference can decide "touched" with
# Fractions and no tolerance.

_POW2 = st.sampled_from([1, 2, 4, 8, 16])


@st.composite
def lod_schedules(draw) -> Schedule:
    """Up to two clusters of power-of-two size; integer times, including
    zero-duration tasks and tasks reaching past any frame."""
    s = Schedule()
    for c in range(draw(st.integers(1, 2))):
        s.add_cluster(Cluster(str(c), draw(_POW2)))
    for i in range(draw(st.integers(1, 12))):
        configs = []
        for c in draw(st.sets(st.sampled_from([c.id for c in s.clusters]),
                              min_size=1)):
            size = s.cluster(c).num_hosts
            hosts = draw(st.sets(st.integers(0, size - 1), min_size=1,
                                 max_size=size))
            configs.append(Configuration.from_hosts(c, hosts))
        start = draw(st.integers(-4, 36))
        dur = draw(st.sampled_from([0, 0, 1, 2, 3, 5, 8, 17, 40]))
        s.add_task(Task(str(i), draw(st.sampled_from("abc")), start,
                        start + dur, configs))
    return s


def _touched(deposits, t0, t1, r0, r1, nx, ny, *, closed):
    """Brute-force filled cells of a grid over ``[t0, t1) x [r0, r1)``.

    ``deposits`` are ``(start, end, lo, hi)`` host-range rectangles already
    selected for the grid.  A positive-duration one touches every cell it
    overlaps with positive area; a zero-duration one touches the cells of
    the column holding its start, in the frame ``[t0, t1]`` when
    ``closed`` (the band rule) and ``(t0, t1)`` otherwise (the selection
    already enforced that).
    """
    from fractions import Fraction

    cw, ch = Fraction(t1 - t0, nx), Fraction(r1 - r0, ny)
    cells = set()
    for start, end, lo, hi in deposits:
        for iy in range(ny):
            y0, y1 = r0 + iy * ch, r0 + (iy + 1) * ch
            if not max(lo, y0) < min(hi, y1):
                continue
            for ix in range(nx):
                x0, x1 = t0 + ix * cw, t0 + (ix + 1) * cw
                if start < end:
                    hit = max(start, x0) < min(end, x1)
                else:
                    inside = t0 <= start <= t1 if closed else t0 < start < t1
                    hit = inside and ix == min(int((start - t0) / cw), nx - 1)
                if hit:
                    cells.add((iy, ix))
    return cells


def _filled(cells):
    return set(zip(*(a.tolist() for a in np.nonzero(cells >= 0))))


@given(lod_schedules(), st.data())
@settings(max_examples=200, deadline=None)
def test_band_grid_fills_exactly_the_touched_cells(schedule, data):
    from repro.core.timeframe import TimeFrame
    from repro.render.lod import cell_grid

    index = data.draw(st.integers(0, len(schedule.clusters) - 1))
    cluster = schedule.clusters[index]
    offset = schedule.cluster_offset(cluster.id)
    f0 = data.draw(st.integers(-2, 8))
    span = data.draw(st.sampled_from([4, 8, 16, 32]))
    nx = data.draw(_POW2)
    ny = data.draw(st.sampled_from([n for n in (1, 2, 4, 8, 16)
                                    if n <= cluster.num_hosts]))
    cells = cell_grid(schedule, schedule.columns.cluster == index,
                      TimeFrame(f0, f0 + span), offset,
                      offset + cluster.num_hosts, nx, ny)
    deposits = [(t.start_time, t.end_time, r.start, r.stop)
                for t in schedule.tasks_in_cluster(cluster.id)
                for r in t.configuration_for(cluster.id).host_ranges]
    assert _filled(cells) == _touched(deposits, f0, f0 + span, 0,
                                      cluster.num_hosts, nx, ny, closed=True)


@given(lod_schedules(), st.data())
@settings(max_examples=200, deadline=None)
def test_viewport_grid_fills_exactly_the_touched_cells(schedule, data):
    from repro.core.select import rows_in_region
    from repro.core.timeframe import TimeFrame
    from repro.render.lod import cell_grid

    t0 = data.draw(st.integers(-2, 8))
    t1 = t0 + data.draw(st.sampled_from([4, 8, 16, 32]))
    r0 = data.draw(st.integers(0, schedule.num_hosts - 1))
    r1 = r0 + data.draw(_POW2)
    nx, ny = data.draw(_POW2), data.draw(_POW2)
    cells = cell_grid(schedule, rows_in_region(schedule, t0, t1, r0, r1),
                      TimeFrame(t0, t1), r0, r1, nx, ny)
    deposits = []
    for t in schedule:
        for conf in t.configurations:
            off = schedule.cluster_offset(conf.cluster_id)
            for r in conf.host_ranges:
                lo, hi = off + r.start, off + r.stop
                if t.start_time < t1 and t0 < t.end_time and lo < r1 and r0 < hi:
                    deposits.append((t.start_time, t.end_time, lo, hi))
    assert _filled(cells) == _touched(deposits, t0, t1, r0, r1, nx, ny,
                                      closed=False)


@given(render_schedules(max_clusters=1), st.integers(20, 300), st.integers(4, 120))
@settings(max_examples=60, deadline=None)
def test_fit_viewport_grid_is_the_full_view_band_grid(schedule, w, h):
    """One grid: on one cluster without zero-duration tasks, aggregating
    under ``Viewport.fit`` gives the full-view band's rects."""
    from repro.core.colormap import default_colormap
    from repro.core.select import rows_in_region
    from repro.core.timeframe import global_frame
    from repro.core.viewport import Viewport
    from repro.render.lod import aggregate

    cmap = default_colormap()
    cluster = schedule.clusters[0]
    band = aggregate(schedule, schedule.columns.cluster == 0,
                     global_frame(schedule), 0, cluster.num_hosts,
                     10.0, 5.0, w, h, cmap, "lod:0")
    fit = Viewport.fit(schedule)
    window = aggregate(schedule,
                       rows_in_region(schedule, fit.t0, fit.t1, fit.r0, fit.r1),
                       fit.time_frame, fit.r0, fit.r1, 10.0, 5.0, w, h, cmap,
                       "lod:viewport")
    assert band
    assert ([(r.x, r.y, r.w, r.h, r.fill) for r in window]
            == [(r.x, r.y, r.w, r.h, r.fill) for r in band])


# ---------------------------------------------------------------------------
# The windowed (viewport) layout draws one rect per visible host range,
# read off one rows_in_region mask; pinned against the per-task walk it
# replaced, which stays here verbatim as the reference.

@st.composite
def window_schedules(draw) -> Schedule:
    """Up to three clusters; tasks spanning clusters with scattered host
    sets, zero-duration tasks and the ``job@k`` slices of preempted jobs."""
    from repro.core.slices import slice_task

    s = Schedule()
    for c in range(draw(st.integers(1, 3))):
        s.add_cluster(Cluster(str(c), draw(st.integers(1, 6))))
    for i in range(draw(st.integers(1, 12))):
        configs = []
        for c in draw(st.lists(st.sampled_from([c.id for c in s.clusters]),
                               min_size=1, unique=True)):
            size = s.cluster(c).num_hosts
            configs.append(Configuration.from_hosts(c, draw(st.sets(
                st.integers(0, size - 1), min_size=1, max_size=size))))
        start = draw(st.one_of(st.integers(-4, 36),
                               st.floats(-4, 36, allow_nan=False)))
        dur = draw(st.sampled_from([0, 0, 0.5, 1, 2.25, 5, 17, 40]))
        kind = draw(st.sampled_from(["a", "b"]))
        if draw(st.booleans()):
            s.add_task(Task(str(i), kind, start, start + dur, configs))
        else:
            s.add_task(slice_task(f"j{i}", draw(st.integers(0, 2)), kind,
                                  start, start + dur, configs,
                                  preempted=draw(st.booleans())))
    return s


def _reference_windowed_rects(schedule, viewport, x, y, w, h):
    """The windowed layout's per-task loop before the one-mask rewrite."""
    from repro.core.select import tasks_in_region

    out = []
    frame = viewport.time_frame
    rspan = viewport.resource_span

    def ty(row: float) -> float:
        return y + (row - viewport.r0) / rspan * h

    offsets = {c.id: schedule.cluster_offset(c.id) for c in schedule.clusters}
    visible = tasks_in_region(schedule, viewport.t0, viewport.t1,
                              viewport.r0, viewport.r1)
    for task in visible:
        fx0 = frame.fraction(frame.clamp(task.start_time))
        fx1 = frame.fraction(frame.clamp(task.end_time))
        rx, rw = x + fx0 * w, max((fx1 - fx0) * w, 0.0)
        for conf in task.configurations:
            base = offsets[conf.cluster_id]
            for r in conf.host_ranges:
                lo = max(float(base + r.start), viewport.r0)
                hi = min(float(base + r.stop), viewport.r1)
                if hi <= lo:
                    continue
                ry = ty(lo)
                rh = ty(hi) - ry
                out.append((rx, ry, rw, rh, f"task:{task.id}"))
    return out


_EDGE = st.one_of(st.integers(-6, 40), st.integers(-12, 80).map(lambda v: v / 2),
                  st.floats(-6, 40, allow_nan=False))


@given(window_schedules(), st.data())
@settings(max_examples=200, deadline=None)
def test_windowed_rects_match_the_per_task_walk(schedule, data):
    from repro.core.colormap import default_colormap
    from repro.core.viewport import Viewport
    from repro.render.layout import _chrome
    from repro.render.style import Style

    t0 = data.draw(_EDGE)
    t1 = t0 + data.draw(st.one_of(st.sampled_from([0.5, 1, 3, 10, 50]),
                                  st.floats(0.01, 60)))
    r0 = data.draw(st.one_of(
        st.integers(-1, schedule.num_hosts),
        st.floats(-1, schedule.num_hosts, allow_nan=False)))
    r1 = r0 + data.draw(st.one_of(st.sampled_from([0.5, 1, 2.5, 4, 20]),
                                  st.floats(0.01, 20)))
    viewport = Viewport(t0, t1, r0, r1)
    options = LayoutOptions(width=data.draw(st.integers(200, 700)),
                            height=data.draw(st.integers(160, 500)))
    cmap = default_colormap()
    drawing = layout_schedule(schedule, cmap=cmap, options=options,
                              viewport=viewport, lod="off")
    box = _chrome(Drawing(options.width, options.height), schedule, cmap,
                  Style().with_config(cmap.config), options)
    assert ([(r.x, r.y, r.w, r.h, r.ref) for r in drawing.rects
             if r.ref and r.ref.startswith("task:")]
            == _reference_windowed_rects(schedule, viewport, *box))


# ---------------------------------------------------------------------------
# cell_runs extracts every run of a grid in one vectorised pass; pinned
# against the per-row generator it replaced, kept here as the reference.

def _reference_cell_runs(cells):
    """The per-row run walk before the vectorised ``cell_runs``."""
    ny, nx = cells.shape
    for iy in range(ny):
        row = cells[iy]
        if not (row >= 0).any():
            continue
        change = np.flatnonzero(np.diff(row)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [nx]))
        for s, e in zip(starts, ends):
            ti = int(row[s])
            if ti >= 0:
                yield iy, int(s), int(e), ti


@st.composite
def cell_grids(draw) -> np.ndarray:
    """Grids of type indices and -1 (empty), with one row, one column,
    all-empty rows and -1 runs between cells of equal type among them."""
    ny = draw(st.one_of(st.just(1), st.integers(1, 8)))
    nx = draw(st.one_of(st.just(1), st.integers(1, 16)))
    kinds = st.one_of(st.just(-1), st.integers(0, 2))
    cells = np.array(draw(st.lists(st.lists(kinds, min_size=nx, max_size=nx),
                                   min_size=ny, max_size=ny)), dtype=np.intp)
    for iy in draw(st.sets(st.integers(0, ny - 1))):
        cells[iy] = -1
    return cells


@given(cell_grids())
@settings(max_examples=300, deadline=None)
@example(np.full((3, 5), -1, dtype=np.intp))
@example(np.array([[1, -1, -1, 1, 1, -1, 1]], dtype=np.intp))
@example(np.array([[0], [-1], [0], [2]], dtype=np.intp))
def test_cell_runs_equal_the_row_walk(cells):
    from repro.render.lod import cell_runs

    runs = cell_runs(cells)
    assert all(a.dtype == np.intp for a in runs)
    assert list(zip(*(a.tolist() for a in runs))) == list(_reference_cell_runs(cells))
