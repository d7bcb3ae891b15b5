"""Tests for the pure-Python rasterizer and bitmap font."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.colormap import Color
from repro.render import font5x7, raster
from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign
from repro.render.raster import RasterImage, rasterize

RED = Color(255, 0, 0)
BLACK = Color(0, 0, 0)
WHITE = Color(255, 255, 255)


class TestFont:
    def test_glyph_shape(self):
        g = font5x7.glyph_bitmap("A")
        assert g.shape == (7, 5)
        assert g.any()

    def test_space_is_blank(self):
        assert not font5x7.glyph_bitmap(" ").any()

    def test_unknown_char_uses_replacement(self):
        g = font5x7.glyph_bitmap("é")
        assert g.any()

    def test_distinct_glyphs(self):
        assert not np.array_equal(font5x7.glyph_bitmap("0"),
                                  font5x7.glyph_bitmap("O"))
        assert not np.array_equal(font5x7.glyph_bitmap("1"),
                                  font5x7.glyph_bitmap("l"))

    def test_text_bitmap_width(self):
        bm = font5x7.text_bitmap("abc")
        assert bm.shape == (7, 5 * 3 + 2)  # 3 glyphs + 2 spacing columns

    def test_empty_text(self):
        assert font5x7.text_bitmap("").shape == (7, 0)

    def test_all_defined_glyphs_render(self):
        for ch in font5x7._RAW:
            g = font5x7.glyph_bitmap(ch)
            assert g.shape == (7, 5)

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("scale", [1, 2, 3, 4])
    def test_cached_glyph_scalings_equal_kron(self, scale, rotated):
        """Every glyph's cached scaling is np.kron of its 7x5 bitmap."""
        block = np.ones((scale, scale), dtype=bool)
        for ch in [*font5x7._RAW, "é"]:
            bitmap = font5x7.text_bitmap(ch)
            if rotated:
                bitmap = np.rot90(bitmap)
            assert np.array_equal(font5x7.glyph_bitmap(ch, scale, rotated),
                                  np.kron(bitmap, block)), ch

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_scaled_text_bitmap_equals_kron(self, scale, rotated):
        text = "Task 42: ok?"
        bitmap = font5x7.text_bitmap(text)
        if rotated:
            bitmap = np.rot90(bitmap)
        assert np.array_equal(
            font5x7.text_bitmap(text, scale=scale, rotated=rotated),
            np.kron(bitmap, np.ones((scale, scale), dtype=bool)))

    def test_glyph_cache_is_keyed_by_glyph(self):
        """Unknown characters share the replacement glyph's entry."""
        assert font5x7.glyph_bitmap("é", 2) is font5x7.glyph_bitmap("ß", 2)
        assert not font5x7.glyph_bitmap("A", 3, True).flags.writeable


class TestRasterImage:
    def test_background(self):
        img = RasterImage(10, 5, RED)
        assert img.count_color(RED) == 50

    def test_fill_rect(self):
        img = RasterImage(10, 10)
        img.fill_rect(2, 3, 4, 5, RED)
        assert img.count_color(RED) == 20
        assert img.pixel(2, 3) == RED
        assert img.pixel(1, 3) == WHITE

    def test_fill_rect_clipped(self):
        img = RasterImage(10, 10)
        img.fill_rect(-5, -5, 8, 8, RED)
        assert img.count_color(RED) == 9  # 3x3 visible

    def test_subpixel_rect_still_visible(self):
        img = RasterImage(10, 10)
        img.fill_rect(5, 5, 0.2, 0.2, RED)
        assert img.count_color(RED) >= 1

    def test_zero_rect_invisible(self):
        img = RasterImage(10, 10)
        img.fill_rect(5, 5, 0, 0, RED)
        assert img.count_color(RED) == 0

    def test_zero_extent_one_axis_invisible(self):
        img = RasterImage(20, 20)
        img.fill_rect(5, 5, 0, 10, RED)
        img.fill_rect(5, 5, 10, 0, RED)
        assert img.count_color(RED) == 0

    def test_fill_rect_negative_width_normalized(self):
        img = RasterImage(20, 20)
        img.fill_rect(10, 10, -5, 5, RED)
        assert img.count_color(RED) == 25
        assert img.pixel(5, 10) == RED
        assert img.pixel(10, 10) == WHITE  # right edge stays exclusive

    def test_fill_rect_negative_height_normalized(self):
        img = RasterImage(20, 20)
        img.fill_rect(4, 12, 6, -4, RED)
        assert img.count_color(RED) == 24
        assert img.pixel(4, 8) == RED

    def test_fill_rect_both_negative_matches_positive(self):
        a = RasterImage(20, 20)
        a.fill_rect(3, 4, 5, 6, RED)
        b = RasterImage(20, 20)
        b.fill_rect(8, 10, -5, -6, RED)
        assert np.array_equal(a.pixels, b.pixels)

    def test_stroke_rect_hollow(self):
        img = RasterImage(20, 20)
        img.stroke_rect(5, 5, 10, 10, BLACK)
        assert img.pixel(5, 5) == BLACK
        assert img.pixel(10, 10) == WHITE  # interior untouched

    def test_stroke_rect_negative_extents_normalized(self):
        """w/h < 0 must outline the same normalized rectangle."""
        a = RasterImage(30, 30)
        a.stroke_rect(5, 6, 12, 9, RED, width=2)
        b = RasterImage(30, 30)
        b.stroke_rect(17, 15, -12, -9, RED, width=2)
        assert np.array_equal(a.pixels, b.pixels)
        assert a.count_color(RED) > 0
        assert b.pixel(10, 10) == WHITE  # still hollow, not torn

    def test_stroke_rect_one_negative_extent(self):
        a = RasterImage(30, 30)
        a.stroke_rect(4, 3, 10, 8, BLACK)
        b = RasterImage(30, 30)
        b.stroke_rect(14, 3, -10, 8, BLACK)
        assert np.array_equal(a.pixels, b.pixels)

    def test_adjacent_half_edge_rects_seamless(self):
        """Rects sharing *.5 edges: half-up snapping leaves no seams or
        double-painted columns regardless of the edge's parity."""
        img = RasterImage(20, 10)
        for k in range(2, 18):
            img.fill_rect(k + 0.5, 2, 1.0, 5, RED if k % 2 == 0 else BLACK)
        # 16 alternating unit rects -> 8 columns each, 5 px per column
        assert img.count_color(RED) == 8 * 5
        assert img.count_color(BLACK) == 8 * 5

    def test_horizontal_line(self):
        img = RasterImage(20, 20)
        img.draw_line(0, 10, 19, 10, BLACK)
        assert img.pixel(0, 10) == BLACK and img.pixel(19, 10) == BLACK

    def test_vertical_line(self):
        img = RasterImage(20, 20)
        img.draw_line(10, 0, 10, 19, BLACK)
        assert img.pixel(10, 5) == BLACK

    def test_diagonal_line(self):
        img = RasterImage(20, 20)
        img.draw_line(0, 0, 19, 19, BLACK)
        assert img.pixel(0, 0) == BLACK
        assert img.pixel(19, 19) == BLACK
        assert img.pixel(10, 10) == BLACK

    def test_thick_diagonal_line_pixel_count(self):
        """width must thicken the Bresenham path, not stay 1 px."""
        thin = RasterImage(60, 60)
        thin.draw_line(5, 5, 55, 55, BLACK, width=1)
        thick = RasterImage(60, 60)
        thick.draw_line(5, 5, 55, 55, BLACK, width=5)
        n1 = thin.count_color(BLACK)
        n5 = thick.count_color(BLACK)
        # A 5x5 brush stamped along the walk covers several times the
        # hairline's pixels, but nowhere near the whole canvas.
        assert n5 >= 4 * n1
        assert n5 <= 12 * n1

    def test_thick_diagonal_line_covers_perpendicular_neighbors(self):
        img = RasterImage(40, 40)
        img.draw_line(5, 5, 35, 35, BLACK, width=3)
        # pixels one step perpendicular to the path center are painted
        assert img.pixel(20, 19) == BLACK
        assert img.pixel(19, 20) == BLACK

    def test_thick_line_clipped_at_edges(self):
        img = RasterImage(10, 10)
        img.draw_line(-5, -8, 14, 12, BLACK, width=7)  # partly off-canvas
        assert img.count_color(BLACK) > 0  # and no IndexError

    def test_line_clipped_outside(self):
        img = RasterImage(10, 10)
        img.draw_line(-100, -5, 100, -5, BLACK)  # fully above
        assert img.count_color(BLACK) == 0

    def test_draw_text_marks_pixels(self):
        img = RasterImage(60, 20)
        img.draw_text(2, 18, "AB", BLACK, size=14)
        assert img.count_color(BLACK) > 10

    def test_text_alignment_shifts(self):
        left = RasterImage(60, 20)
        left.draw_text(30, 18, "X", BLACK, halign=HAlign.LEFT)
        right = RasterImage(60, 20)
        right.draw_text(30, 18, "X", BLACK, halign=HAlign.RIGHT)
        lx = np.where(np.all(left.pixels == 0, axis=-1))[1].min()
        rx = np.where(np.all(right.pixels == 0, axis=-1))[1].min()
        assert rx < lx  # right-aligned text sits left of the anchor

    def test_rotated_text(self):
        img = RasterImage(20, 60)
        img.draw_text(10, 30, "AB", BLACK, rotated=True, valign=VAlign.MIDDLE)
        ys, xs = np.where(np.all(img.pixels == 0, axis=-1))
        assert ys.max() - ys.min() > xs.max() - xs.min()  # taller than wide

    def test_text_clipped_at_edges(self):
        img = RasterImage(10, 10)
        img.draw_text(8, 9, "WWWW", BLACK)  # mostly off-canvas
        # must not raise; some pixels may land
        img.draw_text(-100, -100, "X", BLACK)
        assert True

    def test_text_extent_scales(self):
        img = RasterImage(10, 10)
        w1, h1 = img.text_extent("hello", 7)
        w2, h2 = img.text_extent("hello", 14)
        assert w2 == 2 * w1 and h2 == 2 * h1

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            RasterImage(0, 10)

    def test_canvas_holds_palette_indices(self):
        img = RasterImage(6, 4, WHITE)
        img.fill_rect(1, 1, 2, 2, RED)
        img.fill_rect(4, 0, 1, 4, RED)
        img.draw_line(0, 3, 5, 3, BLACK)
        assert img.canvas.dtype == np.uint8 and img.canvas.shape == (4, 6)
        assert img.colors == [WHITE, RED, BLACK]
        assert img.canvas[1, 1] == 1 and img.canvas[3, 0] == 2
        assert np.array_equal(img.pixels[1, 1], [255, 0, 0])

    def test_canvas_widens_past_256_colours(self):
        """The 257th colour widens the canvas to uint16; earlier indices
        and the gathered pixels keep their values."""
        img = RasterImage(30, 20, WHITE)
        colors = [Color(i % 256, i // 256, 7) for i in range(300)]
        for i, c in enumerate(colors):
            img.fill_rect(i % 30, i // 30, 1, 1, c)
            assert img.canvas.dtype == (np.uint8 if i < 255 else np.uint16)
        px = img.pixels
        for i, c in enumerate(colors):
            assert tuple(px[i // 30, i % 30]) == (c.r, c.g, c.b)
            assert img.pixel(i % 30, i // 30) == c
        assert img.count_color(WHITE) == 30 * 20 - 300


def reference_rasterize(drawing: Drawing) -> RasterImage:
    """The naive one-Python-call-per-primitive z-order walk."""
    img = RasterImage(drawing.width, drawing.height, drawing.background)
    for item in drawing:
        if isinstance(item, Rect):
            if item.fill is not None:
                img.fill_rect(item.x, item.y, item.w, item.h, item.fill)
            if item.stroke is not None:
                img.stroke_rect(item.x, item.y, item.w, item.h, item.stroke,
                                item.stroke_width)
        elif isinstance(item, Line):
            img.draw_line(item.x0, item.y0, item.x1, item.y1, item.color,
                          item.width)
        elif isinstance(item, Text):
            img.draw_text(item.x, item.y, item.text, item.color, item.size,
                          item.halign, item.valign, item.rotated)
    return img


class TestBatchedRasterize:
    """The batched painter must be pixel-identical to the per-item walk."""

    GREEN = Color(0, 160, 0)

    def test_overlapping_colors_keep_z_order(self):
        d = Drawing(200, 120)
        for i in range(40):
            d.add(Rect(3 * i, 2 * i % 60, 30, 25,
                       fill=RED if i % 2 == 0 else BLACK))
        assert np.array_equal(rasterize(d).pixels,
                              reference_rasterize(d).pixels)

    def test_scratch_path_keeps_z_order(self):
        # Named after a whole-canvas pass that is gone; the case stays:
        # heavy overlap on a small canvas, later boxes win every pixel.
        d = Drawing(40, 40)
        for i in range(60):
            d.add(Rect((7 * i) % 30, (5 * i) % 30, 12, 9,
                       fill=(RED, BLACK, self.GREEN)[i % 3]))
        assert np.array_equal(rasterize(d).pixels,
                              reference_rasterize(d).pixels)

    def test_batch_handles_negative_clipped_and_subpixel(self):
        d = Drawing(50, 50)
        d.add(Rect(30, 30, 0, 0, fill=RED))           # zero: invisible
        for i in range(8):
            d.add(Rect(45 + i, 10, 20, 5, fill=RED))  # partly off-canvas
        d.add(Rect(10, 10, 0.2, 0.3, fill=BLACK))     # sub-pixel bump
        d.add(Rect(-100, -100, 5, 5, fill=BLACK))     # fully outside
        for i in range(8):
            d.add(Rect(20 + i, 40, 0, 3, fill=self.GREEN))  # zero-width
        assert np.array_equal(rasterize(d).pixels,
                              reference_rasterize(d).pixels)

    def test_batch_interrupted_by_stroke_and_line(self):
        d = Drawing(120, 80)
        for i in range(12):
            d.add(Rect(5 * i, 5, 40, 30, fill=RED))
        d.add(Rect(20, 10, 50, 40, fill=self.GREEN, stroke=BLACK))
        for i in range(12):
            d.add(Rect(5 * i + 2, 25, 40, 30, fill=BLACK))
        d.add(Line(0, 0, 119, 79, RED, 3))
        assert np.array_equal(rasterize(d).pixels,
                              reference_rasterize(d).pixels)

    def test_text_and_diagonal_keep_their_place_in_z_order(self):
        d = Drawing(80, 40)
        d.add(Rect(0, 0, 80, 40, fill=self.GREEN, stroke=BLACK))
        d.add(Text(40, 20, "ABC", size=14, color=RED, halign=HAlign.CENTER,
                   valign=VAlign.MIDDLE))
        d.add(Rect(30, 10, 20, 20, fill=BLACK))  # over the text
        d.add(Line(0, 0, 79, 39, WHITE, 2))
        d.add(Rect(5, 5, 10, 30, fill=RED, stroke=self.GREEN,
                   stroke_width=3))               # over the line
        d.add(Line(60, 2, 60, 38, RED, 2))       # axis-aligned: a box
        d.add(Text(2, 39, "x", color=BLACK))
        assert np.array_equal(rasterize(d).pixels,
                              reference_rasterize(d).pixels)

    def test_text_in_the_257th_colour_widens_mid_paint(self):
        """Boxes after a text that widened the canvas land on the new
        canvas.  The background, 254 box colours and red fill the uint8
        palette before painting starts; the text's colour is the 257th."""
        d = Drawing(40, 20)
        for i in range(254):
            d.add(Rect(i % 40, i // 40, 1, 1, fill=Color(i, 0, 9)))
        d.add(Text(2, 19, "W", size=7, color=Color(1, 2, 3)))
        d.add(Rect(20, 10, 10, 5, fill=RED))
        img = rasterize(d)
        assert img.canvas.dtype == np.uint16
        assert np.array_equal(img.pixels, reference_rasterize(d).pixels)
        assert img.count_color(RED) == 50

    def test_half_up_snapping_matches_scalar_path(self):
        # *.5 edges through the vectorized bounds == scalar _snap
        d = Drawing(60, 20)
        for k in range(10):
            d.add(Rect(2 * k + 0.5, 1.5, 1.5, 10.5, fill=RED))
        assert np.array_equal(rasterize(d).pixels,
                              reference_rasterize(d).pixels)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunk_edges_keep_z_order(self, monkeypatch, chunk):
        """Boxes become Python ints a chunk at a time; chunk edges that
        fall on, before or after a text or diagonal line paint the same."""
        monkeypatch.setattr(raster, "_BOX_CHUNK", chunk)
        d = Drawing(60, 30)
        for i in range(9):
            d.add(Rect(4 * i, i, 12, 9, fill=(RED, BLACK, self.GREEN)[i % 3],
                       stroke=BLACK if i % 4 == 0 else None))
            if i % 3 == 1:
                d.add(Text(6 * i, 25, "Zz", size=8, color=self.GREEN))
            elif i % 3 == 2:
                d.add(Line(0, 29 - i, 59, i, RED, 2))
        assert np.array_equal(rasterize(d).pixels,
                              reference_rasterize(d).pixels)

    def test_paint_memory_stays_under_the_all_at_once_conversion(
            self, monkeypatch):
        """The painter turns box bounds into Python ints after the batch
        arrays are freed and a chunk of boxes at a time, so rasterize's
        traced peak stays well under that of building every box's five
        ints at once while those arrays are alive: 0.61 of it here, on a
        20k-rect field (coordinates past the small-int cache, every other
        rect stroked, so five boxes for those)."""
        n, width, height = 20_000, 1000, 600
        rng = np.random.default_rng(3)
        colors = [Color(int(c), 90, 255 - int(c)) for c in rng.integers(0, 256, 16)]
        xs, ys = rng.uniform(0, width - 40, n), rng.uniform(0, height - 20, n)
        ws, hs = rng.uniform(2, 40, n), rng.uniform(2, 18, n)
        d = Drawing(width, height)
        for i, box in enumerate(zip(xs.tolist(), ys.tolist(), ws.tolist(), hs.tolist())):
            d.add(Rect(*box, fill=colors[i % 16],
                       stroke=BLACK if i % 2 == 0 else None))

        def peak():
            tracemalloc.start()
            try:
                rasterize(d)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rasterize(d)  # warm up outside the trace
        chunked = peak()
        monkeypatch.setattr(raster, "_chunked",
                            lambda columns: zip(*[c.tolist() for c in columns]))
        at_once = peak()
        assert chunked < 0.75 * at_once


class TestRasterize:
    def test_drawing_rendered(self):
        d = Drawing(50, 30)
        d.add(Rect(5, 5, 20, 10, fill=RED, stroke=BLACK))
        d.add(Line(0, 29, 49, 29, BLACK))
        d.add(Text(25, 15, "hi", color=BLACK, halign=HAlign.CENTER,
                   valign=VAlign.MIDDLE))
        img = rasterize(d)
        assert img.count_color(RED) > 100
        assert img.count_color(BLACK) > 30

    def test_z_order_later_wins(self):
        d = Drawing(20, 20)
        d.add(Rect(0, 0, 20, 20, fill=RED))
        d.add(Rect(0, 0, 20, 20, fill=BLACK))
        img = rasterize(d)
        assert img.count_color(RED) == 0
