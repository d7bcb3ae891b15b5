"""Pure-Python/NumPy rasterizer for the bitmap backends (PNG, PPM, BMP).

The canvas is an ``(h, w)`` array of palette indices.  Jedule colours
tasks by type, so a drawing holds few colours: each gets its index the
first time it is painted, and the canvas is uint8 and widens to uint16
past 256 colours (uint32 past 65,536).  :attr:`RasterImage.palette` is
the ``(n, 3)`` uint8 array of the colours; the PNG backend encodes the
canvas over it (:func:`repro.render.png_codec.encode_indexed`), and
:attr:`RasterImage.pixels` gathers the ``(h, w, 3)`` uint8 RGB image on
demand for PPM, BMP and the tests.  Operations are scalar slice
assignments of an index (rect fills), a Bresenham walk batched through
fancy indexing (lines), and nearest-neighbour scaling of the 5x7 font
(text).  The rasterizer implements the drawing-primitive vocabulary of
:mod:`repro.render.geometry` and nothing more.

:func:`rasterize` has one painter.  Every axis-aligned primitive joins one
z-ordered batch of boxes: a fill-only rect, the fill and four edges of a
stroked rect, and an axis-aligned line.  Snapping and clipping are array
arithmetic over the whole batch, read with ``np.fromiter``, and the boxes
are then painted in order, one scalar slice assignment each, their
bounds turned into Python ints a chunk of boxes at a time.  Only
diagonal lines and text interrupt it: each flushes the boxes before it and
paints itself, so the output is pixel-identical to dispatching every
primitive through the :class:`RasterImage` methods one by one in z-order.

All pixel snapping uses half-up rounding (``floor(v + 0.5)``) rather than
Python's banker's rounding: two rects sharing an edge at a ``*.5``
coordinate then snap to the *same* pixel column, instead of alternating
between 1-px overlaps and 1-px gaps by parity.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from repro.core.colormap import Color
from repro.obs import core as _obs
from repro.render import font5x7
from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign
from repro.render.png_codec import gather

__all__ = ["RasterImage", "rasterize"]

#: boxes converted to Python ints at a time by the painter
_BOX_CHUNK = 1 << 14


def _snap(v: float) -> int:
    """Half-up rounding to an integer pixel edge.

    Unlike ``int(round(v))`` this is parity-independent at ``*.5``: adjacent
    rects sharing such an edge snap to the same pixel, leaving neither a
    seam nor a double-painted column.
    """
    return math.floor(v + 0.5)


def _stroke_edges(x, y, w, h, width):
    """The top, bottom, left and right edge boxes ``(x, y, w, h)`` of a
    stroked rect.

    Negative extents are normalized first, so the edges land on the sides
    of the normalized rectangle.  Works on floats and, elementwise, on
    arrays; the edges are whole pixels.
    """
    x, w = np.minimum(x, x + w), np.abs(w)
    y, h = np.minimum(y, y + h), np.abs(h)
    t = np.maximum(1.0, np.floor(width + 0.5))
    x0, y0 = np.floor(x + 0.5), np.floor(y + 0.5)
    x1, y1 = np.floor(x + w + 0.5), np.floor(y + h + 0.5)
    return ((x0, y0, x1 - x0, t), (x0, y1 - t, x1 - x0, t),
            (x0, y0, t, y1 - y0), (x1 - t, y0, t, y1 - y0))


def _axis_line(x0: float, y0: float, x1: float, y1: float,
               width: float) -> tuple[float, float, float, float] | None:
    """The box ``(x, y, w, h)`` an axis-aligned line fills, or None for a
    diagonal one.  The box covers both end points and is ``width`` thick."""
    if abs(y1 - y0) < 0.5:  # horizontal
        lo, hi = sorted((x0, x1))
        return lo, y0 - width / 2, hi - lo + 1, max(width, 1.0)
    if abs(x1 - x0) < 0.5:  # vertical
        lo, hi = sorted((y0, y1))
        return x0 - width / 2, lo, max(width, 1.0), hi - lo + 1
    return None


class RasterImage:
    """A mutable palette-indexed image with primitive drawing operations."""

    def __init__(self, width: int, height: int, background: Color = Color(255, 255, 255)):
        if width <= 0 or height <= 0:
            raise ValueError(f"bad image size {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        #: palette: ``colors[i]`` is the colour of index ``i``
        self.colors: list[Color] = [background]
        self._index: dict[Color, int] = {background: 0}
        #: ``(h, w)`` palette indices, uint8 until the palette outgrows it
        self.canvas = np.zeros((self.height, self.width), np.uint8)

    def _color_index(self, color: Color) -> int:
        """``color``'s palette index, assigned (and the canvas widened)
        on first use."""
        ci = self._index.get(color)
        if ci is None:
            ci = self._index[color] = len(self.colors)
            self.colors.append(color)
            if ci > np.iinfo(self.canvas.dtype).max:
                self.canvas = self.canvas.astype(np.min_scalar_type(ci))
        return ci

    @property
    def palette(self) -> np.ndarray:
        """The ``(n, 3)`` uint8 RGB array of :attr:`colors`: row ``i`` is
        the colour of index ``i``."""
        return np.array([(c.r, c.g, c.b) for c in self.colors], np.uint8)

    @property
    def pixels(self) -> np.ndarray:
        """The ``(h, w, 3)`` uint8 RGB image, gathered from the palette a
        band of rows at a time."""
        return gather(self.palette, self.canvas)

    # ----------------------------------------------------------- primitives
    def fill_rect(self, x: float, y: float, w: float, h: float, color: Color) -> None:
        """Fill an axis-aligned rectangle; sub-pixel rects snap to >=1 px.

        Negative extents describe the same rectangle anchored at the
        opposite corner and are normalized; zero extents paint nothing.
        """
        if w < 0:
            x, w = x + w, -w
        if h < 0:
            y, h = y + h, -h
        if x + w <= 0 or y + h <= 0 or x >= self.width or y >= self.height:
            return  # fully outside the canvas
        x0 = max(_snap(x), 0)
        y0 = max(_snap(y), 0)
        x1 = min(_snap(x + w), self.width)
        y1 = min(_snap(y + h), self.height)
        # Sub-pixel rects that truly intersect the canvas snap to one pixel.
        if w > 0 and x1 <= x0 and x0 < self.width:
            x1 = x0 + 1
        if h > 0 and y1 <= y0 and y0 < self.height:
            y1 = y0 + 1
        if x1 > x0 and y1 > y0:
            ci = self._color_index(color)
            self.canvas[y0:y1, x0:x1] = ci

    def stroke_rect(self, x: float, y: float, w: float, h: float, color: Color,
                    width: float = 1.0) -> None:
        """1px (or thicker) rectangle outline: four edge fills.

        Negative extents are normalized exactly like :meth:`fill_rect`, so
        the four edges always land on the sides of the normalized
        rectangle instead of producing a torn outline.
        """
        for edge in _stroke_edges(x, y, w, h, width):
            self.fill_rect(*edge, color)

    def draw_line(self, x0: float, y0: float, x1: float, y1: float, color: Color,
                  width: float = 1.0) -> None:
        """Bresenham-style line; axis-aligned lines take the fast rect path.

        Non-axis-aligned lines honour ``width`` by stamping a square brush
        of the requested thickness along the walk, so thick diagonal
        dependency edges no longer render hairline.
        """
        box = _axis_line(x0, y0, x1, y1, width)
        if box is not None:
            self.fill_rect(*box, color)
            return
        steps = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
        xs = np.floor(np.linspace(x0, x1, steps) + 0.5).astype(np.intp)
        ys = np.floor(np.linspace(y0, y1, steps) + 0.5).astype(np.intp)
        t = max(1, _snap(width))
        if t > 1:
            off = np.arange(t, dtype=np.intp) - t // 2
            xs = np.broadcast_to(
                xs[:, None, None] + off[None, :, None], (steps, t, t)).ravel()
            ys = np.broadcast_to(
                ys[:, None, None] + off[None, None, :], (steps, t, t)).ravel()
        keep = (xs >= 0) & (xs < self.width) & (ys >= 0) & (ys < self.height)
        ci = self._color_index(color)
        self.canvas[ys[keep], xs[keep]] = ci

    def text_extent(self, text: str, size: float) -> tuple[int, int]:
        """(width, height) in pixels of a string at the given em size."""
        scale = max(1, int(round(size / font5x7.GLYPH_HEIGHT)))
        bitmap = font5x7.text_bitmap(text)
        return bitmap.shape[1] * scale, bitmap.shape[0] * scale

    def draw_text(
        self,
        x: float,
        y: float,
        text: str,
        color: Color,
        size: float = 12.0,
        halign: HAlign = HAlign.LEFT,
        valign: VAlign = VAlign.BOTTOM,
        rotated: bool = False,
    ) -> None:
        """Blit a scaled bitmap string anchored at (x, y)."""
        if not text:
            return
        scale = max(1, int(round(size / font5x7.GLYPH_HEIGHT)))
        bitmap = font5x7.text_bitmap(text, scale=scale, rotated=rotated)
        bh, bw = bitmap.shape
        if halign is HAlign.CENTER:
            x -= bw / 2
        elif halign is HAlign.RIGHT:
            x -= bw
        if valign is VAlign.MIDDLE:
            y -= bh / 2
        elif valign is VAlign.BOTTOM:
            y -= bh
        ix, iy = int(round(x)), int(round(y))
        # Clip the bitmap to the image.
        sx0, sy0 = max(0, -ix), max(0, -iy)
        dx0, dy0 = max(0, ix), max(0, iy)
        sx1 = bw - max(0, ix + bw - self.width)
        sy1 = bh - max(0, iy + bh - self.height)
        if sx1 <= sx0 or sy1 <= sy0:
            return
        region = bitmap[sy0:sy1, sx0:sx1]
        ci = self._color_index(color)
        target = self.canvas[dy0:dy0 + region.shape[0], dx0:dx0 + region.shape[1]]
        target[region] = ci

    # ------------------------------------------------------------- queries
    def pixel(self, x: int, y: int) -> Color:
        return self.colors[self.canvas[y, x]]

    def count_color(self, color: Color) -> int:
        """Number of pixels exactly matching ``color`` (test helper)."""
        ci = self._index.get(color)
        return 0 if ci is None else int(np.count_nonzero(self.canvas == ci))


# ------------------------------------------------------------- the painter

def _box_bounds(xs, ys, ws, hs, width: int, height: int):
    """Vectorized :meth:`RasterImage.fill_rect` coordinate pass.

    Returns integer ``(x0, y0, x1, y1)`` bound arrays and the mask of the
    boxes that paint, applying the same normalize / half-up snap / clip /
    sub-pixel-bump rules as the scalar method.
    """
    neg = ws < 0
    if neg.any():
        xs = np.where(neg, xs + ws, xs)
        ws = np.abs(ws)
    neg = hs < 0
    if neg.any():
        ys = np.where(neg, ys + hs, ys)
        hs = np.abs(hs)
    visible = (xs + ws > 0) & (ys + hs > 0) & (xs < width) & (ys < height)
    x0 = np.maximum(np.floor(xs + 0.5), 0).astype(np.int64)
    y0 = np.maximum(np.floor(ys + 0.5), 0).astype(np.int64)
    x1 = np.minimum(np.floor(xs + ws + 0.5), width).astype(np.int64)
    y1 = np.minimum(np.floor(ys + hs + 0.5), height).astype(np.int64)
    bump = (ws > 0) & (x1 <= x0) & (x0 < width)
    x1[bump] = x0[bump] + 1
    bump = (hs > 0) & (y1 <= y0) & (y0 < height)
    y1[bump] = y0[bump] + 1
    visible &= (x1 > x0) & (y1 > y0)
    return x0, y0, x1, y1, visible


def _color_indices(img: RasterImage, colors) -> np.ndarray:
    """Palette index per colour, -1 for None.

    Memoized by object identity: layouts reuse a handful of ``Color``
    instances, so this is a few dict hits per rect.
    """
    memo: dict[int, int] = {id(None): -1}
    out = []
    append = out.append
    for c in colors:
        ci = memo.get(id(c))
        if ci is None:
            memo[id(c)] = ci = img._color_index(c)
        append(ci)
    return np.array(out, np.int64)


def _boxes(img: RasterImage, rects: list[Rect]):
    """The boxes of a z-ordered run of rects: each rect's fill, then its
    four stroke edges.

    Returns ``(boxes, before)``.  ``boxes`` yields ``(y0, y1, x0, x1,
    index)`` for every box that paints, in drawing order; ``before[i]`` is
    the number of those boxes that ``rects[:i]`` contribute.
    """
    n = len(rects)
    xs = np.fromiter((r.x for r in rects), np.float64, count=n)
    ys = np.fromiter((r.y for r in rects), np.float64, count=n)
    ws = np.fromiter((r.w for r in rects), np.float64, count=n)
    hs = np.fromiter((r.h for r in rects), np.float64, count=n)
    fills = _color_indices(img, (r.fill for r in rects))
    strokes = _color_indices(img, (r.stroke for r in rects))

    # Box slots: a rect's fill (if any) comes first, then its four edges.
    filled = fills >= 0
    stroked = strokes >= 0
    per_rect = filled + 4 * stroked
    first = np.cumsum(per_rect) - per_rect
    total = int(per_rect.sum())
    bx, by = np.empty(total), np.empty(total)
    bw, bh = np.empty(total), np.empty(total)
    bc = np.empty(total, np.int64)
    at = first[filled]
    bx[at], by[at], bw[at], bh[at] = xs[filled], ys[filled], ws[filled], hs[filled]
    bc[at] = fills[filled]
    if stroked.any():
        widths = np.fromiter((r.stroke_width for r in rects), np.float64,
                             count=n)[stroked]
        base = first[stroked] + filled[stroked]
        edges = _stroke_edges(xs[stroked], ys[stroked], ws[stroked],
                              hs[stroked], widths)
        for k, (ex, ey, ew, eh) in enumerate(edges):
            at = base + k
            bx[at], by[at], bw[at], bh[at] = ex, ey, ew, eh
            bc[at] = strokes[stroked]

    x0, y0, x1, y1, visible = _box_bounds(bx, by, bw, bh, img.width, img.height)
    painted = np.concatenate(([0], np.cumsum(visible)))
    keep = np.flatnonzero(visible)
    bounds = y0[keep], y1[keep], x0[keep], x1[keep], bc[keep]
    return _chunked(bounds), painted[np.append(first, total)].tolist()


def _chunked(columns):
    """The rows of equal-length int arrays as tuples of Python ints,
    converted :data:`_BOX_CHUNK` rows at a time, so the ints of only one
    chunk are alive at once.  Nothing is converted before the painter
    reads the first box, when :func:`_boxes` has returned and its batch
    arrays are freed."""
    for at in range(0, len(columns[0]), _BOX_CHUNK):
        yield from zip(*(c[at:at + _BOX_CHUNK].tolist() for c in columns))


def rasterize(drawing: Drawing) -> RasterImage:
    """Render a :class:`Drawing` into a raster image.

    Every axis-aligned primitive becomes boxes of one batch; each diagonal
    line and text is painted where it falls in z-order, after the boxes
    before it and before the boxes after it.  Output is pixel-identical to
    dispatching every primitive one by one in z-order.
    """
    img = RasterImage(drawing.width, drawing.height, drawing.background)
    with _obs.span("render.rasterize", primitives=len(drawing)):
        rects: list[Rect] = []
        #: (rects before it, primitive) for each diagonal line and text
        others: list[tuple[int, Line | Text]] = []
        for item in drawing:
            if isinstance(item, Rect):
                rects.append(item)
            elif isinstance(item, Line):
                box = _axis_line(item.x0, item.y0, item.x1, item.y1,
                                 item.width)
                if box is None:
                    others.append((len(rects), item))
                else:
                    rects.append(Rect(*box, fill=item.color))
            elif isinstance(item, Text):
                others.append((len(rects), item))
            else:  # pragma: no cover - new primitive types must be handled here
                raise TypeError(f"unknown primitive {type(item).__name__}")

        boxes, before = _boxes(img, rects)
        done = 0
        for at, item in [*others, (len(rects), None)]:
            canvas = img.canvas  # a new colour may have widened it
            for b0, b1, a0, a1, ci in islice(boxes, before[at] - done):
                canvas[b0:b1, a0:a1] = ci
            done = before[at]
            if isinstance(item, Line):
                img.draw_line(item.x0, item.y0, item.x1, item.y1, item.color,
                              item.width)
            elif isinstance(item, Text):
                img.draw_text(item.x, item.y, item.text, item.color, item.size,
                              item.halign, item.valign, item.rotated)
    return img
