"""PNG raster backend: rasterize, then encode the painter's index canvas
and palette with our own PNG codec (no RGB image for at most 256
colours)."""

from __future__ import annotations

from repro.obs import core as _obs
from repro.render.geometry import Drawing
from repro.render.png_codec import encode_indexed
from repro.render.raster import rasterize

__all__ = ["render_png"]


def render_png(drawing: Drawing, *, compress_level: int = 6) -> bytes:
    """Serialize a drawing as a PNG byte string."""
    img = rasterize(drawing)
    _obs.add("render.raster.pixels", img.canvas.size)
    return encode_indexed(img.canvas, img.palette, compress_level=compress_level)
