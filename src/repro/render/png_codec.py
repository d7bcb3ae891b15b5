"""Minimal PNG encoder/decoder (8-bit truecolour and indexed colour).

Implemented from the PNG specification as numpy array passes on top of
:mod:`zlib` (stdlib): signature, IHDR/PLTE/IDAT/IEND chunks, CRC32 per
chunk, and the five scanline filter types.

The encoder has one core and two entry points, which write the same
bytes for the same image.  :func:`encode_png` takes an ``(h, w, 3)`` RGB
image and finds its colours with one exact run-based pass over it.
:func:`encode_indexed` takes an ``(h, w)`` canvas of palette indices and
its ``(n, 3)`` palette, as :func:`repro.render.raster.rasterize` holds
them; its colour pass finds the colours present from where runs of
equal indices start, one compare a pixel, so a palette entry that was
assigned but never painted, or was painted over, does not count.  With
at most 256 colours present the core writes colour type 3: a ``PLTE``
chunk of them in ascending RGB order and one index byte per pixel (a
canvas is remapped to those positions through a 256-entry table, and no
RGB image is built).  Otherwise it writes colour type 2, three bytes per
pixel: the caller's RGB image, or the canvas gathered through its
palette a band of rows at a time (:func:`gather`).
Each row then takes the cheapest of the None, Sub and Up filters by the
standard minimum-sum-of-absolute-differences heuristic, Sub taking the
pixel to the left (1 byte back for indices, 3 for RGB).  The decoder reads
both colour types at bit depth 8 and supports all five filters, so it can
read anything the encoder (or another conforming encoder of that flavour)
produced.  The decoder exists chiefly so tests can verify exported images
pixel-for-pixel.

There are no per-pixel (or per-row) Python loops on the encode side: the
colour runs, the three candidate filters, their costs, and the interleaved
``filter-byte + filtered-row`` stream handed to zlib are all built as
whole-image uint8 array operations (uint8 arithmetic wraps mod 256, which
is exactly PNG filter arithmetic).  On the decode side None/Sub/Up rows are
one array op each — Sub unfilters via a modular cumulative sum along the
scanline — while the rarely-seen Average/Paeth rows (our encoder never
emits them) fall back to a tight scalar recurrence over Python ints.  An
indexed image is gathered to RGB through its palette with ``np.take``.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import RenderError
from repro.obs import core as _obs

__all__ = ["encode_png", "encode_indexed", "decode_png", "gather"]

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
#: pixels per band of rows in :func:`gather`
_GATHER_PIXELS = 1 << 16


def gather(table: np.ndarray, canvas: np.ndarray) -> np.ndarray:
    """``table[canvas]``: the rows of ``table`` that an ``(h, w)`` canvas
    of indices names, as an ``(h, w) + table.shape[1:]`` array.

    ``np.take`` copies its indices as intp, 8 bytes a pixel; a band of
    rows at a time keeps that copy small.
    """
    h, w = canvas.shape
    out = np.empty((h, w) + table.shape[1:], table.dtype)
    rows = max(1, _GATHER_PIXELS // w)
    for y in range(0, h, rows):
        np.take(table, canvas[y:y + rows], axis=0, out=out[y:y + rows])
    return out


def _chunk(kind: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + kind + payload
            + struct.pack(">I", zlib.crc32(kind + payload) & 0xFFFFFFFF))


def _filter_cost(filtered: np.ndarray) -> np.ndarray:
    """Per-row sum of absolute signed filter residuals (MSAD heuristic).

    ``min(v, 256 - v)`` on uint8 is the magnitude of the residual read as a
    signed byte; ``np.negative`` computes ``256 - v`` without leaving uint8.
    """
    return np.minimum(filtered, np.negative(filtered)).sum(
        axis=1, dtype=np.int64)


def _palette(pixels: np.ndarray):
    """``(plte, indices)`` when the image has at most 256 colours, else None.

    ``plte`` is the ``PLTE`` payload, the colours in ascending RGB order,
    and ``indices`` the ``(h, w)`` uint8 image of positions in it.  The
    pass is exact but reads colours only at the start of each run of equal
    pixels in row-major order, then repeats each run's index over it.
    """
    h, w, _ = pixels.shape
    n = h * w
    flat = np.ascontiguousarray(pixels).reshape(n, 3)
    stream = flat.reshape(-1)
    # A run starts at pixel 0 and at every pixel unlike the one before.
    differs = (stream[3:] != stream[:-3]).reshape(n - 1, 3)
    starts = np.flatnonzero(differs[:, 0] | differs[:, 1] | differs[:, 2])
    starts = np.concatenate(([0], starts + 1))
    first = flat[starts].astype(np.uint32)
    keys = first[:, 0] << 16 | first[:, 1] << 8 | first[:, 2]
    colors = np.unique(keys)
    if len(colors) > 256:
        return None
    run_index = np.searchsorted(colors, keys).astype(np.uint8)
    indices = np.repeat(run_index, np.diff(starts, append=n))
    plte = np.stack([colors >> 16, colors >> 8, colors], axis=1) & 0xFF
    return plte.astype(np.uint8).tobytes(), indices.reshape(h, w)


def _indexed(canvas: np.ndarray, palette: np.ndarray):
    """What :func:`_palette` gives for the image ``palette[canvas]``, read
    from the canvas.

    The colours present are the palette entries read where a run of equal
    indices starts in row-major order, one compare a pixel.  ``indices``
    is the canvas remapped to their positions in ``plte``.
    """
    h, w = canvas.shape
    flat = canvas.reshape(-1)
    # A run starts at pixel 0 and at every pixel unlike the one before.
    firsts = np.concatenate(
        (flat[:1], np.compress(flat[1:] != flat[:-1], flat[1:])))
    top = int(firsts.max())
    if top >= len(palette):
        raise RenderError(f"canvas index {top} is past the {len(palette)}-entry palette")
    seen = np.zeros(len(palette), bool)
    seen[firsts] = True
    present = np.flatnonzero(seen)
    rgb = palette[present].astype(np.uint32)
    colors, position = np.unique(rgb[:, 0] << 16 | rgb[:, 1] << 8 | rgb[:, 2],
                                 return_inverse=True)
    if len(colors) > 256:
        return None
    plte = np.stack([colors >> 16, colors >> 8, colors], axis=1) & 0xFF
    plte = plte.astype(np.uint8).tobytes()
    lut = np.zeros(max(len(palette), 256), np.uint8)
    lut[present] = position
    if canvas.dtype == np.uint8:
        remapped = flat.tobytes().translate(lut[:256].tobytes())
        return plte, np.frombuffer(remapped, np.uint8).reshape(h, w)
    return plte, gather(lut, canvas)


def _filter_rows(flat: np.ndarray, bpp: int) -> np.ndarray:
    """The ``(h, 1 + stride)`` IDAT scanlines of ``(h, stride)`` image
    bytes: each row's filter byte, then the row under that filter.

    Candidate filters are 0 (None), 1 (Sub, against the pixel ``bpp``
    bytes to the left) and 2 (Up); each row takes the cheapest by MSAD.
    """
    h, stride = flat.shape
    sub_f = flat.copy()
    sub_f[:, bpp:] -= flat[:, :-bpp]
    up_f = flat.copy()
    up_f[1:] -= flat[:-1]
    costs = np.stack(
        [_filter_cost(flat), _filter_cost(sub_f), _filter_cost(up_f)])
    choice = np.argmin(costs, axis=0)

    # One array interleaves the per-row filter byte with the chosen
    # filtered row; its raw buffer is the zlib input.
    out = np.empty((h, 1 + stride), np.uint8)
    out[:, 0] = choice
    out[:, 1:] = flat
    rows = choice == 1
    out[rows, 1:] = sub_f[rows]
    rows = choice == 2
    out[rows, 1:] = up_f[rows]
    return out


def _encode(image: np.ndarray, palette: np.ndarray | None,
            compress_level: int) -> bytes:
    """The encoder core: ``image`` is an ``(h, w, 3)`` RGB image when
    ``palette`` is None, else an ``(h, w)`` canvas of indices into
    ``palette``.  The colour pass runs with the filters under the
    ``render.png.filter`` span."""
    h, w = image.shape[:2]
    with _obs.span("render.png.filter", rows=h):
        if palette is None:
            indexed = _palette(image)
        else:
            indexed = _indexed(image, palette)
        if indexed is None:
            ctype, plte = 2, b""
            rgb = image if palette is None else gather(palette, image)
            out = _filter_rows(rgb.reshape(h, w * 3), 3)
        else:
            ctype, (payload, indices) = 3, indexed
            plte = _chunk(b"PLTE", payload)
            out = _filter_rows(indices, 1)
    with _obs.span("render.png.compress", nbytes=out.nbytes):
        idat = zlib.compress(out, compress_level)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
    return (_SIGNATURE + _chunk(b"IHDR", ihdr) + plte
            + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))


def encode_indexed(canvas: np.ndarray, palette: np.ndarray, *,
                   compress_level: int = 6) -> bytes:
    """Encode an ``(h, w)`` canvas of unsigned indices into an ``(n, 3)``
    uint8 palette as a PNG byte string.

    The bytes are those :func:`encode_png` writes for the RGB image
    ``palette[canvas]``, which is never built when at most 256 colours
    are present.
    """
    if canvas.ndim != 2 or canvas.dtype.kind != "u" or not canvas.size:
        raise RenderError(
            f"expected an (h, w) unsigned integer canvas, got {canvas.shape} {canvas.dtype}")
    if palette.ndim != 2 or palette.shape[1:] != (3,) or palette.dtype != np.uint8:
        raise RenderError(
            f"expected an (n, 3) uint8 palette, got {palette.shape} {palette.dtype}")
    return _encode(canvas, palette, compress_level)


def encode_png(pixels: np.ndarray, *, compress_level: int = 6) -> bytes:
    """Encode an (h, w, 3) uint8 array as a PNG byte string.

    An image of at most 256 colours is written as colour type 3 (indexed),
    any other as colour type 2 (truecolour); both are 8-bit.
    """
    if (pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8
            or not pixels.size):
        raise RenderError(f"expected (h, w, 3) uint8 pixels, got {pixels.shape} {pixels.dtype}")
    return _encode(pixels, None, compress_level)


def _unfilter_average(data: np.ndarray, prev: np.ndarray, bpp: int) -> list[int]:
    """Average unfiltering of one scanline of ``bpp`` bytes per pixel.

    The left neighbour is this row's own output, a sequential recurrence
    the array layer cannot express; run it over plain Python ints, which
    is ~2 orders of magnitude faster than element-wise numpy indexing.
    """
    line = data.tolist()
    up = prev.tolist()
    for x in range(bpp):
        line[x] = (line[x] + (up[x] >> 1)) & 0xFF
    for x in range(bpp, len(line)):
        line[x] = (line[x] + ((line[x - bpp] + up[x]) >> 1)) & 0xFF
    return line


def _unfilter_paeth(data: np.ndarray, prev: np.ndarray, bpp: int) -> list[int]:
    """Paeth unfiltering of one scanline (same scalar-recurrence shape)."""
    line = data.tolist()
    up = prev.tolist()
    for x in range(bpp):
        # With no left neighbour the predictor always resolves to "up".
        line[x] = (line[x] + up[x]) & 0xFF
    for x in range(bpp, len(line)):
        a = line[x - bpp]
        b = up[x]
        c = up[x - bpp]
        p = a + b - c
        pa = p - a if p >= a else a - p
        pb = p - b if p >= b else b - p
        pc = p - c if p >= c else c - p
        if pa <= pb and pa <= pc:
            pred = a
        elif pb <= pc:
            pred = b
        else:
            pred = c
        line[x] = (line[x] + pred) & 0xFF
    return line


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit truecolour or indexed PNG into an (h, w, 3) uint8
    array."""
    if not data.startswith(_SIGNATURE):
        raise RenderError("not a PNG: bad signature")
    pos = len(_SIGNATURE)
    width = height = None
    palette = None
    idat = bytearray()
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        kind = data[pos + 4:pos + 8]
        end = pos + 12 + length
        if end > len(data):
            raise RenderError(
                f"truncated PNG: chunk {kind!r} at offset {pos} needs "
                f"{length + 4} payload+CRC bytes, only {len(data) - pos - 8} left")
        payload = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:end])
        if zlib.crc32(kind + payload) & 0xFFFFFFFF != crc:
            raise RenderError(f"PNG chunk {kind!r}: CRC mismatch")
        if kind == b"IHDR":
            if len(payload) != 13:
                raise RenderError(
                    f"truncated PNG: IHDR payload is {len(payload)} bytes, expected 13")
            width, height, depth, ctype, comp, filt, inter = struct.unpack(
                ">IIBBBBB", payload)
            if depth != 8 or ctype not in (2, 3) or inter != 0:
                raise RenderError(
                    f"unsupported PNG flavor: depth={depth} color={ctype} interlace={inter}")
        elif kind == b"PLTE":
            if len(payload) % 3:
                raise RenderError(
                    f"PNG PLTE is {len(payload)} bytes, not a multiple of 3")
            if not 1 <= len(payload) // 3 <= 256:
                raise RenderError(
                    f"PNG PLTE has {len(payload) // 3} entries, not 1-256")
            palette = np.frombuffer(payload, np.uint8).reshape(-1, 3)
        elif kind == b"IDAT":
            idat.extend(payload)
        elif kind == b"IEND":
            break
        pos += 12 + length
    if width is None or height is None:
        raise RenderError("PNG without IHDR")
    indexed = ctype == 3
    if indexed and palette is None:
        raise RenderError("indexed PNG without PLTE")

    raw = zlib.decompress(bytes(idat))
    bpp = 1 if indexed else 3
    stride = width * bpp
    if len(raw) != height * (stride + 1):
        raise RenderError(
            f"PNG data length {len(raw)} != expected {height * (stride + 1)}")
    with _obs.span("render.png.decode", rows=height):
        scan = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
        ftypes = scan[:, 0]
        data_rows = scan[:, 1:]
        img = np.empty((height, stride), dtype=np.uint8)
        prev = np.zeros(stride, dtype=np.uint8)
        for y in range(height):
            ftype = ftypes[y]
            if ftype == 0:
                img[y] = data_rows[y]
            elif ftype == 1:  # Sub: modular cumulative sum along the row
                img[y] = data_rows[y].reshape(width, bpp).cumsum(
                    axis=0, dtype=np.uint8).reshape(stride)
            elif ftype == 2:  # Up
                img[y] = data_rows[y] + prev
            elif ftype == 3:  # Average
                img[y] = _unfilter_average(data_rows[y], prev, bpp)
            elif ftype == 4:  # Paeth
                img[y] = _unfilter_paeth(data_rows[y], prev, bpp)
            else:
                raise RenderError(f"PNG row {y}: unknown filter {ftype}")
            prev = img[y]
        if not indexed:
            return img.reshape(height, width, 3)
        if img.size and int(img.max()) >= len(palette):
            raise RenderError(
                f"PNG index {int(img.max())} is past the {len(palette)}-entry PLTE")
        return np.take(palette, img, axis=0)
