"""Tests for the from-scratch PNG encoder/decoder."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.core.colormap import Color
from repro.errors import RenderError
from repro.render import png_codec
from repro.render.backends.png import render_png
from repro.render.geometry import Drawing, Line, Rect, Text
from repro.render.png_codec import decode_png, encode_indexed, encode_png, gather
from repro.render.raster import RasterImage, rasterize


def _random_image(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_signature_and_chunks():
    data = encode_png(np.zeros((2, 2, 3), dtype=np.uint8))
    assert data.startswith(b"\x89PNG\r\n\x1a\n")
    assert b"IHDR" in data and b"IDAT" in data and data.rstrip().endswith(b"IEND" + data[-4:].rstrip())


def _ihdr(data: bytes) -> tuple[int, int, int, int]:
    """(width, height, bit depth, colour type) of an encoded PNG."""
    at = data.index(b"IHDR") + 4
    return struct.unpack(">IIBB", data[at:at + 10])


def _chunk_payload(data: bytes, kind: bytes) -> bytes | None:
    pos = 8
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        if data[pos + 4:pos + 8] == kind:
            return data[pos + 8:pos + 8 + length]
        pos += 12 + length
    return None


def test_ihdr_fields():
    """One colour encodes as indexed colour (type 3), noise of more than
    256 colours as truecolour (type 2); both at bit depth 8."""
    assert _ihdr(encode_png(np.zeros((7, 13, 3), dtype=np.uint8))) == (13, 7, 8, 3)
    assert _ihdr(encode_png(_random_image(17, 31))) == (31, 17, 8, 2)


@pytest.mark.parametrize("colors, ctype", [(256, 3), (257, 2)])
def test_palette_limit_picks_the_colour_type(colors, ctype):
    """Up to 256 colours fit a PLTE, listed in ascending RGB order."""
    rng = np.random.default_rng(colors)
    keys = rng.choice(1 << 24, size=colors, replace=False)
    rgb = (np.stack([keys >> 16, keys >> 8, keys], axis=-1) & 0xFF).astype(np.uint8)
    index = rng.integers(0, colors, (20, 40))
    index.flat[:colors] = np.arange(colors)  # every colour appears
    img = rgb[index]
    data = encode_png(img)
    assert _ihdr(data)[3] == ctype
    assert np.array_equal(decode_png(data), img)
    plte = _chunk_payload(data, b"PLTE")
    if ctype == 2:
        assert plte is None
    else:
        entries = [tuple(e) for e in
                   np.frombuffer(plte, np.uint8).reshape(-1, 3).tolist()]
        assert len(entries) == colors
        assert entries == sorted(entries)


def test_roundtrip_solid():
    img = np.full((10, 20, 3), 77, dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png(img)), img)


def test_roundtrip_random():
    img = _random_image(31, 17)
    assert np.array_equal(decode_png(encode_png(img)), img)


def test_roundtrip_gradient():
    """Gradients exercise the Sub/Up filters."""
    y, x = np.mgrid[0:40, 0:60]
    img = np.stack([(x * 4) % 256, (y * 6) % 256, ((x + y) * 2) % 256],
                   axis=-1).astype(np.uint8)
    assert np.array_equal(decode_png(encode_png(img)), img)


def test_roundtrip_single_pixel():
    img = np.array([[[1, 2, 3]]], dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png(img)), img)


@pytest.mark.parametrize("level", [0, 1, 9])
def test_compression_levels(level):
    img = _random_image(16, 16, seed=3)
    assert np.array_equal(decode_png(encode_png(img, compress_level=level)), img)


def test_bad_input_shape_rejected():
    with pytest.raises(RenderError):
        encode_png(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(RenderError):
        encode_png(np.zeros((4, 4, 3), dtype=np.float64))
    with pytest.raises(RenderError):  # PNG has no empty images
        encode_png(np.zeros((0, 4, 3), dtype=np.uint8))


def test_decode_rejects_non_png():
    with pytest.raises(RenderError, match="bad signature"):
        decode_png(b"GIF89a....")


def test_decode_detects_crc_corruption():
    data = bytearray(encode_png(_random_image(8, 8)))
    idat = data.index(b"IDAT")
    data[idat + 10] ^= 0xFF
    with pytest.raises(RenderError, match="CRC"):
        decode_png(bytes(data))


def test_decode_rejects_unsupported_color_type():
    # hand-craft a grayscale IHDR
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 0, 0, 0, 0)
    chunk = struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr + struct.pack(
        ">I", zlib.crc32(b"IHDR" + ihdr) & 0xFFFFFFFF)
    with pytest.raises(RenderError, match="unsupported"):
        decode_png(b"\x89PNG\r\n\x1a\n" + chunk)


def test_decode_all_filter_types():
    """Craft a PNG using every filter type explicitly and decode it."""
    w = 4
    rows = [
        (0, bytes([10, 20, 30] * w)),
        (1, bytes([5, 5, 5] + [1, 2, 3] * (w - 1))),
        (2, bytes([7, 7, 7] * w)),
        (3, bytes([9, 9, 9] * w)),
        (4, bytes([11, 11, 11] * w)),
    ]
    raw = b"".join(bytes([f]) + payload for f, payload in rows)
    ihdr = struct.pack(">IIBBBBB", w, len(rows), 8, 2, 0, 0, 0)

    def chunk(kind, payload):
        return (struct.pack(">I", len(payload)) + kind + payload
                + struct.pack(">I", zlib.crc32(kind + payload) & 0xFFFFFFFF))

    data = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))
    img = decode_png(data)
    assert img.shape == (5, 4, 3)
    # row 0: filter None -> literal
    assert tuple(img[0, 0]) == (10, 20, 30)
    # row 1: Sub -> cumulative along the row
    assert tuple(img[1, 1]) == (6, 7, 8)
    # row 2: Up -> adds row 1
    assert tuple(img[2, 0]) == (12, 12, 12)


def _make_chunk(kind: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + kind + payload
            + struct.pack(">I", zlib.crc32(kind + payload) & 0xFFFFFFFF))


def _unfilter_reference(rows, w, bpp=3):
    """Scalar reference unfiltering straight from the PNG spec pseudocode;
    ``bpp`` bytes per pixel (3 for RGB, 1 for palette indices)."""
    stride = w * bpp
    prev = [0] * stride
    out = []
    for ftype, payload in rows:
        line = list(payload)
        for x in range(stride):
            left = line[x - bpp] if x >= bpp else 0
            up = prev[x]
            ul = prev[x - bpp] if x >= bpp else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = left
            elif ftype == 2:
                pred = up
            elif ftype == 3:
                pred = (left + up) // 2
            else:  # Paeth
                p = left + up - ul
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                pred = left if pa <= pb and pa <= pc else (up if pb <= pc else ul)
            line[x] = (line[x] + pred) & 0xFF
        prev = line
        out.append(line)
    return np.array(out, dtype=np.uint8).reshape(len(rows), w, bpp)


def _fixture_png(w: int, rows, ctype: int = 2, plte: bytes | None = None) -> bytes:
    """A hand-built 8-bit PNG of pre-filtered ``(ftype, payload)`` rows."""
    raw = b"".join(bytes([f]) + payload for f, payload in rows)
    ihdr = struct.pack(">IIBBBBB", w, len(rows), 8, ctype, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + _make_chunk(b"IHDR", ihdr)
            + (_make_chunk(b"PLTE", plte) if plte is not None else b"")
            + _make_chunk(b"IDAT", zlib.compress(raw)) + _make_chunk(b"IEND", b""))


def _random_rows(rng, ftypes, nbytes):
    return [(f, bytes(rng.integers(0, 256, nbytes, dtype=np.uint8).tolist()))
            for f in ftypes]


#: a full 256-entry palette, so every unfiltered index byte is valid
_PLTE = np.random.default_rng(256).integers(0, 256, 768, dtype=np.uint8).tobytes()


def _indexed_reference(rows, w):
    palette = np.frombuffer(_PLTE, np.uint8).reshape(256, 3)
    return palette[_unfilter_reference(rows, w, bpp=1)[..., 0]]


@pytest.mark.parametrize("ftype, ctype", [
    pytest.param(3, 2, id="3"), pytest.param(4, 2, id="4"),
    pytest.param(3, 3, id="indexed-3"), pytest.param(4, 3, id="indexed-4")])
def test_decode_average_paeth_match_reference(ftype, ctype):
    """Filters 3 (Average) and 4 (Paeth) against a scalar reference, over
    RGB (3-byte left neighbour) and palette indices (1-byte)."""
    rng = np.random.default_rng(ftype)
    w, nrows = 5, 4
    if ctype == 2:
        rows = _random_rows(rng, [ftype] * nrows, w * 3)
        want = _unfilter_reference(rows, w)
    else:
        rows = _random_rows(rng, [ftype] * nrows, w)
        want = _indexed_reference(rows, w)
    plte = _PLTE if ctype == 3 else None
    assert np.array_equal(decode_png(_fixture_png(w, rows, ctype, plte)), want)


def _idat_filter_bytes(data: bytes, height: int, stride: int) -> set[int]:
    """The per-row filter types an encoded PNG actually used."""
    idat = bytearray()
    pos = 8
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        if data[pos + 4:pos + 8] == b"IDAT":
            idat.extend(data[pos + 8:pos + 8 + length])
        pos += 12 + length
    raw = zlib.decompress(bytes(idat))
    return {raw[y * (stride + 1)] for y in range(height)}


def test_encoder_exercises_every_filter_choice_roundtrip():
    """An image whose rows favor None, Sub and Up respectively must use
    all three encoder filters and still round-trip pixel-exactly."""
    rng = np.random.default_rng(11)
    h, w = 12, 64
    img = np.empty((h, w, 3), np.uint8)
    img[0:4] = rng.integers(0, 256, (4, w, 3))          # noise -> None
    ramp = (np.arange(w, dtype=np.int32) * 3 % 256).astype(np.uint8)
    img[4:8] = np.stack([ramp, ramp, ramp], axis=-1)    # h-gradient -> Sub
    img[8:12] = img[4:8]                                 # repeats -> Up
    data = encode_png(img)
    used = _idat_filter_bytes(data, h, w * 3)
    assert {0, 1, 2} <= used
    assert np.array_equal(decode_png(data), img)


def test_decode_mixed_filters_match_reference():
    """Every filter type interleaved in one foreign-encoder image."""
    rng = np.random.default_rng(5)
    w = 7
    rows = _random_rows(rng, [0, 4, 3, 2, 1, 3, 4, 0, 2], w * 3)
    assert np.array_equal(decode_png(_fixture_png(w, rows)),
                          _unfilter_reference(rows, w))


def test_decode_indexed_mixed_filters_match_reference():
    """The same for an indexed image: every filter over 1-byte indices,
    then the palette gather."""
    rng = np.random.default_rng(6)
    w = 9
    rows = _random_rows(rng, [0, 1, 2, 3, 4, 4, 3, 2, 1, 0, 1], w)
    img = decode_png(_fixture_png(w, rows, 3, _PLTE))
    assert img.shape == (11, 9, 3)
    assert np.array_equal(img, _indexed_reference(rows, w))


@pytest.mark.parametrize("plte, match", [
    pytest.param(None, "indexed PNG without PLTE", id="no-plte"),
    pytest.param(bytes(7), "not a multiple of 3", id="ragged-plte"),
    pytest.param(bytes(3 * 257), "257 entries", id="long-plte"),
    pytest.param(bytes(3 * 2), "index 2 is past the 2-entry PLTE",
                 id="index-past-plte"),
])
def test_decode_rejects_bad_palette(plte, match):
    rows = [(0, bytes([0, 1, 2, 1])), (2, bytes([0, 0, 0, 0]))]
    with pytest.raises(RenderError, match=match):
        decode_png(_fixture_png(4, rows, 3, plte))


def test_roundtrip_non_contiguous_input():
    img = _random_image(30, 30, seed=9)[::2, ::2]
    assert not img.flags["C_CONTIGUOUS"]
    assert np.array_equal(decode_png(encode_png(img)), img)


def test_roundtrip_wide_image():
    """Wide rows exercise the cumulative-sum Sub unfiltering path."""
    ramp = (np.arange(2048, dtype=np.int64) % 256).astype(np.uint8)
    third = (np.arange(2048, dtype=np.int64) * 7 % 256).astype(np.uint8)
    img = np.stack([ramp, ramp[::-1], third], axis=-1)[None, :, :]
    img = np.repeat(img, 5, axis=0)
    assert np.array_equal(decode_png(encode_png(img)), img)


def test_decode_truncated_inside_idat():
    """A file cut mid-chunk must raise RenderError, not a raw struct.error."""
    data = encode_png(_random_image(8, 8))
    cut = data[:data.index(b"IDAT") + 10]
    with pytest.raises(RenderError, match="truncated PNG.*offset"):
        decode_png(cut)


def test_decode_truncated_inside_iend_crc():
    data = encode_png(_random_image(6, 6))
    with pytest.raises(RenderError, match="truncated"):
        decode_png(data[:-2])


def test_decode_truncated_ihdr_payload():
    short = struct.pack(">IIB", 4, 4, 8)  # 9 of the 13 IHDR bytes
    data = b"\x89PNG\r\n\x1a\n" + _make_chunk(b"IHDR", short)
    with pytest.raises(RenderError, match="IHDR"):
        decode_png(data)


# ------------------------------------------------ the index-canvas entry


def _palette_of(*rgb: int) -> np.ndarray:
    return np.array([(c >> 16, c >> 8 & 0xFF, c & 0xFF) for c in rgb], np.uint8)


@pytest.mark.parametrize("canvas, palette, ctype", [
    pytest.param(np.zeros((1, 1), np.uint8), _palette_of(0x123456), 3,
                 id="1x1"),
    pytest.param(np.full((5, 9), 2, np.uint8),
                 _palette_of(0xFFFFFF, 0x00FF00, 0x102030), 3,
                 id="one-colour-of-three"),
    pytest.param(np.array([[3, 3, 1], [1, 3, 3]], np.uint8),
                 _palette_of(0xFFFFFF, 0x800000, 0x008000, 0x000080), 3,
                 id="unpainted-entries"),
    pytest.param(np.array([[0, 1, 2, 3]], np.uint8),
                 _palette_of(0x0000FF, 0xFF0000, 0x0000FF, 0x00FF00), 3,
                 id="repeated-colours"),
    pytest.param(np.array([[0, 299, 150], [299, 0, 7]], np.uint16),
                 _palette_of(*range(0, 300 * 9, 9)), 3,
                 id="uint16-three-present"),
    pytest.param(np.arange(300, dtype=np.uint16).reshape(15, 20),
                 _palette_of(*range(0, 300 * 9, 9)), 2,
                 id="uint16-300-present"),
    pytest.param(np.array([[0, 299, 150], [299, 0, 7]], np.uint32),
                 _palette_of(*range(0, 300 * 9, 9)), 3,
                 id="uint32-three-present"),
    pytest.param(np.arange(300, dtype=np.uint32).reshape(15, 20),
                 _palette_of(*range(0, 300 * 9, 9)), 2,
                 id="uint32-300-present"),
])
def test_encode_indexed_writes_what_encode_png_writes(canvas, palette, ctype):
    """The same bytes as the RGB entry point over ``palette[canvas]``: a
    colour only counts if a pixel shows it, and one that two entries
    share counts once."""
    data = encode_indexed(canvas, palette)
    assert data == encode_png(palette[canvas])
    assert _ihdr(data) == (canvas.shape[1], canvas.shape[0], 8, ctype)
    assert np.array_equal(decode_png(data), palette[canvas])


def test_encode_indexed_takes_a_non_contiguous_canvas():
    canvas = (np.arange(64, dtype=np.uint8).reshape(8, 8) % 5)[::2, 1::3]
    palette = _palette_of(0xFF0000, 0x00FF00, 0x0000FF, 0x000000, 0xFFFFFF)
    assert not canvas.flags["C_CONTIGUOUS"]
    assert encode_indexed(canvas, palette) == encode_png(palette[canvas])


@pytest.mark.parametrize("shown", [200, 300])
@pytest.mark.parametrize("band", [1, 60, 200, 1 << 16])
def test_encode_indexed_gathers_in_bands(monkeypatch, shown, band):
    """A wide canvas is remapped (at most 256 colours shown) or gathered
    to RGB (more) a band of rows at a time; the band edges lose
    nothing."""
    monkeypatch.setattr(png_codec, "_GATHER_PIXELS", band)
    rng = np.random.default_rng(shown)
    palette = rng.integers(0, 256, (400, 3), dtype=np.uint8)
    entries = rng.choice(400, shown, replace=False)
    flat = np.concatenate([entries, rng.choice(entries, 20 * 25 - shown)])
    rng.shuffle(flat)
    canvas = flat.reshape(20, 25).astype(np.uint16)
    assert np.array_equal(gather(palette, canvas), palette[canvas])
    data = encode_indexed(canvas, palette)
    assert data == encode_png(palette[canvas])
    assert _ihdr(data)[3] == (3 if shown <= 256 else 2)


@pytest.mark.parametrize("canvas, palette, match", [
    pytest.param(np.zeros((4, 4, 3), np.uint8), _palette_of(0), "canvas",
                 id="rgb-canvas"),
    pytest.param(np.zeros((4, 4), np.int32), _palette_of(0), "canvas",
                 id="int32-canvas"),
    pytest.param(np.zeros((4, 4), bool), _palette_of(0), "canvas",
                 id="bool-canvas"),
    pytest.param(np.zeros((0, 4), np.uint8), _palette_of(0), "canvas",
                 id="empty-canvas"),
    pytest.param(np.zeros((4, 4), np.uint8), np.zeros((2, 4), np.uint8),
                 "palette", id="rgba-palette"),
    pytest.param(np.zeros((4, 4), np.uint8), np.zeros((2, 3), np.int64),
                 "palette", id="int64-palette"),
    pytest.param(np.array([[0, 1], [2, 0]], np.uint8), _palette_of(0, 1),
                 "index 2 is past the 2-entry palette", id="index-past-palette"),
])
def test_encode_indexed_rejects_bad_input(canvas, palette, match):
    with pytest.raises(RenderError, match=match):
        encode_indexed(canvas, palette)


def test_render_png_never_reads_pixels(monkeypatch):
    """A drawing of at most 256 colours goes from the painter's canvas to
    PNG bytes without the RGB gather; the bytes are those of the gather
    encoded.  Red is painted over, so only the other colours show."""
    d = Drawing(60, 40)
    d.add(Rect(5, 5, 20, 10, fill=Color(255, 0, 0)))
    d.add(Rect(0, 0, 30, 20, fill=Color(0, 0, 255), stroke=Color(0, 0, 0)))
    d.add(Line(0, 39, 59, 0, Color(0, 128, 0), 2))
    d.add(Text(40, 30, "ok", color=Color(0, 0, 0)))
    expected = encode_png(rasterize(d).pixels)

    def refuse(self):
        raise AssertionError("render_png read RasterImage.pixels")

    monkeypatch.setattr(RasterImage, "pixels", property(refuse))
    assert render_png(d) == expected


def test_render_png_past_65536_colours():
    """At the 65,537th colour the painter widens its canvas to uint32, and
    render_png still writes what the RGB entry writes for the gathered
    image: truecolour while the colours show, indexed once one rect
    paints them all over."""
    d = Drawing(256, 256)
    for i in range(1 << 16):
        d.add(Rect(i % 256, i // 256, 1, 1, fill=Color(0, i >> 8, i & 0xFF)))
    for ctype in (2, 3):
        img = rasterize(d)
        assert img.canvas.dtype == np.uint32
        data = render_png(d)
        assert data == encode_png(img.pixels)
        assert _ihdr(data)[3] == ctype
        d.add(Rect(0, 0, 256, 256, fill=Color(1, 2, 3)))
