"""Tests for the from-scratch PNG encoder/decoder."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.errors import RenderError
from repro.render.png_codec import decode_png, encode_png


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
