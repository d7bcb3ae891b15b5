"""Minimal PDF 1.4 vector backend, written from the PDF specification.

Produces a single-page document with one content stream and the 14 standard
fonts' Helvetica (no embedding needed).  Covers exactly the primitive
vocabulary of :mod:`repro.render.geometry`: filled/stroked rectangles,
lines, and (optionally rotated) text.  The PDF y axis grows upward, so all
coordinates are flipped against the drawing height.
"""

from __future__ import annotations

import zlib

from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign
from repro.render.layout import estimate_text_width

__all__ = ["render_pdf"]


def _num(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".") or "0"


def _escape(text: str) -> str:
    """Escape a string for a PDF (and PostScript) literal string object."""
    out = []
    for ch in text:
        if ch in "()\\":
            out.append("\\" + ch)
        elif 32 <= ord(ch) < 127:
            out.append(ch)
        else:
            # Latin-1 best effort; other glyphs become '?'
            code = ord(ch)
            out.append(f"\\{code:03o}" if code < 256 else "?")
    return "".join(out)


def _anchor(item: Text) -> tuple[float, float]:
    """Offsets ``(dx, dy)`` of a text's baseline start from its anchor.

    ``dx`` runs along the reading direction, ``dy`` across it (device y
    down), so a rotated text applies them along the rotated axes.
    """
    width = estimate_text_width(item.text, item.size)
    dx = {HAlign.LEFT: 0.0, HAlign.CENTER: -width / 2, HAlign.RIGHT: -width}[item.halign]
    dy = {VAlign.TOP: item.size * 0.8, VAlign.MIDDLE: item.size * 0.32,
          VAlign.BOTTOM: 0.0}[item.valign]
    return dx, dy


def _content_stream(drawing: Drawing) -> bytes:
    H = drawing.height
    ops: list[str] = []

    def set_fill(c) -> None:
        r, g, b = c.rgb01()
        ops.append(f"{_num(r)} {_num(g)} {_num(b)} rg")

    def set_stroke(c) -> None:
        r, g, b = c.rgb01()
        ops.append(f"{_num(r)} {_num(g)} {_num(b)} RG")

    # page background
    set_fill(drawing.background)
    ops.append(f"0 0 {_num(drawing.width)} {_num(H)} re f")

    for item in drawing:
        if isinstance(item, Rect):
            y = H - item.y - item.h
            if item.fill is not None:
                set_fill(item.fill)
                ops.append(f"{_num(item.x)} {_num(y)} {_num(item.w)} {_num(item.h)} re f")
            if item.stroke is not None:
                set_stroke(item.stroke)
                ops.append(f"{_num(item.stroke_width)} w")
                ops.append(f"{_num(item.x)} {_num(y)} {_num(item.w)} {_num(item.h)} re S")
        elif isinstance(item, Line):
            set_stroke(item.color)
            ops.append(f"{_num(item.width)} w")
            ops.append(f"{_num(item.x0)} {_num(H - item.y0)} m "
                       f"{_num(item.x1)} {_num(H - item.y1)} l S")
        elif isinstance(item, Text):
            if not item.text:
                continue
            dx, dy = _anchor(item)
            set_fill(item.color)
            ops.append("BT")
            ops.append(f"/F1 {_num(item.size)} Tf")
            if item.rotated:
                # 90 deg CCW on screen: text reads bottom-to-top.
                tx = item.x + dy
                ty = H - (item.y + dx)
                ops.append(f"0 1 -1 0 {_num(tx)} {_num(ty)} Tm")
            else:
                tx = item.x + dx
                ty = H - (item.y + dy)
                ops.append(f"1 0 0 1 {_num(tx)} {_num(ty)} Tm")
            ops.append(f"({_escape(item.text)}) Tj")
            ops.append("ET")
    return "\n".join(ops).encode("latin-1", "replace")


def render_pdf(drawing: Drawing) -> bytes:
    """Serialize a drawing as a single-page PDF document."""
    content = _content_stream(drawing)
    compressed = zlib.compress(content)

    objects: list[bytes] = []
    objects.append(b"<< /Type /Catalog /Pages 2 0 R >>")
    objects.append(b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>")
    objects.append(
        f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 {drawing.width} {drawing.height}] "
        f"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >>".encode("ascii"))
    objects.append(
        f"<< /Length {len(compressed)} /Filter /FlateDecode >>\nstream\n".encode("ascii")
        + compressed + b"\nendstream")
    objects.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")

    out = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets = [0]
    for i, obj in enumerate(objects, start=1):
        offsets.append(len(out))
        out += f"{i} 0 obj\n".encode("ascii") + obj + b"\nendobj\n"
    xref_pos = len(out)
    out += f"xref\n0 {len(objects) + 1}\n".encode("ascii")
    out += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        out += f"{off:010d} 00000 n \n".encode("ascii")
    out += (f"trailer\n<< /Size {len(objects) + 1} /Root 1 0 R >>\n"
            f"startxref\n{xref_pos}\n%%EOF\n").encode("ascii")
    return bytes(out)
