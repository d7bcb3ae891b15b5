"""Encapsulated PostScript vector backend.

Like the PDF backend but emitting plain PostScript with a proper bounding
box, so schedules can be included in LaTeX documents the way the paper's
figures were.
"""

from __future__ import annotations

from repro.render.backends.pdf import _anchor, _escape, _num
from repro.render.geometry import Drawing, Line, Rect, Text

__all__ = ["render_eps"]


def render_eps(drawing: Drawing) -> bytes:
    """Serialize a drawing as an EPS document."""
    H = drawing.height
    lines: list[str] = [
        "%!PS-Adobe-3.0 EPSF-3.0",
        f"%%BoundingBox: 0 0 {drawing.width} {drawing.height}",
        "%%Creator: repro (Jedule reproduction)",
        "%%LanguageLevel: 2",
        "%%Pages: 1",
        "%%EndComments",
        "/rectfill2 { 4 2 roll moveto 1 index 0 rlineto 0 exch rlineto "
        "neg 0 rlineto closepath fill } bind def",
        "/rectstroke2 { 4 2 roll moveto 1 index 0 rlineto 0 exch rlineto "
        "neg 0 rlineto closepath stroke } bind def",
    ]

    def rgb(c) -> str:
        r, g, b = c.rgb01()
        return f"{_num(r)} {_num(g)} {_num(b)} setrgbcolor"

    lines.append(rgb(drawing.background))
    lines.append(f"0 0 {_num(drawing.width)} {_num(H)} rectfill2")

    for item in drawing:
        if isinstance(item, Rect):
            y = H - item.y - item.h
            if item.fill is not None:
                lines.append(rgb(item.fill))
                lines.append(f"{_num(item.x)} {_num(y)} {_num(item.w)} {_num(item.h)} rectfill2")
            if item.stroke is not None:
                lines.append(rgb(item.stroke))
                lines.append(f"{_num(item.stroke_width)} setlinewidth")
                lines.append(f"{_num(item.x)} {_num(y)} {_num(item.w)} {_num(item.h)} rectstroke2")
        elif isinstance(item, Line):
            lines.append(rgb(item.color))
            lines.append(f"{_num(item.width)} setlinewidth")
            lines.append(f"newpath {_num(item.x0)} {_num(H - item.y0)} moveto "
                         f"{_num(item.x1)} {_num(H - item.y1)} lineto stroke")
        elif isinstance(item, Text):
            if not item.text:
                continue
            dx, dy = _anchor(item)
            lines.append(rgb(item.color))
            lines.append(f"/Helvetica findfont {_num(item.size)} scalefont setfont")
            if item.rotated:
                lines.append("gsave")
                lines.append(f"{_num(item.x + dy)} {_num(H - item.y)} translate 90 rotate")
                lines.append(f"{_num(dx)} 0 moveto ({_escape(item.text)}) show")
                lines.append("grestore")
            else:
                lines.append(f"{_num(item.x + dx)} {_num(H - item.y - dy)} moveto "
                             f"({_escape(item.text)}) show")
    lines.append("showpage")
    lines.append("%%EOF")
    return ("\n".join(lines) + "\n").encode("latin-1", "replace")
