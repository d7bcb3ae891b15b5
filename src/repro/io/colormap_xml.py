"""Reader/writer for the color-map XML format (paper Figure 2).

.. code-block:: xml

    <cmap name="standard_map">
      <conf name="min_font_size_label" value="11"/>
      <task id="computation">
        <color type="fg" rgb="FFFFFF"/>
        <color type="bg" rgb="0000FF"/>
      </task>
      <composite>
        <task id="computation"/>
        <task id="transfer"/>
        <color type="fg" rgb="FFFFFF"/>
        <color type="bg" rgb="ff6200"/>
      </composite>
    </cmap>
"""

from __future__ import annotations

import io as _io
import xml.etree.ElementTree as ET
from pathlib import Path

from repro.core.colormap import Color, ColorMap, CompositeRule, TaskStyle
from repro.errors import ColorError, ParseError

__all__ = ["loads", "load", "dumps", "dump"]


def _parse_colors(elem: ET.Element, *, source: str) -> tuple[Color | None, Color | None]:
    """Extract (bg, fg) from the <color> children of an element."""
    bg = fg = None
    for ce in elem.findall("color"):
        kind = ce.get("type")
        rgb = ce.get("rgb")
        if kind not in ("fg", "bg") or rgb is None:
            raise ParseError("<color> needs type=fg|bg and rgb=", source=source)
        try:
            color = Color.from_hex(rgb)
        except ColorError as exc:
            raise ParseError(str(exc), source=source) from exc
        if kind == "bg":
            bg = color
        else:
            fg = color
    return bg, fg


def loads(text: str | bytes, *, source: str = "<string>") -> ColorMap:
    """Parse a color-map XML document.

    Bytes are decoded as the XML encoding declaration says (UTF-8 when
    there is none); a ``str`` is taken as already decoded.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}", source=source) from exc
    except (LookupError, ValueError) as exc:
        # expat raises these for a declared encoding it lacks, e.g.
        # encoding="klingon", or a multi-byte one such as Shift_JIS
        raise ParseError(f"unsupported encoding: {exc}", source=source) from exc
    if root.tag != "cmap":
        raise ParseError(f"root element is <{root.tag}>, expected <cmap>", source=source)

    cmap = ColorMap(root.get("name", "unnamed"))
    for conf in root.findall("conf"):
        name, value = conf.get("name"), conf.get("value")
        if name is None or value is None:
            raise ParseError("<conf> needs name= and value=", source=source)
        cmap.config[name] = value

    for task in root.findall("task"):
        task_id = task.get("id")
        if task_id is None:
            raise ParseError("<task> needs id=", source=source)
        bg, fg = _parse_colors(task, source=source)
        if bg is None:
            raise ParseError(f"task {task_id!r} defines no bg color", source=source)
        cmap.set_style(task_id, bg, fg)

    for comp in root.findall("composite"):
        member_types = [t.get("id") for t in comp.findall("task")]
        if not member_types or any(m is None for m in member_types):
            raise ParseError("<composite> needs member <task id=...> entries",
                             source=source)
        bg, fg = _parse_colors(comp, source=source)
        if bg is None:
            raise ParseError("<composite> defines no bg color", source=source)
        cmap.add_composite_rule([str(m) for m in member_types], bg, fg)
    return cmap


def load(path: str | Path) -> ColorMap:
    path = Path(path)
    return loads(path.read_bytes(), source=str(path))


def dumps(cmap: ColorMap, *, indent: bool = True) -> str:
    """Serialize a color map to XML."""
    root = ET.Element("cmap", name=cmap.name)
    for k, v in cmap.config.items():
        ET.SubElement(root, "conf", name=k, value=str(v))
    for task_type in cmap.task_types:
        style = cmap.style_for_type(task_type)
        te = ET.SubElement(root, "task", id=task_type)
        if style.fg is not None:
            ET.SubElement(te, "color", type="fg", rgb=style.fg.hex())
        ET.SubElement(te, "color", type="bg", rgb=style.bg.hex())
    for rule in cmap.composite_rules:
        ce = ET.SubElement(root, "composite")
        for member in sorted(rule.member_types):
            ET.SubElement(ce, "task", id=member)
        if rule.style.fg is not None:
            ET.SubElement(ce, "color", type="fg", rgb=rule.style.fg.hex())
        ET.SubElement(ce, "color", type="bg", rgb=rule.style.bg.hex())
    if indent:
        ET.indent(root)
    buf = _io.BytesIO()
    ET.ElementTree(root).write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue().decode("utf-8") + "\n"


def dump(cmap: ColorMap, path: str | Path, **kwargs) -> None:
    Path(path).write_text(dumps(cmap, **kwargs), encoding="utf-8")
