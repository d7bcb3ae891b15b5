"""Tests for the color map XML format (paper Figure 2)."""

from __future__ import annotations

import pytest

from repro.core.colormap import Color, default_colormap
from repro.errors import ParseError
from repro.io import colormap_xml

FIGURE2_DOC = """\
<cmap name="standard_map">
  <conf name="min_font_size_label" value="11"/>
  <conf name="font_size_label" value="13"/>
  <conf name="font_size_axes" value="12"/>
  <task id="computation">
    <color type="fg" rgb="FFFFFF"/>
    <color type="bg" rgb="0000FF"/>
  </task>
  <task id="transfer">
    <color type="fg" rgb="000000"/>
    <color type="bg" rgb="f10000"/>
  </task>
  <composite>
    <task id="computation"/>
    <task id="transfer"/>
    <color type="fg" rgb="FFFFFF"/>
    <color type="bg" rgb="ff6200"/>
  </composite>
</cmap>
"""


def test_parse_figure2_example():
    cmap = colormap_xml.loads(FIGURE2_DOC)
    assert cmap.name == "standard_map"
    assert cmap.config["min_font_size_label"] == "11"
    comp = cmap.style_for_type("computation")
    assert comp.bg == Color.from_hex("0000FF")
    assert comp.fg == Color(255, 255, 255)
    rule = cmap.composite_style(["transfer", "computation"])
    assert rule is not None and rule.bg == Color.from_hex("FF6200")


def test_roundtrip_default_map():
    text = colormap_xml.dumps(default_colormap())
    back = colormap_xml.loads(text)
    orig = default_colormap()
    assert back.name == orig.name
    assert set(back.task_types) == set(orig.task_types)
    for t in orig.task_types:
        assert back.style_for_type(t) == orig.style_for_type(t)
    assert len(back.composite_rules) == len(orig.composite_rules)
    assert back.config == orig.config


def test_file_roundtrip(tmp_path):
    path = tmp_path / "map.xml"
    colormap_xml.dump(default_colormap(), path)
    assert colormap_xml.load(path).name == "standard_map"


def test_wrong_root_rejected():
    with pytest.raises(ParseError, match="expected <cmap>"):
        colormap_xml.loads("<colors/>")


def test_task_without_id_rejected():
    with pytest.raises(ParseError, match="needs id"):
        colormap_xml.loads('<cmap><task><color type="bg" rgb="000000"/></task></cmap>')


def test_task_without_bg_rejected():
    with pytest.raises(ParseError, match="no bg color"):
        colormap_xml.loads('<cmap><task id="x"><color type="fg" rgb="000000"/></task></cmap>')


def test_bad_color_type_rejected():
    with pytest.raises(ParseError, match="type=fg|bg"):
        colormap_xml.loads('<cmap><task id="x"><color type="mid" rgb="000000"/></task></cmap>')


def test_bad_rgb_rejected():
    with pytest.raises(ParseError, match="bad hex"):
        colormap_xml.loads('<cmap><task id="x"><color type="bg" rgb="XYZ123"/></task></cmap>')


def test_composite_without_members_rejected():
    with pytest.raises(ParseError, match="member"):
        colormap_xml.loads('<cmap><composite><color type="bg" rgb="000000"/></composite></cmap>')


def test_conf_without_value_rejected():
    with pytest.raises(ParseError, match="<conf>"):
        colormap_xml.loads('<cmap><conf name="x"/></cmap>')


LATIN1_MAP = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n'
              '<cmap name="carte"><task id="réseau">'
              '<color type="bg" rgb="00AA00"/></task></cmap>')


def test_declared_encoding_is_honoured(tmp_path):
    path = tmp_path / "map.xml"
    path.write_bytes(LATIN1_MAP.encode("latin-1"))
    cmap = colormap_xml.load(path)
    assert cmap.task_types == ("réseau",)
    assert cmap.style_for_type("réseau").bg == Color.from_hex("00AA00")
    assert colormap_xml.loads(LATIN1_MAP.encode("latin-1")).task_types == ("réseau",)
    # a str is already decoded text: its declaration no longer applies
    assert colormap_xml.loads(LATIN1_MAP).task_types == ("réseau",)


@pytest.mark.parametrize("declaration,pattern", [
    ("", "malformed XML"),  # latin-1 byte in a UTF-8 document
    ('<?xml version="1.0" encoding="klingon"?>', "unsupported encoding"),
    ('<?xml version="1.0" encoding="shift_jis"?>', "unsupported encoding"),
], ids=["latin1-byte-in-utf8", "unknown-encoding", "multibyte-encoding"])
def test_undecodable_bytes_name_the_file(tmp_path, declaration, pattern):
    path = tmp_path / "bad.xml"
    path.write_bytes((declaration + '<cmap><task id="caf\xe9">'
                      '<color type="bg" rgb="000000"/></task></cmap>').encode("latin-1"))
    with pytest.raises(ParseError, match=pattern) as ei:
        colormap_xml.load(path)
    assert ei.value.source == str(path)
