"""Tests for the pluggable schedule-format registry."""

from __future__ import annotations

import codecs
from pathlib import Path

import pytest

from repro.core.model import Schedule
from repro.errors import ParseError
from repro.io.json_fmt import to_dict
from repro.io.registry import (
    available_formats,
    format_for,
    load_schedule,
    register_format,
    save_schedule,
)
from repro.serve.protocol import canonical_schedule_bytes

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def test_builtin_formats_present():
    formats = available_formats()
    assert {"jedule", "json", "csv"} <= set(formats)


def test_suffix_dispatch(tmp_path, simple_schedule):
    for suffix in (".jed", ".json", ".csv"):
        path = tmp_path / f"s{suffix}"
        save_schedule(simple_schedule, path)
        assert len(load_schedule(path)) == 2


def test_explicit_format_overrides_suffix(tmp_path, simple_schedule):
    path = tmp_path / "schedule.dat"
    save_schedule(simple_schedule, path, format="json")
    back = load_schedule(path, format="json")
    assert len(back) == 2


def test_unknown_suffix_rejected(tmp_path):
    with pytest.raises(ParseError, match="cannot infer"):
        load_schedule(tmp_path / "x.weird")


def test_unknown_format_name_rejected(tmp_path):
    with pytest.raises(ParseError, match="unknown format"):
        load_schedule(tmp_path / "x.jed", format="yaml")


def test_register_custom_format(tmp_path, simple_schedule):
    """The paper's extension point: bundle a different parser."""
    def loader(path):
        s = Schedule()
        s.new_cluster(0, 1)
        for i, line in enumerate(open(path)):
            t0, t1 = map(float, line.split())
            s.new_task(i, "x", t0, t1, cluster=0, host_start=0, host_nb=1)
        return s

    register_format("twocol", (".2col",), loader, overwrite=True)
    path = tmp_path / "data.2col"
    path.write_text("0 1\n2 3\n")
    s = load_schedule(path)
    assert len(s) == 2
    assert s.task("1").end_time == 3.0


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_format("jedule", (".jed",), lambda p: None)


def test_read_only_format(tmp_path, simple_schedule):
    register_format("ro", (".ro",), lambda p: Schedule(), None, overwrite=True)
    with pytest.raises(ParseError, match="read-only"):
        save_schedule(simple_schedule, tmp_path / "x.ro")


def test_format_for_case_insensitive(tmp_path):
    assert format_for(tmp_path / "a.JSON").name == "json"
    assert format_for(tmp_path / "a.xyz", format="JEDULE").name == "jedule"


# ------------------------------------------- content sniffing + direction


def test_sniff_json_under_unknown_suffix(tmp_path, simple_schedule):
    path = tmp_path / "schedule.dat"
    save_schedule(simple_schedule, path, format="json")
    assert len(load_schedule(path)) == 2  # no format, no known suffix


def test_sniff_jedule_without_extension(tmp_path, simple_schedule):
    path = tmp_path / "schedule"
    save_schedule(simple_schedule, path, format="jedule")
    assert format_for(path).name == "jedule"
    assert len(load_schedule(path)) == 2


def test_sniff_jedule_after_a_byte_order_mark(tmp_path):
    """An extension-less ``.jed`` that starts with a UTF-8 BOM loads as the
    same file without one."""
    original = EXAMPLES / "batch" / "fig01_simple.jed"
    path = tmp_path / "schedule"
    path.write_bytes(codecs.BOM_UTF8 + original.read_bytes())
    assert format_for(path).name == "jedule"
    assert to_dict(load_schedule(path)) == to_dict(load_schedule(original))


@pytest.fixture
def fig05_csv(tmp_path_factory):
    """``fig05_heft.json`` saved as CSV."""
    path = tmp_path_factory.mktemp("csv") / "fig05_heft.csv"
    save_schedule(load_schedule(EXAMPLES / "batch" / "fig05_heft.json"), path)
    return path


@pytest.mark.parametrize("original", ["fig05_heft.json", "fig13_thunder.swf",
                                      "csv"])
@pytest.mark.parametrize("suffix", [True, False], ids=["suffix", "no-suffix"])
def test_a_byte_order_mark_reads_as_the_file_without_one(
        tmp_path, fig05_csv, original, suffix):
    """Every text reader, and every sniffer, reads past a leading UTF-8
    BOM: the copy loads to the canonical bytes of the original."""
    source = fig05_csv if original == "csv" else EXAMPLES / "batch" / original
    name = source.name if suffix else source.stem
    (tmp_path / "plain").mkdir()
    (tmp_path / "bom").mkdir()
    plain, bom = tmp_path / "plain" / name, tmp_path / "bom" / name
    plain.write_bytes(source.read_bytes())
    bom.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
    assert canonical_schedule_bytes(load_schedule(bom)) \
        == canonical_schedule_bytes(load_schedule(plain))


def test_sniff_csv_under_txt(tmp_path, simple_schedule):
    path = tmp_path / "schedule.txt"
    save_schedule(simple_schedule, path, format="csv")
    assert len(load_schedule(path)) == 2


def test_sniff_does_not_mask_bad_content(tmp_path):
    path = tmp_path / "mystery.bin"
    path.write_bytes(b"\x00\x01\x02 nothing schedule-like")
    with pytest.raises(ParseError, match="cannot infer"):
        load_schedule(path)


def test_save_never_sniffs_target_content(tmp_path, simple_schedule):
    """A pre-existing file must not decide the format a save dispatches to."""
    path = tmp_path / "out.weird"
    path.write_text("{}")  # looks like JSON
    with pytest.raises(ParseError, match="cannot infer"):
        save_schedule(simple_schedule, path)


def test_swf_format_is_read_only(tmp_path, simple_schedule):
    assert "swf" in available_formats()
    with pytest.raises(ParseError, match="read-only"):
        save_schedule(simple_schedule, tmp_path / "x.swf")


def test_paje_format_is_write_only(tmp_path, simple_schedule):
    assert "paje" in available_formats()
    path = tmp_path / "x.paje"
    save_schedule(simple_schedule, path)
    assert path.stat().st_size > 0
    with pytest.raises(ParseError, match="write-only"):
        load_schedule(path)


def test_swf_loads_as_schedule(tmp_path):
    path = tmp_path / "trace.swf"
    path.write_text("; MaxProcs: 8\n"
                    "1 0.0 0.0 10.0 4 -1 -1 4 10.0 -1 1 7 -1 -1 -1 -1 -1 -1\n"
                    "2 0.0 10.0 5.0 8 -1 -1 8 5.0 -1 1 7 -1 -1 -1 -1 -1 -1\n")
    schedule = load_schedule(path)
    assert len(schedule) == 2
    assert schedule.num_hosts == 8
    assert schedule.task("1").start_time == 0.0
    assert schedule.task("2").start_time == 10.0


def test_registering_formatless_format_rejected():
    with pytest.raises(ValueError, match="needs a loader or a saver"):
        register_format("void", (".void",), None, None, overwrite=True)


def test_swf_schedule_does_not_depend_on_its_directory(tmp_path):
    from repro.serve.protocol import canonical_schedule_bytes

    text = ("; MaxProcs: 8\n"
            "1 0.0 0.0 10.0 4 -1 -1 4 10.0 -1 1 7 -1 -1 -1 -1 -1 -1\n")
    paths = [tmp_path / "a" / "trace.swf", tmp_path / "deeper" / "b" / "trace.swf"]
    for path in paths:
        path.parent.mkdir(parents=True)
        path.write_text(text)
    first, second = (load_schedule(p) for p in paths)
    assert first.meta["source"] == "trace.swf"
    assert canonical_schedule_bytes(first) == canonical_schedule_bytes(second)
