"""Tests for the Jedule XML format (paper Figure 1)."""

from __future__ import annotations

import random
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from repro import obs
from repro.core.model import Configuration, Schedule
from repro.errors import ParseError
from repro.io import jedule_xml


FIGURE1_DOC = """\
<jedule version="1.0">
  <platform>
    <cluster id="0" hosts="8"/>
  </platform>
  <node_infos>
    <node_statistics>
      <node_property name="id" value="1"/>
      <node_property name="type" value="computation"/>
      <node_property name="start_time" value="0.000"/>
      <node_property name="end_time" value="0.310"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <conf_property name="host_nb" value="8"/>
        <host_lists>
          <hosts start="0" nb="8"/>
        </host_lists>
      </configuration>
    </node_statistics>
  </node_infos>
</jedule>
"""


def test_parse_figure1_example():
    s = jedule_xml.loads(FIGURE1_DOC)
    assert len(s.clusters) == 1
    assert s.cluster("0").num_hosts == 8
    task = s.task("1")
    assert task.type == "computation"
    assert task.start_time == 0.0
    assert task.end_time == pytest.approx(0.31)
    assert task.hosts_in("0") == tuple(range(8))


def test_roundtrip_preserves_everything(multi_cluster_schedule):
    multi_cluster_schedule.meta["mindelta"] = "-2"
    text = jedule_xml.dumps(multi_cluster_schedule)
    back = jedule_xml.loads(text)
    assert back.meta == multi_cluster_schedule.meta
    assert [c.id for c in back.clusters] == ["a", "b"]
    assert len(back) == len(multi_cluster_schedule)
    for orig in multi_cluster_schedule:
        t = back.task(orig.id)
        assert t.type == orig.type
        assert t.start_time == orig.start_time
        assert t.end_time == orig.end_time
        assert t.configurations == orig.configurations


def test_roundtrip_task_meta():
    s = Schedule()
    s.new_cluster(0, 2)
    s.new_task(1, "job", 0, 1, cluster=0, host_start=0, host_nb=1,
               meta={"user": "6447", "note": "hello world"})
    back = jedule_xml.loads(jedule_xml.dumps(s))
    assert back.task("1").meta == {"user": "6447", "note": "hello world"}


def test_roundtrip_float_precision():
    s = Schedule()
    s.new_cluster(0, 1)
    s.new_task(1, "x", 0.1 + 0.2, 1.0 / 3.0 + 1, cluster=0, host_start=0, host_nb=1)
    back = jedule_xml.loads(jedule_xml.dumps(s))
    assert back.task("1").start_time == s.task("1").start_time
    assert back.task("1").end_time == s.task("1").end_time


def test_multi_configuration_task_roundtrips():
    s = Schedule()
    s.new_cluster("a", 4)
    s.new_cluster("b", 4)
    s.new_task("comm", "transfer", 0, 1, configurations=[
        Configuration("a", [(0, 2)]), Configuration("b", [(1, 2)])])
    back = jedule_xml.loads(jedule_xml.dumps(s))
    t = back.task("comm")
    assert len(t.configurations) == 2
    assert t.hosts_in("b") == (1, 2)


def test_file_roundtrip(tmp_path, simple_schedule):
    path = tmp_path / "sched.jed"
    jedule_xml.dump(simple_schedule, path)
    back = jedule_xml.load(path)
    assert len(back) == 2


@pytest.mark.parametrize("mutation,pattern", [
    ("<jedule version=\"1.0\">", None),  # placeholder, replaced below
])
def test_error_cases_placeholder(mutation, pattern):
    pass  # parametrized error tests live below as explicit cases


def test_bad_xml_rejected():
    with pytest.raises(ParseError, match="malformed XML"):
        jedule_xml.loads("<jedule><unclosed>")


def test_wrong_root_rejected():
    with pytest.raises(ParseError, match="expected <jedule>"):
        jedule_xml.loads("<notjedule/>")


def test_missing_platform_rejected():
    with pytest.raises(ParseError, match="platform"):
        jedule_xml.loads("<jedule><node_infos/></jedule>")


def test_empty_platform_rejected():
    with pytest.raises(ParseError, match="no clusters"):
        jedule_xml.loads("<jedule><platform/></jedule>")


def test_cluster_missing_attrs_rejected():
    with pytest.raises(ParseError, match="cluster"):
        jedule_xml.loads('<jedule><platform><cluster id="0"/></platform></jedule>')


def test_task_missing_required_property():
    doc = FIGURE1_DOC.replace(
        '<node_property name="type" value="computation"/>', "")
    with pytest.raises(ParseError, match="type"):
        jedule_xml.loads(doc)


def test_task_without_configuration_rejected():
    doc = FIGURE1_DOC.replace(
        FIGURE1_DOC[FIGURE1_DOC.index("<configuration>"):
                    FIGURE1_DOC.index("</configuration>") + len("</configuration>")],
        "")
    with pytest.raises(ParseError, match="no <configuration>"):
        jedule_xml.loads(doc)


def test_host_nb_mismatch_rejected():
    doc = FIGURE1_DOC.replace('name="host_nb" value="8"', 'name="host_nb" value="4"')
    with pytest.raises(ParseError, match="host_nb=4"):
        jedule_xml.loads(doc)


def test_nonnumeric_time_rejected():
    doc = FIGURE1_DOC.replace('name="start_time" value="0.000"',
                              'name="start_time" value="soon"')
    with pytest.raises(ParseError, match="non-numeric"):
        jedule_xml.loads(doc)


def test_bad_hosts_attrs_rejected():
    doc = FIGURE1_DOC.replace('<hosts start="0" nb="8"/>', '<hosts start="x" nb="8"/>')
    with pytest.raises(ParseError, match="integer start"):
        jedule_xml.loads(doc)


def test_source_name_in_error(tmp_path):
    path = tmp_path / "broken.jed"
    path.write_text("<jedule>")
    with pytest.raises(ParseError, match="broken.jed"):
        jedule_xml.load(path)


def test_nonint_host_nb_rejected():
    doc = FIGURE1_DOC.replace('name="host_nb" value="8"',
                              'name="host_nb" value="eight"')
    with pytest.raises(ParseError, match="host_nb must be an integer"):
        jedule_xml.loads(doc)


def test_dumps_cluster_without_name():
    """A cluster whose name is unset must serialize without a name attribute
    instead of handing ElementTree a None value."""
    s = Schedule()
    c = s.new_cluster("c0", 4)
    object.__setattr__(c, "name", None)  # simulate an externally-built cluster
    s.new_task("t", "comp", 0.0, 1.0, cluster="c0", host_start=0, host_nb=2)
    text = jedule_xml.dumps(s)
    platform_part = text[:text.index("<node_infos>")]
    assert "name=" not in platform_part
    back = jedule_xml.loads(text)
    assert back.cluster("c0").num_hosts == 4


def test_parse_span_and_record_count():
    with obs.capture() as trace:
        jedule_xml.loads(FIGURE1_DOC)
    assert trace.find("parse.jedule_xml") is not None
    assert trace.counters["io.records"] == 1


def test_loads_accepts_str_and_bytes():
    from_str = jedule_xml.loads(FIGURE1_DOC)
    from_bytes = jedule_xml.loads(FIGURE1_DOC.encode("utf-8"))
    assert from_str.tasks == from_bytes.tasks
    assert from_str.clusters == from_bytes.clusters


LATIN1_DOC = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n'
              + FIGURE1_DOC.replace('value="computation"', 'value="calcul é"')
                           .replace('hosts="8"', 'hosts="8" name="Zürich"'))


def test_declared_encoding_is_honoured(tmp_path):
    path = tmp_path / "latin1.jed"
    path.write_bytes(LATIN1_DOC.encode("latin-1"))
    s = jedule_xml.load(path)
    assert s.task("1").type == "calcul é"
    assert s.cluster("0").name == "Zürich"
    # a str is already decoded text: its declaration no longer applies
    assert jedule_xml.loads(LATIN1_DOC).task("1").type == "calcul é"


@pytest.mark.parametrize("declaration,payload,pattern", [
    ("", "caf\xe9", "not well-formed"),  # latin-1 byte in a UTF-8 document
    ('<?xml version="1.0" encoding="UTF-8"?>', "\xff", "not well-formed"),
    ('<?xml version="1.0" encoding="klingon"?>', "x", "unknown encoding"),
    ('<?xml version="1.0" encoding="shift_jis"?>', "x", "multi-byte"),
], ids=["latin1-byte-in-utf8", "invalid-utf8", "unknown-encoding", "multibyte-encoding"])
def test_undecodable_bytes_name_the_file(tmp_path, declaration, payload, pattern):
    path = tmp_path / "bad.jed"
    doc = declaration + FIGURE1_DOC.replace('value="computation"', f'value="{payload}"')
    path.write_bytes(doc.encode("latin-1"))
    with pytest.raises(ParseError, match=pattern) as ei:
        jedule_xml.load(path)
    assert ei.value.source == str(path)


_TASK_BLOCK = FIGURE1_DOC[FIGURE1_DOC.index("    <node_statistics>"):
                          FIGURE1_DOC.index("  </node_infos>")]


@pytest.mark.parametrize("old,new,pattern", [
    (_TASK_BLOCK, _TASK_BLOCK * 2, "duplicate task id '1'"),
    ('<cluster id="0" hosts="8"/>', '<cluster id="0" hosts="8"/><cluster id="0" hosts="4"/>',
     "duplicate cluster id '0'"),
    ('<cluster id="0" hosts="8"/>', '<cluster id="0" hosts="0"/>', "must have >= 1 host"),
    ('name="cluster_id" value="0"', 'name="cluster_id" value="9"', "unknown cluster '9'"),
    ('<hosts start="0" nb="8"/>', '<hosts start="4" nb="8"/>', "binds host 11"),
    ('<hosts start="0" nb="8"/>', '<hosts start="-1" nb="8"/>', "start must be >= 0"),
    ('<hosts start="0" nb="8"/>', '<hosts start="0" nb="0"/>', "length must be >= 1"),
    ('name="start_time" value="0.000"', 'name="start_time" value="1.0"',
     "precedes start_time"),
    ('name="end_time" value="0.310"', 'name="end_time" value="nan"', "non-finite"),
], ids=["dup-task", "dup-cluster", "zero-hosts", "unknown-cluster", "host-beyond",
        "negative-start", "zero-nb", "end-before-start", "nan-time"])
def test_model_violations_name_the_file(tmp_path, old, new, pattern):
    assert old in FIGURE1_DOC
    path = tmp_path / "fault.jed"
    path.write_text(FIGURE1_DOC.replace(old, new, 1))
    with pytest.raises(ParseError, match=pattern) as ei:
        jedule_xml.load(path)
    assert ei.value.source == str(path)


_HUGE = "99999999999999999999"  # 20 digits: past int64, and past the scan's 18


@pytest.mark.parametrize("edits", [
    [('<hosts start="0" nb="8"/>', f'<hosts start="{_HUGE}" nb="8"/>')],
    [('<hosts start="0" nb="8"/>', f'<hosts start="0" nb="{_HUGE}"/>'),
     ('name="host_nb" value="8"', f'name="host_nb" value="{_HUGE}"')],
    [('<cluster id="0" hosts="8"/>', f'<cluster id="0" hosts="{_HUGE}"/>')],
], ids=["start", "nb", "cluster-hosts"])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_host_index_past_int64_is_a_parse_error(tmp_path, edits, as_bytes):
    """Expat reads such a value (the scan takes at most 18 digits); the
    task store's int64 columns cannot hold it, so it is a ParseError that
    names the file, not a bare OverflowError."""
    doc = FIGURE1_DOC
    for old, new in edits:
        assert old in doc
        doc = doc.replace(old, new, 1)
    path = tmp_path / "huge.jed"
    path.write_text(doc)
    with pytest.raises(ParseError, match="past int64") as ei:
        if as_bytes:
            jedule_xml.load(path)
        else:
            jedule_xml.loads(doc, source=str(path))
    assert ei.value.source == str(path)


@pytest.mark.parametrize("doc", [
    "",
    "<jedule>",
    "<jedule><a></b></jedule>",
    "<jedule/><jedule/>",
    "<x:jedule/>",
    "<jedule a='1' a='2'/>",
    "<jedule>&undeclared;</jedule>",
    '<!DOCTYPE jedule SYSTEM "j.dtd">\n<jedule>\n  &undeclared;</jedule>',
    "<?xml version='1.0'?>\n<jedule>\n<platform>\x01</platform></jedule>",
], ids=["empty", "unclosed", "mismatched-tag", "two-roots", "unbound-prefix",
        "duplicate-attribute", "undefined-entity", "skipped-entity", "control-char"])
def test_malformed_xml_reports_what_elementtree_reports(doc):
    with pytest.raises(ET.ParseError) as expected:
        ET.fromstring(doc)
    with pytest.raises(ParseError) as ei:
        jedule_xml.loads(doc)
    assert str(ei.value) == f"malformed XML: {expected.value} in <string>"


def test_parse_memory_stays_near_the_document_size():
    """The reader holds no element tree: its peak traced allocation stays
    below twice the document it reads (an ElementTree build peaks near
    10x, and expat alone takes about the document's size), from text and
    from bytes, which the scanner reads in batches."""
    rng = random.Random(7)
    s = Schedule()
    s.new_cluster("c0", 256)
    for i in range(2000):
        start = rng.uniform(0.0, 1e4)
        s.new_task(f"t{i}", rng.choice(["comp", "xfer"]), start,
                   start + rng.uniform(1.0, 100.0), cluster="c0",
                   host_start=rng.randrange(248), host_nb=rng.randint(1, 8))
    doc = jedule_xml.dumps(s)
    for data in (doc, doc.encode("utf-8")):
        jedule_xml.loads(data)  # warm up imports and caches outside the trace
        tracemalloc.start()
        try:
            with obs.capture() as trace:
                back = jedule_xml.loads(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == 2000
        assert trace.find("parse.jedule_xml").attrs["scanned"] == \
            (2000 if isinstance(data, bytes) else 0)
        assert peak < 2 * len(doc.encode("utf-8")), (type(data), peak, len(doc))


def _scanned(data: str | bytes) -> tuple[int, Schedule]:
    """How many tasks the scan read, and the schedule read."""
    with obs.capture() as trace:
        schedule = jedule_xml.loads(data)
    return trace.find("parse.jedule_xml").attrs["scanned"], schedule


@pytest.mark.parametrize("chunk", [1, 1 << 20])
def test_the_scan_reads_every_task_that_dumps_writes_plainly(monkeypatch, chunk):
    """Bytes are scanned before expat reads them, a str is not; a task
    with per-task meta, two configurations or scattered hosts is out of
    the scanned layout, and so is every task after it."""
    monkeypatch.setattr(jedule_xml, "_SCAN_CHUNK", chunk)
    s = Schedule(meta={"algorithm": "demo"})
    s.new_cluster("a", 8)
    s.new_cluster("b", 4, name="second")
    for i in range(6):
        s.new_task(f"t{i}", ["comp", "xfer"][i % 2], float(i), i + 1.5,
                   cluster="ab"[i % 2], host_start=i % 3, host_nb=2)
    for indent in (True, False):
        doc = jedule_xml.dumps(s, indent=indent)
        assert _scanned(doc.encode("utf-8"))[0] == 6
        assert _scanned(doc)[0] == 0
    for odd in (dict(cluster="a", host_start=0, host_nb=1, meta={"user": "6447"}),
                dict(configurations=[Configuration("a", [(0, 1)]),
                                     Configuration("b", [(0, 1)])]),
                dict(cluster="a", hosts=[0, 2])):
        t = Schedule(meta=s.meta)
        for c in s.clusters:
            t.add_cluster(c)
        t.new_task("odd", "comp", 0.0, 1.0, **odd)
        for task in s:
            t.add_task(task)
        doc = jedule_xml.dumps(t).encode("utf-8")
        scanned, back = _scanned(doc)
        assert scanned == 0 and list(back) == list(t)
        # the same task last: the scan reads every task before it
        t.remove_task("odd")
        t.new_task("odd", "comp", 0.0, 1.0, **odd)
        scanned, back = _scanned(jedule_xml.dumps(t).encode("utf-8"))
        assert scanned == 6 and list(back) == list(t)
