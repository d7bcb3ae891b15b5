"""Property-based round-trip tests for every serialization format."""

from __future__ import annotations

import copy
import hashlib
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.batch.cache import schedule_digest
from repro.core.model import Cluster, Configuration, Schedule, Task
from repro.core.timeframe import cluster_frame
from repro.errors import ParseError, ScheduleError
from repro.io import csv_fmt, jedule_xml, json_fmt, paje, swf
from repro.io.swf import SWFJob, SWFTrace
from repro.render.html_payload import build_payload
from repro.render.png_codec import decode_png, encode_png
from repro.serve.protocol import (
    canonical_schedule_bytes,
    frame_submission,
    schedule_from_canonical,
    split_submission,
)

_ID_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789_-."


@st.composite
def rich_schedules(draw) -> Schedule:
    """Schedules with multiple clusters, scattered hosts, meta data."""
    n_clusters = draw(st.integers(1, 3))
    s = Schedule(meta=draw(st.dictionaries(
        st.text(_ID_ALPHABET, min_size=1, max_size=8),
        st.text(_ID_ALPHABET + " ", min_size=0, max_size=12), max_size=3)))
    sizes = []
    for c in range(n_clusters):
        size = draw(st.integers(1, 16))
        sizes.append(size)
        s.add_cluster(Cluster(str(c), size))
    n_tasks = draw(st.integers(0, 8))
    for i in range(n_tasks):
        start = draw(st.floats(0, 1e4, allow_nan=False, allow_infinity=False))
        dur = draw(st.floats(0, 1e3, allow_nan=False, allow_infinity=False))
        cluster_ids = draw(st.sets(st.integers(0, n_clusters - 1), min_size=1,
                                   max_size=n_clusters))
        confs = []
        for c in sorted(cluster_ids):
            hosts = draw(st.sets(st.integers(0, sizes[c] - 1), min_size=1,
                                 max_size=sizes[c]))
            confs.append(Configuration.from_hosts(str(c), hosts))
        s.add_task(Task(str(i), draw(st.sampled_from(["comp", "xfer", "io"])),
                        start, start + dur, confs,
                        draw(st.dictionaries(st.sampled_from(["user", "app"]),
                                             st.text(_ID_ALPHABET + " ", max_size=8),
                                             max_size=2))))
    return s


@st.composite
def plain_schedules(draw) -> Schedule:
    """Schedules whose tasks each bind one host range of one cluster and
    carry no meta: the ``.jed`` layout the reader scans before expat."""
    s = Schedule()
    sizes = draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))
    for c, size in enumerate(sizes):
        s.add_cluster(Cluster(str(c), size))
    for i in range(draw(st.integers(0, 8))):
        c = draw(st.integers(0, len(sizes) - 1))
        nb = draw(st.integers(1, sizes[c]))
        start = draw(st.floats(0, 1e4, allow_nan=False, allow_infinity=False))
        s.new_task(str(i), draw(st.sampled_from(["comp", "xfer", "io"])), start,
                   start + draw(st.floats(0, 1e3, allow_nan=False, allow_infinity=False)),
                   cluster=str(c), host_start=draw(st.integers(0, sizes[c] - nb)),
                   host_nb=nb)
    return s


_COLUMN_FIELDS = ("task", "type", "cluster", "start", "end", "row0", "row1")


_HOSTS = re.compile(r'<hosts start="(\d+)" nb="(\d+)" />')


def _split_hosts(doc: str) -> str:
    """One ``<hosts>`` per host, last host first: the reader must sort
    and merge them as :class:`Configuration` does."""
    return _HOSTS.sub(lambda m: "".join(
        f'<hosts start="{h}" nb="1"/>' for h in reversed(range(
            int(m.group(1)), int(m.group(1)) + int(m.group(2))))), doc)


def _split_ranges(doc: dict) -> dict:
    for task in doc["tasks"]:
        for conf in task["configurations"]:
            conf["ranges"] = [[h, 1] for start, nb in reversed(conf["ranges"])
                              for h in reversed(range(start, start + nb))]
    return doc


@given(rich_schedules())
@settings(max_examples=100, deadline=None)
def test_column_readers_equal_the_object_path(schedule):
    """The .jed and JSON readers fill the task store with no Task; what
    they return equals the schedule built task by task through add_task,
    and so does every Task built from the store afterwards."""
    doc = jedule_xml.dumps(schedule)
    assert not schedule.tasks or _HOSTS.search(doc)
    for back in (jedule_xml.loads(doc), jedule_xml.loads(_split_hosts(doc)),
                 json_fmt.from_dict(json_fmt.to_dict(schedule)),
                 json_fmt.from_dict(_split_ranges(json_fmt.to_dict(schedule)))):
        assert back.task_types() == schedule.task_types()
        assert (back.start_time, back.end_time) == \
            (schedule.start_time, schedule.end_time)
        for c in schedule.clusters:
            assert cluster_frame(back, c.id) == cluster_frame(schedule, c.id)
        for name in _COLUMN_FIELDS:
            got, want = getattr(back.columns, name), getattr(schedule.columns, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        # built on demand, last first, then compared task by task
        for i in reversed(range(len(schedule))):
            assert back.task_at(i) == schedule.task_at(i)
        assert list(back) == list(schedule)
        assert json_fmt.to_dict(back) == json_fmt.to_dict(schedule)
        assert canonical_schedule_bytes(back) == canonical_schedule_bytes(schedule)


def _jed_text(doc: dict) -> str:
    """The ``.jed`` document of a :func:`json_fmt.to_dict` document, written
    as it stands, faults included; ``host_nb`` sums its ranges."""
    root = ET.Element("jedule", version="1.0")
    platform = ET.SubElement(root, "platform")
    for c in doc["clusters"]:
        ET.SubElement(platform, "cluster", id=c["id"], hosts=str(c["hosts"]))
    infos = ET.SubElement(root, "node_infos")
    for t in doc["tasks"]:
        node = ET.SubElement(infos, "node_statistics")
        for name, value in [("id", t["id"]), ("type", t["type"]),
                            ("start_time", repr(t["start"])),
                            ("end_time", repr(t["end"])), *t["meta"].items()]:
            ET.SubElement(node, "node_property", name=name, value=value)
        for conf in t["configurations"]:
            element = ET.SubElement(node, "configuration")
            ET.SubElement(element, "conf_property", name="cluster_id",
                          value=conf["cluster"])
            ET.SubElement(element, "conf_property", name="host_nb",
                          value=str(sum(nb for _, nb in conf["ranges"])))
            hosts = ET.SubElement(element, "host_lists")
            for start, nb in conf["ranges"]:
                ET.SubElement(hosts, "hosts", start=str(start), nb=str(nb))
    return ET.tostring(root, encoding="unicode")


def _object_path_error(doc: dict) -> str:
    """What building each task and adding it, in document order, raises."""
    s = Schedule()
    for c in doc["clusters"]:
        s.add_cluster(Cluster(c["id"], c["hosts"]))
    try:
        for t in doc["tasks"]:
            s.add_task(Task(t["id"], t["type"], t["start"], t["end"],
                            [Configuration(c["cluster"], [tuple(r) for r in c["ranges"]])
                             for c in t["configurations"]], t["meta"]))
    except ScheduleError as exc:
        return str(exc)
    raise AssertionError("the document has no fault")


def _reader_errors(doc: dict) -> set[str]:
    """The messages of the ``.jed`` reader, given text and bytes (which it
    scans first), and of the JSON reader, without the source."""
    messages = set()
    text = _jed_text(doc)
    for read in (lambda: jedule_xml.loads(text, source="doc"),
                 lambda: jedule_xml.loads(text.encode("utf-8"), source="doc"),
                 lambda: json_fmt.from_dict(doc, source="doc")):
        with pytest.raises(ParseError) as err:
            read()
        assert str(err.value).endswith(" in doc")
        messages.add(str(err.value)[:-len(" in doc")])
    return messages


def _unknown_cluster(doc, task, conf):
    conf["cluster"] = "nowhere"


def _host_beyond(doc, task, conf):
    hosts = next(c["hosts"] for c in doc["clusters"] if c["id"] == conf["cluster"])
    conf["ranges"] = [[hosts, 1]]


def _duplicate_id(doc, task, conf):
    task["id"] = doc["tasks"][0]["id"]


def _end_before_start(doc, task, conf):
    task["end"] = task["start"] - 1.0


def _nan_time(doc, task, conf):
    task["start"] = float("nan")


def _two_configurations(doc, task, conf):
    task["configurations"].append(copy.deepcopy(conf))


def _zero_length_range(doc, task, conf):
    conf["ranges"][0][1] = 0


_FAULTS = [_unknown_cluster, _host_beyond, _duplicate_id, _end_before_start,
           _nan_time, _two_configurations, _zero_length_range]


@given(st.one_of(rich_schedules(), plain_schedules()), st.sampled_from(_FAULTS), st.data())
@settings(max_examples=150, deadline=None)
def test_one_fault_gets_one_message_on_every_way_in(schedule, fault, data):
    """A document with one fault gets the message building its tasks and
    adding them in document order gives, naming the same task, from the
    ``.jed`` reader and from the JSON reader."""
    doc = json_fmt.to_dict(schedule)
    assume(len(doc["tasks"]) >= (2 if fault is _duplicate_id else 1))
    k = data.draw(st.integers(1 if fault is _duplicate_id else 0, len(doc["tasks"]) - 1))
    task = doc["tasks"][k]
    conf = task["configurations"][data.draw(
        st.integers(0, len(task["configurations"]) - 1))]
    fault(doc, task, conf)
    assert _reader_errors(doc) == {_object_path_error(doc)}


def test_two_faults_get_one_message_from_both_readers():
    """Both readers run a task's own checks as it is read and the checks
    of ``add_task`` once every task is read: task 2's times fail first."""
    s = Schedule()
    s.new_cluster("0", 2)
    s.new_task("1", "x", 0.0, 1.0, cluster="0", host_start=0, host_nb=1)
    s.new_task("2", "x", 1.0, 2.0, cluster="0", host_start=0, host_nb=1)
    doc = json_fmt.to_dict(s)
    doc["tasks"][0]["configurations"][0]["cluster"] = "nowhere"
    doc["tasks"][1]["end"] = 0.0
    assert _reader_errors(doc) == {"task '2': end_time 0.0 precedes start_time 1.0"}


def test_the_json_reader_reads_a_task_whole_before_it_checks_it():
    """Every field of a task is read, its meta made a dict and each
    configuration's ranges merged, before the task's times are checked, as
    the ``.jed`` reader reads a ``<node_statistics>`` whole."""
    s = Schedule()
    s.new_cluster("0", 2)
    s.new_task("1", "x", 1.0, 2.0, cluster="0", host_start=0, host_nb=1)
    doc = json_fmt.to_dict(s)
    doc["tasks"][0]["end"] = 0.0
    empty = copy.deepcopy(doc)
    empty["tasks"][0]["configurations"][0]["ranges"] = []
    del empty["tasks"][0]["id"]
    with pytest.raises(ParseError, match="a configuration needs at least one host range"):
        json_fmt.from_dict(empty)
    doc["tasks"][0]["meta"] = "x"
    with pytest.raises(ParseError, match="missing or malformed field: dictionary update"):
        json_fmt.from_dict(doc)


def _store_schedules() -> list[Schedule]:
    """One host range per task, and several clusters, scattered hosts and
    meta."""
    flat = Schedule(meta={"algorithm": "flat"})
    flat.new_cluster("c0", 8)
    for i in range(6):
        flat.new_task(f"j{i}", ["cg", "ft"][i % 2], float(i), i + 2.5,
                      cluster="c0", host_start=i, host_nb=2)
    rich = Schedule()
    rich.new_cluster("a", 8)
    rich.new_cluster("b", 4)
    rich.new_task("t0", "comp", 0.0, 3.0, cluster="a", hosts=[0, 1, 5],
                  meta={"user": "6447"})
    rich.new_task("t1", "xfer", 1.0, 2.0, configurations=[
        Configuration("b", [(0, 2)]), Configuration("a", [(3, 1), (7, 1)])])
    rich.new_task("t2", "comp", 2.0, 2.0, cluster="b", host_start=3, host_nb=1)
    return [flat, rich]


@pytest.mark.parametrize("reader", ["jed", "json"])
def test_the_walk_gives_what_a_task_holds(reader):
    """``Schedule.records()`` reads each task as its ``Task`` holds it."""
    for schedule in _store_schedules():
        text = jedule_xml.dumps(schedule) if reader == "jed" else json_fmt.dumps(schedule)
        fresh = (jedule_xml.loads if reader == "jed" else json_fmt.loads)(text)
        assert list(fresh.records()) == [
            (t.id, t.type, t.start_time, t.end_time,
             tuple((c.cluster_id, tuple((r.start, r.stop) for r in c.host_ranges))
                   for c in t.configurations), t.meta)
            for t in schedule]


_WRITERS = {
    "canonical bytes": canonical_schedule_bytes,
    "digest": schedule_digest,
    "jed": jedule_xml.dumps,
    "csv": csv_fmt.dumps,
    "paje": paje.dumps,
    "html raw tasks": lambda s: build_payload(s, lod_mode="off"),
}


@pytest.mark.parametrize("writer", list(_WRITERS))
@pytest.mark.parametrize("reader", ["jed", "json"])
def test_writers_read_the_store_and_build_no_task(reader, writer, monkeypatch):
    """Every writer and the HTML raw-task payload read a freshly read
    schedule's store, write what they wrote from its tasks, and build no
    Task on the way."""
    for schedule in _store_schedules():
        want = _WRITERS[writer](schedule)
        text = jedule_xml.dumps(schedule) if reader == "jed" else json_fmt.dumps(schedule)
        fresh = (jedule_xml.loads if reader == "jed" else json_fmt.loads)(text)
        built = []
        task_at = Schedule.task_at
        monkeypatch.setattr(Schedule, "task_at",
                            lambda self, i: built.append(i) or task_at(self, i))
        assert _WRITERS[writer](fresh) == want
        assert built == []
        monkeypatch.undo()


def _same_schedule(a: Schedule, b: Schedule) -> None:
    assert [c.id for c in a.clusters] == [c.id for c in b.clusters]
    assert [c.num_hosts for c in a.clusters] == [c.num_hosts for c in b.clusters]
    assert len(a) == len(b)
    for t in a:
        u = b.task(t.id)
        assert u.type == t.type
        assert u.start_time == t.start_time
        assert u.end_time == t.end_time
        assert u.configurations == t.configurations


@given(rich_schedules())
@settings(max_examples=50)
def test_jedule_xml_roundtrip(schedule):
    back = jedule_xml.loads(jedule_xml.dumps(schedule))
    _same_schedule(schedule, back)
    assert back.meta == schedule.meta


# Rewrites of a dumped document that must not change what the reader
# returns: ElementTree's selection rules, which the reader keeps.
_START_TAG = re.compile(r'<(\w+)((?:\s+\w+="[^"]*")*)\s*>')
_EMPTY_TAG = re.compile(r'<(\w+)((?:\s+\w+="[^"]*")*)\s*/>')
_NAME_ATTR = re.compile(r'\sname="[^"]*"')
_PLAIN_VALUE = re.compile(r'="([^"&]*)"')
_UNKNOWN = ('<unknown><node_statistics/><cluster id="decoy" hosts="1"/>'
            '<hosts start="1" nb="1"/><meta name="decoy" value="1"/></unknown>')
_SECOND_SECTIONS = (
    '<platform><cluster id="decoy" hosts="3"/></platform>'
    '<node_infos><node_statistics>'
    '<node_property name="id" value="decoy"/><node_property name="type" value="x"/>'
    '<node_property name="start_time" value="0"/><node_property name="end_time" value="1"/>'
    '<configuration><conf_property name="cluster_id" value="decoy"/>'
    '<host_lists><hosts start="0" nb="1"/></host_lists></configuration>'
    '</node_statistics></node_infos>')


def _platform_last(doc: str) -> str:
    platform = re.search(r"\s*<platform>.*?</platform>", doc, re.S).group(0)
    doc = doc.replace(platform, "", 1)
    end = re.search(r"<node_infos\s*/>|</node_infos>", doc).end()
    return doc[:end] + platform + doc[end:]


def _second_sections(doc: str) -> str:
    extra = _SECOND_SECTIONS
    if "<jedule_meta>" in doc:  # otherwise the added one would be the first
        extra += '<jedule_meta><meta name="decoy" value="1"/></jedule_meta>'
    head, _, tail = doc.rpartition("</jedule>")
    return head + extra + "</jedule>" + tail


def _doctype_entity(doc: str) -> str:
    m = re.search(r'<cluster id="[^"]*" hosts="(\d+)"', doc)
    doc = doc[:m.start(1)] + "&hosts0;" + doc[m.end(1):]
    decl_end = doc.index("?>") + 2
    return (doc[:decl_end] + f'\n<!DOCTYPE jedule [<!ENTITY hosts0 "{m.group(1)}">]>'
            + doc[decl_end:])


def _char_refs(doc: str) -> str:
    def encode(m: re.Match) -> str:
        return '="' + "".join(f"&#x{ord(c):x};" if i % 2 else f"&#{ord(c)};"
                              for i, c in enumerate(m.group(1))) + '"'
    return _PLAIN_VALUE.sub(encode, doc)


def _unknown_elements(doc: str) -> str:
    # nest a copy of its own kind in each empty element, which only counts
    # if the reader wrongly reads below direct children
    def nest(m: re.Match) -> str:
        name = _NAME_ATTR.search(m.group(2))
        decoy = ((name.group(0) if name else "")
                 + ' value="7" id="decoy" hosts="1" start="1" nb="1"')
        return f"<{m.group(1)}{m.group(2)}><{m.group(1)}{decoy}/></{m.group(1)}>"
    doc = _EMPTY_TAG.sub(nest, doc)
    return _START_TAG.sub(lambda m: m.group(0) + _UNKNOWN, doc)


def _comments_and_pis(doc: str) -> str:
    return doc.replace(">\n", '>\n<!-- <platform><cluster id="c" hosts="1"/></platform> -->'
                               "<?jedule-hint <node_infos/>?>\n")


def _whitespace(doc: str) -> str:
    doc = re.sub(r'(\w+)="', '\\1 =\n\t"', doc)
    doc = re.sub(r'"(\s*/?>)', '"\n \\1', doc)
    return doc.replace(">\n", ">\n \t\r\n  \n")


_REWRITES = {
    "platform last": _platform_last,
    "second sections": _second_sections,
    "doctype entity": _doctype_entity,
    "char refs": _char_refs,
    "unknown elements": _unknown_elements,
    "comments and PIs": _comments_and_pis,
    "whitespace": _whitespace,
}


@given(rich_schedules(), st.sets(st.sampled_from(list(_REWRITES)), min_size=1))
@settings(max_examples=60, deadline=None)
def test_jedule_xml_reader_selection_rules(schedule, chosen):
    plain = jedule_xml.dumps(schedule)
    doc = plain
    for name, rewrite in _REWRITES.items():
        if name in chosen:
            doc = rewrite(doc)
    expected = json_fmt.to_dict(jedule_xml.loads(plain))
    assert json_fmt.to_dict(jedule_xml.loads(doc)) == expected
    assert json_fmt.to_dict(jedule_xml.loads(doc.encode("utf-8"))) == expected


# Rewrites aimed at the scanner that reads a .jed given as bytes before
# expat does (jedule_xml._scan): each document must read as the str read,
# which expat alone makes, gives it, schedule or message.
def _layout_node(task_id: str, extra: str = "") -> str:
    """A task in the layout the scanner reads (``extra`` puts it out of
    that layout), on host 0 of cluster "0", which every schedule has."""
    return ("<node_statistics>"
            f'<node_property name="id" value="{task_id}" />'
            '<node_property name="type" value="decoy" />'
            '<node_property name="start_time" value="0.0" />'
            f'<node_property name="end_time" value="1.0" />{extra}'
            '<configuration><conf_property name="cluster_id" value="0" />'
            '<conf_property name="host_nb" value="1" />'
            '<host_lists><hosts start="0" nb="1" /></host_lists>'
            "</configuration></node_statistics>")


_DECOY_INFOS = ("<node_infos>" + _layout_node("decoy") + _layout_node("decoy2")
                + "</node_infos>")
_OUTSIDE = _layout_node("outside", '<node_property name="user" value="6447" />')


def _after_root(text: str):
    return lambda doc: doc.replace('<jedule version="1.0">',
                                   '<jedule version="1.0">' + text, 1)


def _node_starts(doc: str) -> list[int]:
    return [m.start() for m in re.finditer("<node_statistics>", doc)]


def _outside_at(where: str):
    def rewrite(doc: str) -> str:
        if "<node_infos />" in doc:
            return doc.replace("<node_infos />", f"<node_infos>{_OUTSIDE}</node_infos>")
        starts = _node_starts(doc)
        at = {"first": starts[0], "middle": starts[len(starts) // 2],
              "last": doc.index("</node_infos>")}[where]
        return doc[:at] + _OUTSIDE + doc[at:]
    return rewrite


def _between_nodes(text: str):
    return lambda doc: doc.replace("</node_statistics>", "</node_statistics>" + text, 1)


def _in_middle_id(suffix: str):
    def rewrite(doc: str) -> str:
        ids = list(re.finditer(r'name="id" value="([^"]*)"', doc))
        if not ids:
            return doc
        m = ids[len(ids) // 2]
        return doc[:m.end(1)] + suffix + doc[m.end(1):]
    return rewrite


def _without_section(doc: str) -> str:
    return re.sub(r"<node_infos />|<node_infos>.*</node_infos>", "", doc, count=1,
                  flags=re.S)


def _in_first_host_nb(value: str):
    def rewrite(doc: str) -> str:
        m = re.search(r'name="host_nb" value="(\d+)"', doc)
        if m is None:
            return doc
        return doc[:m.start(1)] + value.format(m.group(1)) + doc[m.end(1):]
    return rewrite


def _doctype_attlist(doc: str) -> str:
    # NMTOKENS values lose their leading spaces, which only a reader that
    # reads the internal subset knows
    decl_end = doc.index("?>") + 2
    doc = (doc[:decl_end] + "\n<!DOCTYPE jedule [<!ATTLIST node_property"
           " value NMTOKENS #IMPLIED>]>" + doc[decl_end:])
    return doc.replace('name="type" value="', 'name="type" value="  ')


def _latin1_declaration(doc: str) -> str:
    return doc.replace("encoding='utf-8'", "encoding='ISO-8859-1'", 1)


_SCANNER_REWRITES = {
    "decoy in a comment": _after_root(f"<!-- {_DECOY_INFOS} -->"),
    "decoy in a PI": _after_root(f"<?decoy {_DECOY_INFOS}?>"),
    "decoy in an unknown element": _after_root(f"<unknown>{_DECOY_INFOS}</unknown>"),
    "decoy in CDATA": _after_root(f"<unknown><![CDATA[{_DECOY_INFOS}]]></unknown>"),
    "decoy in a comment and no section": lambda doc: _after_root(
        f"<!-- {_DECOY_INFOS} -->")(_without_section(doc)),
    "outside the layout first": _outside_at("first"),
    "outside the layout in the middle": _outside_at("middle"),
    "outside the layout last": _outside_at("last"),
    "vertical tab between nodes": _between_nodes("\v"),
    "form feed between nodes": _between_nodes("\f"),
    "text between nodes": _between_nodes("text"),
    "comment between nodes": _between_nodes("<!-- between -->"),
    "&amp; in an id": _in_middle_id("&amp;"),
    "> in an id": _in_middle_id(">"),
    "< in an id": _in_middle_id("<"),
    "non-ASCII in an id": _in_middle_id("\u00e9\u4e2d"),
    "host_nb one more than listed": _in_first_host_nb("{}1"),
    "host_nb with a leading zero": _in_first_host_nb("0{}"),
    "DOCTYPE with an ATTLIST": _doctype_attlist,
    "ISO-8859-1 declaration": _latin1_declaration,
}


def _outcome(data: str | bytes):
    """What reading ``data`` gives: its JSON document and canonical bytes,
    or the message it raises."""
    try:
        s = jedule_xml.loads(data, source="doc")
    except ParseError as exc:
        return str(exc)
    return json_fmt.to_dict(s), canonical_schedule_bytes(s)


@pytest.mark.parametrize("name", list(_SCANNER_REWRITES))
@given(plain_schedules(), st.sampled_from([1, 300, 700, 1 << 20]), st.booleans())
@settings(max_examples=25, deadline=None)
def test_the_scanner_gives_what_expat_alone_gives(name, schedule, chunk, indent):
    """Every task of a plain schedule is in the scanned layout; chunk sizes
    of one or two nodes put the scanner's batch edges inside the document."""
    doc = _SCANNER_REWRITES[name](jedule_xml.dumps(schedule, indent=indent))
    data = doc.encode("latin-1" if "ISO-8859-1" in doc else "utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jedule_xml, "_SCAN_CHUNK", chunk)
        assert _outcome(data) == _outcome(doc)


def _tiny_doc() -> str:
    s = Schedule()
    s.new_cluster("0", 2)
    s.new_task("1", "x", 0.0, 1.0, cluster="0", host_start=0, host_nb=2)
    return jedule_xml.dumps(s)


def test_jedule_xml_default_namespace_rejected():
    doc = _tiny_doc().replace("<jedule ", '<jedule xmlns="urn:jedule" ')
    with pytest.raises(ParseError,
                       match=r"root element is <\{urn:jedule\}jedule>, expected <jedule>"):
        jedule_xml.loads(doc)


def test_jedule_xml_foreign_root_rejected():
    doc = _tiny_doc().replace("<jedule ", "<notjedule ").replace("</jedule>", "</notjedule>")
    with pytest.raises(ParseError, match="root element is <notjedule>, expected <jedule>"):
        jedule_xml.loads(doc)


@given(rich_schedules())
@settings(max_examples=50)
def test_json_roundtrip(schedule):
    back = json_fmt.loads(json_fmt.dumps(schedule))
    _same_schedule(schedule, back)
    assert back.meta == schedule.meta


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10)


@given(rich_schedules(),
       st.dictionaries(st.text(max_size=8), json_values, max_size=4),
       st.text(max_size=8))
@settings(max_examples=100)
def test_framed_body_carries_the_canonical_bytes(schedule, meta, client):
    """A ``POST /render`` body carries the schedule's canonical bytes
    untouched after its header line, and the render service keys an
    inline schedule by the SHA-256 of those bytes: the digest
    ``jedule batch`` keys the same schedule by."""
    schedule.meta = meta
    canonical = canonical_schedule_bytes(schedule)
    header = {"request": {"output_format": "svg"}, "client": client}
    assert split_submission(frame_submission(header, canonical)) == \
        (header, canonical)
    assert hashlib.sha256(canonical).hexdigest() == schedule_digest(schedule)
    assert canonical_schedule_bytes(schedule_from_canonical(canonical)) \
        == canonical


@given(rich_schedules())
@settings(max_examples=50)
def test_csv_roundtrip(schedule):
    back = csv_fmt.loads(csv_fmt.dumps(schedule))
    _same_schedule(schedule, back)


swf_jobs = st.builds(
    SWFJob,
    job_id=st.integers(1, 10_000),
    submit_time=st.integers(0, 10**6).map(float),
    wait_time=st.integers(0, 10**4).map(float),
    run_time=st.integers(0, 10**5).map(float),
    allocated_procs=st.integers(1, 4096),
    requested_procs=st.integers(-1, 4096),
    requested_time=st.integers(-1, 10**5).map(float),
    status=st.sampled_from([0, 1, 4, 5]),
    user_id=st.integers(-1, 9999),
    group_id=st.integers(-1, 99),
)


@given(st.lists(swf_jobs, max_size=20))
@settings(max_examples=50)
def test_swf_roundtrip(jobs):
    trace = SWFTrace(header={"MaxProcs": "4096"}, jobs=jobs)
    back = swf.loads(swf.dumps(trace))
    assert back.jobs == jobs
    assert back.header == trace.header


@given(arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24),
                                  st.just(3))))
@settings(max_examples=40, deadline=None)
def test_png_roundtrip(pixels):
    assert np.array_equal(decode_png(encode_png(pixels)), pixels)
