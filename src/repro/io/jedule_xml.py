"""Reader/writer for the Jedule XML schedule format (paper Figure 1).

The format, reconstructed from the paper:

.. code-block:: xml

    <jedule version="1.0">
      <jedule_meta>
        <meta name="mindelta" value="-2"/>
      </jedule_meta>
      <platform>
        <cluster id="0" hosts="8" name="cluster 0"/>
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

A ``<node_statistics>`` may carry several ``<configuration>`` elements (e.g.
a communication between clusters), matching the paper's note that "a node
can have multiple configurations".  Per-task meta entries are stored as
extra ``<node_property>`` entries with names outside the reserved set.

:func:`loads` reads a document with :mod:`xml.parsers.expat` and keeps
ElementTree's selection rules: only direct children count, the first
``<jedule_meta>``, ``<platform>`` and ``<node_infos>`` win, and everything
else is ignored.  Expat makes two Python calls per element, so a document
given as bytes is scanned first: one regular expression reads the
leading run of ``<node_statistics>`` after the first ``<node_infos>`` tag
as long as each is in the layout :func:`dumps` writes for a task of one
host range and no meta (the four reserved properties in order, one
``<configuration>`` with ``cluster_id`` then ``host_nb``, one ``<hosts>``;
printable ASCII values with no ``&`` or ``<``, and only
``[ \\t\\r\\n]`` between tags), and appends them to the task store in
batches of about 1 MB.
Expat then reads the document with those bytes left out and confirms
them: they count only if it opens the root's first ``<node_infos>`` at
the tag the scan started from, in a document with no DOCTYPE and in
UTF-8 or ASCII.  Otherwise, or on any error, expat reads the whole
document again, so the schedule or the message is always the one the
expat pass alone gives.  A 100k-task, 50.8 MB ``.jed`` loads in about
0.4 s against 2.0 s for expat alone, at about the same peak memory.
:func:`dumps` writes through ElementTree.
"""

from __future__ import annotations

import io as _io
import re
import xml.etree.ElementTree as ET
from array import array
from pathlib import Path
from xml.parsers import expat

from repro.core.model import Cluster, Schedule, TaskStore, host_span, merge_spans
from repro.errors import ParseError, ScheduleError
from repro.obs import core as _obs

__all__ = ["loads", "load", "dumps", "dump", "JEDULE_VERSION"]

JEDULE_VERSION = "1.0"

_RESERVED_NODE_PROPS = {"id", "type", "start_time", "end_time"}


# Reader states: the role of each open element, kept on a stack.  Every
# element the format does not define, and everything below it, is _SKIP.
_SKIP, _NODE, _CONF, _HOST_LISTS, _INFOS, _PLATFORM, _META, _ROOT, _DOC = range(9)

#: Sections under the root; only the first of each counts.
_SECTIONS = {"jedule_meta": _META, "platform": _PLATFORM, "node_infos": _INFOS}

_UNKNOWN_ENCODING = expat.errors.codes[expat.errors.XML_ERROR_UNKNOWN_ENCODING]


def loads(data: str | bytes, *, source: str = "<string>") -> Schedule:
    """Parse a Jedule XML document into a :class:`Schedule`.

    No element tree and no :class:`~repro.core.model.Task` is built: each
    task enters the schedule's :class:`~repro.core.model.TaskStore`, with
    the checks a ``Task`` makes, as it is read.  ``bytes`` are first
    scanned for the leading run of tasks in the layout :func:`dumps`
    writes (:func:`_scan`), which expat then skips and confirms; the
    result, or the message, is that of the expat pass alone.  ``bytes``
    are decoded as the document's XML declaration says (UTF-8 when it
    says nothing); a ``str`` is taken as already decoded and is not
    scanned.  The checks :meth:`Schedule.add_task` makes (a new id, a
    known cluster, hosts inside it) run when the document ends, in
    document order, so ``<platform>`` may come after ``<node_infos>``.
    The ``parse.jedule_xml`` span says how many tasks the scan read
    (``scanned``), 0 when expat read them all.
    """
    with _obs.span("parse.jedule_xml") as span:
        store = TaskStore()
        cut = (0, 0) if isinstance(data, str) else _scan(data, store)
        scanned = len(store)
        if scanned:
            try:
                schedule = _read(data, source, store, cut)
            except (ParseError, _Unconfirmed):
                scanned = 0  # the whole document again, for its message or its tasks
        if not scanned:
            schedule = _read(data, source, TaskStore())
        span.set(scanned=scanned)
    return schedule


#: The scanner appends the nodes it reads in batches of about this many bytes.
_SCAN_CHUNK = 1 << 20

_INFOS_TAG = b"<node_infos>"

#: Only the four XML whitespace characters: expat rejects \v and \f.
_WS = r"[ \t\r\n]*"
#: An attribute value expat would give as it stands: printable ASCII with
#: no quote, ``&`` or ``<``.
_VALUE = r'([ !#-%\'-;=-~]*)'
#: A host index or count: at most 18 digits, so their sums fit in int64.
_COUNT = r"([0-9]{1,18})"


def _property(tag: str, name: str, value: str = _VALUE) -> str:
    return f'{_WS}<{tag} name="{name}" value="{value}" />'


#: One ``<node_statistics>`` as :func:`dumps` writes a task of one
#: configuration with one host range and no meta, whitespace before it.
_NODE = re.compile((
    f"{_WS}<node_statistics>"
    + "".join(_property("node_property", name)
              for name in ("id", "type", "start_time", "end_time"))
    + f"{_WS}<configuration>{_property('conf_property', 'cluster_id')}"
    + f"{_property('conf_property', 'host_nb', _COUNT)}{_WS}<host_lists>"
    + f'{_WS}<hosts start="{_COUNT}" nb="{_COUNT}" />{_WS}</host_lists>'
    + f"{_WS}</configuration>{_WS}</node_statistics>").encode("ascii"))


def _scan(data: bytes, store: TaskStore) -> tuple[int, int]:
    """Read into ``store`` the leading run of ``<node_statistics>`` after
    the first ``<node_infos>`` tag in ``data``, as long as they keep the
    layout of :data:`_NODE`, and return the bytes ``(start, stop)`` they
    fill.  The nodes are appended in batches of about
    :data:`_SCAN_CHUNK` bytes; a batch that fails a check adds no task and
    ends the scan, as does the first node out of the layout.  Nothing
    here is XML yet: expat confirms the scan (:func:`_read`)."""
    start = data.find(_INFOS_TAG)
    if start < 0:
        return 0, 0
    start = stop = start + len(_INFOS_TAG)
    match = _NODE.match
    while True:
        values: list[bytes] = []
        pos, limit = stop, stop + _SCAN_CHUNK
        while pos < limit and (node := match(data, pos)) is not None:
            values += node.groups()
            pos = node.end()
        if not values or not _add_nodes(store, values):
            return start, stop
        stop = pos


def _add_nodes(store: TaskStore, values: list[bytes]) -> bool:
    """Append the scanned nodes, eight values each, through
    :meth:`TaskStore.extend`, after the checks the reader makes of them:
    numeric times, and ``host_nb`` written as ``nb`` is (a count written
    otherwise is left to expat).  False, with nothing appended, when a
    node fails one."""
    if values[5::8] != values[7::8]:
        return False
    try:
        start = array("d", map(float, values[2::8]))
        end = array("d", map(float, values[3::8]))
    except ValueError:
        return False
    # no value holds a newline
    ids, types, clusters = (b"\n".join(values[k::8]).decode("ascii").split("\n")
                            for k in (0, 1, 4))
    return store.extend(ids, types, start, end, clusters,
                        array("q", map(int, values[6::8])),
                        array("q", map(int, values[7::8])))


class _Unconfirmed(Exception):
    """Expat did not confirm what the scanner read."""


def _refuse_doctype(*args: object) -> None:
    # an ATTLIST in it may change the attribute values the scan read
    raise _Unconfirmed


def _refuse_encoding(version: str, encoding: str | None, standalone: int) -> None:
    if encoding is not None and encoding.lower() not in ("utf-8", "us-ascii"):
        raise _Unconfirmed


def _read(data: str | bytes, source: str, store: TaskStore,
          cut: tuple[int, int] | None = None) -> Schedule:
    """One :mod:`xml.parsers.expat` pass over ``data``, each
    ``<node_statistics>`` into ``store`` through its one way in as it
    closes.  With ``cut``, expat skips ``data[cut[0]:cut[1]]``, whose
    tasks the scanner has put in ``store``, and raises
    :class:`_Unconfirmed` unless they count: the root's first
    ``<node_infos>`` opens just before them, and the document has no
    DOCTYPE and is UTF-8 or ASCII."""
    schedule = Schedule()
    add = store.add
    stack = [_DOC]
    push, pop = stack.append, stack.pop
    opened: set[str] = set()
    props: dict[str, str] = {}  # node_property of the open task
    confs: list[tuple[str, list[tuple[int, int]]]] = []  # its configurations
    conf_props: dict[str, str] = {}  # conf_property of the open configuration
    spans: list[tuple[int, int]] = []  # its host spans
    infos_at = cut[0] - len(_INFOS_TAG) if cut is not None else -1

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal spans
        state = stack[-1]
        if state == _NODE:
            if name == "node_property":
                try:
                    props[attrs["name"]] = attrs["value"]
                except KeyError:
                    raise ParseError("<node_property> needs name= and value=",
                                     source=source) from None
            elif name == "configuration":
                conf_props.clear()
                spans = []  # not cleared: the open task's confs hold the last one's
                push(_CONF)
                return
        elif state == _CONF:
            if name == "conf_property":
                try:
                    conf_props[attrs["name"]] = attrs["value"]
                except KeyError:
                    raise ParseError("<conf_property> needs name= and value=",
                                     source=source) from None
            elif name == "host_lists":
                push(_HOST_LISTS)
                return
        elif state == _HOST_LISTS:
            if name == "hosts":
                try:
                    lo, nb = int(attrs["start"]), int(attrs["nb"])
                except (KeyError, ValueError):
                    raise ParseError(
                        f"<hosts> needs integer start=/nb=, got "
                        f"start={attrs.get('start')!r} nb={attrs.get('nb')!r}",
                        source=source) from None
                spans.append(host_span(lo, nb))
        elif state == _INFOS:
            if name == "node_statistics":
                props.clear()
                confs.clear()
                push(_NODE)
                return
        elif state == _ROOT:
            section = _SECTIONS.get(name)
            if section is not None and name not in opened:
                if section == _INFOS and cut is not None \
                        and parser.CurrentByteIndex != infos_at:
                    raise _Unconfirmed
                opened.add(name)
                push(section)
                return
        elif state == _PLATFORM:
            if name == "cluster":
                cid, hosts = attrs.get("id"), attrs.get("hosts")
                if cid is None or hosts is None:
                    raise ParseError("<cluster> needs id= and hosts=", source=source)
                try:
                    num_hosts = int(hosts)
                except ValueError:
                    raise ParseError(f"<cluster id={cid!r}> has non-integer hosts={hosts!r}",
                                     source=source) from None
                schedule.add_cluster(Cluster(cid, num_hosts, attrs.get("name")))
        elif state == _META:
            if name == "meta":
                key, value = attrs.get("name"), attrs.get("value")
                if key is None or value is None:
                    raise ParseError("<meta> needs name= and value=", source=source)
                schedule.meta[key] = value
        elif state == _DOC:
            if name != "jedule":
                # ElementTree spells a namespaced tag "{uri}local"
                tag = "{" + name if "}" in name else name
                raise ParseError(f"root element is <{tag}>, expected <jedule>",
                                 source=source)
            push(_ROOT)
            return
        push(_SKIP)

    def end(name: str) -> None:
        state = pop()
        if state == _SKIP:
            return
        if state == _NODE:
            try:
                task_id, task_type = props["id"], props["type"]
                start_time, end_time = props["start_time"], props["end_time"]
            except KeyError:
                for required in ("id", "type", "start_time", "end_time"):
                    if required not in props:
                        raise ParseError(
                            f"<node_statistics> lacks node_property {required!r}",
                            source=source) from None
            if not confs:
                raise ParseError(f"task {task_id!r} has no <configuration>",
                                 source=source)
            try:
                start_time, end_time = float(start_time), float(end_time)
            except ValueError:
                raise ParseError(
                    f"task {task_id!r} has non-numeric times "
                    f"({start_time!r}, {end_time!r})", source=source) from None
            add(task_id, task_type, start_time, end_time, confs,
                {k: v for k, v in props.items() if k not in _RESERVED_NODE_PROPS}
                if len(props) > len(_RESERVED_NODE_PROPS) else None)
        elif state == _CONF:
            cluster_id = conf_props.get("cluster_id")
            if cluster_id is None:
                raise ParseError("<configuration> lacks conf_property cluster_id",
                                 source=source)
            if not spans:
                raise ParseError("<configuration> has no <hosts> ranges", source=source)
            merged = merge_spans(spans)
            declared = conf_props.get("host_nb")
            if declared is not None:
                try:
                    declared_nb = int(declared)
                except ValueError:
                    raise ParseError(
                        f"configuration host_nb must be an integer, got {declared!r}",
                        source=source) from None
                covered = sum(hi - lo for lo, hi in merged)
                if declared_nb != covered:
                    raise ParseError(
                        f"configuration declares host_nb={declared} but host lists "
                        f"cover {covered} hosts", source=source)
            confs.append((cluster_id, merged))

    # namespace processing on, as ElementTree's parser has it
    parser = expat.ParserCreate(None, "}")

    def skipped_entity(entity: str, is_parameter_entity: bool) -> None:
        # expat passes over an undeclared entity when the DTD has an external
        # part; ElementTree rejects one in content, and so does this reader
        if not is_parameter_entity:
            raise ParseError(
                f"malformed XML: undefined entity &{entity};: line "
                f"{parser.CurrentLineNumber}, column {parser.CurrentColumnNumber}",
                source=source)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = skipped_entity
    try:
        if cut is not None:
            parser.XmlDeclHandler = _refuse_encoding
            parser.StartDoctypeDeclHandler = _refuse_doctype
            view = memoryview(data)
            parser.Parse(view[:cut[0]], False)
            parser.Parse(view[cut[1]:], True)
            if "node_infos" not in opened:
                raise _Unconfirmed
        else:
            parser.Parse(data, True)
        if "platform" not in opened:
            raise ParseError("missing <platform> (at least one cluster is required)",
                             source=source)
        if not schedule.clusters:
            raise ParseError("<platform> defines no clusters", source=source)
        schedule._adopt(store)
    except expat.ExpatError as exc:
        raise ParseError(f"malformed XML: {exc}", source=source) from exc
    except ScheduleError as exc:
        raise ParseError(str(exc), source=source) from exc
    except (LookupError, ValueError) as exc:
        # expat's hook for encodings it lacks raises these, e.g. for
        # encoding="klingon"; from anywhere else they are bugs
        if parser.ErrorCode != _UNKNOWN_ENCODING:
            raise
        raise ParseError(f"unsupported encoding: {exc}", source=source) from exc
    finally:
        # start and skipped_entity hold the parser: break that cycle so the
        # parser and its copy of the document are freed on return, not at
        # the next GC
        parser.StartElementHandler = parser.SkippedEntityHandler = None
    if "node_infos" in opened:
        _obs.add("io.records", len(schedule))
    return schedule


def load(path: str | Path) -> Schedule:
    """Read a Jedule XML file."""
    path = Path(path)
    return loads(path.read_bytes(), source=str(path))


def _prop(parent: ET.Element, tag: str, name: str, value: str) -> None:
    ET.SubElement(parent, tag, name=name, value=value)


def _format_time(t: float) -> str:
    """Times serialized with round-trip precision."""
    return repr(float(t))


def dumps(schedule: Schedule, *, indent: bool = True) -> str:
    """Serialize a schedule to Jedule XML, read from its task store
    (:meth:`~repro.core.model.Schedule.records`)."""
    root = ET.Element("jedule", version=JEDULE_VERSION)
    if schedule.meta:
        meta = ET.SubElement(root, "jedule_meta")
        for k, v in schedule.meta.items():
            _prop(meta, "meta", k, str(v))
    platform = ET.SubElement(root, "platform")
    for c in schedule.clusters:
        attrs = {"id": c.id, "hosts": str(c.num_hosts)}
        if c.name is not None:
            attrs["name"] = c.name
        ET.SubElement(platform, "cluster", attrs)
    infos = ET.SubElement(root, "node_infos")
    for task_id, task_type, start, end, confs, task_meta in schedule.records():
        node = ET.SubElement(infos, "node_statistics")
        _prop(node, "node_property", "id", task_id)
        _prop(node, "node_property", "type", task_type)
        _prop(node, "node_property", "start_time", _format_time(start))
        _prop(node, "node_property", "end_time", _format_time(end))
        for k, v in task_meta.items():
            _prop(node, "node_property", k, str(v))
        for cluster_id, spans in confs:
            ce = ET.SubElement(node, "configuration")
            _prop(ce, "conf_property", "cluster_id", cluster_id)
            _prop(ce, "conf_property", "host_nb", str(sum(hi - lo for lo, hi in spans)))
            hl = ET.SubElement(ce, "host_lists")
            for lo, hi in spans:
                ET.SubElement(hl, "hosts", start=str(lo), nb=str(hi - lo))
    if indent:
        ET.indent(root)
    buf = _io.BytesIO()
    ET.ElementTree(root).write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue().decode("utf-8") + "\n"


def dump(schedule: Schedule, path: str | Path, **kwargs) -> None:
    """Write a schedule to a Jedule XML file."""
    Path(path).write_text(dumps(schedule, **kwargs), encoding="utf-8")
