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

:func:`loads` reads a document in one :mod:`xml.parsers.expat` pass and keeps
ElementTree's selection rules: only direct children count, the first
``<jedule_meta>``, ``<platform>`` and ``<node_infos>`` win, and everything
else is ignored.  :func:`dumps` writes through ElementTree.
"""

from __future__ import annotations

import io as _io
import xml.etree.ElementTree as ET
from array import array
from pathlib import Path
from xml.parsers import expat

import numpy as np

from repro.core.model import (
    Cluster,
    Schedule,
    TaskStore,
    check_task_clusters,
    host_span,
    merge_spans,
    task_times,
)
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


@_obs.span("parse.jedule_xml")
def loads(data: str | bytes, *, source: str = "<string>") -> Schedule:
    """Parse a Jedule XML document into a :class:`Schedule`.

    One streaming pass: no element tree and no :class:`~repro.core.model.Task`
    is built; each ``<node_statistics>`` becomes one entry of the
    schedule's :class:`~repro.core.model.TaskStore` as it closes, with the
    checks a ``Task`` makes.  ``bytes`` are decoded as the document's XML
    declaration says (UTF-8 when it says nothing); a ``str`` is taken as
    already decoded.  The checks :meth:`Schedule.add_task` makes (a new
    id, a known cluster, hosts inside it) run when the document ends, in
    document order, so ``<platform>`` may come after ``<node_infos>``.
    """
    schedule = Schedule()
    store = TaskStore()
    ids, index, types, metas = store.ids, store.index, store.types, store.meta
    kinds, starts, ends, firsts = store.kind, store.start, store.end, store.first
    # host rows stay cluster-local until the platform is known: each names
    # its cluster by position in ``refs``, in the order tasks name them
    refs: dict[str, int] = {}
    ref_col, lo_col, hi_col = array("q"), array("q"), array("q")
    dup: list[int] = []  # the first task whose id an earlier task has
    stack = [_DOC]
    push, pop = stack.append, stack.pop
    opened: set[str] = set()
    props: dict[str, str] = {}  # node_property of the open task
    task_refs: list[int] = []  # clusters of its configurations
    conf_props: dict[str, str] = {}  # conf_property of the open configuration
    spans: list[tuple[int, int]] = []  # its host spans

    def start(name: str, attrs: dict[str, str]) -> None:
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
                spans.clear()
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
                task_refs.clear()
                # its rows start here; a task that fails ends the parse
                firsts.append(len(ref_col))
                push(_NODE)
                return
        elif state == _ROOT:
            section = _SECTIONS.get(name)
            if section is not None and name not in opened:
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
            if not task_refs:
                raise ParseError(f"task {task_id!r} has no <configuration>",
                                 source=source)
            try:
                start_time, end_time = float(start_time), float(end_time)
            except ValueError:
                raise ParseError(
                    f"task {task_id!r} has non-numeric times "
                    f"({start_time!r}, {end_time!r})", source=source) from None
            start_time, end_time = task_times(task_id, start_time, end_time)
            check_task_clusters(task_id, task_refs)
            i = len(ids)
            if index.setdefault(task_id, i) != i and not dup:
                dup.append(i)
            ids.append(task_id)
            kinds.append(types.setdefault(task_type, len(types)))
            starts.append(start_time)
            ends.append(end_time)
            if len(props) > len(_RESERVED_NODE_PROPS):
                metas[i] = {k: v for k, v in props.items()
                            if k not in _RESERVED_NODE_PROPS}
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
            ref = refs.setdefault(cluster_id, len(refs))
            task_refs.append(ref)
            for lo, hi in merged:
                ref_col.append(ref)
                lo_col.append(lo)
                hi_col.append(hi)

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
        parser.Parse(data, True)
        if "platform" not in opened:
            raise ParseError("missing <platform> (at least one cluster is required)",
                             source=source)
        if not schedule.clusters:
            raise ParseError("<platform> defines no clusters", source=source)
        _place(schedule, store, list(refs), ref_col, lo_col, hi_col,
               dup[0] if dup else len(ids))
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
        # skipped_entity holds the parser: break that cycle so the parser and
        # its copy of the document are freed on return, not at the next GC
        parser.SkippedEntityHandler = None
    if "node_infos" in opened:
        _obs.add("io.records", len(ids))
    return schedule


def _place(schedule: Schedule, store: TaskStore, cluster_ids: list[str],
           ref: array, lo: array, hi: array, dup: int) -> None:
    """Put the parsed tasks into ``schedule``.

    Host row ``r`` binds hosts ``[lo[r], hi[r])`` of cluster
    ``cluster_ids[ref[r]]``; task ``dup`` is the first whose id an earlier
    task has (``len(store)`` when none has).  The checks of
    :meth:`Schedule.add_task` run here over all rows at once; the first
    task that fails any of them fails again through ``add_task``'s own
    check, which names what it names.  The rows then become the store's
    cluster indexes and global host rows.
    """
    n = len(store)
    slot = {c.id: (i, schedule.cluster_offset(c.id), c.num_hosts)
            for i, c in enumerate(schedule.clusters)}
    known = np.array([slot.get(cid, (-1, 0, 0)) for cid in cluster_ids],
                     dtype=np.int64).reshape(-1, 3)
    lo_, hi_ = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
    cluster, offset, hosts = known[np.array(ref, dtype=np.int64)].T
    bad = np.flatnonzero((cluster < 0) | (hi_ > hosts))
    first_bad = dup
    if bad.size:
        first_bad = min(dup, int(np.searchsorted(np.array(store.first), bad[0],
                                                 side="right")) - 1)
    if first_bad < n:
        stop = store.first[first_bad + 1] if first_bad + 1 < n else len(ref)
        confs: list[tuple[str, int]] = []
        for r in range(store.first[first_bad], stop):
            cid = cluster_ids[ref[r]]
            if confs and confs[-1][0] == cid:
                confs[-1] = (cid, hi[r])
            else:
                confs.append((cid, hi[r]))
        schedule._check_task(store.ids[first_bad], store.ids[:first_bad], confs)
        raise AssertionError(f"task {store.ids[first_bad]!r} passed the checks it failed")
    store.cluster.frombytes(cluster.astype(store.cluster.typecode).tobytes())
    store.row0.frombytes((offset + lo_).astype(store.row0.typecode).tobytes())
    store.row1.frombytes((offset + hi_).astype(store.row1.typecode).tobytes())
    schedule._adopt(store)


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
    """Serialize a schedule to Jedule XML."""
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
    for t in schedule.tasks:
        node = ET.SubElement(infos, "node_statistics")
        _prop(node, "node_property", "id", t.id)
        _prop(node, "node_property", "type", t.type)
        _prop(node, "node_property", "start_time", _format_time(t.start_time))
        _prop(node, "node_property", "end_time", _format_time(t.end_time))
        for k, v in t.meta.items():
            _prop(node, "node_property", k, str(v))
        for conf in t.configurations:
            ce = ET.SubElement(node, "configuration")
            _prop(ce, "conf_property", "cluster_id", conf.cluster_id)
            _prop(ce, "conf_property", "host_nb", str(conf.num_hosts))
            hl = ET.SubElement(ce, "host_lists")
            for r in conf.host_ranges:
                ET.SubElement(hl, "hosts", start=str(r.start), nb=str(r.nb))
    if indent:
        ET.indent(root)
    buf = _io.BytesIO()
    ET.ElementTree(root).write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue().decode("utf-8") + "\n"


def dump(schedule: Schedule, path: str | Path, **kwargs) -> None:
    """Write a schedule to a Jedule XML file."""
    Path(path).write_text(dumps(schedule, **kwargs), encoding="utf-8")
