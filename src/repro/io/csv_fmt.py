"""CSV schedule format for spreadsheet-friendly exchange.

One row per (task, configuration) pair::

    task_id,type,start,end,cluster,hosts
    1,computation,0.0,0.31,0,0-7
    2,transfer,0.31,0.5,0,"0-3,6"

``hosts`` uses the compact range syntax ``a-b`` with comma-separated runs.
Clusters are declared in comment header lines ``# cluster,<id>,<hosts>[,name]``
and schedule-level metadata in ``# meta,<key>,<value>`` lines, so a CSV
file round-trips without external platform information; when cluster
declarations are absent, clusters are inferred (one per distinct cluster
column value, sized by the largest host index seen).  Per-task metadata has
no CSV column and is the format's one lossy corner.
"""

from __future__ import annotations

import csv
import io as _io
from collections.abc import Iterable
from pathlib import Path

from repro.core.model import Cluster, Configuration, HostRange, Schedule, Task
from repro.errors import ParseError, ScheduleError
from repro.obs import core as _obs

__all__ = ["loads", "load", "dumps", "dump", "format_hosts", "parse_hosts"]

_COLUMNS = ["task_id", "type", "start", "end", "cluster", "hosts"]


def format_hosts(spans: Iterable[tuple[int, int]]) -> str:
    """``0-7`` / ``0-3,6`` compact host syntax of ``(start, stop)`` host
    spans."""
    return ",".join(str(lo) if hi - lo == 1 else f"{lo}-{hi - 1}" for lo, hi in spans)


def parse_hosts(text: str, *, source: str = "<string>",
                line: int | None = None) -> list[HostRange]:
    """The host ranges of :func:`format_hosts` syntax."""
    ranges: list[HostRange] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if "-" in part:
                lo_s, hi_s = part.split("-", 1)
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise ValueError
                ranges.append(HostRange(lo, hi - lo + 1))
            else:
                ranges.append(HostRange(int(part), 1))
        except (ValueError, ScheduleError):
            raise ParseError(f"bad host spec {part!r}", source=source,
                             line=line) from None
    if not ranges:
        raise ParseError(f"empty host spec {text!r}", source=source, line=line)
    return ranges


def dumps(schedule: Schedule) -> str:
    """Serialize to CSV with cluster declarations in header comments."""
    buf = _io.StringIO()
    for c in schedule.clusters:
        buf.write(f"# cluster,{c.id},{c.num_hosts},{c.name}\n")
    for key, value in schedule.meta.items():
        buf.write(f"# meta,{key},{value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for task_id, task_type, start, end, confs, _ in schedule.records():
        for cluster_id, spans in confs:
            writer.writerow([task_id, task_type, repr(start), repr(end),
                             cluster_id, format_hosts(spans)])
    return buf.getvalue()


@_obs.span("parse.csv")
def loads(text: str, *, source: str = "<string>") -> Schedule:
    """Parse the CSV schedule format.

    Any malformed field surfaces as :class:`ParseError` carrying the
    source and the 1-based line number — raw ``ValueError`` /
    ``ScheduleError`` tracebacks never leak to callers.
    """
    schedule = Schedule()
    data_lines: list[str] = []
    line_nos: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("# cluster,"):
            parts = line[len("# cluster,"):].split(",", 2)
            if len(parts) < 2:
                raise ParseError(f"bad cluster declaration {line!r}",
                                 source=source, line=lineno)
            name = parts[2] if len(parts) > 2 else None
            try:
                schedule.add_cluster(Cluster(parts[0], int(parts[1]), name))
            except (ValueError, ScheduleError) as exc:
                raise ParseError(f"bad cluster declaration {line!r} ({exc})",
                                 source=source, line=lineno) from None
        elif line.startswith("# meta,"):
            key, _, value = line[len("# meta,"):].partition(",")
            if not key:
                raise ParseError(f"bad meta declaration {line!r}",
                                 source=source, line=lineno)
            schedule.meta[key] = value
        elif line.startswith("#") or not line.strip():
            continue
        else:
            data_lines.append(line)
            line_nos.append(lineno)
    if not data_lines:
        return schedule

    reader = csv.DictReader(data_lines)
    missing = set(_COLUMNS) - set(reader.fieldnames or [])
    if missing:
        raise ParseError(f"missing CSV columns: {sorted(missing)}",
                         source=source, line=line_nos[0])

    # Group rows by task id: multi-configuration tasks span several rows.
    # Each row keeps its original line number for error context.
    rows_by_task: dict[str, list[tuple[dict[str, str], int]]] = {}
    order: list[str] = []
    n_rows = 0
    for i, row in enumerate(reader):
        lineno = line_nos[i + 1] if i + 1 < len(line_nos) else line_nos[-1]
        if None in row:
            raise ParseError(
                f"row has more fields than the {len(_COLUMNS)} columns",
                source=source, line=lineno)
        if any(v is None for v in row.values()):
            raise ParseError(
                f"row has fewer fields than the {len(_COLUMNS)} columns",
                source=source, line=lineno)
        tid = row["task_id"]
        if tid not in rows_by_task:
            order.append(tid)
        rows_by_task.setdefault(tid, []).append((row, lineno))
        n_rows += 1
    _obs.add("io.records", n_rows)

    inferred_extent: dict[str, int] = {}
    for rows in rows_by_task.values():
        for row, lineno in rows:
            ranges = parse_hosts(row["hosts"], source=source, line=lineno)
            extent = max(r.stop for r in ranges)
            cid = row["cluster"]
            inferred_extent[cid] = max(inferred_extent.get(cid, 0), extent)
    for cid in sorted(inferred_extent):
        if not schedule.has_cluster(cid):
            schedule.add_cluster(Cluster(cid, inferred_extent[cid]))

    for tid in order:
        rows = rows_by_task[tid]
        first, first_line = rows[0]
        confs = []
        for row, lineno in rows:
            if row["type"] != first["type"] or row["start"] != first["start"] \
                    or row["end"] != first["end"]:
                raise ParseError(
                    f"task {tid!r}: inconsistent attributes across its rows",
                    source=source, line=lineno)
            confs.append(Configuration(
                row["cluster"], parse_hosts(row["hosts"], source=source, line=lineno)))
        try:
            start, end = float(first["start"]), float(first["end"])
        except ValueError:
            raise ParseError(f"task {tid!r}: non-numeric times",
                             source=source, line=first_line) from None
        try:
            schedule.add_task(Task(tid, first["type"], start, end, confs))
        except ScheduleError as exc:
            raise ParseError(f"task {tid!r}: {exc}",
                             source=source, line=first_line) from None
    return schedule


def dump(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(dumps(schedule), encoding="utf-8")


def load(path: str | Path) -> Schedule:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", source=str(path)) from exc
    return loads(text, source=str(path))
