"""JSON schedule format.

A modern, structure-preserving alternative to the XML format, demonstrating
the paper's claim that "one can also extend Jedule with a different parser"
— both formats register with :mod:`repro.io.registry`.

Layout::

    {
      "meta": {"algorithm": "heft"},
      "clusters": [{"id": "0", "hosts": 8, "name": "cluster 0"}],
      "tasks": [
        {
          "id": "1", "type": "computation",
          "start": 0.0, "end": 0.31,
          "configurations": [
            {"cluster": "0", "ranges": [[0, 8]]}
          ],
          "meta": {"user": "6447"}
        }
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.model import Cluster, Schedule, TaskStore, host_span, merge_spans
from repro.errors import ParseError, ScheduleError

__all__ = ["loads", "load", "dumps", "dump", "to_dict", "from_dict"]


def to_dict(schedule: Schedule) -> dict[str, Any]:
    """Plain-dict representation of a schedule, read from its task store
    (:meth:`~repro.core.model.Schedule.records`) without building a
    :class:`~repro.core.model.Task`."""
    tasks = []
    for task_id, task_type, start, end, confs, meta in schedule.records():
        configurations = []
        for cluster_id, spans in confs:
            configurations.append({"cluster": cluster_id,
                                   "ranges": [[lo, hi - lo] for lo, hi in spans]})
        tasks.append({"id": task_id, "type": task_type, "start": start, "end": end,
                      "configurations": configurations,
                      "meta": dict(meta) if meta else {}})
    return {
        "meta": dict(schedule.meta),
        "clusters": [
            {"id": c.id, "hosts": c.num_hosts, "name": c.name} for c in schedule.clusters
        ],
        "tasks": tasks,
    }


def from_dict(data: dict[str, Any], *, source: str = "<dict>") -> Schedule:
    """Rebuild a schedule from :func:`to_dict` output.

    Each task is read whole, then enters the schedule's
    :class:`~repro.core.model.TaskStore` through its one way in, with the
    checks a :class:`~repro.core.model.Task` makes; the checks of
    :meth:`Schedule.add_task` run once every task is read, as the ``.jed``
    reader runs them.  A missing or malformed field is a
    :class:`ParseError`.
    """
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object, got {type(data).__name__}", source=source)
    schedule = Schedule()
    store = TaskStore()
    try:
        meta = data.get("meta") or {}
        if not isinstance(meta, dict):
            raise TypeError(f"meta must be an object, got {type(meta).__name__}")
        schedule.meta.update(meta)
        for c in data.get("clusters", []):
            schedule.add_cluster(Cluster(c["id"], c["hosts"], c.get("name")))
        for t in data.get("tasks", []):
            confs = []
            for conf in t["configurations"]:
                cluster_id = conf["cluster"]
                ranges = [tuple(r) for r in conf["ranges"]]
                spans = merge_spans([host_span(int(r[0]), int(r[1])) for r in ranges])
                confs.append((str(cluster_id), spans))
            meta = t.get("meta")
            store.add(t["id"], t["type"], t["start"], t["end"], confs,
                      dict(meta) if meta else None)
        schedule._adopt(store)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"missing or malformed field: {exc}", source=source) from exc
    except ScheduleError as exc:
        raise ParseError(str(exc), source=source) from exc
    return schedule


def dumps(schedule: Schedule, *, indent: int | None = 2) -> str:
    return json.dumps(to_dict(schedule), indent=indent) + "\n"


def loads(text: str, *, source: str = "<string>") -> Schedule:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}", source=source) from exc
    return from_dict(data, source=source)


def dump(schedule: Schedule, path: str | Path, **kwargs) -> None:
    Path(path).write_text(dumps(schedule, **kwargs), encoding="utf-8")


def load(path: str | Path) -> Schedule:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", source=str(path)) from exc
    return loads(text, source=str(path))
