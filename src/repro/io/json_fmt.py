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

__all__ = ["loads", "load", "dumps", "dump", "to_dict", "from_dict"]


def to_dict(schedule: Schedule) -> dict[str, Any]:
    """Plain-dict representation of a schedule."""
    return {
        "meta": dict(schedule.meta),
        "clusters": [
            {"id": c.id, "hosts": c.num_hosts, "name": c.name} for c in schedule.clusters
        ],
        "tasks": [
            {
                "id": t.id,
                "type": t.type,
                "start": t.start_time,
                "end": t.end_time,
                "configurations": [
                    {"cluster": c.cluster_id,
                     "ranges": [[r.start, r.nb] for r in c.host_ranges]}
                    for c in t.configurations
                ],
                "meta": dict(t.meta),
            }
            for t in schedule.tasks
        ],
    }


def from_dict(data: dict[str, Any], *, source: str = "<dict>") -> Schedule:
    """Rebuild a schedule from :func:`to_dict` output.

    The tasks go straight into the schedule's
    :class:`~repro.core.model.TaskStore`, with every check a
    :class:`~repro.core.model.Task` and :meth:`Schedule.add_task` would
    make, task by task.  A missing or malformed field is a
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
        slot = {c.id: (i, schedule.cluster_offset(c.id))
                for i, c in enumerate(schedule.clusters)}
        for t in data.get("tasks", []):
            confs = []
            for conf in t["configurations"]:
                cluster_id = conf["cluster"]
                ranges = [tuple(r) for r in conf["ranges"]]
                spans = merge_spans([host_span(int(r[0]), int(r[1])) for r in ranges])
                confs.append((str(cluster_id), spans))
            task_id, task_type, start, end = t["id"], t["type"], t["start"], t["end"]
            task_meta = t.get("meta") or {}
            start, end = task_times(task_id, start, end)
            check_task_clusters(task_id, [cluster_id for cluster_id, _ in confs])
            task_id, task_type, task_meta = str(task_id), str(task_type), dict(task_meta)
            schedule._check_task(task_id, store.index,
                                 [(cluster_id, spans[-1][1]) for cluster_id, spans in confs])
            store.append(task_id, task_type, start, end,
                         [(ci, off + lo, off + hi)
                          for cluster_id, spans in confs
                          for ci, off in (slot[cluster_id],)
                          for lo, hi in spans],
                         task_meta)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"missing or malformed field: {exc}", source=source) from exc
    except ScheduleError as exc:
        raise ParseError(str(exc), source=source) from exc
    schedule._adopt(store)
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
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", source=str(path)) from exc
    return loads(text, source=str(path))
