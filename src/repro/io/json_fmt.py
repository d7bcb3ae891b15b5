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

from repro.core.model import Cluster, Configuration, Schedule, Task
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
    """Rebuild a schedule from :func:`to_dict` output."""
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object, got {type(data).__name__}", source=source)
    schedule = Schedule(meta=data.get("meta") or {})
    try:
        for c in data.get("clusters", []):
            schedule.add_cluster(Cluster(c["id"], c["hosts"], c.get("name")))
        for t in data.get("tasks", []):
            confs = [
                Configuration(conf["cluster"], [tuple(r) for r in conf["ranges"]])
                for conf in t["configurations"]
            ]
            schedule.add_task(Task(t["id"], t["type"], t["start"], t["end"],
                                   confs, t.get("meta") or {}))
    except (KeyError, TypeError) as exc:
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
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", source=str(path)) from exc
    return loads(text, source=str(path))
