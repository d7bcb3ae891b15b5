"""Pajé trace export.

Pajé (and its successor ViTE, both discussed in the paper's related work,
Section VIII) consume a self-defining textual trace format: a header of
``%EventDef`` blocks followed by event lines.  Exporting a Jedule schedule
as a Pajé trace lets those tools display our schedules, complementing the
image backends.

The mapping: the schedule is the root container; each cluster becomes a
container; each host a child container; each task one ``PajeSetState`` /
``PajeSetState(idle)`` pair per occupied host, with the task type as the
state value.  Event ids follow the classic Pajé tutorial numbering.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.colormap import ColorMap, default_colormap
from repro.core.model import Schedule

__all__ = ["dumps", "dump"]

_HEADER = """\
%EventDef PajeDefineContainerType 1
% Alias string
% ContainerType string
% Name string
%EndEventDef
%EventDef PajeDefineStateType 2
% Alias string
% ContainerType string
% Name string
%EndEventDef
%EventDef PajeDefineEntityValue 3
% Alias string
% EntityType string
% Name string
% Color color
%EndEventDef
%EventDef PajeCreateContainer 4
% Time date
% Alias string
% Type string
% Container string
% Name string
%EndEventDef
%EventDef PajeDestroyContainer 5
% Time date
% Type string
% Name string
%EndEventDef
%EventDef PajeSetState 6
% Time date
% Type string
% Container string
% Value string
%EndEventDef
"""


def _q(text: str) -> str:
    """Quote a Pajé string field.

    The trace format is line-based, so embedded newlines (and carriage
    returns) would split one event across lines and corrupt the file;
    they are flattened to spaces, and double quotes (the field delimiter)
    become single quotes.
    """
    cleaned = text.replace("\r\n", " ").replace("\n", " ").replace("\r", " ")
    return '"' + cleaned.replace('"', "'") + '"'


def dumps(schedule: Schedule, *, cmap: ColorMap | None = None,
          trace_name: str = "jedule") -> str:
    """Serialize a schedule as a Pajé trace."""
    cmap = cmap or default_colormap()
    out: list[str] = [_HEADER]

    # type hierarchy: root > cluster > host, with a state per host
    out.append(f"1 CT_Root 0 {_q('root')}")
    out.append(f"1 CT_Cluster CT_Root {_q('cluster')}")
    out.append(f"1 CT_Host CT_Cluster {_q('host')}")
    out.append(f"2 ST_HostState CT_Host {_q('state')}")

    # entity values: one per task type, colored from the color map
    types = list(schedule.task_types()) or ["computation"]
    for task_type in ["idle", *types]:
        if task_type == "idle":
            rgb = (0.95, 0.95, 0.95)
        else:
            rgb = cmap.style_for_type(task_type).bg.rgb01()
        alias = f"V_{task_type}"
        out.append(f"3 {_q(alias)} ST_HostState {_q(task_type)} "
                   f'"{rgb[0]:.3f} {rgb[1]:.3f} {rgb[2]:.3f}"')

    t0 = schedule.start_time
    t_end = schedule.end_time

    out.append(f"4 {t0:.9f} C_root CT_Root 0 {_q(trace_name)}")
    for cluster in schedule.clusters:
        calias = f"C_{cluster.id}"
        out.append(f"4 {t0:.9f} {calias} CT_Cluster C_root {_q(cluster.name)}")
        for h in cluster.hosts():
            halias = f"H_{cluster.id}_{h}"
            out.append(f"4 {t0:.9f} {halias} CT_Host {calias} "
                       f"{_q(f'{cluster.name} host {h}')}")
            out.append(f"6 {t0:.9f} ST_HostState {halias} {_q('V_idle')}")

    # state changes, time ordered
    events: list[tuple[float, int, str]] = []
    for _, task_type, start, end, confs, _ in schedule.records():
        for cluster_id, spans in confs:
            for lo, hi in spans:
                for h in range(lo, hi):
                    halias = f"H_{cluster_id}_{h}"
                    events.append((start, 1,
                                   f"6 {start:.9f} ST_HostState "
                                   f"{halias} {_q(f'V_{task_type}')}"))
                    events.append((end, 0,
                                   f"6 {end:.9f} ST_HostState "
                                   f"{halias} {_q('V_idle')}"))
    events.sort(key=lambda e: (e[0], e[1]))
    out.extend(line for _, _, line in events)

    for cluster in schedule.clusters:
        for h in cluster.hosts():
            out.append(f"5 {t_end:.9f} CT_Host H_{cluster.id}_{h}")
        out.append(f"5 {t_end:.9f} CT_Cluster C_{cluster.id}")
    out.append(f"5 {t_end:.9f} CT_Root C_root")
    return "\n".join(out) + "\n"


def dump(schedule: Schedule, path: str | Path, **kwargs) -> None:
    """Write a schedule as a ``.paje``/``.trace`` file."""
    Path(path).write_text(dumps(schedule, **kwargs), encoding="utf-8")
