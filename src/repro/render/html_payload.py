"""Schedule -> embedded-JSON payload of the interactive HTML export.

The HTML backend (:mod:`repro.render.backends.html`) does not bake task
rectangles into SVG; it embeds a *data* payload — clusters, tasks, the
color map, schedule bounds — plus a small JavaScript module that mirrors
the Python viewport algebra (:mod:`repro.core.viewport`) and renders the
visible window from the data on every interaction.

Past a task threshold the payload switches from raw tasks to
level-of-detail cell tiers built with the same aggregation grid the
raster path uses (:func:`repro.render.lod.cell_grid`), so a 100k-job
trace ships a few tens of thousands of merged cell runs instead of 100k
rectangles and the page stays well under the size budget.

Payload layout (``version`` 1)::

    {
      "version": 1,
      "title": "..." | null,
      "meta": {...schedule meta...},
      "bounds": {"t0": 0.0, "t1": 86400.0, "rows": 1024},
      "clusters": [{"id": "0", "name": "cluster 0", "hosts": 1024,
                    "offset": 0}],
      "types": ["computation", "transfer"],
      "colors": ["#AA0000", "#0000AA"],      # aligned with "types"
      "threshold": 4000,                     # raw-task embed threshold
      "raw_budget": 4000,                    # JS raw-vs-LOD swap point
      "task_count": 834,
      "initial": {"t0": ..., "t1": ..., "r0": ..., "r1": ...} | null,
      "tasks": [{"id": "j1", "t": 0, "s": 0.0, "e": 0.31,
                 "r": [[0, 0, 8]],           # [cluster idx, row lo, row hi)
                 "m": {"user": "6447"}},     # omitted when empty
                ...] | null,
      "lod": {"tiers": [{"nx": 256,
                         "clusters": [{"c": 0, "ny": 64,
                                       "runs": [[iy, x0, x1, type], ...]}]},
                        ...]} | null
    }

Tier cell runs use grid coordinates: run ``[iy, x0, x1, t]`` covers time
``bounds.t0 + [x0, x1) / nx * (t1 - t0)`` and the global resource rows
``offset + [iy, iy+1) * hosts / ny`` of its cluster, colored like type
index ``t``.  Tiers are ordered coarse to fine; the viewer picks the
finest tier whose cells still map to >= ~1 device pixel at the current
zoom.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.core.colormap import ColorMap
from repro.core.model import Schedule
from repro.core.timeframe import TimeFrame
from repro.core.viewport import Viewport
from repro.errors import RenderError
from repro.render.lod import cell_grid, cell_runs, check_lod_mode

__all__ = [
    "PAYLOAD_VERSION",
    "DEFAULT_HTML_THRESHOLD",
    "DEFAULT_HTML_TIERS",
    "MAX_HTML_TIERS",
    "build_payload",
    "build_tiers",
    "payload_json",
    "validate_payload",
]

PAYLOAD_VERSION = 1

#: Above this many tasks the page embeds LOD tiers instead of raw tasks.
DEFAULT_HTML_THRESHOLD = 4000

#: Number of zoom tiers embedded when the LOD path is taken.
DEFAULT_HTML_TIERS = 3
MAX_HTML_TIERS = 6

#: Tier-0 grid resolution; each finer tier multiplies the time axis by
#: :data:`_TIER_STEP` and the row axis by 2 (capped at the host count).
_BASE_NX = 256
_BASE_NY = 64
_TIER_STEP = 4

#: Total cell-run budget across all tiers — bounds the embedded JSON size
#: (one run is ~16 bytes of JSON) independent of schedule size.
_MAX_TIER_RUNS = 48_000

#: Hard cap on a tier's time resolution, bounding the aggregation grid's
#: memory no matter how many tiers are requested.
_MAX_TIER_NX = 8192

#: When LOD is forced on, the viewer swaps to exact raw tasks only once a
#: zoomed-in window shows at most this many (and raw tasks are embedded).
_FORCED_LOD_RAW_BUDGET = 64


def build_tiers(schedule: Schedule, *, tiers: int = DEFAULT_HTML_TIERS,
                max_runs: int = _MAX_TIER_RUNS) -> list[dict]:
    """LOD cell tiers, coarse to fine, within a total run budget.

    Each tier aggregates every cluster band over the global time frame
    with :func:`repro.render.lod.cell_grid` — the exact grid the raster
    LOD path rasterizes — and run-length encodes the dominant-type
    cells.  A finer tier is only included when it fits the remaining run
    budget entirely, so the payload degrades to coarser tiers instead of
    truncating silently.
    """
    return _tiers(schedule, Viewport.fit(schedule).time_frame, tiers, max_runs)


def _tiers(schedule: Schedule, frame: TimeFrame, tiers: int,
           max_runs: int) -> list[dict]:
    """:func:`build_tiers` over the schedule's fitted time ``frame``."""
    cols = schedule.columns
    out: list[dict] = []
    spent = 0
    last_nx = 0
    for level in range(max(1, tiers)):
        nx = min(_BASE_NX * (_TIER_STEP ** level), _MAX_TIER_NX)
        if nx <= last_nx:
            break  # resolution capped out, a finer tier adds nothing
        last_nx = nx
        tier_clusters: list[dict] = []
        tier_runs = 0
        for ci, cluster in enumerate(schedule.clusters):
            offset = schedule.cluster_offset(cluster.id)
            ny = min(cluster.num_hosts, _BASE_NY * (2 ** level))
            cells = cell_grid(schedule, cols.cluster == ci, frame, offset,
                              offset + cluster.num_hosts, nx, ny)
            runs = np.stack(cell_runs(cells), axis=1).tolist()
            if not runs:
                continue
            tier_runs += len(runs)
            tier_clusters.append({"c": ci, "ny": ny, "runs": runs})
        if out and spent + tier_runs > max_runs:
            break  # keep at least the coarsest tier, drop finer ones
        out.append({"nx": nx, "clusters": tier_clusters})
        spent += tier_runs
        if tier_runs > max_runs:
            break
    return out


def _task_entries(schedule: Schedule) -> list[dict]:
    """One raw entry per task: its id, times and meta from
    :meth:`~repro.core.model.Schedule.records`, its type index and
    ``[cluster, row0, row1)`` rects from
    :attr:`~repro.core.model.Schedule.columns`."""
    cols = schedule.columns
    # every task has at least one row, and its rows are consecutive
    first = np.flatnonzero(np.diff(cols.task, prepend=-1))
    rects = np.stack((cols.cluster, cols.row0, cols.row1), axis=1).tolist()
    stops = [*first[1:].tolist(), len(rects)]
    entries: list[dict] = []
    for (task_id, _, start, end, _, meta), kind, lo, hi in zip(
            schedule.records(), cols.type[first].tolist(), first.tolist(), stops):
        entry: dict = {"id": task_id, "t": kind, "s": start, "e": end,
                       "r": rects[lo:hi]}
        if meta:
            entry["m"] = {str(k): str(v) for k, v in sorted(meta.items())}
        entries.append(entry)
    return entries


def build_payload(
    schedule: Schedule,
    *,
    cmap: ColorMap | None = None,
    title: str | None = None,
    threshold: int = DEFAULT_HTML_THRESHOLD,
    tiers: int = DEFAULT_HTML_TIERS,
    lod_mode: str = "auto",
    initial: Viewport | None = None,
) -> dict:
    """Build the complete embedded payload for one schedule.

    ``lod_mode`` mirrors the ``lod=`` render parameter: ``"off"`` always
    embeds raw tasks (any size — the caller asked for it), ``"on"``
    always embeds tiers (plus raw tasks when they fit the threshold, so
    the viewer can swap to exact rectangles on deep zoom), ``"auto"``
    embeds raw tasks up to ``threshold`` and tiers beyond it.
    """
    if threshold < 1:
        raise RenderError(f"html threshold must be >= 1, got {threshold}")
    if not 1 <= tiers <= MAX_HTML_TIERS:
        raise RenderError(
            f"html tiers must be in 1..{MAX_HTML_TIERS}, got {tiers}")
    check_lod_mode(lod_mode)
    from repro.core.colormap import default_colormap

    cmap = cmap or default_colormap()
    n = len(schedule)
    fit = Viewport.fit(schedule)
    types = list(schedule.task_types())
    embed_tasks = lod_mode == "off" or n <= threshold
    embed_tiers = lod_mode == "on" or (lod_mode == "auto" and n > threshold)
    raw_budget = _FORCED_LOD_RAW_BUDGET if lod_mode == "on" else threshold
    payload: dict = {
        "version": PAYLOAD_VERSION,
        "title": title,
        "meta": {str(k): str(v) for k, v in sorted(schedule.meta.items())},
        "bounds": {"t0": fit.t0, "t1": fit.t1, "rows": int(fit.r1)},
        "clusters": [
            {"id": c.id, "name": c.name, "hosts": c.num_hosts,
             "offset": schedule.cluster_offset(c.id)}
            for c in schedule.clusters
        ],
        "types": types,
        "colors": [s.bg.css() for s in cmap.type_styles(schedule)],
        "threshold": int(threshold),
        "raw_budget": int(raw_budget),
        "task_count": n,
        "initial": None if initial is None else
                   {"t0": initial.t0, "t1": initial.t1,
                    "r0": initial.r0, "r1": initial.r1},
        "tasks": _task_entries(schedule) if embed_tasks else None,
        "lod": {"tiers": _tiers(schedule, fit.time_frame, tiers,
                                _MAX_TIER_RUNS)}
               if embed_tiers else None,
    }
    return payload


def payload_json(payload: dict) -> str:
    """Compact JSON text of a payload (no embedding escapes applied)."""
    return json.dumps(payload, separators=(",", ":"), allow_nan=False)


def _fail(where: str, message: str) -> None:
    raise RenderError(f"invalid html payload at {where}: {message}")


def _check(cond: bool, where: str, message: str) -> None:
    if not cond:
        _fail(where, message)


def validate_payload(payload: object) -> dict:
    """Structurally validate an embedded payload; returns it on success.

    The oracle of the e2e tests, the html smoke tests and perfbench: the
    JSON parsed back out of an exported page must satisfy exactly the
    schema documented in the module docstring.  The export does not call
    it on the payload :func:`build_payload` has just built.  Raises
    :class:`RenderError` on any violation.
    """
    _check(isinstance(payload, dict), "$", "payload must be an object")
    assert isinstance(payload, dict)
    _check(payload.get("version") == PAYLOAD_VERSION, "version",
           f"expected version {PAYLOAD_VERSION}, got {payload.get('version')!r}")
    for key in ("bounds", "clusters", "types", "colors", "threshold",
                "raw_budget", "task_count", "meta"):
        _check(key in payload, key, "missing required key")
    bounds = payload["bounds"]
    _check(isinstance(bounds, dict), "bounds", "must be an object")
    for key in ("t0", "t1"):
        _check(isinstance(bounds.get(key), (int, float))
               and math.isfinite(bounds[key]), f"bounds.{key}",
               "must be a finite number")
    _check(bounds["t1"] > bounds["t0"], "bounds", "t1 must exceed t0")
    _check(isinstance(bounds.get("rows"), int) and bounds["rows"] >= 1,
           "bounds.rows", "must be a positive integer")
    clusters = payload["clusters"]
    _check(isinstance(clusters, list) and clusters, "clusters",
           "must be a non-empty list")
    offset = 0
    for i, c in enumerate(clusters):
        where = f"clusters[{i}]"
        _check(isinstance(c, dict), where, "must be an object")
        _check(isinstance(c.get("id"), str), f"{where}.id", "must be a string")
        _check(isinstance(c.get("hosts"), int) and c["hosts"] >= 1,
               f"{where}.hosts", "must be a positive integer")
        _check(c.get("offset") == offset, f"{where}.offset",
               f"expected stacked offset {offset}, got {c.get('offset')!r}")
        offset += c["hosts"]
    _check(offset == bounds["rows"], "bounds.rows",
           f"rows {bounds['rows']} != sum of cluster hosts {offset}")
    types, colors = payload["types"], payload["colors"]
    _check(isinstance(types, list)
           and all(isinstance(t, str) for t in types), "types",
           "must be a list of strings")
    _check(isinstance(colors, list) and len(colors) == len(types)
           and all(isinstance(c, str) and c.startswith("#") for c in colors),
           "colors", "must be '#RRGGBB' strings aligned with types")
    n = payload["task_count"]
    _check(isinstance(n, int) and n >= 0, "task_count",
           "must be a non-negative integer")
    tasks = payload.get("tasks")
    tiers_doc = payload.get("lod")
    _check(tasks is not None or tiers_doc is not None, "tasks",
           "payload embeds neither raw tasks nor LOD tiers")
    if tasks is not None:
        _check(isinstance(tasks, list) and len(tasks) == n, "tasks",
               f"expected {n} task entries")
        for i, t in enumerate(tasks):
            where = f"tasks[{i}]"
            _check(isinstance(t, dict), where, "must be an object")
            _check(isinstance(t.get("id"), str), f"{where}.id",
                   "must be a string")
            _check(isinstance(t.get("t"), int)
                   and 0 <= t["t"] < len(types), f"{where}.t",
                   "must index types")
            _check(isinstance(t.get("s"), (int, float))
                   and isinstance(t.get("e"), (int, float))
                   and t["e"] >= t["s"], where, "needs s <= e")
            rects = t.get("r")
            _check(isinstance(rects, list) and rects, f"{where}.r",
                   "must be a non-empty list")
            for rect in rects:
                _check(isinstance(rect, list) and len(rect) == 3
                       and 0 <= rect[0] < len(clusters)
                       and 0 <= rect[1] < rect[2] <= bounds["rows"],
                       f"{where}.r", f"bad rect {rect!r}")
    if tiers_doc is not None:
        _check(isinstance(tiers_doc, dict)
               and isinstance(tiers_doc.get("tiers"), list)
               and tiers_doc["tiers"], "lod.tiers",
               "must be a non-empty list")
        last_nx = 0
        for ti, tier in enumerate(tiers_doc["tiers"]):
            where = f"lod.tiers[{ti}]"
            _check(isinstance(tier, dict), where, "must be an object")
            _check(isinstance(tier.get("nx"), int) and tier["nx"] > last_nx,
                   f"{where}.nx", "tiers must be coarse-to-fine")
            last_nx = tier["nx"]
            _check(isinstance(tier.get("clusters"), list), f"{where}.clusters",
                   "must be a list")
            for band in tier["clusters"]:
                _check(isinstance(band, dict)
                       and isinstance(band.get("c"), int)
                       and 0 <= band["c"] < len(clusters), f"{where}.clusters",
                       "band must reference a cluster index")
                ny = band.get("ny")
                _check(isinstance(ny, int)
                       and 1 <= ny <= clusters[band["c"]]["hosts"],
                       f"{where}.ny", "must be in 1..cluster hosts")
                for run in band.get("runs", ()):
                    ok = (isinstance(run, list) and len(run) == 4
                          and 0 <= run[0] < ny
                          and 0 <= run[1] < run[2] <= tier["nx"]
                          and 0 <= run[3] < len(types))
                    _check(ok, f"{where}.runs", f"bad run {run!r}")
    initial = payload.get("initial")
    if initial is not None:
        _check(isinstance(initial, dict)
               and all(isinstance(initial.get(k), (int, float))
                       for k in ("t0", "t1", "r0", "r1"))
               and initial["t1"] > initial["t0"]
               and initial["r1"] > initial["r0"], "initial",
               "must be a {t0,t1,r0,r1} window")
    return payload
