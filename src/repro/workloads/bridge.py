"""Bridge: scheduled cluster jobs -> Jedule schedules (Figure 13).

Every job becomes one rectangle spanning its node set (nodes are the
resource rows of the 1024-node cluster view); an optional highlighted user
gets a distinct task type so a color map can paint those jobs yellow.

:func:`schedule_from_swf` goes the other way around the archive: it turns a
raw SWF trace file directly into a schedule, honoring the recorded
submit/wait/run times and synthesizing a first-fit node placement (SWF
records carry node *counts*, not node lists).  The format registry exposes
it as the ``swf`` schedule format.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.core.colormap import ColorMap
from repro.core.model import Cluster, Configuration, Schedule, Task, hosts_to_ranges
from repro.workloads.scheduler import ScheduledJob

__all__ = ["workload_schedule", "workload_colormap", "schedule_from_swf",
           "JOB_TYPE", "HIGHLIGHT_TYPE"]

JOB_TYPE = "job"
HIGHLIGHT_TYPE = "job:highlight"


def workload_schedule(
    scheduled: Iterable[ScheduledJob],
    n_nodes: int,
    *,
    highlight_user: int | None = None,
    window: tuple[float, float] | None = None,
    cluster_name: str = "cluster",
) -> Schedule:
    """Build the bird's-eye view schedule of a cluster workload.

    ``window`` keeps only jobs *finishing* inside ``[t0, t1)`` — the paper
    selects "all jobs that finished on 02/02" — and clips nothing: kept
    jobs are drawn with their full extent, like Figure 13.
    """
    schedule = Schedule(meta={"nodes": str(n_nodes)})
    schedule.add_cluster(Cluster("0", n_nodes, cluster_name))
    count = 0
    for record in scheduled:
        if window is not None and not (window[0] <= record.end_time < window[1]):
            continue
        job = record.job
        task_type = HIGHLIGHT_TYPE if (highlight_user is not None
                                       and job.user == highlight_user) else JOB_TYPE
        schedule.add_task(Task(
            str(job.id), task_type, record.start_time, record.end_time,
            [Configuration("0", hosts_to_ranges(record.nodes))],
            meta={"user": str(job.user), "nodes": str(job.nodes),
                  "wait": f"{record.wait_time:.1f}"},
        ))
        count += 1
    schedule.meta["jobs"] = str(count)
    return schedule


def schedule_from_swf(
    path: str | Path,
    *,
    only_completed: bool = True,
    cluster_name: str | None = None,
) -> Schedule:
    """Load an SWF trace file as a schedule (the registry's ``swf`` loader).

    Jobs keep their recorded timing (``start = submit + wait``); node
    placement is synthesized first-fit in start order, since SWF stores only
    processor counts.  The cluster is sized to ``MaxProcs`` (or the widest
    concurrent demand, whichever is larger), so inconsistent traces still
    load rather than fail.
    """
    from repro.io import swf as _swf

    trace = _swf.load(path)
    jobs = [j for j in trace.jobs
            if j.allocated_procs > 0 and j.run_time > 0
            and (j.completed or not only_completed)]
    jobs.sort(key=lambda j: (j.start_time, j.job_id))

    n_nodes = max(trace.max_procs, 1)
    free: list[int] = list(range(n_nodes))
    heapq.heapify(free)
    running: list[tuple[float, int, tuple[int, ...]]] = []  # (end, id, nodes)

    # the file name, not its path: the same trace renders (and digests) the
    # same from any directory
    schedule = Schedule(meta={"source": Path(path).name})
    for key in ("Computer", "Installation", "MaxNodes"):
        if key in trace.header:
            schedule.meta[key.lower()] = trace.header[key]

    placed: list[tuple[_swf.SWFJob, tuple[int, ...]]] = []
    for job in jobs:
        while running and running[0][0] <= job.start_time:
            _, _, nodes = heapq.heappop(running)
            for n in nodes:
                heapq.heappush(free, n)
        want = job.allocated_procs
        if want > len(free):  # trace over-commits the declared machine
            grow = want - len(free)
            for n in range(n_nodes, n_nodes + grow):
                heapq.heappush(free, n)
            n_nodes += grow
        nodes = tuple(heapq.heappop(free) for _ in range(want))
        heapq.heappush(running, (job.end_time, job.job_id, nodes))
        placed.append((job, nodes))

    schedule.add_cluster(Cluster(
        "0", n_nodes, cluster_name or trace.header.get("Computer") or Path(path).stem))
    for job, nodes in placed:
        schedule.add_task(Task(
            str(job.job_id), JOB_TYPE, job.start_time, job.end_time,
            [Configuration("0", hosts_to_ranges(nodes))],
            meta={"user": str(job.user_id), "nodes": str(len(nodes)),
                  "wait": f"{job.wait_time:.1f}"},
        ))
    schedule.meta["jobs"] = str(len(placed))
    return schedule


def workload_colormap() -> ColorMap:
    """Figure 13 colors: blue-ish jobs, yellow highlighted user."""
    cmap = ColorMap("workload")
    cmap.set_style(JOB_TYPE, "4477AA", "FFFFFF")
    cmap.set_style(HIGHLIGHT_TYPE, "FFD700", "000000")
    return cmap
