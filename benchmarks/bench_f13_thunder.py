"""Figure 13 — one day of the LLNL Thunder cluster workload.

"The graphic shows the workload of the cluster that was obtained on one day
in 2007. ... On this day, 834 jobs were executed on that cluster.  20 nodes
of this cluster were reserved as login and debug nodes, which can be seen in
the graphic as jobs get only executed by nodes with a number greater than
20.  We also highlighted in yellow the jobs of user 6447."

The PWA trace is not redistributable offline, so the calibrated synthetic
generator of :mod:`repro.workloads.thunder` stands in (see DESIGN.md); the
pipeline (SWF jobs -> EASY scheduler -> bird's-eye schedule -> rendering)
is the one a real trace would flow through.
"""

from __future__ import annotations

from conftest import report

from repro.core.stats import utilization
from repro.render.api import export_schedule
from repro.workloads.bridge import HIGHLIGHT_TYPE, workload_colormap, workload_schedule
from repro.workloads.scheduler import simulate_jobs
from repro.workloads.thunder import (
    THUNDER_NODES,
    THUNDER_RESERVED,
    THUNDER_USER,
    ThunderSpec,
    generate_thunder_day,
)


def test_figure13_thunder_day(benchmark, artifacts_dir):
    spec = ThunderSpec()
    jobs = generate_thunder_day(spec)
    scheduled = simulate_jobs(jobs, THUNDER_NODES, policy="easy",
                              reserved_nodes=THUNDER_RESERVED)
    window = (spec.warmup_seconds, spec.warmup_seconds + spec.day_seconds)
    schedule = workload_schedule(scheduled, THUNDER_NODES,
                                 highlight_user=THUNDER_USER, window=window)

    highlighted = schedule.tasks_of_type(HIGHLIGHT_TYPE)
    min_node = min(min(t.hosts_in("0")) for t in schedule)

    report("Figure 13 (LLNL Thunder, one day in 2007)", [
        ("cluster nodes", "1024", str(THUNDER_NODES)),
        ("reserved login/debug nodes", "20 (nodes 0-19 empty)",
         f"{len(THUNDER_RESERVED)} (lowest used node: {min_node})"),
        ("jobs finished on the day", "834", str(len(schedule))),
        ("highlighted user", "6447 (yellow)",
         f"{THUNDER_USER} ({len(highlighted)} jobs)"),
        ("day utilization", "(busy cluster)",
         f"{utilization(schedule):.2f}"),
    ])

    assert len(schedule) == 834
    assert min_node >= 20
    assert highlighted

    export_schedule(schedule, artifacts_dir / "figure13_thunder.png",
                    cmap=workload_colormap(), width=1200, height=700,
                    title="LLNL Thunder, one day")

    def pipeline():
        j = generate_thunder_day(spec)
        s = simulate_jobs(j, THUNDER_NODES, policy="easy",
                          reserved_nodes=THUNDER_RESERVED)
        return workload_schedule(s, THUNDER_NODES, window=window)

    result = benchmark.pedantic(pipeline, rounds=3, iterations=1)
    assert len(result) == 834
