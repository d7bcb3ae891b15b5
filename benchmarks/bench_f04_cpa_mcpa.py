"""Figure 4 — CPA vs. MCPA on a load-imbalanced precedence layer.

"One can observe that the CPA algorithm exploits the computational
resources of the cluster better than MCPA.  In case of MCPA, the schedule
contains large holes that correspond to idle CPU time. ... tasks in the
precedence layer have different costs (e.g., tasks 2 and 5), which leads to
a load imbalance. ... For the example shown in Figure 4 the poly-algorithm
MCPA2 generates the same schedule as CPA."

Regenerates the pathological instance, prints the side-by-side comparison
the figure shows, renders both schedules, and verifies the MCPA2 fix.
"""

from __future__ import annotations

from conftest import pinned, report

from repro.core.stats import low_utilization_windows, utilization
from repro.dag.generators import imbalanced_layer_dag
from repro.dag.moldable import AmdahlModel
from repro.platform.builders import homogeneous_cluster
from repro.render.api import export_schedule
from repro.sched.cpa import cpa_schedule
from repro.sched.mcpa import mcpa_schedule
from repro.sched.mcpa2 import mcpa2_schedule

MODEL = AmdahlModel(0.02)


def test_figure4_cpa_vs_mcpa(benchmark, artifacts_dir):
    graph = imbalanced_layer_dag(width=30, heavy_factor=12, seed=1)
    platform = homogeneous_cluster(32, 1e9)

    cpa = cpa_schedule(graph, platform, MODEL)
    mcpa = mcpa_schedule(graph, platform, MODEL)
    mcpa2 = mcpa2_schedule(graph, platform, MODEL)

    holes = low_utilization_windows(mcpa.schedule, 4,
                                    min_duration=0.05 * mcpa.makespan)
    report("Figure 4 (CPA vs MCPA, 32-proc homogeneous cluster)", [
        ("CPA makespan", "(shorter schedule)", f"{cpa.makespan:.2f} s"),
        ("MCPA makespan", "(longer, with holes)", f"{mcpa.makespan:.2f} s"),
        ("MCPA/CPA ratio", "> 1 (MCPA loses here)",
         f"{mcpa.makespan / cpa.makespan:.2f}"),
        ("CPA utilization", "(better)", f"{utilization(cpa.schedule):.2f}"),
        ("MCPA utilization", "(worse: idle holes)",
         f"{utilization(mcpa.schedule):.2f}"),
        ("MCPA idle holes (<=4 busy)", "large holes visible", str(len(holes))),
        ("MCPA2 branch", "same schedule as CPA",
         mcpa2.mapping.meta["mcpa2_branch"]),
        ("MCPA2 makespan", f"== CPA ({cpa.makespan:.2f})",
         f"{mcpa2.makespan:.2f} s"),
    ])
    assert {"cpa_makespan": cpa.makespan,
            "mcpa_makespan": mcpa.makespan,
            "mcpa2_makespan": mcpa2.makespan,
            "cpa_utilization": utilization(cpa.schedule),
            "mcpa_utilization": utilization(mcpa.schedule),
            "mcpa_idle_holes": len(holes)} == pinned(
        {"cpa_makespan": 4.173606968328024,
         "mcpa_makespan": 8.420077988095805,
         "mcpa2_makespan": 4.173606968328024,
         "cpa_utilization": 0.7066379176536801,
         "mcpa_utilization": 0.3287543578937428,
         "mcpa_idle_holes": 1})

    assert mcpa.makespan > 1.5 * cpa.makespan
    assert utilization(mcpa.schedule) < utilization(cpa.schedule)
    assert holes
    assert mcpa2.mapping.meta["mcpa2_branch"] == "cpa"
    assert abs(mcpa2.makespan - cpa.makespan) < 1e-9

    export_schedule(cpa.schedule, artifacts_dir / "figure04_cpa.png",
                    width=700, height=450, title="CPA")
    export_schedule(mcpa.schedule, artifacts_dir / "figure04_mcpa.png",
                    width=700, height=450, title="MCPA")

    def schedule_both():
        cpa_schedule(graph, platform, MODEL)
        return mcpa_schedule(graph, platform, MODEL)

    benchmark(schedule_both)
