"""Figure 5 — CRA_WORK scheduling four applications on 20 processors.

"Four mixed-parallel applications, each having its own color, are scheduled
on a cluster of 20 processors.  The resource constraints imposed by the
algorithm are respected. ... It also points out that the initial
distribution of the processors among the applications can be too
restrictive.  For instance, processors 17 to 19 are clearly underused."

Also exercises the Section IV backfilling check: "no task is delayed by
this step.  The reduction of the total idle time can also be easily
quantified."
"""

from __future__ import annotations

from conftest import pinned, report

from repro.core.colormap import auto_colormap
from repro.core.stats import idle_area, per_host_busy_time
from repro.dag.generators import LayeredDagSpec, layered_dag
from repro.dag.moldable import AmdahlModel
from repro.platform.builders import homogeneous_cluster
from repro.render.api import export_schedule
from repro.sched.backfill import backfill_cra
from repro.sched.cra import cra_schedule
from repro.sched.metrics import jain_fairness, stretches
from repro.sched.cpa import cpa_schedule

MODEL = AmdahlModel(0.05)


def _apps():
    """Four applications of clearly different sizes, so the work-based
    shares differ from an equal split.  The lightest application comes last:
    with mu = 0.5 its share is generous relative to its work, which is what
    leaves the tail processors (17-19) underused in Figure 5."""
    sizes = (26, 18, 12, 8)
    return [layered_dag(LayeredDagSpec(n_tasks=n, layers=4), seed=3 + i,
                        name=f"app{i}") for i, n in enumerate(sizes)]


def test_figure5_cra_work(benchmark, artifacts_dir):
    graphs = _apps()
    platform = homogeneous_cluster(20, 1e9)
    result = cra_schedule(graphs, platform, MODEL, policy="work", mu=0.5)

    # constraint check (the paper's headline use of the visualization)
    violations = 0
    for block, app_result in zip(result.blocks, result.app_results):
        for p in app_result.mapping.placements:
            if not set(p.hosts) <= set(block):
                violations += 1

    busy = per_host_busy_time(result.schedule)
    mean_busy = sum(busy.values()) / len(busy)
    tail_busy = [busy[("0", h)] for h in (17, 18, 19)]

    backfilled = backfill_cra(result, graphs, platform, MODEL)
    idle_before = idle_area(result.schedule)
    idle_after = idle_area(backfilled)
    delayed = sum(1 for t in result.schedule
                  if backfilled.task(t.id).end_time > t.end_time + 1e-9)

    # The list mapper is already tight, so also demonstrate the pass on a
    # loosened schedule (tasks released late, as after a queueing delay):
    # backfilling must recover the slack without delaying anyone.
    from repro.core.model import Schedule
    from repro.sched.backfill import backfill_mapping
    from repro.simulate.executor import SimResult

    app0 = result.app_results[0]
    loose_sched = Schedule(app0.sim.schedule.clusters, meta=app0.sim.schedule.meta)
    loose_start, loose_finish = {}, {}
    for t in app0.sim.schedule:
        nt = t.shifted(app0.sim.start[t.id] * 0.5 + 0.2)
        loose_sched.add_task(nt)
        loose_start[t.id], loose_finish[t.id] = nt.start_time, nt.end_time
    loose = SimResult(loose_sched, loose_start, loose_finish)
    recompacted = backfill_mapping(graphs[0], app0.mapping, loose,
                                   platform, MODEL)
    loose_delayed = sum(
        1 for v in loose_start
        if recompacted.finish[v] > loose_finish[v] + 1e-9)

    dedicated = [cpa_schedule(g, platform, MODEL).makespan for g in graphs]
    contended = [r.sim.schedule.end_time for r in result.app_results]
    app_stretches = stretches(contended, dedicated)

    report("Figure 5 (CRA_WORK, 4 apps on 20 processors)", [
        ("applications", "4", str(len(result.app_results))),
        ("processors", "20", str(sum(result.shares))),
        ("shares", "work-proportional",
         "/".join(str(x) for x in result.shares)),
        ("constraint violations", "0 (respected)", str(violations)),
        ("tail procs 17-19 busy vs mean", "clearly underused",
         f"{min(tail_busy):.2f} vs {mean_busy:.2f} s"),
        ("stretches", ">= 1, ideally equal",
         "/".join(f"{s:.2f}" for s in app_stretches)),
        ("stretch fairness (Jain)", "-> 1 is fair",
         f"{jain_fairness(app_stretches):.3f}"),
        ("backfill: tasks delayed", "0 (conservative)", str(delayed)),
        ("backfill: idle reduction", "quantifiable",
         f"{idle_before:.1f} -> {idle_after:.1f} host*s"),
        ("backfill on loose schedule", "recovers slack, delays 0",
         f"makespan {loose.schedule.makespan:.2f} -> "
         f"{recompacted.schedule.makespan:.2f} s, delayed {loose_delayed}"),
    ])
    assert {"constraint_violations": violations,
            "max_stretch": max(app_stretches),
            "jain_fairness": jain_fairness(app_stretches),
            "idle_before_backfill": idle_before,
            "idle_after_backfill": idle_after,
            "backfill_delayed_tasks": delayed} == pinned(
        {"constraint_violations": 0,
         "max_stretch": 3.832599151158383,
         "jain_fairness": 0.9709089717248571,
         "idle_before_backfill": 32.709052829038356,
         "idle_after_backfill": 32.709052829038356,
         "backfill_delayed_tasks": 0})

    assert violations == 0
    assert min(tail_busy) < mean_busy
    assert delayed == 0
    assert idle_after <= idle_before + 1e-9
    assert loose_delayed == 0
    assert recompacted.schedule.makespan < loose.schedule.makespan

    cmap = auto_colormap(result.schedule)  # one color per application
    export_schedule(result.schedule, artifacts_dir / "figure05_cra.png",
                    cmap=cmap, width=800, height=450, title="CRA_WORK")
    export_schedule(backfilled, artifacts_dir / "figure05_cra_backfilled.png",
                    cmap=cmap, width=800, height=450,
                    title="CRA_WORK + backfilling")

    benchmark(cra_schedule, graphs, platform, MODEL)
