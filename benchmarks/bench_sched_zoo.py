"""Scheduler zoo — deterministic quality metrics for the online schedulers.

Every scheduler of the online/OS families runs on the same seeded Poisson
arrival trace through the registry; the resulting makespan, flow/stretch
and fairness metrics are pinned at their recorded values, so any
behavioural drift in the policies fails here.  Two ablations ride along:
the round-robin quantum sweep (smaller quanta → fairer but choppier) and
the MLFQ feedback-level sweep.
"""

from __future__ import annotations

from conftest import pinned, report

from repro.core.slices import validate_slices
from repro.render.api import export_schedule
from repro.sched.registry import JobsProblem, run_scheduler
from repro.workloads.arrivals import poisson_arrivals

#: scheduler name -> options (all explicit, so defaults may evolve freely)
ZOO = {
    "rr": {"cpus": 2, "quantum": 4.0},
    "sjf": {"cpus": 2},
    "mlfq": {"cpus": 2, "levels": 3, "quantum": 2.0, "boost": 60.0},
    "cfs": {"cpus": 2, "latency": 12.0, "min_granularity": 1.5},
    "online-list": {"speeds": "2,1.5,1,1", "eligibility": "gos", "levels": 2},
    "moldable-list": {"alpha": 0.5, "cap": 0.5},
}

_KEEP = ("makespan", "mean_flow", "max_flow", "mean_stretch", "max_stretch",
         "jain_fairness", "preemptions", "slices", "shrunk_jobs")

#: recorded metrics, per scheduler (or sweep point) and metric name
ZOO_PINNED = {
    "rr": dict(makespan=172.553696634, mean_flow=23.204039701,
               max_flow=61.049218082, mean_stretch=1.936213676,
               max_stretch=4.218966594, jain_fairness=0.787765399,
               preemptions=0, slices=62),
    "sjf": dict(makespan=172.553696634, mean_flow=16.549179892,
                max_flow=69.737737709, mean_stretch=1.25854685,
                max_stretch=3.12330581, jain_fairness=0.82952406,
                preemptions=6, slices=30),
    "mlfq": dict(makespan=172.553696634, mean_flow=24.59580362,
                 max_flow=62.318453017, mean_stretch=2.052839843,
                 max_stretch=4.179967355, jain_fairness=0.78285126,
                 preemptions=11, slices=70),
    "cfs": dict(makespan=172.553696634, mean_flow=24.382613416,
                max_flow=71.156375167, mean_stretch=1.994335964,
                max_stretch=3.414331876, jain_fairness=0.805859172,
                preemptions=6, slices=87),
    "online-list": dict(makespan=164.246299071, mean_flow=6.821545903,
                        max_flow=13.11757895, mean_stretch=1.255231729,
                        max_stretch=2.169445714, jain_fairness=0.925075698),
    "moldable-list": dict(makespan=351.290820306, mean_flow=73.950913971,
                          max_flow=253.092558967, mean_stretch=5.217770036,
                          max_stretch=16.086754996, jain_fairness=0.622969387,
                          shrunk_jobs=11),
}
QUANTUM_PINNED = {
    "q1": dict(makespan=172.553696634, mean_stretch=1.982777737, slices=195),
    "q2": dict(makespan=172.553696634, mean_stretch=1.994369709, slices=110),
    "q4": dict(makespan=172.553696634, mean_stretch=1.936213676, slices=62),
    "q8": dict(makespan=172.553696634, mean_stretch=1.969156564, slices=38),
    "q16": dict(makespan=172.553696634, mean_stretch=1.847139135, slices=28),
}
LEVELS_PINNED = {
    "levels1": dict(makespan=172.553696634, mean_stretch=1.994369709,
                    preemptions=0),
    "levels2": dict(makespan=172.553696634, mean_stretch=1.879352219,
                    preemptions=12),
    "levels3": dict(makespan=172.553696634, mean_stretch=2.243302875,
                    preemptions=12),
    "levels4": dict(makespan=172.553696634, mean_stretch=2.196188034,
                    preemptions=11),
}


def _flat(table: dict) -> dict:
    """``{"rr": {"makespan": x}}`` as ``{"rr.makespan": x}``."""
    return {f"{row}.{key}": value
            for row, values in table.items() for key, value in values.items()}


def _problem() -> JobsProblem:
    return JobsProblem(poisson_arrivals(n=24, rate=0.15, mean_work=15.0,
                                        seed=11), machines=8)


def test_zoo_metrics(artifacts_dir):
    problem = _problem()
    metrics: dict[str, float] = {}
    rows = []
    for name, options in ZOO.items():
        result = run_scheduler(name, problem, **options)
        assert validate_slices(result.schedule) == []
        for key in _KEEP:
            if key in result.metrics:
                metrics[f"{name}.{key}"] = round(result.metrics[key], 9)
        rows.append((name, "(online, no paper figure)",
                     f"makespan {result.metrics['makespan']:.2f}  "
                     f"stretch {result.metrics['mean_stretch']:.2f}"))
        export_schedule(result.schedule,
                        artifacts_dir / f"sched_zoo_{name}.png",
                        width=1000, height=420, auto_colors="job",
                        title=f"{name}: 24 Poisson arrivals")

    # SRPT is flow-optimal on one machine; on 2 CPUs it must still beat RR
    assert metrics["sjf.mean_flow"] < metrics["rr.mean_flow"]

    report("Scheduler zoo (online + OS pack)", rows)
    assert metrics == pinned(_flat(ZOO_PINNED))


def test_quantum_ablation(artifacts_dir):
    """RR quantum sweep: slices shrink monotonically as the quantum grows."""
    problem = _problem()
    metrics: dict[str, float] = {}
    slices_by_q = []
    for quantum in (1.0, 2.0, 4.0, 8.0, 16.0):
        result = run_scheduler("rr", problem, cpus=2, quantum=quantum)
        key = f"q{quantum:g}"
        metrics[f"{key}.makespan"] = round(result.metrics["makespan"], 9)
        metrics[f"{key}.mean_stretch"] = round(result.metrics["mean_stretch"], 9)
        metrics[f"{key}.slices"] = result.metrics["slices"]
        slices_by_q.append(result.metrics["slices"])
    assert slices_by_q == sorted(slices_by_q, reverse=True)
    assert metrics == pinned(_flat(QUANTUM_PINNED))


def test_mlfq_levels_ablation(artifacts_dir):
    """MLFQ level sweep: 1 level degenerates to RR, more levels favor
    short jobs (mean stretch must not get worse than the 1-level run)."""
    problem = _problem()
    metrics: dict[str, float] = {}
    stretch_by_levels = {}
    for levels in (1, 2, 3, 4):
        result = run_scheduler("mlfq", problem, cpus=2, levels=levels,
                               quantum=2.0)
        key = f"levels{levels}"
        metrics[f"{key}.makespan"] = round(result.metrics["makespan"], 9)
        metrics[f"{key}.mean_stretch"] = round(result.metrics["mean_stretch"], 9)
        metrics[f"{key}.preemptions"] = result.metrics["preemptions"]
        stretch_by_levels[levels] = result.metrics["mean_stretch"]

    rr = run_scheduler("rr", problem, cpus=2, quantum=2.0)
    assert stretch_by_levels[1] == rr.metrics["mean_stretch"], \
        "1-level MLFQ must degenerate to round-robin"
    assert metrics == pinned(_flat(LEVELS_PINNED))
