"""Seeded input generation for the benchmark workloads.

Usage::

    python perfbench/inputs.py --workload trace_100k --seed 1 --out DIR

writes the workload's input files into ``DIR`` plus an ``inputs.json``
index with the SHA-256 of every file.  The same seed always produces the
same files, byte for byte, so generated inputs can be reused across runs.
``--scale tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.model import Schedule  # noqa: E402
from repro.io import save_schedule  # noqa: E402

TRACE_TYPES = ("ft", "lu", "mg", "cg")

#: workload -> scale -> size knobs
SIZES = {
    "trace_100k": {"full": {"jobs": 100_000}, "tiny": {"jobs": 5_000}},
    "figure_set": {"full": {"variants": 10}, "tiny": {"variants": 1}},
    "serve_mix": {"full": {"small": 1_000, "large": 10_000},
                  "tiny": {"small": 100, "large": 1_000}},
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def synthetic_trace(n_jobs: int, hosts: int, rng: random.Random) -> Schedule:
    """A random rigid-job schedule shaped like a cluster trace (the shape
    of the LOD and HTML-export benchmarks)."""
    s = Schedule()
    s.new_cluster("c0", hosts)
    for i in range(n_jobs):
        start = rng.uniform(0.0, 100_000.0)
        duration = rng.uniform(10.0, 3_000.0)
        s.new_task(f"j{i}", rng.choice(TRACE_TYPES), start, start + duration,
                   cluster="c0", host_start=rng.randrange(hosts - 8),
                   host_nb=rng.randint(1, 8))
    return s


# ------------------------------------------------------------- figure kinds
# Ten variants of six paper-style figures.  Variant ``i`` fixes the size, so
# every seed yields the same mix of sizes; the seed only varies content.
def fig_annotated(i: int, rng: random.Random) -> Schedule:
    """The paper's small annotated two-cluster example, grown per variant."""
    s = Schedule(meta={"figure": "annotated"})
    hosts = (4 + i % 4, 2 + i % 3)
    for c, n in enumerate(hosts):
        s.new_cluster(str(c), n, name=f"cluster {c}")
    for k in range(10 + 3 * i):
        c = k % 2
        nb = rng.randint(1, hosts[c])
        start = rng.uniform(0.0, 20.0)
        s.new_task(f"t{k}", rng.choice(("comp", "comm")), start,
                   start + rng.uniform(0.5, 4.0), cluster=str(c),
                   host_start=rng.randrange(hosts[c] - nb + 1), host_nb=nb)
    return s


def fig_composites(i: int, rng: random.Random) -> Schedule:
    """Computation overlapping communication on every host pair."""
    s = Schedule(meta={"figure": "composites"})
    pairs = 4 + 2 * i
    s.new_cluster("0", 2 * pairs)
    for p in range(pairs):
        t = 0.0
        for k in range(3 + i // 2):
            start = t + rng.uniform(0.0, 0.5)
            end = start + rng.uniform(1.0, 3.0)
            s.new_task(f"comp{p}_{k}", "comp", start, end, cluster="0",
                       host_start=2 * p, host_nb=2)
            s.new_task(f"comm{p}_{k}", "comm", start + 0.5 * (end - start),
                       end + rng.uniform(0.2, 1.0), cluster="0",
                       host_start=2 * p, host_nb=2)
            t = end
    return s


def fig_heft_montage(i: int, rng: random.Random) -> Schedule:
    from repro.dag.montage import montage_workflow
    from repro.platform.builders import heterogeneous_platform
    from repro.sched import DagProblem, run_scheduler

    graph = montage_workflow(4 + 3 * i, data_scale=10.0,
                             seed=rng.randrange(2**31))
    platform = heterogeneous_platform(flat_backbone=bool(i % 2))
    return run_scheduler("heft", DagProblem(graph, platform)).schedule


def fig_mtask(i: int, rng: random.Random) -> Schedule:
    """CPA or MCPA on a wide DAG (the paper's M-task case study)."""
    from repro.dag.generators import wide_dag
    from repro.dag.moldable import AmdahlModel
    from repro.platform.builders import homogeneous_cluster
    from repro.sched import DagProblem, run_scheduler

    problem = DagProblem(wide_dag(10 + 8 * i, seed=rng.randrange(2**31)),
                         homogeneous_cluster(32, 1e9), AmdahlModel(0.02))
    return run_scheduler(("cpa", "mcpa")[i % 2], problem).schedule


def fig_cra(i: int, rng: random.Random) -> Schedule:
    """CRA over several competing applications (multi-DAG case study)."""
    from repro.dag.generators import LayeredDagSpec, layered_dag
    from repro.dag.moldable import AmdahlModel
    from repro.platform.builders import homogeneous_cluster
    from repro.sched import MultiDagProblem, run_scheduler

    graphs = [layered_dag(LayeredDagSpec(n_tasks=6 + 3 * i, layers=4),
                          seed=rng.randrange(2**31), name=f"app{a}")
              for a in range(4)]
    problem = MultiDagProblem(graphs, homogeneous_cluster(20, 1e9),
                              AmdahlModel(0.05))
    return run_scheduler("cra", problem, policy="work", mu=0.5).schedule


def fig_thunder(i: int, rng: random.Random):
    """A simulated Thunder day as a raw SWF trace (100..1000 jobs)."""
    from repro.io.swf import SWFJob, SWFTrace
    from repro.workloads.scheduler import simulate_jobs
    from repro.workloads.thunder import THUNDER_NODES, ThunderSpec, \
        generate_thunder_day

    jobs = generate_thunder_day(ThunderSpec(n_jobs=100 + 100 * i),
                                seed=rng.randrange(2**31))
    trace = SWFTrace()
    trace.header["MaxProcs"] = str(THUNDER_NODES)
    trace.jobs = [
        SWFJob(job_id=r.job.id, submit_time=r.job.submit_time,
               wait_time=r.wait_time, run_time=r.job.run_time,
               allocated_procs=r.job.nodes, requested_procs=r.job.nodes,
               requested_time=r.job.time_limit, status=1, user_id=r.job.user)
        for r in simulate_jobs(jobs, THUNDER_NODES)]
    return trace


#: kind -> (generator, file suffix, manifest options)
FIGURES = {
    "annotated": (fig_annotated, "jed", {}),
    "composites": (fig_composites, "jed", {"composites": True}),
    "heft_montage": (fig_heft_montage, "json", {"auto_colors": ""}),
    "mtask": (fig_mtask, "csv", {}),
    "cra": (fig_cra, "json", {"auto_colors": ""}),
    "thunder": (fig_thunder, "swf", {"height": 600}),
}


# -------------------------------------------------------------- workloads
def gen_trace(out: Path, rng: random.Random, sizes: dict) -> dict:
    save_schedule(synthetic_trace(sizes["jobs"], 1024, rng), out / "trace.jed")
    return {"jobs": sizes["jobs"]}


def gen_figures(out: Path, rng: random.Random, sizes: dict) -> dict:
    from repro.io.registry import load_schedule
    from repro.io.swf import dump as swf_dump

    figures = []
    for i in range(sizes["variants"]):
        for kind, (make, suffix, options) in FIGURES.items():
            name = f"{kind}_{i:02d}.{suffix}"
            made = make(i, rng)
            if suffix == "swf":
                swf_dump(made, out / name)
            else:
                save_schedule(made, out / name)
            figures.append({"input": name, "title": f"{kind} {i}",
                            "tasks": len(load_schedule(out / name)),
                            **options})
    return {"figures": figures}


def gen_serve(out: Path, rng: random.Random, sizes: dict) -> dict:
    """Base schedules the serve stream draws from: four small, two large."""
    bases = []
    for k in range(6):
        size = "small" if k < 4 else "large"
        n = sizes[size]
        name = f"{size}_{k}.json"
        save_schedule(synthetic_trace(n, 128 if size == "small" else 512, rng),
                      out / name)
        bases.append({"input": name, "size": size, "tasks": n})
    return {"bases": bases}


GENERATORS = {"trace_100k": gen_trace, "figure_set": gen_figures,
              "serve_mix": gen_serve}


def generate(workload: str, seed: int, scale: str, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    index = GENERATORS[workload](out, rng, SIZES[workload][scale])
    index.update(workload=workload, seed=seed, scale=scale,
                 files={p.name: sha256_file(p)
                        for p in sorted(out.iterdir()) if p.is_file()})
    (out / "inputs.json").write_text(json.dumps(index, indent=1))
    return index


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.scale, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
