"""Measure one workload on already generated inputs (started by run.py).

Prints a table of the workload's metrics, a ``run`` record (seed, input
hashes, environment) and, as its last line, the result object: the
end-to-end metrics untraced, or with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from common import Results, pipeline_gantt  # noqa: E402
from inputs import sha256_file  # noqa: E402

#: metric names and units, as BENCHMARK.json fixes them; every workload
#: reports every end-to-end metric untraced and every per-layer metric
#: traced, 0 for a layer it never reaches (its bypass prediction)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_workload(name: str, res: Results, inputs: dict, in_dir: Path,
                 work: Path, seed: int, seconds: float, traced: bool):
    if name == "trace_100k":
        import wl_trace

        return wl_trace.measure_setup(), wl_trace.run(
            res, inputs, in_dir, seed, traced)
    if name == "figure_set":
        import wl_figures
        from repro.serve.pool import shutdown_shared_pool

        try:
            setup = wl_figures.measure_setup()
            return setup, wl_figures.run(res, inputs, in_dir, work, seconds,
                                         traced)
        finally:
            shutdown_shared_pool()
    import wl_serve

    return wl_serve.measure_setup(work), wl_serve.run(
        res, inputs, in_dir, work, seed, seconds, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    from repro.obs.runlog import env_fingerprint

    in_dir, work = Path(args.inputs), Path(args.work)
    inputs = json.loads((in_dir / "inputs.json").read_text())
    hashes = {name: sha256_file(in_dir / name) for name in inputs["files"]}
    if hashes != inputs["files"]:
        print("generated inputs do not match their recorded hashes",
              file=sys.stderr)
        return 1

    res = Results()
    setup, e2e = run_workload(args.workload, res, inputs, in_dir, work,
                              args.seed, args.seconds, bool(args.trace))
    gantt = ROOT / ".perfbench-work" / "gantt" / \
        f"{args.workload}-{inputs['scale']}-{args.seed}.svg"
    if args.trace:
        pipeline_gantt(res, gantt, f"{args.workload}: traced pipeline")
    res.metric("setup_s", median(setup), "s", len(setup))
    res.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)
    res.metric("error_rate", res.failed / max(res.attempted, 1), "ratio",
               res.attempted)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in res.metrics.items():
        print(f"  {name:<20} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    if args.trace:
        for name, m in sorted(res.layers.items()):
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for error in res.errors[:20]:
        print(f"  error: {error}")
    if args.trace:
        print(f"gantt {gantt}")
    print("run " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "scale": inputs["scale"], "trace": args.trace,
        "inputs": hashes, "env": env_fingerprint()}, sort_keys=True))
    print("detail " + json.dumps({"metrics": res.metrics,
                                  "layers": res.layers}, sort_keys=True))

    if args.trace:
        metrics = {name: {"value": res.layers.get(name, {"value": 0.0})
                          ["value"], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {**e2e, "setup_s": res.metrics["setup_s"]["value"],
                  "output_bytes": res.metrics["output_bytes"]["value"],
                  "peak_rss_mb": res.metrics["peak_rss_mb"]["value"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
