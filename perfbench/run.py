"""End-to-end and per-layer benchmark of Jedule: render, zoom, batch, serve.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trace_100k --seed 1 --seconds 10 --trace 0

Workloads: ``trace_100k`` (open and zoom a 100k-job trace), ``figure_set``
(paper-scale figures, one by one and as a cached batch) and ``serve_mix``
(the render service under a closed loop of two clients).  Inputs are
generated from ``--seed`` into ``.perfbench-work/inputs`` and reused by
later runs with the same seed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  ``--scale tiny`` shrinks every input (smoke test).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("trace_100k", "figure_set", "serve_mix")
MEASURE_TIMEOUT_S = 175


def ensure_inputs(workload: str, seed: int, scale: str) -> Path:
    """The input directory for (workload, seed, scale), generated once."""
    root = WORK / "inputs"
    target = root / f"{workload}-{scale}-{seed}"
    if (target / "inputs.json").is_file():
        return target
    tmp = root / f".tmp-{target.name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        subprocess.run([sys.executable, str(HERE / "inputs.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--scale", scale, "--out", str(tmp)], check=True)
    except subprocess.CalledProcessError:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(target, ignore_errors=True)
    os.replace(tmp, target)
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no Jedule sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    try:
        in_dir = ensure_inputs(args.workload, args.seed, args.scale)
    except subprocess.CalledProcessError as exc:
        print(f"input generation failed: {exc}", file=sys.stderr)
        return 1
    work = WORK / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "measure.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--inputs", str(in_dir), "--work", str(work)],
            timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"measurement exceeded {MEASURE_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
