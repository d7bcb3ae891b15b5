"""Level-of-detail scaling — full vs. aggregated rendering at 1k/10k/100k jobs.

The LOD pipeline exists so that a schedule the size of a full PWA trace
(~100k jobs) renders in bounded time and with a bounded primitive count:
aggregation bins tasks into (host-band x time-bucket) cells, so the output
is sized by the pixel grid, not by the workload.  This benchmark generates
synthetic traces at three scales, renders each with ``lod="off"`` and
``lod="auto"``, and checks the crossover behaviour:

* below the auto threshold the two paths are byte-identical;
* at 100k jobs the aggregated path is at least 5x faster and emits far
  fewer rectangles than there are tasks.
"""

from __future__ import annotations

import random
import timeit

from conftest import render_bytes, report

from repro.core.model import Schedule
from repro.render.layout import layout_schedule
from repro.render.lod import LOD_REF_PREFIX

HOSTS = 1024
SIZES = (1_000, 10_000, 100_000)
TYPES = ("ft", "lu", "mg", "cg")


def synthetic_trace(n_jobs: int, hosts: int = HOSTS, seed: int = 7) -> Schedule:
    """A random rigid-job schedule shaped like a cluster trace."""
    rng = random.Random(seed)
    s = Schedule()
    s.new_cluster("c0", hosts)
    for i in range(n_jobs):
        start = rng.uniform(0.0, 100_000.0)
        duration = rng.uniform(10.0, 3_000.0)
        host_start = rng.randrange(hosts - 8)
        s.new_task(f"j{i}", rng.choice(TYPES), start, start + duration,
                   cluster="c0", host_start=host_start,
                   host_nb=rng.randint(1, 8))
    return s


def test_lod_scaling(benchmark, artifacts_dir):
    schedules = {n: synthetic_trace(n) for n in SIZES}

    def best_render_s(s: Schedule, lod: str) -> float:
        return min(timeit.repeat(lambda: render_bytes(s, "png", lod=lod),
                                 number=1, repeat=3))

    timings = {n: (best_render_s(s, "off"), best_render_s(s, "auto"))
               for n, s in schedules.items()}

    big = schedules[SIZES[-1]]
    d = layout_schedule(big, lod="auto")
    lod_rects = sum(1 for r in d.rects
                    if r.ref and r.ref.startswith(LOD_REF_PREFIX))

    rows = []
    for n, (t_off, t_auto) in timings.items():
        rows.append((f"{n} jobs", f"off {t_off * 1e3:.0f} ms",
                     f"auto {t_auto * 1e3:.0f} ms ({t_off / t_auto:.1f}x)"))
    rows.append((f"rects at {SIZES[-1]} jobs", f"{SIZES[-1]} tasks",
                 f"{lod_rects} aggregated"))
    report("LOD scaling (full vs aggregated rendering)", rows)

    # Small inputs stay on the exact per-task path: identical output bytes.
    small = schedules[SIZES[0]]
    assert render_bytes(small, "png", lod="auto") == \
        render_bytes(small, "png", lod="off")

    # The headline claim: >= 5x at 100k jobs, and the primitive count is
    # bounded by the pixel grid rather than the task count.
    t_off, t_auto = timings[SIZES[-1]]
    assert t_off / t_auto >= 5.0
    assert 0 < lod_rects < SIZES[-1] / 2

    (artifacts_dir / "lod_scaling_100k.png").write_bytes(
        render_bytes(big, "png", lod="auto", title="100k jobs, LOD auto"))

    result = benchmark.pedantic(
        lambda: render_bytes(big, "png", lod="auto"), rounds=3, iterations=1)
    assert result  # non-empty PNG bytes
