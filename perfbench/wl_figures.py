"""``figure_set``: paper-scale figures, one by one and as a cached batch.

Each round renders every figure in-process to PNG and SVG (the ``jedule
render`` path), then runs the figure manifest through ``run_manifest``
on two warm workers, once cold into a fresh cache and once more, all
hits.  Raster, PNG encode, SVG emit, the batch runner and the render
cache carry the cost; no figure is large enough for LOD.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from time import perf_counter

from common import (
    REF_SLICE_S,
    Results,
    attribute_phase,
    output_ok,
    reference_slice,
    staged_render,
    timed,
    traced_phase,
)

SETUP_REPEATS = 21
MIN_ROUNDS = 3
#: warm batches per round; each takes a few tens of milliseconds
WARM_REPEATS = 3
WORKERS = 2
FORMATS = ("png", "svg")
DEFAULTS = {"width": 900, "height": 480}


def measure_setup() -> list[float]:
    """Warm-pool spawn plus a ping of every worker, several times."""
    from repro.serve.pool import shared_pool, shutdown_shared_pool

    samples = []
    for i in range(SETUP_REPEATS):
        if i:
            shutdown_shared_pool()
        started = perf_counter()
        pool = shared_pool(WORKERS)
        for index in range(pool.size):
            pool.worker(index).ping()
        samples.append(perf_counter() - started)
    return samples


def _requests(inputs: dict, in_dir: Path):
    """(figure, format, request) for every output of the figure set."""
    from repro.render.api import RenderRequest

    out = []
    for fig in inputs["figures"]:
        options = {k: v for k, v in fig.items()
                   if k not in ("input", "tasks")}
        options = {**DEFAULTS, **options}
        for fmt in FORMATS:
            out.append((fig, fmt, RenderRequest(
                input_path=str(in_dir / fig["input"]), output_format=fmt,
                **options)))
    return out


def _manifest(inputs: dict, in_dir: Path, work: Path) -> Path:
    doc = {"name": "figure-set", "output_dir": str(work / "output"),
           "defaults": dict(DEFAULTS),
           "jobs": [{**{k: v for k, v in fig.items() if k != "tasks"},
                     "input": str(in_dir / fig["input"]),
                     "formats": list(FORMATS)}
                    for fig in inputs["figures"]]}
    path = work / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def _render_figures(reqs, slices: list[float]):
    """In-process render of every output, timed one by one (the figure's
    PNG and SVG are consecutive entries of ``reqs``), each after one
    reference slice appended to ``slices``; returns the outputs, their
    times and the factor from this round's host time to reference time."""
    from repro.render.api import render_request_bytes

    outs, samples, taken = [], [], []
    for _, _, req in reqs:
        taken.append(reference_slice())
        started = perf_counter()
        outs.append(render_request_bytes(req))
        samples.append(perf_counter() - started)
    slices.extend(taken)
    return outs, samples, REF_SLICE_S * len(taken) / sum(taken)


def _batch(manifest: Path, cache: Path):
    from repro.batch import run_manifest

    return timed(lambda: run_manifest(manifest, jobs=WORKERS,
                                      cache_dir=str(cache)))


def _check_batch(res: Results, report, expected: list[bytes], cache: str,
                 what: str) -> None:
    for result, want in zip(report.results, expected):
        data = Path(result.output_path).read_bytes() if result.ok else b""
        res.check(result.ok and result.cache == cache and data == want,
                  f"{what}: {result.input_path} -> {result.format} "
                  f"cache={result.cache} error={result.error}")


def run(res: Results, inputs: dict, in_dir: Path, work: Path, seconds: float,
        traced: bool) -> dict:
    reqs = _requests(inputs, in_dir)
    manifest = _manifest(inputs, in_dir, work)
    cold, warm, per_output, scales, slices = [], [], [], [], []
    expected: list[bytes] = []
    started = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - started < seconds:
        rounds += 1
        outs, samples, scale = _render_figures(reqs, slices)
        per_output.append(samples)
        scales.append(scale)
        if not expected:
            for (fig, fmt, req), data in zip(reqs, outs):
                res.check(output_ok(data, fmt, width=req.width,
                                    height=req.height, task_count=0),
                          f"{fig['input']}: {fmt} output does not decode")
            expected = outs
        else:
            res.check(outs == expected, "figure bytes changed between rounds")

        cache = work / f"cache-{rounds}"
        report, t_cold = _batch(manifest, cache)
        _check_batch(res, report, expected, "miss", "cold batch")
        cold.append(t_cold)
        for _ in range(WARM_REPEATS):
            report, t_warm = _batch(manifest, cache)
            _check_batch(res, report, expected, "hit", "warm batch")
            warm.append(t_warm)
        shutil.rmtree(cache, ignore_errors=True)

    # one figure sample = its PNG + SVG render in one round
    figure_times = [sum(samples[i:i + len(FORMATS)])
                    for samples in per_output
                    for i in range(0, len(samples), len(FORMATS))]
    res.timing("figure_p50_s", figure_times, p90="figure_p90_s")
    # each output's fastest render over the rounds, summed per format:
    # a slow moment of the shared host has to last all rounds to count;
    # the _norm_s twins take each render in reference time first
    best = [min(times) for times in zip(*per_output)]
    best_norm = [min(times) for times in zip(*(
        [t * scale for t in samples]
        for samples, scale in zip(per_output, scales)))]
    for k, fmt in enumerate(FORMATS):
        res.metric(f"figure_{fmt}_s", sum(best[k::len(FORMATS)]), "s",
                   len(per_output))
        res.metric(f"figure_{fmt}_norm_s", sum(best_norm[k::len(FORMATS)]),
                   "s", len(per_output))
    # one batch is one sample of the whole pipeline; the fastest of k
    # filters out the moments the shared host runs slow
    res.metric("batch_cold_s", min(cold), "s", len(cold))
    res.metric("batch_warm_s", min(warm), "s", len(warm))
    res.metric("output_bytes", sum(len(b) for b in expected), "bytes",
               len(expected))
    # mean reference slice of the run: how fast the host was
    res.metric("host_slice_ms", 1e3 * sum(slices) / len(slices), "ms",
               len(slices))
    if traced:
        _traced(res, reqs, expected, manifest, work,
                {"figure": sum(figure_times) / rounds})
    return {"time_a_s": res.metrics["figure_png_norm_s"]["value"],
            "time_b_s": res.metrics["figure_svg_norm_s"]["value"]}


def _traced(res: Results, reqs, expected, manifest: Path, work: Path,
            untraced: dict) -> None:
    from repro.batch.cache import RenderCache, cache_key_from_digest, \
        schedule_digest
    from repro.io.registry import load_schedule

    walls = {}
    outs, trace, walls["figure"] = traced_phase(
        lambda: [staged_render(req) for _, _, req in reqs])
    res.check(outs == expected, "staged figures differ from end-to-end bytes")
    attribute_phase(res, "figure", trace, walls["figure"])

    # the cache layer, called directly the way a batch worker calls it
    cache = RenderCache(work / "cache-layer")
    schedules = {req.input_path: load_schedule(req.input_path)
                 for _, _, req in reqs}
    timings = {"digest": 0.0, "get": 0.0, "put": 0.0}
    phase_start = perf_counter()
    for (_, _, req), data in zip(reqs, expected):
        digest, t = timed(lambda: schedule_digest(schedules[req.input_path]))
        timings["digest"] += t
        key = cache_key_from_digest(digest, req)
        missing, t = timed(lambda: cache.get(key))
        timings["get"] += t
        _, t = timed(lambda: cache.put(key, data))
        timings["put"] += t
        again, t = timed(lambda: cache.get(key))
        timings["get"] += t
        res.check(missing is None and again == data,
                  f"cache layer round trip of {req.input_path}")
    wall = perf_counter() - phase_start
    for name, value in timings.items():
        res.layer(f"batch.cache.{name}_s", value, "s")
    res.layer("obs.unattributed.cache_s", wall - sum(timings.values()), "s")

    outcomes = []
    for phase in ("batch_cold", "batch_warm"):
        _, untraced[phase] = _batch(manifest, work / "cache-untraced")
    for phase, want in (("batch_cold", "miss"), ("batch_warm", "hit")):
        (report, _), _, walls[phase] = traced_phase(
            lambda: _batch(manifest, work / "cache-traced"))
        _check_batch(res, report, expected, want, f"traced {phase}")
        outcomes.extend(r.cache for r in report.results)
        job_s = sum(r.duration_s for r in report.results)
        res.layer(f"obs.unattributed.{phase}_s",
                  walls[phase] - job_s / report.workers, "s")
        res.add_layer("batch.retries",
                      sum(r.attempts - 1 for r in report.results), "count")
        if phase == "batch_cold":
            res.layer("batch.job_s", job_s, "s")
            res.layer("batch.overhead_s",
                      walls[phase] - job_s / report.workers, "s")
    res.layer("batch.cache.hit_ratio",
              outcomes.count("hit") / len(outcomes), "ratio")
    res.layer("obs.trace_overhead",
              sum(walls.values()) / sum(untraced.values()), "ratio")
