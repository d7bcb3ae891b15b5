"""Observability overhead — disabled instrumentation must cost < 2 %.

The ``repro.obs`` layer instruments every pipeline stage (parsers,
schedulers, simulator, layout, encoders).  Its contract is that when
observability is *off* — the default — every instrumentation point
reduces to a single module-attribute check, so an uninstrumented build
and the shipped build are indistinguishable in wall-clock terms.

Measured here on a 10k-task render (the ISSUE acceptance bar):

* ``t_disabled``: best-of render time with observability off.
* ``n_ops``: how many instrumentation events that same render actually
  crosses (counted from one *enabled* run — every span plus every
  counter/gauge call).
* ``t_noop``: micro-benchmarked cost of one disabled instrumentation
  event (span enter/exit plus a counter add).

The honest counterfactual — the same code with instrumentation deleted —
cannot be compiled from here, so the overhead bound is computed as
``n_ops * t_noop`` (an over-estimate: the micro-benchmark loop overhead
is charged to the no-op) and asserted to stay below 2 % of
``t_disabled``.  The enabled run is also timed for the report, since
users pay that price when they pass ``--trace``.
"""

from __future__ import annotations

import time
import timeit

from conftest import render_bytes, report

from repro import obs

from bench_lod_scaling import synthetic_trace

N_TASKS = 10_000
MAX_OVERHEAD = 0.02


def _count_instrumentation_ops(schedule) -> int:
    """Instrumentation events one render crosses (from an enabled run)."""
    with obs.capture() as trace:
        render_bytes(schedule, "png", lod="off")
    return (len(trace.spans)
            + len(trace.counters) + len(trace.gauges) + len(trace.gauge_peaks))


def _noop_cost_per_op(iterations: int = 200_000) -> float:
    """Cost of one disabled span enter/exit + counter add."""
    assert not obs.is_enabled()
    t0 = time.perf_counter()
    for _ in range(iterations):
        with obs.span("bench.noop", n=1):
            obs.add("bench.counter")
    elapsed = time.perf_counter() - t0
    return elapsed / iterations


def test_obs_overhead(benchmark):
    schedule = synthetic_trace(N_TASKS)

    assert not obs.is_enabled()
    t_disabled = min(timeit.repeat(
        lambda: render_bytes(schedule, "png", lod="off"), number=1, repeat=3))

    n_ops = _count_instrumentation_ops(schedule)
    assert n_ops > 0, "instrumented pipeline must record spans when enabled"

    t_noop = _noop_cost_per_op()
    overhead = n_ops * t_noop

    def _enabled_render():
        with obs.capture():
            render_bytes(schedule, "png", lod="off")

    t_enabled = min(timeit.repeat(_enabled_render, number=1, repeat=3))

    report("observability overhead (10k-task render)", [
        ("render, obs disabled", "baseline", f"{t_disabled * 1e3:.1f} ms"),
        ("instrumentation events", "-", f"{n_ops}"),
        ("disabled no-op cost", "-", f"{t_noop * 1e9:.0f} ns/event"),
        ("worst-case overhead", "< 2 %",
         f"{overhead / t_disabled * 100:.4f} %"),
        ("render, obs enabled", "-",
         f"{t_enabled * 1e3:.1f} ms ({t_enabled / t_disabled:.2f}x)"),
    ])

    assert overhead < MAX_OVERHEAD * t_disabled, (
        f"{n_ops} disabled instrumentation events cost {overhead * 1e3:.3f} ms "
        f"against a {t_disabled * 1e3:.1f} ms render "
        f"({overhead / t_disabled * 100:.2f} % > {MAX_OVERHEAD:.0%})")

    result = benchmark.pedantic(
        lambda: render_bytes(schedule, "png", lod="off"),
        rounds=3, iterations=1)
    assert result
