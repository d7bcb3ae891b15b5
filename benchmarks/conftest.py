"""Shared helpers for the figure-reproduction benchmarks.

Every ``bench_fNN_*.py`` regenerates one figure of the paper: it builds the
experiment, prints the quantities the figure conveys (paper claim vs. what
we measure), asserts the *shape* of the result, renders the figure to
``benchmarks/artifacts/`` (not tracked), and times the computational core
with pytest-benchmark.

Deterministic quality numbers (makespans, fairness, job counts, painted
pixels) are asserted in the test that computes them, against recorded
values through :func:`pinned`.  End-to-end and per-layer timings of the
paths a user waits on live in ``perfbench/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

ARTIFACTS = Path(__file__).parent / "artifacts"


@pytest.fixture(scope="session")
def artifacts_dir() -> Path:
    ARTIFACTS.mkdir(exist_ok=True)
    return ARTIFACTS


def render_bytes(schedule, format: str = "png", **options) -> bytes:
    """Render an in-memory schedule through the RenderRequest pipeline.

    The single render entry point for benchmark code — same code path the
    CLI and the batch runner use, so timings measure what users get.
    """
    from repro.render.api import RenderRequest, render_request_bytes

    return render_request_bytes(
        RenderRequest(output_format=format, **options), schedule)


def pinned(expected: dict):
    """``expected`` (metric name -> recorded value) as a comparison that a
    dict of measured metrics must equal: the same keys, and each value
    within 5 % of the recorded one (a recorded 0 must stay 0)."""
    return pytest.approx(expected, rel=0.05)


def report(figure: str, rows: list[tuple[str, str, str]]) -> None:
    """Print a paper-vs-measured table for one figure."""
    print(f"\n=== {figure} ===")
    width = max((len(r[0]) for r in rows), default=20)
    print(f"{'quantity':<{width}}  {'paper':>24}  {'measured':>24}")
    for name, paper, measured in rows:
        print(f"{name:<{width}}  {paper:>24}  {measured:>24}")
