"""Interactive HTML export — page size and embed decisions at trace scale.

The data-driven HTML backend must stay a *small* export at any schedule
size: past the task threshold it embeds LOD cell-run tiers (bounded by
the grid and the run budget, not the task count) instead of raw task
rectangles.  This benchmark emits pages at 2k/20k/100k synthetic jobs
and hard-fails if the headline size claim regresses: a 100k-job page
must embed tiers, no raw tasks, and stay under 1.5 MB.  The tier/run
counts and embed decisions are pinned; payload build and page emit
times are ``perfbench``'s ``render.html.payload_s`` and ``emit_s``.
"""

from __future__ import annotations

import json
import re

from bench_lod_scaling import synthetic_trace
from conftest import pinned, render_bytes, report

from repro.render.html_payload import validate_payload

SIZES = (2_000, 20_000, 100_000)
SIZE_BUDGET = 1_500_000  # bytes, the "< 1.5 MB at 100k jobs" claim

_DATA_RE = re.compile(
    r'<script type="application/json" id="jedule-data">(.*?)</script>', re.S)


def _embedded_payload(page: bytes) -> dict:
    m = _DATA_RE.search(page.decode("utf-8"))
    assert m, "page has no embedded payload"
    return validate_payload(json.loads(m.group(1)))


def test_html_export_scaling(benchmark, artifacts_dir):
    schedules = {n: synthetic_trace(n) for n in SIZES}

    pages = {n: render_bytes(s, "html") for n, s in schedules.items()}
    report("HTML export (page size, < 1.5 MB at 100k jobs)", [
        (f"{n} jobs", "-", f"{len(page) / 1e3:.0f} kB")
        for n, page in pages.items()])

    small = _embedded_payload(pages[SIZES[0]])
    big = _embedded_payload(pages[SIZES[-1]])

    # below the threshold: raw tasks, no tiers; at 100k: tiers, no tasks
    assert small["tasks"] is not None and small["lod"] is None
    assert big["tasks"] is None and big["lod"] is not None
    assert len(pages[SIZES[-1]]) < SIZE_BUDGET

    tier_runs = sum(len(band["runs"])
                    for tier in big["lod"]["tiers"]
                    for band in tier["clusters"])
    assert {
        "raw_embedded_2k": int(small["tasks"] is not None),
        "raw_embedded_100k": int(big["tasks"] is not None),
        "tiers_100k": len(big["lod"]["tiers"]),
        "tier_runs_100k": tier_runs,
        "page_under_budget_100k": int(len(pages[SIZES[-1]]) < SIZE_BUDGET),
    } == pinned({"raw_embedded_2k": 1, "raw_embedded_100k": 0,
                 "tiers_100k": 2, "tier_runs_100k": 27364,
                 "page_under_budget_100k": 1})

    (artifacts_dir / "html_export_100k.html").write_bytes(pages[SIZES[-1]])

    big_schedule = schedules[SIZES[-1]]
    result = benchmark.pedantic(
        lambda: render_bytes(big_schedule, "html"), rounds=3, iterations=1)
    assert result
