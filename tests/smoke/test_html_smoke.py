"""Interactive HTML pages of three shapes, with their payloads validated.

A small page embeds raw tasks only, the Thunder day with LOD forced on
embeds raw tasks and tiers, and a 100k-job trace embeds tiers only and
stays under the page size budget.
"""

from __future__ import annotations

import json
import random
import re

from repro.core.model import Schedule
from repro.render.api import RenderRequest, render_request_bytes
from repro.render.html_payload import validate_payload
from repro.workloads.bridge import workload_schedule
from repro.workloads.scheduler import simulate_jobs
from repro.workloads.thunder import (
    THUNDER_NODES,
    THUNDER_RESERVED,
    ThunderSpec,
    generate_thunder_day,
)

DATA = re.compile(
    r'<script type="application/json" id="jedule-data">(.*?)</script>', re.S)

#: Size budget of the 100k-job page.
MAX_PAGE_BYTES = 1_500_000


def payload_of(page: bytes) -> dict:
    return validate_payload(json.loads(DATA.search(page.decode()).group(1)))


def page_for(schedule: Schedule, **options) -> bytes:
    return render_request_bytes(
        RenderRequest(output_format="html", **options), schedule)


def test_small_page_lod_off_embeds_raw_tasks_only():
    s = Schedule()
    s.new_cluster(0, 8, "cluster 0")
    s.new_task(1, "computation", 0.0, 0.31, cluster=0, host_start=0, host_nb=8)
    s.new_task(2, "transfer", 0.31, 0.50, cluster=0, host_start=0, host_nb=4)
    p = payload_of(page_for(s, lod="off", title="quickstart"))
    assert len(p["tasks"]) == 2 and p["lod"] is None


def test_thunder_day_lod_on_embeds_tasks_and_tiers():
    spec = ThunderSpec()
    scheduled = simulate_jobs(generate_thunder_day(spec), THUNDER_NODES,
                              policy="easy", reserved_nodes=THUNDER_RESERVED)
    window = (spec.warmup_seconds, spec.warmup_seconds + spec.day_seconds)
    thunder = workload_schedule(scheduled, THUNDER_NODES, window=window)
    p = payload_of(page_for(thunder, lod="on", title="thunder day"))
    assert p["tasks"] is not None and p["lod"]["tiers"]


def test_100k_job_page_embeds_tiers_only_under_budget():
    rng = random.Random(7)
    big = Schedule()
    big.new_cluster("c0", 1024)
    for i in range(100_000):
        start = rng.uniform(0.0, 100_000.0)
        big.new_task(f"j{i}", "job", start, start + rng.uniform(10.0, 3_000.0),
                     cluster="c0", host_start=rng.randrange(1016),
                     host_nb=rng.randint(1, 8))
    page = page_for(big)
    p = payload_of(page)
    assert p["tasks"] is None and p["lod"]["tiers"]
    assert len(page) < MAX_PAGE_BYTES, f"page too big: {len(page)} bytes"
