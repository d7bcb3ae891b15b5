"""``jedule top``: a live terminal dashboard for the render service.

Polls ``/statz`` (uptime, queue, worker health) and ``/metricz``
(Prometheus text — parsed back with
:func:`repro.serve.metrics.parse_prometheus_text`) and renders a compact
operator view: queue fill bar, worker health, per-stage latency
percentiles recovered from the scraped histogram buckets, throughput,
cache and rejection counters.  Every count comes from the one
``/metricz`` scrape.

``--once`` prints a single snapshot and exits (scriptable, and what the
test suite drives); the default loop redraws every ``--interval``
seconds until interrupted.
"""

from __future__ import annotations

import math
import time

from repro.errors import ServeError
from repro.serve.metrics import parse_prometheus_text, quantile_from_buckets

__all__ = ["run_top", "render_dashboard"]

#: fixed stages always shown first, in pipeline order
_LEAD_STAGES = ("admit", "queue_wait", "worker", "total")

_CLEAR = "\x1b[2J\x1b[H"


def _fmt_s(seconds: float) -> str:
    """A latency cell: ms below one second, seconds above."""
    if seconds < 1.0:
        return f"{seconds * 1e3:8.1f}ms"
    return f"{seconds:8.2f}s "


def _bar(value: float, total: float, width: int = 24) -> str:
    total = max(total, 1.0)
    filled = int(round(min(value / total, 1.0) * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _counter(parsed: dict, family: str,
             **labels: str) -> float:
    """One counter sample (0.0 when the family/labels never fired)."""
    want = tuple(sorted(labels.items()))
    for key, value in parsed.get(family, {}).items():
        if key == want:
            return value
    return 0.0


def _stage_table(parsed: dict) -> list[str]:
    buckets: dict[str, list[tuple[float, float]]] = {}
    for key, value in parsed.get(
            "jedule_serve_stage_seconds_bucket", {}).items():
        labels = dict(key)
        stage = labels.get("stage", "?")
        le = labels.get("le", "+Inf")
        le_f = math.inf if le == "+Inf" else float(le)
        buckets.setdefault(stage, []).append((le_f, value))
    counts = {dict(key).get("stage", "?"): value
              for key, value in parsed.get(
                  "jedule_serve_stage_seconds_count", {}).items()}
    stages = [s for s in _LEAD_STAGES if s in buckets]
    stages += sorted(s for s in buckets if s not in _LEAD_STAGES)
    lines = [f"  {'stage':<16} {'count':>7} {'p50':>10} {'p95':>10} "
             f"{'p99':>10}"]
    for stage in stages:
        series = buckets[stage]
        lines.append(
            f"  {stage:<16} {int(counts.get(stage, 0)):>7} "
            f"{_fmt_s(quantile_from_buckets(series, 0.50)):>10} "
            f"{_fmt_s(quantile_from_buckets(series, 0.95)):>10} "
            f"{_fmt_s(quantile_from_buckets(series, 0.99)):>10}")
    if len(lines) == 1:
        lines.append("  (no jobs finished yet)")
    return lines


def render_dashboard(statz: dict, metricz_text: str, *,
                     rate_jobs_per_s: float | None = None) -> str:
    """One dashboard frame from a /statz doc and a /metricz scrape."""
    parsed = parse_prometheus_text(metricz_text)
    queue = statz.get("queue", {})
    workers = statz.get("workers", {})
    depth = queue.get("depth", 0)
    capacity = queue.get("capacity", 0)
    uptime = statz.get("uptime_s", 0.0)

    lines: list[str] = []
    state = "DRAINING" if statz.get("draining") else "serving"
    lines.append(f"jedule serve - {state}, up {uptime:.0f}s")
    lines.append("")
    lines.append(f"queue    {_bar(depth, capacity)} {depth}/{capacity}"
                 f"  peak {queue.get('peak', 0)}"
                 f"  clients {len(queue.get('by_client', {}))}")
    restarts = int(_counter(parsed, "jedule_serve_worker_restarts_total"))
    lines.append(f"workers  {workers.get('alive', 0)}/"
                 f"{workers.get('total', 0)} alive"
                 f"  restarts {restarts}")
    ok = _counter(parsed, "jedule_serve_jobs_total", status="ok")
    failed = _counter(parsed, "jedule_serve_jobs_total", status="failed")
    submitted = _counter(parsed, "jedule_serve_jobs_submitted_total")
    rate = rate_jobs_per_s if rate_jobs_per_s is not None \
        else ((ok + failed) / uptime if uptime > 0 else 0.0)
    lines.append(f"jobs     {int(submitted)} submitted  {int(ok)} ok  "
                 f"{int(failed)} failed  {rate:.2f} jobs/s")
    hits = _counter(parsed, "jedule_serve_cache_total", outcome="hit")
    misses = _counter(parsed, "jedule_serve_cache_total", outcome="miss")
    rejected = sum(parsed.get("jedule_serve_rejected_total", {}).values())
    busy = _counter(parsed, "jedule_serve_rejected_total",
                    reason="queue-full")
    nbytes = _counter(parsed, "jedule_serve_bytes_rendered_total")
    lines.append(f"cache    {int(hits)} hit / {int(misses)} miss"
                 f"  rejected {int(rejected)} ({int(busy)} busy/429)"
                 f"  rendered {nbytes / 1e6:.2f} MB")
    lines.append("")
    lines.extend(_stage_table(parsed))
    return "\n".join(lines) + "\n"


def run_top(*, url: str | None = None, socket_path: str | None = None,
            interval_s: float = 2.0, once: bool = False) -> int:
    """Drive the dashboard against a live daemon; returns an exit code."""
    from repro.serve.client import ServeClient

    client = ServeClient(url, socket_path=socket_path, client_id="jedule-top")
    if once:
        print(render_dashboard(client.statz(), client.metricz()), end="")
        return 0
    prev_done: float | None = None
    prev_t = time.monotonic()
    try:
        while True:
            try:
                statz = client.statz()
                metricz = client.metricz()
            except ServeError as exc:
                print(f"{_CLEAR}jedule top: {exc}", flush=True)
                time.sleep(interval_s)
                continue
            parsed = parse_prometheus_text(metricz)
            done = (_counter(parsed, "jedule_serve_jobs_total", status="ok")
                    + _counter(parsed, "jedule_serve_jobs_total",
                               status="failed"))
            now = time.monotonic()
            rate = None
            if prev_done is not None and now > prev_t:
                rate = max(done - prev_done, 0.0) / (now - prev_t)
            prev_done, prev_t = done, now
            frame = render_dashboard(statz, metricz, rate_jobs_per_s=rate)
            print(f"{_CLEAR}{frame}", end="", flush=True)
            time.sleep(interval_s)
    except KeyboardInterrupt:
        print()
        return 0
