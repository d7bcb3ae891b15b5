"""``serve_mix``: the render service under a closed loop of two clients.

Two client threads share one seeded request stream and each waits for
its reply before sending the next request, as ``jedule submit`` does.
Requests carry in-memory schedules of 1k and 10k tasks and cycle through
PNG, SVG and HTML.  From the third block on, half of the requests repeat
an earlier (schedule, options) pair and should be answered from the
render cache (40 of the 96 requests of a round).  Queue wait,
the worker pipe, client polling and cache hit versus miss carry the cost.

The 7:1 mix of 1k to 10k schedules is an assumption, not a measured
usage pattern: nothing in the repository records real service traffic.
It keeps most requests figure-sized while the rare large one still makes
other requests wait behind it.  The gated miss timing is a mean over the
whole stream, so it does not jump when a seed moves a quantile from one
size to the other.  The gated hit timing is the p50: most hits cost one
submit and one 50 ms client poll, so the median sits inside that one
mode, while the few hits that wait for a second poll move the mean.

Every round replays the same prefix of the stream against a fresh server
and cache, so each request is measured once per round.
"""

from __future__ import annotations

import hashlib
import random
import re
import threading
import time
from pathlib import Path
from time import perf_counter

from common import Results, output_ok

SETUP_REPEATS = 21
WORKERS = 2
CLIENTS = 2
FORMATS = ("png", "svg", "html")
#: new pairs per block: seven small schedules, one large
BLOCK = ("small",) * 7 + ("large",)
#: requests per round: every round replays this prefix of the stream
#: against a fresh server and cache
ROUND_REQUESTS = {"full": 96, "tiny": 40}
MIN_ROUNDS = {"full": 3, "tiny": 1}
HEIGHT = 400
_QUEUE_PEAK_RE = re.compile(r"^jedule_serve_queue_peak\s+(\S+)", re.M)
#: worker-side span self times read back from /jobs/<id>/trace
WORKER_STAGES = (
    "serve.worker.render.layout_s",
    "serve.worker.render.lod_s",
    "serve.worker.render.encode_s",
    "serve.worker.render.rasterize_s",
    "serve.worker.render.png.filter_s",
    "serve.worker.render.png.compress_s",
)


def _start_server(cache_dir: Path, traced: bool):
    from repro.serve import RenderServer

    server = RenderServer(workers=WORKERS, cache_dir=str(cache_dir),
                          trace_jobs=traced).start()
    # the dispatchers have not run a job yet, so the pipes are free to ping
    for index in range(WORKERS):
        server._pool.worker(index).ping()
    return server


def measure_setup(work: Path) -> list[float]:
    """Server start plus a ping of every worker, several times."""
    samples = []
    for i in range(SETUP_REPEATS):
        started = perf_counter()
        server = _start_server(work / f"setup-cache-{i}", False)
        samples.append(perf_counter() - started)
        server.drain()
    return samples


def request_stream(bases: list[dict], seed: int):
    """Endless seeded stream of (pair id, base index, request).

    Every block holds one new pair per entry of ``BLOCK`` and, from the
    third block on, as many repeats of pairs from blocks at least two
    back (so the original has finished), in the same size mix.  A pair's
    width is unique, which makes every new pair a distinct cache key.
    """
    from repro.render.api import RenderRequest

    rng = random.Random(f"serve:{seed}")
    by_size = {size: [i for i, b in enumerate(bases) if b["size"] == size]
               for size in set(BLOCK)}
    pairs: list[tuple[str, int, object]] = []   # (size, base, request)
    block_start: list[int] = []
    fmt_turn = {size: 0 for size in by_size}
    block = 0
    while True:
        block_start.append(len(pairs))
        items = []
        for size in BLOCK:
            fmt = FORMATS[fmt_turn[size] % len(FORMATS)]
            fmt_turn[size] += 1
            request = RenderRequest(output_format=fmt, width=600 + len(pairs),
                                    height=HEIGHT)
            pairs.append((size, rng.choice(by_size[size]), request))
            items.append(len(pairs) - 1)
        if block >= 2:
            old = range(block_start[block - 1])
            for size in BLOCK:
                items.append(rng.choice([p for p in old
                                         if pairs[p][0] == size]))
        rng.shuffle(items)
        for pair in items:
            yield pair, pairs[pair][1], pairs[pair][2]
        block += 1


def _client_loop(url: str, stream, lock, schedules, stop, records, res_lock):
    from repro.errors import ServeError
    from repro.serve import ServeClient

    client = ServeClient(url)
    while True:
        with lock:
            if stop():
                return
            pos, (pair, base, request) = next(stream)
        record = {"pos": pos, "pair": pair, "base": base, "request": request}
        started = perf_counter()
        try:
            job = client.submit(request, schedule=schedules[base])
            record["submit_s"] = perf_counter() - started
            doc = client.wait(job["id"])
        except ServeError as exc:
            record["error"] = f"{exc.code}: {exc}"
        else:
            record["latency_s"] = perf_counter() - started
            record["seen_at"] = time.time()
            record["doc"] = doc
            data = client.result_bytes(job["id"]) \
                if doc["status"] == "done" else None
            record["sha"] = hashlib.sha256(data).hexdigest() if data else None
            record["nbytes"] = len(data) if data else 0
            record["job"] = job["id"]
        with res_lock:
            records.append(record)


def _drive(server, schedules, bases, seed, n_requests):
    """Closed loop over the first ``n_requests`` requests of the stream;
    returns the records and the wall time."""
    stream = enumerate(request_stream(bases, seed))
    lock, res_lock = threading.Lock(), threading.Lock()
    records: list[dict] = []
    issued = [0]
    started = perf_counter()

    def stop() -> bool:
        if issued[0] >= n_requests:
            return True
        issued[0] += 1
        return False

    threads = [threading.Thread(
        target=_client_loop,
        args=(server.url, stream, lock, schedules, stop, records, res_lock),
        name=f"bench-client-{i}") for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, perf_counter() - started


def run(res: Results, inputs: dict, in_dir: Path, work: Path, seed: int,
        seconds: float, traced: bool) -> dict:
    from repro.io.registry import load_schedule
    from repro.render.api import render_request_bytes

    bases = inputs["bases"]
    schedules = [load_schedule(in_dir / b["input"]) for b in bases]
    n_requests = ROUND_REQUESTS[inputs["scale"]]
    records, walls = [], []
    started = perf_counter()
    while not walls or (not traced and (
            len(walls) < MIN_ROUNDS[inputs["scale"]]
            or perf_counter() - started < seconds)):
        server = _start_server(work / f"cache-{len(walls)}", False)
        try:
            got, wall = _drive(server, schedules, bases, seed, n_requests)
        finally:
            server.drain()
        records.extend(got)
        walls.append(wall)

    reference: dict[int, str] = {}
    lat = {"hit": [], "miss": []}
    by_pos: dict[tuple[str, int], list[float]] = {}
    for r in records:
        if "error" in r:
            res.check(False, f"request failed: {r['error']}")
            continue
        result = r["doc"]["result"]
        request = r["request"]
        if r["pair"] not in reference:
            data = render_request_bytes(request, schedules[r["base"]])
            ok = output_ok(data, request.output_format, width=request.width,
                           height=request.height,
                           task_count=bases[r["base"]]["tasks"])
            reference[r["pair"]] = hashlib.sha256(data).hexdigest() \
                if ok else "invalid"
        if res.check(r["doc"]["status"] == "done"
                     and r["sha"] == reference[r["pair"]],
                     f"pair {r['pair']}: served bytes differ from "
                     f"in-process render ({result.get('error')})"):
            lat.setdefault(result["cache"], []).append(r["latency_s"])
            by_pos.setdefault((result["cache"], r["pos"]), []).append(
                r["latency_s"])

    res.timing("serve_hit_p50_s", lat["hit"], p90="serve_hit_p90_s")
    res.timing("serve_miss_p50_s", lat["miss"], p90="serve_miss_p90_s")
    # Every round replays the same requests, so each stream position has
    # one latency per round; its fastest filters out the moments the
    # shared host runs slow.  The mean over all positions of one outcome
    # weighs the size and format mix as the stream does, with no
    # quantile that could sit between two sizes.
    for outcome in ("hit", "miss"):
        best = [min(v) for (o, _), v in by_pos.items() if o == outcome]
        res.metric(f"serve_{outcome}_mean_s", sum(best) / len(best), "s",
                   len(best))
    # bytes of the first block's new pairs, the same size and format mix
    # for every seed
    first = {r["pair"]: r["nbytes"] for r in records
             if r["pair"] < len(BLOCK) and r.get("nbytes")}
    res.metric("output_bytes", sum(first.values()), "bytes", len(first))
    if traced:
        _traced(res, schedules, bases, seed, work, n_requests, walls[0])
    return {"time_a_s": res.metrics["serve_miss_mean_s"]["value"],
            "time_b_s": res.metrics["serve_hit_p50_s"]["value"]}


def _traced(res: Results, schedules, bases, seed, work, n_requests,
            untraced_wall) -> None:
    """The same stream again, against a server that traces every job."""
    from repro.obs.export import trace_from_doc
    from repro.serve import ServeClient

    server = _start_server(work / "cache-traced", True)
    try:
        records, wall = _drive(server, schedules, bases, seed, n_requests)
        client = ServeClient(server.url)
        peak = _QUEUE_PEAK_RE.search(client.metricz())
        stages: dict[str, float] = {}
        for r in records:
            if "job" not in r:
                continue
            doc = client.job_trace(r["job"])
            res.trace_docs.append(doc)
            trace = trace_from_doc(doc)
            child_time = [0.0] * len(trace.spans)
            for s in trace.spans:
                if s.parent is not None:
                    child_time[s.parent] += s.duration
            # worker-side spans hang below serve.worker; spans come
            # parent first, so one pass collects every descendant
            worker_side = {s.index for s in trace.spans
                           if s.name == "serve.worker"}
            found = 0
            for s in trace.spans:
                if s.parent in worker_side:
                    worker_side.add(s.index)
                    found += 1
                    name = f"serve.worker.{s.name}_s"
                    stages[name] = stages.get(name, 0.0) + \
                        s.duration - child_time[s.index]
            if r["doc"].get("result", {}).get("cache") == "miss":
                res.check(found > 0, f"job {r['job']}: no worker-side "
                          "span in its trace")
    finally:
        server.drain()

    done = [r for r in records if "doc" in r]
    res.check(len(done) == len(records), "traced serve stream had failures")
    rejected = sum(1 for r in records
                   if r.get("error", "").startswith("queue-full"))
    # Per request, latency = client submit + (server stamp - submit
    # return) + queue wait + worker + poll gap; the second term is the
    # unattributed rest (negative when the submit reply overlaps the
    # queue wait).  Means, so that the parts add up to the mean latency.
    parts = {
        "serve.submit_s": [r["submit_s"] for r in done],
        "serve.queue_wait_s": [r["doc"]["started_at"] - r["doc"]["submitted_at"]
                               for r in done],
        "serve.worker_s": [r["doc"]["finished_at"] - r["doc"]["started_at"]
                           for r in done],
        "serve.poll_gap_s": [r["seen_at"] - r["doc"]["finished_at"]
                             for r in done],
    }
    for name, values in parts.items():
        res.layer(name, sum(values) / len(done), "s")
    mean_latency = sum(r["latency_s"] for r in done) / len(done)
    res.layer("obs.unattributed.serve_s", mean_latency - sum(
        res.layers[name]["value"] for name in parts), "s")
    outcomes = [r["doc"]["result"]["cache"] for r in done]
    res.layer("serve.cache_hit_ratio", outcomes.count("hit") / len(outcomes),
              "ratio")
    res.layer("serve.rejected", rejected, "count")
    res.layer("serve.queue_peak", float(peak.group(1)) if peak else 0.0,
              "count")
    for name in WORKER_STAGES:
        res.layer(name, stages.get(name, 0.0) / len(done), "s")
    res.layer("obs.trace_overhead", wall / untraced_wall, "ratio")
