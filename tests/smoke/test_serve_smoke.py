"""``jedule serve`` end to end, as a daemon on a temporary Unix socket.

A real ``python -m repro.cli.main serve`` process (two workers, a render
cache, a runlog) serves a copy of ``examples/batch`` whose inputs
``make_inputs.py`` wrote anew.  ``jedule submit`` sends the example
manifest twice, the second time with ``--trace``; ``/metricz`` is
scraped before and after, and ``jedule top --once`` reads the live
server.  Then SIGTERM drains it:

- the warm round's trace holds one ``serve.request`` and one
  ``serve.admit`` span per job and no ``serve.worker`` span;
- the ``/metricz`` counters moved by exactly the jobs run;
- the drain record counts every job ok, round two all hits, and agrees
  with the last scrape.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import repro
from repro.cli.main import main
from repro.serve.client import ServeClient
from repro.serve.metrics import parse_prometheus_text

EXAMPLES = Path(__file__).parents[2] / "examples" / "batch"


def sample(parsed: dict, family: str, **labels) -> float:
    return parsed.get(family, {}).get(tuple(sorted(labels.items())), 0.0)


def begun(events: list[dict], name: str) -> list[dict]:
    return [e for e in events if e["ph"] == "B" and e["name"] == name]


def _env() -> dict:
    """The environment of a child Python that imports this ``repro``."""
    return {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}


@pytest.fixture
def daemon(tmp_path):
    """A ``jedule serve`` process on a Unix socket:
    ``(process, socket, log, runlog)``; its socket lives in a short
    directory of its own (a socket path has about 100 bytes)."""
    sock_dir = tempfile.mkdtemp(prefix="jedule-")
    sock = os.path.join(sock_dir, "serve.sock")
    log, runlog = tmp_path / "serve.log", tmp_path / "serve-runs.jsonl"
    env = _env()
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "serve", "--socket", sock,
             "--workers", "2", "--cache-dir", str(tmp_path / "serve-cache"),
             "--runlog", str(runlog)],
            env=env, stdout=out, stderr=subprocess.STDOUT)
    try:
        for _ in range(200):
            if os.path.exists(sock):
                break
            assert proc.poll() is None, log.read_text()
            time.sleep(0.05)
        else:
            pytest.fail(f"daemon never bound its socket: {log.read_text()}")
        yield proc, sock, log, runlog
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        shutil.rmtree(sock_dir, ignore_errors=True)


def test_daemon_serves_the_manifest_twice_and_drains(tmp_path, daemon, capsys):
    proc, sock, log, runlog = daemon
    inputs = tmp_path / "batch"
    shutil.copytree(EXAMPLES, inputs, ignore=shutil.ignore_patterns(
        "output", ".render-cache", "__pycache__"))
    subprocess.run([sys.executable, "make_inputs.py"], cwd=inputs, env=_env(),
                   check=True, capture_output=True)
    manifest = inputs / "manifest.json"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    # an entry with a "formats" list expands to one job per format
    per_round = sum(len(entry.get("formats") or [1]) for entry in doc["jobs"])
    jobs = 2 * per_round  # two submit rounds
    assert per_round > 0, doc

    client = ServeClient(socket_path=sock)
    before = parse_prometheus_text(client.metricz())
    assert main(["submit", "--socket", sock, "--manifest", str(manifest)]) == 0
    trace = tmp_path / "submit-trace.json"
    assert main(["submit", "--socket", sock, "--manifest", str(manifest),
                 "--trace", str(trace)]) == 0

    # the warm round traced one request span per job, answered at admission
    events = json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]
    assert len(begun(events, "serve.request")) == per_round
    assert len(begun(events, "serve.admit")) == per_round
    assert begun(events, "serve.worker") == []

    after = parse_prometheus_text(client.metricz())
    capsys.readouterr()
    assert main(["top", "--socket", sock, "--once"]) == 0
    assert capsys.readouterr().out.strip(), "jedule top printed nothing"

    # the counters moved by the jobs run
    def delta(family, **labels):
        return sample(after, family, **labels) - sample(before, family, **labels)

    assert delta("jedule_serve_jobs_submitted_total") == jobs
    assert delta("jedule_serve_jobs_total", status="ok") == jobs
    assert delta("jedule_serve_jobs_total", status="failed") == 0
    assert delta("jedule_serve_cache_total", outcome="miss") == jobs // 2
    assert delta("jedule_serve_cache_total", outcome="hit") == jobs // 2
    assert delta("jedule_serve_bytes_rendered_total") > 0
    # every job is admitted; only the cold round's misses reach a worker
    assert sample(after, "jedule_serve_stage_seconds_count", stage="admit") == jobs
    assert sample(after, "jedule_serve_stage_seconds_count", stage="worker") == jobs // 2
    # every POST /render is counted once: admitted or rejected
    rejected = sum(after.get("jedule_serve_rejected_total", {}).values())
    assert sample(after, "jedule_serve_requests_total") == \
        sample(after, "jedule_serve_jobs_submitted_total") + rejected

    # a graceful drain on SIGTERM
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0, log.read_text()
    assert "drained" in log.read_text()

    # every job succeeded, round two was all hits, and the drain record
    # reads the registry /metricz showed: no job ran after the last scrape
    counters = json.loads(runlog.read_text(encoding="utf-8").splitlines()[-1])["counters"]
    assert counters["serve.jobs.submitted"] == jobs
    assert counters["serve.jobs.ok"] == jobs
    assert counters.get("serve.jobs.failed", 0) == 0
    assert counters["serve.cache.hit"] == counters["serve.cache.miss"] == jobs // 2
    for key, family, labels in (
            ("serve.requests", "jedule_serve_requests_total", {}),
            ("serve.jobs.submitted", "jedule_serve_jobs_submitted_total", {}),
            ("serve.jobs.ok", "jedule_serve_jobs_total", {"status": "ok"}),
            ("serve.jobs.failed", "jedule_serve_jobs_total", {"status": "failed"}),
            ("serve.cache.hit", "jedule_serve_cache_total", {"outcome": "hit"}),
            ("serve.cache.miss", "jedule_serve_cache_total", {"outcome": "miss"})):
        assert counters[key] == sample(after, family, **labels), key
