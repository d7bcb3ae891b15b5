"""Tests for the ``jedule batch`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.io import save_schedule


@pytest.fixture
def manifest(tmp_path, simple_schedule, overlap_schedule):
    save_schedule(simple_schedule, tmp_path / "a.jed")
    save_schedule(overlap_schedule, tmp_path / "b.jed")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "name": "cli-batch",
        "output_dir": "out",
        "cache_dir": ".cache",
        "defaults": {"format": "svg"},
        "jobs": [{"input": "a.jed"}, {"input": "b.jed"}],
    }), encoding="utf-8")
    return path


def test_batch_trace_puts_worker_cache_spans_on_each_job_lane(tmp_path, manifest):
    trace = tmp_path / "batch-trace.json"
    assert main(["batch", str(manifest), "--trace", str(trace)]) == 0
    lanes: dict = {}
    for event in json.loads(trace.read_text())["traceEvents"]:
        if event["ph"] == "B":
            lanes.setdefault(event["tid"], set()).add(event["name"])
    jobs = [names for tid, names in lanes.items() if tid >= 2]  # lane 1: the batch
    assert len(jobs) == 2
    for names in jobs:
        assert {"io.load", "batch.cache.digest", "batch.cache.get",
                "batch.cache.put"} <= names, names


def test_batch_renders_manifest(tmp_path, manifest, capsys):
    rc = main(["batch", str(manifest)])
    assert rc == 0
    assert (tmp_path / "out" / "a.svg").stat().st_size > 0
    assert (tmp_path / "out" / "b.svg").stat().st_size > 0
    out = capsys.readouterr().out
    assert "cli-batch: 2/2 job(s) ok" in out
    assert "2 miss(es)" in out


def test_batch_second_run_all_cache_hits(manifest, capsys):
    assert main(["batch", str(manifest)]) == 0
    capsys.readouterr()
    assert main(["batch", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "2 cache hit(s)" in out
    assert "0 miss(es)" in out


def test_batch_no_cache_flag(manifest, capsys):
    assert main(["batch", str(manifest), "--no-cache"]) == 0
    assert main(["batch", str(manifest), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "0 cache hit(s)" in out


def test_batch_partial_failure_exit_code(tmp_path, manifest, capsys):
    doc = json.loads(manifest.read_text())
    (tmp_path / "broken.jed").write_text("<jedule>nope", encoding="utf-8")
    doc["jobs"].append({"input": "broken.jed"})
    manifest.write_text(json.dumps(doc), encoding="utf-8")

    rc = main(["batch", str(manifest), "--retries", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "2/3 job(s) ok" in captured.out
    assert "broken.jed" in captured.err
    # the good figures still rendered
    assert (tmp_path / "out" / "a.svg").exists()
    assert (tmp_path / "out" / "b.svg").exists()


def test_batch_runlog_records_counters(tmp_path, manifest, capsys):
    runlog = tmp_path / "runs.jsonl"
    assert main(["batch", str(manifest), "--runlog", str(runlog)]) == 0
    assert main(["batch", str(manifest), "--runlog", str(runlog)]) == 0
    records = [json.loads(line) for line in runlog.read_text().splitlines()]
    assert len(records) == 2
    cold, warm = records
    assert cold["counters"]["batch.cache.miss"] == 2.0
    assert warm["counters"]["batch.cache.hit"] == 2.0
    assert warm["counters"]["batch.cache.miss"] == 0.0
    assert warm["counters"]["batch.jobs.failed"] == 0.0
    assert warm["meta"]["manifest"] == str(manifest)


def test_batch_stats_prints_span_table(manifest, capsys):
    assert main(["batch", str(manifest), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "batch.run" in out
    assert "batch.cache.miss" in out


def test_batch_missing_manifest(tmp_path, capsys):
    rc = main(["batch", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_batch_bad_job_value_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"jobs": [
        {"input": "a.jed", "formats": ["svg"], "mode": "bogus"}]}))
    assert main(["batch", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: jobs[0]: ") and str(path) in err
    assert "Traceback" not in err


def test_batch_jobs_flag(tmp_path, manifest):
    assert main(["batch", str(manifest), "--jobs", "2"]) == 0
    assert (tmp_path / "out" / "a.svg").exists()
