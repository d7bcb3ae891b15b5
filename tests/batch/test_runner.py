"""Tests for the parallel batch runner: robustness, retry, cache counters."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.batch import batch_record, run_batch
from repro.batch.runner import execute_with_cache
from repro.core.colormap import default_colormap
from repro.errors import BatchError, ParseError
from repro.io import colormap_xml, save_schedule
from repro.io.registry import register_format
from repro.render.api import RenderRequest, execute_request
from repro.serve.pool import shutdown_shared_pool


def _requests(tmp_path, schedule, n=3, fmt="svg"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    reqs = []
    for i in range(n):
        src = tmp_path / f"in{i}.jed"
        save_schedule(schedule, src)
        reqs.append(RenderRequest(input_path=src,
                                  output_path=tmp_path / "out" / f"fig{i}.{fmt}",
                                  output_format=fmt))
    return reqs


def test_serial_batch_renders_all(tmp_path, simple_schedule):
    reqs = _requests(tmp_path, simple_schedule)
    report = run_batch(reqs, jobs=1, cache_dir=tmp_path / "cache")
    assert report.ok
    assert len(report.results) == 3
    for i in range(3):
        assert (tmp_path / "out" / f"fig{i}.svg").stat().st_size > 0
    # identical content + identical options: one render, two copies
    assert report.cache_misses == 1
    assert report.cache_hits == 2


def test_warm_rerun_is_all_hits(tmp_path, simple_schedule):
    reqs = _requests(tmp_path, simple_schedule)
    run_batch(reqs, jobs=1, cache_dir=tmp_path / "cache")
    warm = run_batch(reqs, jobs=1, cache_dir=tmp_path / "cache")
    assert warm.cache_hits == 3 and warm.cache_misses == 0


def test_no_cache_mode(tmp_path, simple_schedule):
    reqs = _requests(tmp_path, simple_schedule, n=2)
    report = run_batch(reqs, jobs=1, use_cache=False)
    assert report.ok
    assert report.cache_hits == 0
    assert all(r.cache == "off" for r in report.results)


def test_corrupt_input_fails_alone(tmp_path, simple_schedule):
    reqs = _requests(tmp_path, simple_schedule, n=2)
    bad = tmp_path / "broken.jed"
    bad.write_text("<jedule>nope", encoding="utf-8")
    reqs.append(RenderRequest(input_path=bad,
                              output_path=tmp_path / "out" / "broken.svg",
                              output_format="svg"))
    report = run_batch(reqs, jobs=1, cache_dir=tmp_path / "cache", retries=0)
    assert not report.ok
    assert len(report.failures) == 1
    assert "broken.jed" in report.failures[0].input_path
    assert sum(1 for r in report.results if r.ok) == 2
    table = report.error_table()
    assert "broken.jed" in table and "error" in table
    assert "1 failed" in report.summary()


def test_parallel_pool_matches_serial(tmp_path, simple_schedule,
                                      overlap_schedule):
    reqs = (_requests(tmp_path, simple_schedule, n=2)
            + _requests(tmp_path / "b", overlap_schedule, n=2))
    report = run_batch(reqs, jobs=2, cache_dir=tmp_path / "cache")
    assert report.ok
    assert report.workers == 2
    assert len(report.results) == 4
    for req in reqs:
        assert (tmp_path / req.output_path).exists()


def test_retry_recovers_transient_failure(tmp_path, simple_schedule):
    """A loader that fails on first read succeeds on the retry round."""
    save_schedule(simple_schedule, tmp_path / "real.jed")
    marker = tmp_path / "attempted"

    def flaky_loader(path):
        from repro.io import jedule_xml

        if not marker.exists():
            marker.write_text("1")
            raise ParseError("transient parse hiccup")
        return jedule_xml.load(tmp_path / "real.jed")

    register_format("flaky", (".flaky",), flaky_loader, overwrite=True)
    shutdown_shared_pool()  # the next batch forks workers that know it
    (tmp_path / "s.flaky").write_text("ignored")
    request = RenderRequest(input_path=tmp_path / "s.flaky",
                            output_path=tmp_path / "out.svg")
    report = run_batch([request], jobs=1, use_cache=False,
                       retries=1, backoff_s=0.0)
    assert report.ok
    assert report.results[0].attempts == 2


def test_exhausted_retries_keep_failure(tmp_path):
    request = RenderRequest(input_path=tmp_path / "missing.jed",
                            output_path=tmp_path / "out.svg")
    report = run_batch([request], jobs=1, use_cache=False,
                       retries=2, backoff_s=0.0)
    assert not report.ok
    assert report.results[0].attempts == 3


def test_bad_batch_arguments():
    with pytest.raises(BatchError, match="no render jobs"):
        run_batch([])
    request = RenderRequest(input_path="x.jed", output_path="x.svg")
    with pytest.raises(BatchError, match=">= 1 worker"):
        run_batch([request], jobs=0)
    with pytest.raises(BatchError, match="retries"):
        run_batch([request], retries=-1)


def test_obs_counters_and_record(tmp_path, simple_schedule):
    reqs = _requests(tmp_path, simple_schedule, n=2)
    with obs.capture() as trace:
        report = run_batch(reqs, jobs=1, cache_dir=tmp_path / "cache",
                           name="unit-batch")
    assert trace.counters["batch.jobs.ok"] == 2
    assert trace.counters["batch.cache.hit"] \
        + trace.counters["batch.cache.miss"] == 2

    record = batch_record(report, trace=trace, meta={"origin": "test"})
    assert record.name == "unit-batch"
    assert record.counters["batch.jobs.ok"] == 2.0
    assert record.counters["batch.jobs.failed"] == 0.0
    assert record.meta["origin"] == "test"
    assert record.meta["workers"] == 1


def test_execute_with_cache_inline(tmp_path, simple_schedule):
    src = tmp_path / "s.jed"
    save_schedule(simple_schedule, src)
    request = RenderRequest(input_path=src, output_path=tmp_path / "s.svg")
    cold = execute_with_cache(request, str(tmp_path / "cache"))
    warm = execute_with_cache(request, str(tmp_path / "cache"))
    assert cold.cache == "miss" and warm.cache == "hit"
    assert cold.nbytes == warm.nbytes > 0


def test_cached_render_sees_colormap_file_edits(tmp_path, simple_schedule):
    src = tmp_path / "s.jed"
    save_schedule(simple_schedule, src)
    cmap_file = tmp_path / "map.xml"
    colormap_xml.dump(default_colormap(), cmap_file)
    request = RenderRequest(input_path=src, output_format="png",
                            cmap_path=cmap_file)
    cache_dir = str(tmp_path / "cache")
    cold = execute_with_cache(request, cache_dir)
    assert cold.cache == "miss"
    assert execute_with_cache(request, cache_dir).cache == "hit"
    colormap_xml.dump(default_colormap().to_grayscale(), cmap_file)
    edited = execute_with_cache(request, cache_dir)
    assert edited.cache == "miss"
    assert edited.data == execute_request(request).data != cold.data
    json.dumps(request.fingerprint())   # the colormap token is plain JSON


def test_timeout_bounds_a_one_job_serial_batch(tmp_path, simple_schedule):
    """``timeout_s`` holds for ``jobs=1`` and one-job batches too: the
    stuck worker is killed by the deadline, not awaited."""
    save_schedule(simple_schedule, tmp_path / "real.jed")

    def slow_loader(path):
        import time

        from repro.io import jedule_xml

        time.sleep(3.0)
        return jedule_xml.load(tmp_path / "real.jed")

    register_format("slow", (".slow",), slow_loader, overwrite=True)
    shutdown_shared_pool()  # the next batch forks workers that know it
    (tmp_path / "s.slow").write_text("ignored")
    request = RenderRequest(input_path=tmp_path / "s.slow",
                            output_path=tmp_path / "out.svg")
    report = run_batch([request], jobs=1, use_cache=False, timeout_s=0.5,
                       retries=0)
    assert not report.ok
    assert "timed out after" in report.results[0].error
    assert "worker killed" in report.results[0].error
    assert report.elapsed_s < 2.0


def test_in_memory_style_is_a_per_job_error(tmp_path, simple_schedule):
    """A request must have a wire form; one holding a ``Style`` object
    fails as its own job, and the error names the field."""
    from repro.render.style import Style

    reqs = _requests(tmp_path, simple_schedule, n=2)
    reqs.append(RenderRequest(input_path=reqs[0].input_path,
                              output_path=tmp_path / "out" / "styled.svg",
                              style=Style()))
    report = run_batch(reqs, jobs=1, use_cache=False, retries=0)
    assert [r.ok for r in report.results] == [True, True, False]
    assert "'style'" in report.results[2].error
    assert report.results[2].format == "svg"
