"""``jedule batch`` and its render cache, end to end.

The committed ``examples/batch`` inputs are copied to a temporary
directory.  One cold run and two warm runs (the second on one worker with
a deadline) append three run records: every warm job is a cache hit, and
none fails.  A second manifest shows that editing its colormap XML
re-renders: miss, hit, then miss once the file changes.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.cli.main import main
from repro.core.colormap import default_colormap
from repro.io import colormap_xml

EXAMPLES = Path(__file__).parents[2] / "examples" / "batch"


def batch(manifest: Path, runlog: Path, *options: str) -> None:
    assert main(["batch", str(manifest), "--runlog", str(runlog), *options]) == 0


def records(runlog: Path) -> list[dict]:
    return [json.loads(line) for line in runlog.read_text(encoding="utf-8").splitlines()]


def test_warm_batch_runs_are_all_cache_hits(tmp_path):
    inputs = tmp_path / "batch"
    shutil.copytree(EXAMPLES, inputs, ignore=shutil.ignore_patterns(
        "output", ".render-cache", "__pycache__", "*.py"))
    manifest, runlog = inputs / "manifest.json", tmp_path / "batch-runs.jsonl"
    batch(manifest, runlog)
    batch(manifest, runlog)
    batch(manifest, runlog, "--jobs", "1", "--timeout", "120")

    cold, *warm_runs = records(runlog)
    assert len(warm_runs) == 2, f"expected 3 run records, got {1 + len(warm_runs)}"
    jobs = cold["meta"]["jobs"]
    assert jobs > 0, "manifest expanded to no jobs"
    assert cold["counters"]["batch.jobs.failed"] == 0
    for warm in warm_runs:
        assert warm["counters"]["batch.jobs.failed"] == 0
        assert warm["counters"]["batch.cache.hit"] == jobs, \
            f"warm run: expected {jobs} hits, got {warm['counters']}"
        assert warm["counters"]["batch.cache.miss"] == 0
    assert warm_runs[1]["meta"]["workers"] == 1


def test_a_colormap_edit_re_renders(tmp_path):
    shutil.copy(EXAMPLES / "fig01_simple.jed", tmp_path)
    smoke = tmp_path / "cmap-smoke"
    smoke.mkdir()
    colormap_xml.dump(default_colormap(), smoke / "map.xml")
    manifest, runlog = smoke / "manifest.json", tmp_path / "cmap-runs.jsonl"
    manifest.write_text(json.dumps(
        {"cache_dir": "cache", "output_dir": "out",
         "jobs": [{"input": "../fig01_simple.jed", "cmap": "map.xml",
                   "format": "png"}]}), encoding="utf-8")
    batch(manifest, runlog)
    batch(manifest, runlog)
    colormap_xml.dump(default_colormap().to_grayscale(), smoke / "map.xml")
    batch(manifest, runlog)

    cold, warm, edited = records(runlog)
    assert cold["counters"]["batch.cache.miss"] == 1, cold["counters"]
    assert warm["counters"]["batch.cache.hit"] == 1, warm["counters"]
    assert edited["counters"]["batch.cache.miss"] == 1, \
        f"edited colormap served from the cache: {edited['counters']}"
