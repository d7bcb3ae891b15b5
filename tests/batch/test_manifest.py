"""Tests for batch manifest parsing and expansion."""

from __future__ import annotations

import json

import pytest

from repro.batch.manifest import load_manifest, manifest_requests
from repro.errors import ParseError


def _write(tmp_path, doc):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_defaults_flow_into_jobs(tmp_path):
    doc = {"defaults": {"format": "png", "width": 1200},
           "jobs": [{"input": "a.jed"}, {"input": "b.jed", "width": 640}]}
    a, b = manifest_requests(doc, base_dir=tmp_path)
    assert a.output_format == "png" and a.width == 1200
    assert b.width == 640
    assert a.input_path == str(tmp_path / "a.jed")
    assert a.output_path == str(tmp_path / "a.png")


def test_formats_expansion(tmp_path):
    doc = {"output_dir": "out",
           "jobs": [{"input": "fig.jed", "formats": ["png", "svg"]}]}
    reqs = manifest_requests(doc, base_dir=tmp_path)
    assert [r.output_format for r in reqs] == ["png", "svg"]
    assert reqs[0].output_path == str(tmp_path / "out" / "fig.png")
    assert reqs[1].output_path == str(tmp_path / "out" / "fig.svg")


def test_html_knobs_accepted(tmp_path):
    doc = {"defaults": {"format": "html", "html_threshold": 100},
           "jobs": [{"input": "a.jed"}, {"input": "b.jed", "html_tiers": 2}]}
    a, b = manifest_requests(doc, base_dir=tmp_path)
    assert a.html_threshold == b.html_threshold == 100
    assert b.html_tiers == 2


def test_explicit_output_resolves_against_output_dir(tmp_path):
    doc = {"output_dir": "out",
           "jobs": [{"input": "a.jed", "output": "renamed.svg"}]}
    (req,) = manifest_requests(doc, base_dir=tmp_path)
    assert req.output_path == str(tmp_path / "out" / "renamed.svg")


def test_unknown_job_option_names_the_job(tmp_path):
    doc = {"jobs": [{"input": "a.jed"}, {"input": "b.jed", "wdith": 10}]}
    with pytest.raises(ParseError, match=r"unknown option 'wdith' in jobs\[1\]"):
        manifest_requests(doc, base_dir=tmp_path)


@pytest.mark.parametrize("job", [
    {"input": "a.jed", "width": 0},
    {"input": "a.jed", "lod": "bogus"},
    {"input": "a.jed", "format": "gif"},
    {"input": "a.jed", "formats": ["svg"], "mode": "bogus"},
], ids=["width", "lod", "format", "formats-mode"])
def test_bad_job_value_names_the_job_and_manifest(tmp_path, job):
    path = _write(tmp_path, {"jobs": [{"input": "ok.jed"}, job]})
    with pytest.raises(ParseError, match=r"^jobs\[1\]: ") as err:
        load_manifest(path)
    assert err.value.source == str(path)
    assert str(path) in str(err.value)


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ParseError, match="unknown manifest key"):
        manifest_requests({"jbos": [], "jobs": [{"input": "a.jed"}]},
                          base_dir=tmp_path)


def test_empty_jobs_rejected(tmp_path):
    with pytest.raises(ParseError, match="non-empty 'jobs'"):
        manifest_requests({"jobs": []}, base_dir=tmp_path)


def test_output_and_formats_conflict(tmp_path):
    doc = {"jobs": [{"input": "a.jed", "output": "x.png", "formats": ["svg"]}]}
    with pytest.raises(ParseError, match="'output' or 'formats', not both"):
        manifest_requests(doc, base_dir=tmp_path)


def test_unknown_format_in_formats(tmp_path):
    doc = {"jobs": [{"input": "a.jed", "formats": ["tiff"]}]}
    with pytest.raises(ParseError, match="unknown output format 'tiff'"):
        manifest_requests(doc, base_dir=tmp_path)


def test_load_manifest_resolves_cache_dir(tmp_path):
    path = _write(tmp_path, {"name": "figs", "cache_dir": ".cache",
                             "jobs": [{"input": "a.jed", "format": "png"}]})
    manifest = load_manifest(path)
    assert manifest.name == "figs"
    assert manifest.cache_dir == str(tmp_path / ".cache")
    assert len(manifest) == 1


def test_malformed_manifest_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="malformed manifest JSON"):
        load_manifest(path)
