"""Tests for the RenderRequest/RenderResult API."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import RenderError
from repro.io import save_schedule
from repro.render.api import (
    RenderRequest,
    RenderResult,
    execute_request,
    export_schedule,
)


def test_request_pickles_roundtrip():
    request = RenderRequest(
        input_path="in.jed", output_path="out.png", width=640, height=400,
        mode="scaled", title="figure", lod="auto", types=("comp", "comm"),
        window=(1, 5), composites=True, auto_colors="user")
    clone = pickle.loads(pickle.dumps(request))
    assert clone == request
    assert clone.window == (1.0, 5.0)
    assert clone.types == ("comp", "comm")


def test_request_normalizes_and_validates():
    request = RenderRequest(output_path="x.PNG", mode="scaled", types="comp")
    assert request.types == ("comp",)
    assert request.resolved_output_format() == "png"
    with pytest.raises(RenderError, match="unknown lod mode"):
        RenderRequest(lod="sometimes")
    with pytest.raises(RenderError, match="unknown output format"):
        RenderRequest(output_format="tiff")
    with pytest.raises(RenderError, match="cannot infer output format"):
        RenderRequest(output_path="schedule.dat").resolved_output_format()


def test_dimension_validation():
    assert RenderRequest(width=640.0).width == 640  # whole floats normalize
    for bad in [0, -1, float("nan"), float("inf"), 12.5, "640", True, None]:
        with pytest.raises(RenderError):
            RenderRequest(width=bad)
        with pytest.raises(RenderError):
            RenderRequest(height=bad)


def test_window_must_be_finite():
    assert RenderRequest(window=(0, 5)).window == (0.0, 5.0)
    for bad in [(0.0, float("nan")), (float("inf"), 1.0)]:
        with pytest.raises(RenderError, match="finite"):
            RenderRequest(window=bad)


def test_with_options_revalidates():
    request = RenderRequest(output_format="png")
    assert request.with_options(width=50).width == 50
    with pytest.raises(RenderError):
        request.with_options(output_format="tiff")


def test_fingerprint_ignores_paths_but_not_options():
    a = RenderRequest(input_path="a.jed", output_path="x/a.png",
                      output_format="png")
    b = RenderRequest(input_path="b.jed", output_path="y/b.png",
                      output_format="png")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != a.with_options(grayscale=True).fingerprint()
    assert a.fingerprint() != a.with_options(output_format="svg").fingerprint()


def test_fingerprint_covers_html_knobs_only_for_html():
    html = RenderRequest(output_format="html")
    assert html.fingerprint() != \
        html.with_options(html_threshold=10).fingerprint()
    assert html.fingerprint() != html.with_options(html_tiers=2).fingerprint()
    # non-html cache entries must not churn when the html defaults change
    png = RenderRequest(output_format="png")
    assert "html_threshold" not in png.fingerprint()
    assert png.fingerprint() == png.with_options(html_tiers=2).fingerprint()


def test_html_knobs_validated():
    with pytest.raises(RenderError):
        RenderRequest(html_threshold=0)
    with pytest.raises(RenderError, match="html_tiers"):
        RenderRequest(html_tiers=7)
    with pytest.raises(RenderError):
        RenderRequest(html_tiers=float("nan"))


def test_execute_request_end_to_end(tmp_path, simple_schedule):
    src = tmp_path / "s.jed"
    save_schedule(simple_schedule, src)
    out = tmp_path / "fig" / "s.svg"
    result = execute_request(RenderRequest(input_path=src, output_path=out))
    assert isinstance(result, RenderResult)
    assert result.ok
    assert result.format == "svg"
    assert result.nbytes == out.stat().st_size > 0
    assert result.data is None  # bytes went to the file


def test_execute_request_in_memory(simple_schedule):
    request = RenderRequest(output_format="svg")
    result = execute_request(request, simple_schedule)
    assert result.output_path is None
    assert result.data is not None and result.data.startswith(b"<?xml")
    assert result.nbytes == len(result.data)


def test_request_without_input_raises(tmp_path):
    with pytest.raises(RenderError, match="no input_path"):
        execute_request(RenderRequest(output_format="svg"))


def test_export_schedule_by_suffix(tmp_path, simple_schedule):
    out = export_schedule(simple_schedule, tmp_path / "fig.png", title="t")
    data = out.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"


def test_transformed_filters(simple_schedule):
    request = RenderRequest(types=("computation",))
    filtered = request.transformed(simple_schedule)
    assert set(t.type for t in filtered.tasks) == {"computation"}
    assert len(simple_schedule) == 2  # original untouched
