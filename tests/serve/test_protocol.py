"""Tests for the serve wire format and its hardened validation."""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.batch.cache import schedule_digest
from repro.errors import ServeError
from repro.render.api import RenderRequest
from repro.serve.protocol import (
    canonical_schedule_bytes,
    request_from_payload,
    request_to_payload,
    result_from_payload,
    result_to_payload,
    schedule_from_canonical,
)


def test_request_roundtrip():
    request = RenderRequest(
        input_path="in.jed", output_path="out.png", width=640, height=400,
        mode="scaled", title="figure", lod="auto", types=("comp", "comm"),
        window=(1, 5), composites=True, grayscale=True)
    clone = request_from_payload(request_to_payload(request))
    assert clone == request


def test_request_defaults_roundtrip():
    assert request_from_payload({}) == RenderRequest()


def test_html_knobs_roundtrip():
    request = RenderRequest(output_format="html", html_threshold=500,
                            html_tiers=2)
    clone = request_from_payload(request_to_payload(request))
    assert clone == request


@pytest.mark.parametrize("field", ["width", "height", "html_threshold",
                                   "html_tiers"])
@pytest.mark.parametrize("value,code", [
    (float("nan"), "invalid-value"),
    (float("inf"), "invalid-value"),
    (-100, "invalid-dimension"),
    (0, "invalid-dimension"),
    (12.5, "invalid-dimension"),
    ("640", "invalid-type"),
    (True, "invalid-type"),
])
def test_bad_dimensions_rejected(field, value, code):
    with pytest.raises(ServeError) as err:
        request_from_payload({field: value})
    assert err.value.code == code
    assert err.value.field == field
    payload = err.value.to_payload()
    assert payload["code"] == code and payload["field"] == field


def test_unknown_format_rejected():
    with pytest.raises(ServeError) as err:
        request_from_payload({"output_format": "tiff"})
    assert err.value.code == "unknown-format"
    assert err.value.field == "output_format"


def test_unknown_field_rejected():
    with pytest.raises(ServeError) as err:
        request_from_payload({"widht": 640})
    assert err.value.code == "unknown-field"


def test_nan_window_rejected():
    with pytest.raises(ServeError) as err:
        request_from_payload({"window": [0.0, float("nan")]})
    assert err.value.code == "invalid-value"


def test_non_object_rejected():
    with pytest.raises(ServeError) as err:
        request_from_payload([1, 2])
    assert err.value.code == "invalid-type"


def test_in_memory_objects_refuse_the_wire(simple_schedule):
    from repro.render.style import Style

    request = RenderRequest(style=Style())
    with pytest.raises(ValueError, match="in-memory"):
        request_to_payload(request)


def test_canonical_bytes_match_schedule_digest(simple_schedule):
    data = canonical_schedule_bytes(simple_schedule)
    assert hashlib.sha256(data).hexdigest() == schedule_digest(simple_schedule)


def test_canonical_bytes_roundtrip(multi_cluster_schedule):
    data = canonical_schedule_bytes(multi_cluster_schedule)
    clone = schedule_from_canonical(data)
    assert canonical_schedule_bytes(clone) == data


def test_canonical_bytes_are_encoded_once_per_change(simple_schedule,
                                                      monkeypatch):
    from repro.io import json_fmt

    encodes = []
    to_dict = json_fmt.to_dict
    monkeypatch.setattr(json_fmt, "to_dict",
                        lambda s: encodes.append(s) or to_dict(s))
    s = simple_schedule
    first = canonical_schedule_bytes(s)
    assert canonical_schedule_bytes(s) is first and len(encodes) == 1
    assert schedule_digest(s) == hashlib.sha256(first).hexdigest()
    assert len(encodes) == 1
    # a meta edit or a task change is a new encode; an unchanged meta is not
    s.meta["algorithm"] = "heft"
    second = canonical_schedule_bytes(s)
    assert second != first and len(encodes) == 2
    s.meta["algorithm"] = "heft"
    assert canonical_schedule_bytes(s) is second and len(encodes) == 2
    s.new_task(3, "io", 1.0, 2.0, cluster=0, host_start=0, host_nb=1)
    assert b'"id":"3"' in canonical_schedule_bytes(s) and len(encodes) == 3


def test_result_roundtrip():
    from repro.render.api import RenderResult

    result = RenderResult(input_path="a.jed", output_path=None, format="svg",
                          nbytes=3, duration_s=0.5, cache="hit",
                          error=None, attempts=2, data=b"abc")
    payload = result_to_payload(result)
    assert payload["has_data"] is True
    clone = result_from_payload(payload, b"abc")
    assert clone.data == b"abc" and clone.cache == "hit"
    assert clone.attempts == 2 and clone.ok


def test_window_as_nested_inf_rejected():
    with pytest.raises(ServeError):
        request_from_payload({"window": [math.inf, 1.0]})
