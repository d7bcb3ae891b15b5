"""Wire format of the render service.

One vocabulary for three transports: the HTTP front end, the worker
pipes and the client helper.  Both carriers of a job put a JSON header
first and the inline schedule's bytes after it, untouched: a
``POST /render`` body is one line of compact JSON, ``\n``, then the
schedule bytes (:func:`frame_submission` writes it,
:func:`split_submission` splits it), and a worker pipe sends the header
and the bytes as two frames.  So the render service keys a schedule by
the bytes the client sent and never decodes them to answer a cache hit.
Everything here is plain-JSON-able on purpose — no pickled object graphs
cross a process or network boundary.

Validation is deliberately strict and *structured*: a bad field raises
:class:`~repro.errors.ServeError` carrying a machine-readable ``code``
and ``field``, which the HTTP layer returns verbatim as a 400 body
instead of letting the junk surface as a worker-side traceback.
"""

from __future__ import annotations

import json
import math
import weakref

from repro.core.model import Schedule
from repro.errors import ParseError, RenderError, ServeError
from repro.render.api import OUTPUT_FORMATS, RenderRequest, RenderResult
from repro.render.lod import LOD_MODES

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_FIELDS",
    "TRACE_HEADER",
    "request_to_payload",
    "request_from_payload",
    "result_to_payload",
    "result_from_payload",
    "frame_submission",
    "split_submission",
    "canonical_schedule_bytes",
    "schedule_from_canonical",
]

PROTOCOL_VERSION = 1

#: HTTP header carrying the client-minted request trace id; the same id
#: travels in the worker job header (``trace_id``) and tags every span
#: of the stitched request trace (see :mod:`repro.serve.tracing`).
TRACE_HEADER = "X-Jedule-Trace"

#: RenderRequest fields allowed on the wire (all plain JSON values).
#: The in-memory-object fields (``style``, ``cmap``, ``viewport``) are
#: library-only conveniences; remote callers use the ``*_path`` variants
#: instead.
REQUEST_FIELDS = frozenset({
    "input_path", "input_format", "output_path", "output_format",
    "width", "height", "mode", "title", "lod", "style_path", "cmap_path",
    "grayscale", "auto_colors", "types", "clusters", "window",
    "composites", "with_profile", "html_threshold", "html_tiers",
})

_BOOL_FIELDS = frozenset({"grayscale", "composites", "with_profile"})
_STRING_FIELDS = frozenset({
    "input_path", "input_format", "output_path", "output_format",
    "mode", "title", "lod", "style_path", "cmap_path", "auto_colors",
})
_LIST_FIELDS = frozenset({"types", "clusters"})


def _bad(message: str, *, code: str = "bad-request",
         field: str | None = None) -> ServeError:
    return ServeError(message, code=code, field=field)


def request_to_payload(request: RenderRequest) -> dict:
    """Plain-JSON payload of a request.

    Raises ``ValueError``, naming the field, when the request carries
    in-memory objects (style/cmap/viewport instances) that have no wire
    representation; such a request cannot be sent to a warm worker.
    """
    for key in ("style", "cmap", "viewport"):
        if getattr(request, key) is not None:
            raise ValueError(f"request field {key!r} holds an in-memory "
                             f"object; not representable on the wire")
    payload: dict[str, object] = {}
    for key in sorted(REQUEST_FIELDS):
        value = getattr(request, key)
        if value is None:
            continue
        if key in _LIST_FIELDS or key == "window":
            value = list(value)
        payload[key] = value
    return payload


def _check_number(field: str, value, *, reject_nan: bool = True) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{field} must be a number, got {value!r}",
                   code="invalid-type", field=field)
    if reject_nan and not math.isfinite(value):
        raise _bad(f"{field} must be finite, got {value!r}",
                   code="invalid-value", field=field)
    return float(value)


def request_from_payload(doc: object) -> RenderRequest:
    """Validate a wire payload into a :class:`RenderRequest`.

    Every rejection is a :class:`~repro.errors.ServeError` whose
    ``to_payload()`` names the offending field — NaN/negative dimensions,
    unknown formats and unknown keys all come back as structured 400s
    rather than worker-side exceptions.
    """
    if not isinstance(doc, dict):
        raise _bad(f"request must be a JSON object, got "
                   f"{type(doc).__name__}", code="invalid-type")
    unknown = set(doc) - REQUEST_FIELDS
    if unknown:
        raise _bad(f"unknown request field(s): {', '.join(sorted(unknown))}",
                   code="unknown-field", field=sorted(unknown)[0])

    kwargs: dict[str, object] = {}
    for field, value in doc.items():
        if value is None:
            continue
        if field in ("width", "height", "html_threshold", "html_tiers"):
            number = _check_number(field, value)
            if number != int(number) or number < 1:
                raise _bad(f"{field} must be a positive whole number, "
                           f"got {value!r}", code="invalid-dimension",
                           field=field)
            kwargs[field] = int(number)
        elif field in _BOOL_FIELDS:
            if not isinstance(value, bool):
                raise _bad(f"{field} must be a boolean, got {value!r}",
                           code="invalid-type", field=field)
            kwargs[field] = value
        elif field in _LIST_FIELDS:
            if not isinstance(value, (list, tuple)) or \
                    not all(isinstance(v, str) for v in value):
                raise _bad(f"{field} must be a list of strings, got {value!r}",
                           code="invalid-type", field=field)
            kwargs[field] = tuple(value)
        elif field == "window":
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise _bad(f"window must be a [t0, t1] pair, got {value!r}",
                           code="invalid-value", field="window")
            kwargs[field] = (_check_number("window[0]", value[0]),
                             _check_number("window[1]", value[1]))
        elif field in _STRING_FIELDS:
            if not isinstance(value, str):
                raise _bad(f"{field} must be a string, got {value!r}",
                           code="invalid-type", field=field)
            if field == "output_format" and value.lower() not in OUTPUT_FORMATS:
                raise _bad(
                    f"unknown output format {value!r}; supported: "
                    f"{', '.join(sorted(OUTPUT_FORMATS))}",
                    code="unknown-format", field=field)
            if field == "lod" and value not in LOD_MODES:
                raise _bad(f"unknown lod mode {value!r} (expected one of: "
                           f"{', '.join(LOD_MODES)})",
                           code="unknown-format", field=field)
            kwargs[field] = value
        else:  # pragma: no cover - REQUEST_FIELDS and the sets above agree
            raise _bad(f"unhandled field {field!r}", field=field)
    try:
        return RenderRequest(**kwargs)
    except RenderError as exc:  # backstop: constructor re-validates
        raise _bad(str(exc)) from exc


def result_to_payload(result: RenderResult) -> dict:
    """JSON header of a result; the raw bytes travel as a separate frame."""
    payload = result.to_json()
    payload["has_data"] = result.data is not None
    return payload


def result_from_payload(doc: dict, data: bytes | None = None) -> RenderResult:
    obs_doc = doc.get("obs")
    return RenderResult(
        input_path=doc.get("input"),
        output_path=doc.get("output"),
        format=str(doc.get("format", "?")),
        nbytes=int(doc.get("bytes", 0)),
        duration_s=float(doc.get("duration_s", 0.0)),
        cache=str(doc.get("cache", "off")),
        error=doc.get("error"),
        attempts=int(doc.get("attempts", 1)),
        data=data,
        worker_obs=obs_doc if isinstance(obs_doc, dict) else None,
    )


def frame_submission(header: dict, schedule_bytes: bytes | None = None
                     ) -> bytes:
    """One ``POST /render`` body: ``header`` as one line of compact JSON,
    ``\n``, then ``schedule_bytes`` as they are (nothing for an
    ``input_path`` job).

    ``json.dumps`` escapes every newline inside a string, so the first
    ``\n`` of the body always ends the header line.
    """
    line = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join((line, b"\n", schedule_bytes or b""))


def split_submission(body: bytes) -> tuple[dict, bytes | None]:
    """``(header, schedule_bytes)`` of a ``POST /render`` body.

    The header is the JSON object on the body's first line; everything
    after that line is the inline schedule, returned undecoded, or
    ``None`` when nothing follows.  Raises :class:`ServeError`:
    ``bad-json`` when the header line is not UTF-8 JSON, ``bad-body``
    when it is not an object, and ``unknown-field`` (field
    ``schedule``) when it holds the schedule, as the one-document body
    of earlier versions did.
    """
    line, _, schedule_bytes = body.partition(b"\n")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _bad(f"header line is not JSON: {exc}",
                   code="bad-json") from None
    except RecursionError:
        raise _bad("header line is nested too deeply to decode",
                   code="bad-json") from None
    if not isinstance(header, dict):
        raise _bad("header line must be a JSON object", code="bad-body")
    if "schedule" in header:
        raise _bad('the inline schedule follows the header line: send '
                   '{"request": ...} on one line, a newline, then the '
                   'schedule JSON', code="unknown-field", field="schedule")
    return header, schedule_bytes or None


#: schedule -> (its version, its meta's encoding, its canonical bytes),
#: kept while the schedule lives
_CANONICAL: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _canonical_json(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def canonical_schedule_bytes(schedule: Schedule) -> bytes:
    """The canonical byte form of a schedule.

    Compact, sorted-keys JSON over :func:`repro.io.json_fmt.to_dict`:
    the bytes :func:`repro.batch.cache.schedule_digest` hashes, so a
    worker holding them can compute the cache key without parsing them.

    The bytes are encoded once per change to the schedule: they are
    kept with the schedule's :attr:`~repro.core.model.Schedule.version`
    and the encoding of its ``meta`` dict (a few keys, encoded on every
    call, since ``meta`` is written in place), and returned again while
    both still match.  Two threads may each encode one schedule once;
    the version is read before the encode, so kept bytes never claim a
    later version than they hold.
    """
    meta = _canonical_json(dict(schedule.meta))
    kept = _CANONICAL.get(schedule)
    if kept is not None and kept[0] == schedule.version and kept[1] == meta:
        return kept[2]
    from repro.io.json_fmt import to_dict

    version = schedule.version
    doc = to_dict(schedule)
    data = _canonical_json(doc).encode("utf-8")
    _CANONICAL[schedule] = (version, _canonical_json(doc["meta"]), data)
    return data


def schedule_from_canonical(data: bytes, *,
                            source: str = "<wire>") -> Schedule:
    """Rebuild a schedule from its canonical byte form."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed canonical schedule bytes: {exc}",
                         source=source) from exc
    from repro.io.json_fmt import from_dict

    return from_dict(doc, source=source)
