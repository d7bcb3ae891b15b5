"""High-level rendering entry points, built around :class:`RenderRequest`.

One render job = one :class:`RenderRequest`: a plain, picklable dataclass
carrying the input (path + format, or an in-memory schedule passed
alongside), the output (path + format), and every knob of the pipeline
(style, color map, viewport, filters, level of detail).  The CLI, the
parallel batch runner (:mod:`repro.batch`) and the benchmark suites all
build requests and hand them to :func:`execute_request`, which returns a
:class:`RenderResult` describing what happened.

Files are written by :func:`execute_request` (or its wrapper
:func:`export_schedule`, schedule -> file) and, for drawings laid out
elsewhere (task graphs, profiles, run reports, comparisons), by
:func:`export_drawing`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter

from repro.core.colormap import ColorMap
from repro.core.model import Schedule
from repro.core.timeframe import ViewMode
from repro.core.viewport import Viewport
from repro.errors import RenderError
from repro.obs import core as _obs
from repro.render.backends import (
    render_bmp,
    render_eps,
    render_html,
    render_pdf,
    render_png,
    render_ppm,
    render_svg,
)
from repro.render.geometry import Drawing
from repro.render.html_payload import (
    DEFAULT_HTML_THRESHOLD,
    DEFAULT_HTML_TIERS,
    MAX_HTML_TIERS,
)
from repro.render.layout import LayoutOptions, layout_schedule
from repro.render.lod import check_lod_mode
from repro.render.style import Style

__all__ = [
    "RenderRequest",
    "RenderResult",
    "execute_request",
    "render_request_bytes",
    "export_schedule",
    "export_drawing",
    "render_drawing",
    "OUTPUT_FORMATS",
    "format_from_suffix",
]

#: format name -> drawing serializer
OUTPUT_FORMATS: dict[str, Callable[[Drawing], bytes]] = {
    "svg": render_svg,
    "png": render_png,
    "ppm": render_ppm,
    "bmp": render_bmp,
    "pdf": render_pdf,
    "eps": render_eps,
    "html": render_html,
}

DEFAULT_OUTPUT_FORMAT = "svg"


def format_from_suffix(path: str | Path, default: str | None = None) -> str:
    """Infer an output format from a file suffix.

    With ``default`` given, an unknown or missing suffix falls back to it
    instead of raising (the batch manifest uses this to apply a
    manifest-wide default format).
    """
    suffix = Path(path).suffix.lower().lstrip(".")
    if suffix not in OUTPUT_FORMATS:
        if default is not None:
            return default
        raise RenderError(
            f"cannot infer output format from suffix {suffix!r}; "
            f"supported: {', '.join(sorted(OUTPUT_FORMATS))}")
    return suffix


def render_drawing(drawing: Drawing, format: str) -> bytes:
    """Serialize an already laid-out drawing."""
    try:
        backend = OUTPUT_FORMATS[format.lower()]
    except KeyError:
        raise RenderError(
            f"unknown output format {format!r}; "
            f"supported: {', '.join(sorted(OUTPUT_FORMATS))}") from None
    with _obs.span("render.encode", format=format.lower(),
                   primitives=len(drawing)):
        data = backend(drawing)
    _obs.add("render.bytes", len(data))
    return data


def _positive_int(name: str, value) -> int:
    """Validate a dimension-like field: finite, numeric, >= 1.

    NaN, infinities, negatives, zero and non-numeric junk used to slip
    through here and surface as cryptic worker-side layout crashes; the
    serve front end needs them rejected at request-construction time so
    they can become structured 400 responses.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RenderError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise RenderError(f"{name} must be finite, got {value!r}")
    if int(value) != value:
        raise RenderError(f"{name} must be a whole number, got {value!r}")
    if value < 1:
        raise RenderError(f"{name} must be >= 1, got {value!r}")
    return int(value)


def _as_str_tuple(value) -> tuple[str, ...] | None:
    if value is None:
        return None
    if isinstance(value, str):
        return (value,)
    return tuple(str(v) for v in value)


@dataclass(frozen=True)
class RenderRequest:
    """One fully-described render job.

    Every field is a plain value (paths and the ``mode``/``lod`` names are
    strings), so a request pickles cleanly across the process-pool boundary
    of :mod:`repro.batch` and fingerprints deterministically for the
    content-addressed render cache.

    ``input_path`` may be omitted when the schedule is passed in-memory to
    :func:`execute_request`; ``output_path`` may be omitted to get the
    encoded bytes back on the :class:`RenderResult` instead of a file.
    """

    # input
    input_path: str | None = None
    input_format: str | None = None
    # output
    output_path: str | None = None
    output_format: str | None = None
    # geometry / appearance
    width: int = 900
    height: int = 480
    mode: str = ViewMode.ALIGNED.value
    title: str | None = None
    lod: str = "auto"
    style: Style | None = None
    style_path: str | None = None
    cmap: ColorMap | None = None
    cmap_path: str | None = None
    grayscale: bool = False
    auto_colors: str | None = None   # "" = per task type, "key" = per meta key
    viewport: Viewport | None = None
    # schedule transforms applied after loading
    types: tuple[str, ...] | None = None
    clusters: tuple[str, ...] | None = None
    window: tuple[float, float] | None = None
    composites: bool = False
    with_profile: bool = False
    # html backend knobs (ignored by every other format)
    html_threshold: int = DEFAULT_HTML_THRESHOLD
    html_tiers: int = DEFAULT_HTML_TIERS

    def __post_init__(self) -> None:
        for key in ("input_path", "output_path", "style_path", "cmap_path"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, str):
                object.__setattr__(self, key, str(value))
        for key in ("width", "height", "html_threshold", "html_tiers"):
            object.__setattr__(self, key, _positive_int(key, getattr(self, key)))
        if self.html_tiers > MAX_HTML_TIERS:
            raise RenderError(
                f"html_tiers must be in 1..{MAX_HTML_TIERS}, got {self.html_tiers}")
        mode = self.mode
        if isinstance(mode, ViewMode):
            object.__setattr__(self, "mode", mode.value)
        else:
            object.__setattr__(self, "mode", ViewMode.parse(str(mode)).value)
        check_lod_mode(self.lod)
        object.__setattr__(self, "types", _as_str_tuple(self.types))
        object.__setattr__(self, "clusters", _as_str_tuple(self.clusters))
        if self.window is not None:
            t0, t1 = self.window
            t0, t1 = float(t0), float(t1)
            if not (math.isfinite(t0) and math.isfinite(t1)):
                raise RenderError(
                    f"window bounds must be finite, got ({t0!r}, {t1!r})")
            object.__setattr__(self, "window", (t0, t1))
        if self.output_format is not None:
            fmt = self.output_format.lower()
            if fmt not in OUTPUT_FORMATS:
                raise RenderError(
                    f"unknown output format {fmt!r}; "
                    f"supported: {', '.join(sorted(OUTPUT_FORMATS))}")
            object.__setattr__(self, "output_format", fmt)

    # ------------------------------------------------------------ resolution
    def with_options(self, **updates) -> "RenderRequest":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **updates)

    def resolved_output_format(self) -> str:
        """Explicit output format, else by output suffix, else SVG."""
        if self.output_format:
            return self.output_format
        if self.output_path:
            return format_from_suffix(self.output_path)
        return DEFAULT_OUTPUT_FORMAT

    def load_schedule(self) -> Schedule:
        """Load the input schedule through the format registry."""
        if self.input_path is None:
            raise RenderError("request has no input_path and no schedule "
                              "was passed in-memory")
        from repro.io.registry import load_schedule

        return load_schedule(self.input_path, self.input_format)

    def transformed(self, schedule: Schedule) -> Schedule:
        """Apply the request's filters / composite synthesis to a schedule."""
        if self.types or self.clusters or self.window:
            schedule = schedule.filtered(
                types=list(self.types) if self.types else None,
                clusters=list(self.clusters) if self.clusters else None,
                time_window=self.window,
            )
        if self.composites:
            from repro.core.composite import with_composites

            schedule = with_composites(schedule)
        return schedule

    def resolve_style(self) -> Style:
        if self.style is not None and self.style_path is not None:
            raise RenderError("give either style or style_path, not both")
        if self.style_path is not None:
            from repro.render.style import load_style_file

            return load_style_file(self.style_path)
        return self.style or Style()

    def _given_cmap(self) -> ColorMap | None:
        """The color map the request names (``cmap`` or the file at
        ``cmap_path``), or None."""
        if self.cmap is not None and self.cmap_path is not None:
            raise RenderError("give either cmap or cmap_path, not both")
        if self.cmap_path is not None:
            from repro.io import colormap_xml

            return colormap_xml.load(self.cmap_path)
        return self.cmap

    def resolve_cmap(self, schedule: Schedule) -> ColorMap:
        from repro.core.colormap import auto_colormap, default_colormap

        cmap = self._given_cmap()
        if cmap is None:
            cmap = default_colormap()
            if self.auto_colors is not None:
                cmap = cmap.merged_with(
                    auto_colormap(schedule, key=self.auto_colors or None))
        if self.grayscale:
            cmap = cmap.to_grayscale()
        return cmap

    def resolve_viewport(self, schedule: Schedule) -> Viewport | None:
        """Explicit viewport, else one zoomed to the time window (if any)."""
        if self.viewport is not None:
            return self.viewport
        if self.window is not None:
            full = Viewport.fit(schedule)
            return full.zoom_to(self.window[0], self.window[1])
        return None

    # ---------------------------------------------------------- fingerprint
    def fingerprint(self) -> dict:
        """Canonical, JSON-serializable token of every output-affecting
        option (everything except the input/output *paths*), used by the
        content-addressed render cache."""
        token: dict[str, object] = {
            "format": self.resolved_output_format(),
            "width": self.width,
            "height": self.height,
            "mode": self.mode,
            "title": self.title,
            "lod": self.lod,
            "style": _dataclass_token(self.resolve_style()),
            "grayscale": self.grayscale,
            "auto_colors": self.auto_colors,
            "viewport": _dataclass_token(self.viewport) if self.viewport else None,
            "types": self.types,
            "clusters": self.clusters,
            "window": self.window,
            "composites": self.composites,
            "with_profile": self.with_profile,
        }
        if token["format"] == "html":
            # html-only knobs: keyed in only for html so cache entries of
            # every other format are unaffected by their defaults changing
            token["html_threshold"] = self.html_threshold
            token["html_tiers"] = self.html_tiers
        cmap = self._given_cmap()
        if cmap is not None:
            # keyed by content, not by path: an edited cmap file re-renders
            token["cmap"] = _cmap_token(cmap)
        return token


def _dataclass_token(obj) -> dict:
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = repr(value) if not isinstance(
            value, (int, float, str, bool, type(None))) else value
    return out


def _cmap_token(cmap: ColorMap) -> dict:
    styles = {t: (s.bg.hex(), s.fg.hex() if s.fg else None)
              for t, s in ((t, cmap.style_for_type(t)) for t in cmap.task_types)}
    rules = sorted(
        (sorted(r.member_types), r.style.bg.hex(),
         r.style.fg.hex() if r.style.fg else None)
        for r in cmap.composite_rules)
    return {"name": cmap.name, "styles": styles, "composites": rules,
            "fallback": cmap.fallback.bg.hex(), "config": dict(cmap.config)}


@dataclass(frozen=True)
class RenderResult:
    """What one executed :class:`RenderRequest` produced."""

    input_path: str | None
    output_path: str | None
    format: str
    nbytes: int
    duration_s: float
    cache: str = "off"            # "off" | "hit" | "miss"
    error: str | None = None
    attempts: int = 1
    data: bytes | None = field(default=None, repr=False, compare=False)
    #: wire-form obs trace captured inside the worker that ran this job
    #: (see repro.obs.export.trace_to_doc); local-only, never in to_json
    worker_obs: dict | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json(self) -> dict:
        return {
            "input": self.input_path,
            "output": self.output_path,
            "format": self.format,
            "bytes": self.nbytes,
            "duration_s": self.duration_s,
            "cache": self.cache,
            "attempts": self.attempts,
            "error": self.error,
        }


def _layout_request(schedule: Schedule, request: RenderRequest) -> Drawing:
    """Lay out a (already transformed) schedule per the request."""
    cmap = request.resolve_cmap(schedule)
    style = request.resolve_style()
    options = LayoutOptions(width=request.width, height=request.height,
                            mode=ViewMode.parse(request.mode),
                            title=request.title)
    drawing = layout_schedule(schedule, cmap=cmap, style=style, options=options,
                              viewport=request.resolve_viewport(schedule),
                              lod=request.lod)
    if request.with_profile:
        from repro.render.compose import stack_drawings
        from repro.render.profile import layout_profile

        profile = layout_profile(schedule, cmap=cmap, style=style,
                                 width=request.width,
                                 height=max(request.height // 3, 140))
        drawing = stack_drawings([drawing, profile])
    return drawing


def render_request_bytes(request: RenderRequest,
                         schedule: Schedule | None = None) -> bytes:
    """Run the layout+encode pipeline of a request, returning the bytes.

    ``schedule`` bypasses ``input_path`` loading for in-memory use; the
    request's filters/composites still apply.
    """
    if schedule is None:
        schedule = request.load_schedule()
    schedule = request.transformed(schedule)
    fmt = request.resolved_output_format()
    if fmt == "html":
        return _render_html_request(schedule, request)
    drawing = _layout_request(schedule, request)
    return render_drawing(drawing, fmt)


def _render_html_request(schedule: Schedule, request: RenderRequest) -> bytes:
    """Data-driven interactive HTML export of a request.

    Unlike the drawing formats this embeds the schedule itself (raw tasks
    or LOD tiers per ``html_threshold``/``html_tiers``/``lod``) rather
    than baked geometry; ``with_profile`` does not apply here.
    """
    from repro.render.backends.html import render_html_interactive
    from repro.render.html_payload import build_payload

    with _obs.span("render.encode", format="html", tasks=len(schedule)):
        payload = build_payload(
            schedule,
            cmap=request.resolve_cmap(schedule),
            title=request.title,
            threshold=request.html_threshold,
            tiers=request.html_tiers,
            lod_mode=request.lod,
            initial=request.resolve_viewport(schedule),
        )
        data = render_html_interactive(payload, width=request.width,
                                       height=request.height)
    _obs.add("render.bytes", len(data))
    return data


def execute_request(request: RenderRequest,
                    schedule: Schedule | None = None) -> RenderResult:
    """Execute one render request end to end.

    Loads (unless ``schedule`` is given), transforms, lays out, encodes and
    — when ``output_path`` is set — writes the file.  Never consults the
    render cache; that is :mod:`repro.batch`'s job.
    """
    fmt = request.resolved_output_format()
    started = perf_counter()
    data = render_request_bytes(request, schedule)
    if request.output_path is not None:
        out = Path(request.output_path)
        if out.parent != Path("."):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(data)
    return RenderResult(
        input_path=request.input_path,
        output_path=request.output_path,
        format=fmt,
        nbytes=len(data),
        duration_s=perf_counter() - started,
        data=None if request.output_path is not None else data,
    )


def export_schedule(
    schedule: Schedule,
    path: str | Path,
    format: str | None = None,
    **kwargs,
) -> Path:
    """Render a schedule straight to a file; format inferred from the suffix.

    Thin convenience over :func:`execute_request`; ``kwargs`` map to
    :class:`RenderRequest` fields.
    """
    path = Path(path)
    fmt = format.lower() if format else format_from_suffix(path)
    request = RenderRequest(output_path=str(path), output_format=fmt, **kwargs)
    execute_request(request, schedule)
    return path


def export_drawing(drawing: Drawing, path: str | Path,
                   format: str | None = None) -> Path:
    """Serialize an already laid-out drawing to a file; format inferred
    from the suffix."""
    path = Path(path)
    path.write_bytes(render_drawing(drawing, format or format_from_suffix(path)))
    return path
