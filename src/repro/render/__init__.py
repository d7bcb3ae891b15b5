"""Rendering: layout engine, style, raster/vector backends, high-level API."""

from repro.render.api import (
    OUTPUT_FORMATS,
    RenderRequest,
    RenderResult,
    execute_request,
    export_drawing,
    export_schedule,
    format_from_suffix,
    render_drawing,
    render_request_bytes,
)
from repro.render.backends import render_ascii
from repro.render.compose import compare_schedules, stack_drawings
from repro.render.daglayout import export_dag, layout_dag
from repro.render.geometry import Drawing, HAlign, Line, Rect, Text, VAlign
from repro.render.layout import LayoutOptions, layout_schedule, nice_ticks
from repro.render.lod import LOD_MODES
from repro.render.profile import export_profile, layout_profile
from repro.render.style import Style, load_style_file

__all__ = [
    "Drawing",
    "HAlign",
    "LOD_MODES",
    "LayoutOptions",
    "Line",
    "OUTPUT_FORMATS",
    "Rect",
    "RenderRequest",
    "RenderResult",
    "Style",
    "Text",
    "VAlign",
    "compare_schedules",
    "execute_request",
    "export_dag",
    "export_drawing",
    "export_profile",
    "export_schedule",
    "render_request_bytes",
    "format_from_suffix",
    "layout_dag",
    "layout_profile",
    "layout_schedule",
    "load_style_file",
    "nice_ticks",
    "render_ascii",
    "render_drawing",
    "stack_drawings",
]
