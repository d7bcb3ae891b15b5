"""Manifest-driven batch descriptions.

A manifest is a JSON file describing one reproducible figure set::

    {
      "name": "paper-figures",
      "output_dir": "output",
      "cache_dir": ".render-cache",
      "defaults": {"format": "png", "width": 900, "height": 480},
      "jobs": [
        {"input": "fig01_simple.jed", "title": "Figure 1"},
        {"input": "fig03_overlap.jed", "composites": true,
         "formats": ["png", "svg"]},
        {"input": "fig13_thunder.swf", "output": "thunder.png",
         "lod": "auto"}
      ]
    }

Relative paths resolve against the manifest's directory, so a manifest
checked into a repository regenerates its figures from any working
directory.  Every job entry becomes one (or, with ``formats``, several)
:class:`~repro.render.api.RenderRequest`; unknown keys fail fast with a
:class:`~repro.errors.ParseError` naming the offending job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ParseError, RenderError
from repro.render.api import OUTPUT_FORMATS, RenderRequest, format_from_suffix

__all__ = ["BatchManifest", "load_manifest", "manifest_requests"]

#: manifest option key -> RenderRequest field
_OPTION_KEYS = {
    "input_format": "input_format",
    "format": "output_format",
    "width": "width",
    "height": "height",
    "mode": "mode",
    "title": "title",
    "lod": "lod",
    "style": "style_path",
    "cmap": "cmap_path",
    "grayscale": "grayscale",
    "auto_colors": "auto_colors",
    "types": "types",
    "clusters": "clusters",
    "window": "window",
    "composites": "composites",
    "with_profile": "with_profile",
    "html_threshold": "html_threshold",
    "html_tiers": "html_tiers",
}

_JOB_ONLY_KEYS = {"input", "output", "formats"}

_TOP_KEYS = {"name", "output_dir", "cache_dir", "defaults", "jobs"}


@dataclass(frozen=True)
class BatchManifest:
    """A parsed manifest: its identity plus the expanded render requests."""

    name: str
    path: str
    requests: tuple[RenderRequest, ...]
    cache_dir: str | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.requests)


def _options_from(entry: dict, *, where: str, base: dict | None = None) -> dict:
    options = dict(base or {})
    for key, value in entry.items():
        if key in _JOB_ONLY_KEYS:
            continue
        target = _OPTION_KEYS.get(key)
        if target is None:
            raise ParseError(
                f"unknown option {key!r} in {where} "
                f"(allowed: {', '.join(sorted(_OPTION_KEYS))})")
        options[target] = value
    return options


def _resolve(base: Path, value: str) -> str:
    path = Path(value)
    return str(path if path.is_absolute() else base / path)


def manifest_requests(doc: dict, *, base_dir: str | Path = ".",
                      source: str = "<manifest>") -> list[RenderRequest]:
    """Expand a manifest document into concrete render requests."""
    base = Path(base_dir)
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(
            f"unknown manifest key(s) {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(_TOP_KEYS))})", source=source)
    jobs = doc.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        raise ParseError("manifest needs a non-empty 'jobs' list", source=source)
    defaults = doc.get("defaults") or {}
    if not isinstance(defaults, dict):
        raise ParseError("'defaults' must be an object", source=source)
    base_options = _options_from(defaults, where="defaults")
    out_dir = base / doc.get("output_dir", ".")

    requests: list[RenderRequest] = []

    def add(where: str, **options) -> None:
        try:
            requests.append(RenderRequest(**options))
        except (RenderError, ValueError, TypeError) as exc:
            raise ParseError(f"{where}: {exc}", source=source) from exc

    for i, entry in enumerate(jobs):
        where = f"jobs[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be an object", source=source)
        if "input" not in entry:
            raise ParseError(f"{where} needs an 'input' path", source=source)
        options = _options_from(entry, where=where, base=base_options)
        if options.get("style_path"):
            options["style_path"] = _resolve(base, options["style_path"])
        if options.get("cmap_path"):
            options["cmap_path"] = _resolve(base, options["cmap_path"])
        input_path = _resolve(base, str(entry["input"]))
        stem = Path(input_path).stem

        formats = entry.get("formats")
        if formats is not None:
            if "output" in entry:
                raise ParseError(f"{where}: give 'output' or 'formats', not both",
                                 source=source)
            if not isinstance(formats, list) or not formats:
                raise ParseError(f"{where}: 'formats' must be a non-empty list",
                                 source=source)
            for fmt in formats:
                fmt = str(fmt).lower()
                if fmt not in OUTPUT_FORMATS:
                    raise ParseError(
                        f"{where}: unknown output format {fmt!r} (supported: "
                        f"{', '.join(sorted(OUTPUT_FORMATS))})", source=source)
                add(where, input_path=input_path,
                    output_path=str(out_dir / f"{stem}.{fmt}"),
                    **{**options, "output_format": fmt})
            continue

        if "output" in entry:
            out = Path(str(entry["output"]))
            output_path = str(out if out.is_absolute() else out_dir / out)
        else:
            fmt = options.get("output_format") \
                or format_from_suffix(input_path, default="svg")
            output_path = str(out_dir / f"{stem}.{fmt}")
        add(where, input_path=input_path, output_path=output_path, **options)
    return requests


def load_manifest(path: str | Path) -> BatchManifest:
    """Parse a manifest file into a :class:`BatchManifest`."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed manifest JSON: {exc}", source=str(path)) from exc
    if not isinstance(doc, dict):
        raise ParseError("manifest must be a JSON object", source=str(path))
    base = path.parent
    requests = manifest_requests(doc, base_dir=base, source=str(path))
    cache_dir = doc.get("cache_dir")
    if cache_dir is not None:
        cache_dir = _resolve(base, str(cache_dir))
    return BatchManifest(
        name=str(doc.get("name") or path.stem),
        path=str(path),
        requests=tuple(requests),
        cache_dir=cache_dir,
        meta={"jobs": len(requests)},
    )
