"""Pluggable schedule-format registry.

The paper notes that Jedule "is bundled with a parser for the current
default XML input format [but] one can also extend Jedule with a different
parser".  This registry is that extension point: formats register a name,
file suffixes, load/save callables and an optional content *sniffer*;
:func:`load_schedule` dispatches on explicit format name, file suffix, or —
when the suffix is unknown — on the file's leading bytes, so renamed or
extension-less schedule files still load.

Formats may be one-directional: a ``loader`` of ``None`` makes the format
write-only (e.g. the Pajé trace export), a ``saver`` of ``None`` makes it
read-only (e.g. SWF, which loads through a synthesized node placement).
Either gap raises a clear :class:`~repro.errors.ParseError` naming the
format instead of a bare ``TypeError``.
"""

from __future__ import annotations

import codecs
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.core.model import Schedule
from repro.errors import ParseError
from repro.obs import core as _obs

__all__ = ["FormatSpec", "register_format", "available_formats", "format_for",
           "sniff_format", "load_schedule", "save_schedule"]

#: How many leading bytes a sniffer gets to look at.
SNIFF_BYTES = 4096


@dataclass(frozen=True, slots=True)
class FormatSpec:
    """A registered schedule file format.

    ``sniffer`` receives the first :data:`SNIFF_BYTES` of a file and returns
    whether the content looks like this format; it backs suffix-less
    dispatch in :func:`sniff_format`.
    """

    name: str
    suffixes: tuple[str, ...]
    loader: Callable[[str | Path], Schedule] | None
    saver: Callable[[Schedule, str | Path], None] | None = None
    sniffer: Callable[[bytes], bool] | None = None

    @property
    def can_load(self) -> bool:
        return self.loader is not None

    @property
    def can_save(self) -> bool:
        return self.saver is not None


_REGISTRY: dict[str, FormatSpec] = {}


def register_format(
    name: str,
    suffixes: tuple[str, ...],
    loader: Callable[[str | Path], Schedule] | None,
    saver: Callable[[Schedule, str | Path], None] | None = None,
    *,
    sniffer: Callable[[bytes], bool] | None = None,
    overwrite: bool = False,
) -> FormatSpec:
    """Register (or with ``overwrite=True`` replace) a schedule format."""
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"format {name!r} already registered")
    if loader is None and saver is None:
        raise ValueError(f"format {name!r} needs a loader or a saver")
    spec = FormatSpec(key, tuple(s.lower() for s in suffixes), loader, saver,
                      sniffer)
    _REGISTRY[key] = spec
    return spec


def available_formats() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def sniff_format(path: str | Path) -> FormatSpec | None:
    """Identify a schedule format from a file's leading bytes.

    Asks each registered sniffer in registration order, on the leading
    bytes after any UTF-8 byte order mark; returns ``None`` when the file
    cannot be read or nothing matches.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(SNIFF_BYTES)
    except OSError:
        return None
    # every text reader takes a UTF-8 byte order mark, so no sniffer sees one
    head = head.removeprefix(codecs.BOM_UTF8)
    if not head:
        return None
    for spec in _REGISTRY.values():
        if spec.sniffer is not None:
            try:
                if spec.sniffer(head):
                    return spec
            except Exception:  # a broken sniffer must not block dispatch
                continue
    return None


def format_for(path: str | Path, format: str | None = None, *,
               sniff: bool = True) -> FormatSpec:
    """Resolve a format by explicit name, by file suffix, or by content.

    Content sniffing only runs when the suffix is unknown and the file
    exists (``sniff=False`` disables it — used when resolving a *target*
    path for saving, where pre-existing content is meaningless).
    """
    if format is not None:
        spec = _REGISTRY.get(format.lower())
        if spec is None:
            raise ParseError(
                f"unknown format {format!r} (available: {', '.join(available_formats())})")
        return spec
    suffix = Path(path).suffix.lower()
    for spec in _REGISTRY.values():
        if suffix in spec.suffixes:
            return spec
    if sniff:
        spec = sniff_format(path)
        if spec is not None:
            return spec
    raise ParseError(
        f"cannot infer schedule format from suffix {suffix!r} or content of "
        f"{path}; pass format= (available: {', '.join(available_formats())})")


def load_schedule(path: str | Path, format: str | None = None) -> Schedule:
    """Load a schedule, dispatching on format name, file suffix or content."""
    spec = format_for(path, format)
    if spec.loader is None:
        raise ParseError(
            f"format {spec.name!r} is write-only: no loader is registered "
            f"for it (cannot read {path})")
    with _obs.span("io.load", format=spec.name, path=str(path)):
        schedule = spec.loader(path)
    _obs.add("io.tasks_loaded", len(schedule))
    return schedule


def save_schedule(schedule: Schedule, path: str | Path, format: str | None = None) -> None:
    """Save a schedule, dispatching on format name or file suffix."""
    spec = format_for(path, format, sniff=False)
    if spec.saver is None:
        raise ParseError(
            f"format {spec.name!r} is read-only: no saver is registered "
            f"for it (cannot write {path})")
    with _obs.span("io.save", format=spec.name, path=str(path)):
        spec.saver(schedule, path)


# --------------------------------------------------------------- sniffers

def _head_text(head: bytes) -> str:
    return head.decode("utf-8", errors="replace")


def _sniff_jedule(head: bytes) -> bool:
    stripped = head.lstrip()
    if stripped.startswith(b"<jedule"):
        return True
    return stripped.startswith(b"<?xml") and b"<jedule" in head


def _sniff_json(head: bytes) -> bool:
    return head.lstrip()[:1] == b"{"


def _sniff_csv(head: bytes) -> bool:
    for line in _head_text(head).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        return line.replace(" ", "").lower().startswith("task_id,type,")
    return False


def _sniff_swf(head: bytes) -> bool:
    for line in _head_text(head).splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(";"):  # PWA header comment
            return True
        fields = line.split()
        if len(fields) < 5:
            return False
        try:
            [float(f) for f in fields]
        except ValueError:
            return False
        return True
    return False


def _sniff_paje(head: bytes) -> bool:
    return head.lstrip().startswith(b"%EventDef")


# ------------------------------------------------- builtin registrations

def _load_swf(path: str | Path) -> Schedule:
    from repro.workloads.bridge import schedule_from_swf

    return schedule_from_swf(path)


def _save_paje(schedule: Schedule, path: str | Path) -> None:
    from repro.io import paje

    paje.dump(schedule, path)


def _register_builtins() -> None:
    from repro.io import csv_fmt, jedule_xml, json_fmt

    register_format("jedule", (".jed", ".xml"), jedule_xml.load, jedule_xml.dump,
                    sniffer=_sniff_jedule)
    register_format("json", (".json",), json_fmt.load, json_fmt.dump,
                    sniffer=_sniff_json)
    register_format("csv", (".csv",), csv_fmt.load, csv_fmt.dump,
                    sniffer=_sniff_csv)
    register_format("swf", (".swf",), _load_swf, None, sniffer=_sniff_swf)
    register_format("paje", (".paje", ".trace"), None, _save_paje,
                    sniffer=_sniff_paje)


_register_builtins()
