"""Prometheus-style metrics registry behind ``GET /metricz``.

The render service needs live, scrapeable metrics that work without any
client library: counters (labelled, monotonic), gauges (read through a
callable at scrape time, so queue depth is never stale), and latency
histograms backed by :class:`repro.obs.core.Histogram` — fixed
log-spaced buckets, constant memory, thread-safe.

Everything renders to the Prometheus *text exposition format 0.0.4*
(``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le=...}`` series
plus ``_sum`` / ``_count`` for histograms, label values escaped per the
spec).  :func:`parse_prometheus_text` is the matching reader used by
``jedule top`` and the test suite, and
:func:`quantile_from_buckets` recovers p50/p95/p99 estimates from the
cumulative bucket series of a scrape.
"""

from __future__ import annotations

import math
import threading

from repro.obs.core import Histogram

__all__ = [
    "Metrics",
    "escape_label_value",
    "format_value",
    "parse_prometheus_text",
    "quantile_from_buckets",
]

#: ``(("stage", "worker"), ...)`` — canonical ordered label tuple.
Labels = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, str] | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
    return "".join(out)


def format_value(value: float) -> str:
    """A float the exposition format accepts (``+Inf`` for infinity)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def _render_labels(labels: Labels, extra: str = "") -> str:
    parts = [f'{k}="{escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Metrics:
    """A small metric registry with a Prometheus text renderer.

    Families are declared once (name + help text); samples are cheap and
    thread-safe.  Counter families may instead read their value from a
    callable at scrape time (``fn=``) — used for values another subsystem
    already counts monotonically, e.g. worker restarts.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._help: dict[str, str] = {}
        self._type: dict[str, str] = {}
        self._order: list[str] = []
        self._counters: dict[str, dict[Labels, float]] = {}
        self._counter_fns: dict[str, object] = {}
        self._gauge_fns: dict[str, object] = {}
        self._histograms: dict[str, dict[Labels, Histogram]] = {}
        self._hist_kwargs: dict[str, dict] = {}

    # ---------------------------------------------------------- declaration
    def _declare(self, name: str, help_text: str, kind: str) -> str:
        with self._lock:
            if name in self._type:
                raise ValueError(f"metric {name!r} already declared")
            self._help[name] = help_text
            self._type[name] = kind
            self._order.append(name)
        return name

    def counter(self, name: str, help_text: str, *, fn=None) -> str:
        """Declare a counter family; ``fn`` makes it scrape-time read."""
        name = self._declare(name, help_text, "counter")
        if fn is not None:
            self._counter_fns[name] = fn
        else:
            self._counters[name] = {}
        return name

    def gauge(self, name: str, help_text: str, fn) -> str:
        """Declare a gauge read from ``fn()`` (float) at scrape time."""
        name = self._declare(name, help_text, "gauge")
        self._gauge_fns[name] = fn
        return name

    def histogram(self, name: str, help_text: str, *, lo: float = 1e-4,
                  hi: float = 1e3, buckets_per_decade: int = 5) -> str:
        """Declare a histogram family (one Histogram per label set)."""
        name = self._declare(name, help_text, "histogram")
        self._histograms[name] = {}
        self._hist_kwargs[name] = {"lo": lo, "hi": hi,
                                   "buckets_per_decade": buckets_per_decade}
        return name

    # ------------------------------------------------------------- sampling
    def inc(self, name: str, value: float = 1.0,
            labels: dict[str, str] | None = None) -> None:
        key = _labels_key(labels)
        with self._lock:
            family = self._counters[name]
            family[key] = family.get(key, 0.0) + value

    def observe(self, name: str, value: float,
                labels: dict[str, str] | None = None) -> None:
        key = _labels_key(labels)
        family = self._histograms[name]
        hist = family.get(key)
        if hist is None:
            with self._lock:
                hist = family.setdefault(
                    key, Histogram(**self._hist_kwargs[name]))
        hist.observe(value)

    def stage_histogram(self, name: str, stage: str) -> Histogram | None:
        """The Histogram behind ``{stage=...}``, if any samples landed."""
        return self._histograms.get(name, {}).get(
            _labels_key({"stage": stage}))

    def counter_values(self, samples: dict[str, tuple[str, dict | None]]
                       ) -> dict[str, float]:
        """Many counter samples read in one locked snapshot.

        ``samples`` maps an output key to the ``(family, labels)`` it
        reads; a sample that never fired reads ``0.0``.
        """
        with self._lock:
            return {key: self._counters[family].get(_labels_key(labels), 0.0)
                    for key, (family, labels) in samples.items()}

    # ------------------------------------------------------------ rendering
    def render(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        with self._lock:
            order = list(self._order)
            counters = {name: dict(family)
                        for name, family in self._counters.items()}
            hist_families = {name: dict(family)
                             for name, family in self._histograms.items()}
        lines: list[str] = []
        for name in order:
            kind = self._type[name]
            lines.append(f"# HELP {name} {self._help[name]}")
            lines.append(f"# TYPE {name} {kind}")
            if kind == "gauge":
                value = float(self._gauge_fns[name]())
                lines.append(f"{name} {format_value(value)}")
            elif kind == "counter" and name in self._counter_fns:
                value = float(self._counter_fns[name]())
                lines.append(f"{name} {format_value(value)}")
            elif kind == "counter":
                family = counters.get(name, {})
                if not family:
                    lines.append(f"{name} 0")
                for key in sorted(family):
                    lines.append(f"{name}{_render_labels(key)} "
                                 f"{format_value(family[key])}")
            else:  # histogram
                for key in sorted(hist_families.get(name, {})):
                    hist = hist_families[name][key]
                    counts, count, total, _, _ = hist.snapshot()
                    seen = 0
                    for bound, bucket_count in zip(hist.bounds, counts):
                        seen += bucket_count
                        le = f'le="{format_value(bound)}"'
                        lines.append(f"{name}_bucket"
                                     f"{_render_labels(key, le)} {seen}")
                    inf_le = 'le="+Inf"'
                    lines.append(f"{name}_bucket"
                                 f"{_render_labels(key, inf_le)} {count}")
                    lines.append(f"{name}_sum{_render_labels(key)} "
                                 f"{format_value(total)}")
                    lines.append(f"{name}_count{_render_labels(key)} "
                                 f"{count}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- parsing
def parse_prometheus_text(text: str) -> dict[str, dict[Labels, float]]:
    """Parse exposition text back into ``{name: {labels: value}}``.

    The inverse of :meth:`Metrics.render`, strict enough to catch format
    bugs: raises :class:`ValueError` on any malformed sample line.
    Histogram series come back under their ``_bucket`` / ``_sum`` /
    ``_count`` sample names, with ``le`` as an ordinary label.
    """
    out: dict[str, dict[Labels, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, rest = _parse_sample_name(line, lineno)
        parts = rest.split()
        if len(parts) not in (1, 2):  # value [timestamp]
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        value = _parse_float(parts[0], lineno)
        out.setdefault(name, {})[labels] = value
    return out


def _parse_sample_name(line: str, lineno: int) -> tuple[str, Labels, str]:
    brace = line.find("{")
    if brace < 0:
        name, _, rest = line.partition(" ")
        if not name or not rest:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        return name, (), rest
    name = line[:brace]
    labels: list[tuple[str, str]] = []
    i = brace + 1
    while i < len(line) and line[i] != "}":
        eq = line.find("=", i)
        if eq < 0 or eq + 1 >= len(line) or line[eq + 1] != '"':
            raise ValueError(f"line {lineno}: malformed labels in {line!r}")
        key = line[i:eq].strip().lstrip(",").strip()
        j = eq + 2
        raw: list[str] = []
        while j < len(line):
            ch = line[j]
            if ch == "\\":
                raw.append(line[j:j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ValueError(f"line {lineno}: unterminated label value "
                             f"in {line!r}")
        labels.append((key, _unescape_label_value("".join(raw))))
        i = j + 1
    if i >= len(line) or line[i] != "}":
        raise ValueError(f"line {lineno}: unterminated label set "
                         f"in {line!r}")
    rest = line[i + 1:].strip()
    if not rest:
        raise ValueError(f"line {lineno}: sample has no value: {line!r}")
    return name, tuple(sorted(labels)), rest


def _parse_float(token: str, lineno: int) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"line {lineno}: bad sample value {token!r}") \
            from None


def quantile_from_buckets(buckets: list[tuple[float, float]],
                          q: float) -> float:
    """Upper-bound ``q``-quantile from cumulative ``(le, count)`` pairs.

    ``buckets`` is the scraped ``_bucket`` series of one label set
    (cumulative counts, any order); matches
    :meth:`repro.obs.core.Histogram.percentile` up to the ``+Inf``
    bucket, which has no finite upper bound and reports the largest
    finite ``le`` instead.
    """
    ordered = sorted(buckets)
    if not ordered:
        return 0.0
    count = ordered[-1][1]
    if count <= 0:
        return 0.0
    rank = max(1.0, math.ceil(q * count))
    finite = [le for le, _ in ordered if math.isfinite(le)]
    for le, cum in ordered:
        if cum >= rank:
            if math.isfinite(le):
                return le
            return finite[-1] if finite else math.inf
    return finite[-1] if finite else math.inf
