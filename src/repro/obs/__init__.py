"""Pipeline observability: spans, counters, gauges and trace exporters.

``repro.obs`` instruments the whole pipeline (parsers, schedulers, the
simulation engine, layout/LOD/encode, the CLI) with near-zero overhead
when disabled.  See :mod:`repro.obs.core` for collection,
:mod:`repro.obs.export` for the Chrome-trace / summary / Gantt exporters,
:mod:`repro.obs.log` for structured JSONL logging,
:mod:`repro.obs.runlog` for the persistent cross-run registry,
:mod:`repro.obs.regress` for the regression check over it (run as
``python -m repro.obs.regress``, so the package does not import it) and
:mod:`repro.obs.report` for the rendered dashboard, plus
``docs/observability.md`` for a walkthrough.
"""

from repro.obs.core import (
    Histogram,
    SpanRecord,
    Trace,
    add,
    capture,
    current_trace,
    disable,
    enable,
    gauge,
    is_enabled,
    observe,
    reset,
    span,
)
from repro.obs.export import (
    graft_trace_doc,
    merge_chrome_traces,
    summary_table,
    to_chrome_events,
    to_chrome_json,
    trace_from_doc,
    trace_to_doc,
    trace_to_schedule,
    validate_chrome_events,
)
from repro.obs.log import JsonlLogger, log_to
from repro.obs.report import build_report, export_report, report_from_runlog
from repro.obs.runlog import (
    RunLog,
    RunRecord,
    env_fingerprint,
    record_from_trace,
    schedule_metrics,
    stage_summary,
)

__all__ = [
    "Histogram",
    "JsonlLogger",
    "RunLog",
    "RunRecord",
    "SpanRecord",
    "Trace",
    "add",
    "build_report",
    "capture",
    "current_trace",
    "disable",
    "enable",
    "env_fingerprint",
    "export_report",
    "gauge",
    "graft_trace_doc",
    "is_enabled",
    "log_to",
    "merge_chrome_traces",
    "observe",
    "record_from_trace",
    "report_from_runlog",
    "reset",
    "schedule_metrics",
    "span",
    "stage_summary",
    "summary_table",
    "to_chrome_events",
    "to_chrome_json",
    "trace_from_doc",
    "trace_to_doc",
    "trace_to_schedule",
    "validate_chrome_events",
]
