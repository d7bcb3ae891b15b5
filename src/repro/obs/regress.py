"""Regression detection over the persisted run registry.

:func:`compare_runlog` checks the latest record of each (suite, name)
series in a JSONL run log against the best of the previous ``window``
records.

Timings are noisy, so they are compared min-of-k against min-of-k and
only *slowdowns* beyond ``time_threshold`` are flagged; with
``timing_warn_only`` they demote to warnings.  Schedule-quality metrics
are deterministic, so *any* relative drift beyond ``metric_threshold`` —
makespan up, utilization down, LOD cell count changed — is a hard
failure.

CLI (exits non-zero on failures)::

    python -m repro.obs.regress --runlog runs.jsonl --window 5
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from repro.obs.runlog import RunLog, RunRecord

__all__ = ["Regression", "compare_runlog", "main"]

DEFAULT_TIME_THRESHOLD = 0.25
DEFAULT_METRIC_THRESHOLD = 0.05


@dataclass(frozen=True, slots=True)
class Regression:
    """One detected drift between a baseline and a current measurement."""

    suite: str
    entry: str
    kind: str  # "timing" | "metric"
    key: str
    baseline: float
    current: float
    severity: str  # "fail" | "warn"

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        arrow = f"{self.baseline:g} -> {self.current:g}"
        if self.kind == "timing":
            return (f"[{self.severity}] {self.suite}/{self.entry}: "
                    f"timing {self.key} {arrow} ({self.ratio:.2f}x slower)")
        return (f"[{self.severity}] {self.suite}/{self.entry}: "
                f"metric {self.key} drifted {arrow} "
                f"({(self.ratio - 1) * 100:+.1f}%)")


def _best(value) -> float:
    """Min-of-k: a run list collapses to its best measurement."""
    if isinstance(value, (list, tuple)):
        return min(float(v) for v in value) if value else 0.0
    return float(value)


def compare_runlog(
    records: list[RunRecord],
    *,
    window: int = 5,
    time_threshold: float = DEFAULT_TIME_THRESHOLD,
    metric_threshold: float = DEFAULT_METRIC_THRESHOLD,
    timing_warn_only: bool = False,
) -> list[Regression]:
    """Latest record of each (suite, name) series vs. a rolling baseline.

    The baseline for a timing is the *best* value seen in the previous
    ``window`` records (min-of-k across runs and across records); for a
    metric it is the most recent previous value.  Series with no history
    are skipped — a registry with one record cannot regress.
    """
    series: dict[tuple[str, str], list[RunRecord]] = {}
    for r in records:
        series.setdefault((r.suite, r.name), []).append(r)

    out: list[Regression] = []
    timing_severity = "warn" if timing_warn_only else "fail"
    for (suite, name), runs in series.items():
        if len(runs) < 2:
            continue
        latest, history = runs[-1], runs[-1 - window:-1]

        def rolling_best(key: str, *, source: str) -> float | None:
            values = []
            for r in history:
                bucket = r.timings_s if source == "timings" else r.stages
                if source == "stages":
                    stage = bucket.get(key)
                    if stage is not None:
                        values.append(float(stage.get("total_s", 0.0)))
                else:
                    v = bucket.get(key)
                    if v is not None:
                        values.append(_best(v))
            return min(values) if values else None

        for key, runs_list in latest.timings_s.items():
            base = rolling_best(key, source="timings")
            if base is not None and base > 0 and \
                    _best(runs_list) > base * (1 + time_threshold):
                out.append(Regression(suite, name, "timing", key,
                                      base, _best(runs_list), timing_severity))
        for key, stage in latest.stages.items():
            base = rolling_best(key, source="stages")
            cur = float(stage.get("total_s", 0.0))
            if base is not None and base > 0 and \
                    cur > base * (1 + time_threshold):
                out.append(Regression(suite, name, "timing", f"stage:{key}",
                                      base, cur, timing_severity))
        for key, value in latest.metrics.items():
            prev = None
            for r in reversed(history):
                if key in r.metrics:
                    prev = float(r.metrics[key])
                    break
            if prev is None:
                continue
            scale = max(abs(prev), 1e-12)
            if abs(float(value) - prev) > metric_threshold * scale:
                out.append(Regression(suite, name, "metric", key,
                                      prev, float(value), "fail"))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Detect perf/quality regressions in a JSONL run log.")
    parser.add_argument("--runlog", required=True,
                        help="JSONL run registry to self-compare")
    parser.add_argument("--window", type=int, default=5,
                        help="rolling-baseline depth (default 5)")
    parser.add_argument("--time-threshold", type=float,
                        default=DEFAULT_TIME_THRESHOLD,
                        help="relative slowdown tolerated before flagging "
                             "a timing (default 0.25 = 25%%)")
    parser.add_argument("--metric-threshold", type=float,
                        default=DEFAULT_METRIC_THRESHOLD,
                        help="relative drift tolerated on quality metrics "
                             "(default 0.05 = 5%%)")
    parser.add_argument("--timing-warn-only", action="store_true",
                        help="report timing regressions without failing "
                             "(metric drift still fails)")
    args = parser.parse_args(argv)

    records = RunLog(args.runlog).records()
    if not records:
        print("error: nothing to compare", file=sys.stderr)
        return 2
    findings = compare_runlog(
        records, window=args.window,
        time_threshold=args.time_threshold,
        metric_threshold=args.metric_threshold,
        timing_warn_only=args.timing_warn_only)
    for f in findings:
        print(str(f))
    failures = [f for f in findings if f.severity == "fail"]
    warnings = [f for f in findings if f.severity == "warn"]
    print(f"regress: {len(records)} record(s), {len(failures)} failure(s), "
          f"{len(warnings)} warning(s)")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
