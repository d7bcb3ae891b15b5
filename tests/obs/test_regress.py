"""Tests for the regression detector (repro.obs.regress).

The acceptance bar: the detector must exit non-zero on an injected 2x
slowdown and on a seeded makespan drift.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.obs.regress import Regression, compare_runlog, main
from repro.obs.runlog import RunLog, RunRecord


def record(suite="cli", name="render", *, render=None, makespan=None) -> RunRecord:
    rec = RunRecord(suite=suite, name=name)
    if render is not None:
        rec.timings_s = {"render": [render]}
    if makespan is not None:
        rec.metrics = {"makespan": makespan}
    return rec


class TestCompareRunlog:
    def test_single_record_cannot_regress(self):
        assert compare_runlog([record(render=0.1)]) == []

    def test_latest_vs_rolling_best(self):
        records = [record(render=t) for t in (0.1, 0.15, 0.12, 0.21)]
        findings = compare_runlog(records)
        (f,) = findings
        assert f.kind == "timing" and f.baseline == pytest.approx(0.1)
        assert f.current == pytest.approx(0.21)

    def test_window_limits_history(self):
        # the fast 0.1 run ages out of a window of 2; 0.22 vs best(0.2, 0.21)
        records = [record(render=t) for t in (0.1, 0.2, 0.21, 0.22)]
        assert compare_runlog(records, window=2) == []

    def test_metric_vs_most_recent_previous(self):
        records = [record(makespan=m) for m in (10.0, 10.2, 11.5)]
        (f,) = compare_runlog(records)
        assert f.kind == "metric"
        assert f.baseline == pytest.approx(10.2)

    def test_stage_totals_compared(self):
        slow = RunRecord(suite="cli", name="render",
                         stages={"render.layout": {"calls": 1, "total_s": 0.4}})
        fast = RunRecord(suite="cli", name="render",
                         stages={"render.layout": {"calls": 1, "total_s": 0.1}})
        (f,) = compare_runlog([fast, slow])
        assert f.key == "stage:render.layout" and f.kind == "timing"

    def test_series_keyed_by_suite_and_name(self):
        # a slow run in one series is not a baseline for another
        records = [record(suite="a", render=0.1), record(suite="b", render=0.5)]
        assert compare_runlog(records) == []

    def test_identical_is_clean(self):
        same = record(render=0.1, makespan=10.0)
        assert compare_runlog([same, same]) == []

    def test_injected_2x_slowdown_flagged(self):
        (f,) = compare_runlog([record(render=0.1), record(render=0.2)])
        assert (f.kind, f.key, f.severity) == ("timing", "render", "fail")
        assert f.ratio == pytest.approx(2.0)
        assert "2.00x slower" in str(f)

    def test_timing_compared_min_of_k(self):
        # one noisy outlier run must not trip the check: min-of-k absorbs it
        latest = record()
        latest.timings_s = {"render": [0.5, 0.101]}
        assert compare_runlog([record(render=0.1), latest]) == []

    def test_speedup_never_flagged(self):
        assert compare_runlog([record(render=0.2), record(render=0.1)]) == []

    def test_timing_warn_only_demotes(self):
        findings = compare_runlog([record(render=0.1), record(render=0.2)],
                                  timing_warn_only=True)
        assert [f.severity for f in findings] == ["warn"]

    def test_makespan_drift_hard_fails_even_warn_only(self):
        (f,) = compare_runlog([record(makespan=10.0), record(makespan=11.0)],
                              timing_warn_only=True)
        assert (f.kind, f.key, f.severity) == ("metric", "makespan", "fail")
        assert "+10.0%" in str(f)

    def test_metric_drift_symmetric(self):
        # utilization *dropping* is as much a regression as makespan rising
        findings = compare_runlog([record(makespan=10.0), record(makespan=9.0)])
        assert [f.kind for f in findings] == ["metric"]

    def test_drift_within_threshold_tolerated(self):
        assert compare_runlog([record(makespan=10.0),
                               record(makespan=10.4)]) == []

    def test_thresholds_configurable(self):
        records = [record(render=0.1), record(render=0.12)]
        assert compare_runlog(records) == []  # 20% < default 25%
        findings = compare_runlog(records, time_threshold=0.1)
        assert [f.kind for f in findings] == ["timing"]


class TestMainCli:
    def write(self, path, *records: RunRecord) -> str:
        log = RunLog(path)
        for rec in records:
            log.append(rec)
        return str(path)

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        runlog = self.write(tmp_path / "runs.jsonl",
                            record(render=0.1), record(render=0.1))
        assert main(["--runlog", runlog]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_injected_2x_slowdown_exits_nonzero(self, tmp_path, capsys):
        runlog = self.write(tmp_path / "runs.jsonl",
                            record(render=0.1), record(render=0.2))
        assert main(["--runlog", runlog]) == 1
        assert "2.00x slower" in capsys.readouterr().out

    def test_seeded_makespan_drift_exits_nonzero(self, tmp_path, capsys):
        runlog = self.write(tmp_path / "runs.jsonl",
                            record(makespan=10.0), record(makespan=12.0))
        assert main(["--runlog", runlog, "--timing-warn-only"]) == 1
        assert "makespan" in capsys.readouterr().out

    def test_timing_warn_only_exits_zero_on_timing(self, tmp_path, capsys):
        runlog = self.write(tmp_path / "runs.jsonl",
                            record(render=0.1), record(render=0.2))
        assert main(["--runlog", runlog, "--timing-warn-only"]) == 0
        assert "1 warning(s)" in capsys.readouterr().out

    def test_runlog_mode(self, tmp_path, capsys):
        log = RunLog(tmp_path / "runs.jsonl")
        log.append(record(makespan=10.0))
        log.append(record(makespan=12.0))
        assert main(["--runlog", str(tmp_path / "runs.jsonl")]) == 1
        assert "makespan" in capsys.readouterr().out

    def test_empty_comparison_is_usage_error(self, tmp_path, capsys):
        assert main(["--runlog", str(tmp_path / "empty.jsonl")]) == 2
        assert "nothing to compare" in capsys.readouterr().err

    def test_no_args_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_run_imports_itself_once(self, tmp_path):
        """``python -m repro.obs.regress`` runs without runpy's warning
        that the package had already imported the module."""
        runlog = self.write(tmp_path / "runs.jsonl",
                            record(makespan=10.0), record(makespan=12.0))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.obs.regress", "--runlog", runlog],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode in (0, 1), proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "regress: 2 record(s)" in proc.stdout


class TestRegressionDataclass:
    def test_ratio_guards_zero_baseline(self):
        f = Regression("s", "e", "timing", "k", 0.0, 1.0, "fail")
        assert f.ratio == float("inf")
