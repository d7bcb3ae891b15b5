"""Tests for the command-line mode."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli.main import main
from repro.io import colormap_xml, jedule_xml, json_fmt
from repro.core.colormap import default_colormap
from repro.render.png_codec import decode_png


@pytest.fixture
def sched_file(tmp_path, simple_schedule):
    path = tmp_path / "demo.jed"
    jedule_xml.dump(simple_schedule, path)
    return path


class TestRender:
    def test_render_png(self, tmp_path, sched_file, capsys):
        out = tmp_path / "out.png"
        rc = main(["render", str(sched_file), "-o", str(out),
                   "--width", "300", "--height", "200"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        img = decode_png(out.read_bytes())
        assert img.shape == (200, 300, 3)

    @pytest.mark.parametrize("suffix", ["svg", "pdf", "eps", "ppm", "bmp"])
    def test_render_other_formats(self, tmp_path, sched_file, suffix):
        out = tmp_path / f"out.{suffix}"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--width", "300", "--height", "200"]) == 0
        assert out.stat().st_size > 50

    def test_render_with_cmap_file(self, tmp_path, sched_file):
        cmap_path = tmp_path / "map.xml"
        colormap_xml.dump(default_colormap(), cmap_path)
        out = tmp_path / "out.svg"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--cmap", str(cmap_path)]) == 0
        assert b"0000FF" in out.read_bytes()

    def test_render_grayscale(self, tmp_path, sched_file):
        out = tmp_path / "out.svg"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--grayscale"]) == 0
        assert b"#0000FF" not in out.read_bytes()

    def test_render_composites(self, tmp_path, tmp_path_factory, overlap_schedule):
        src = tmp_path / "o.jed"
        jedule_xml.dump(overlap_schedule, src)
        out = tmp_path / "out.svg"
        assert main(["render", str(src), "-o", str(out), "--composites"]) == 0
        assert b"task:c1+t1" in out.read_bytes()

    def test_render_type_filter(self, tmp_path, sched_file):
        out = tmp_path / "out.svg"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--types", "transfer"]) == 0
        data = out.read_bytes()
        assert b"task:2" in data and b"task:1" not in data

    def test_render_window(self, tmp_path, sched_file):
        out = tmp_path / "out.svg"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--window", "0.35", "0.5"]) == 0
        data = out.read_bytes()
        assert b"task:2" in data and b"task:1" not in data

    def test_render_html_knobs(self, tmp_path, sched_file):
        import json
        import re

        out = tmp_path / "out.html"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--html-threshold", "1", "--html-tiers", "2",
                     "--title", "cli page"]) == 0
        page = out.read_text(encoding="utf-8")
        m = re.search(r'id="jedule-data">(.*?)</script>', page, re.S)
        payload = json.loads(m.group(1))
        assert payload["threshold"] == 1
        assert payload["tasks"] is None  # 2 tasks > threshold 1
        assert len(payload["lod"]["tiers"]) == 2
        assert payload["title"] == "cli page"

    def test_render_style_file(self, tmp_path, sched_file):
        style = tmp_path / "style.cfg"
        style.write_text("draw_legend = false\n")
        out = tmp_path / "out.svg"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--style", str(style)]) == 0

    def test_render_scaled_mode(self, tmp_path, sched_file):
        out = tmp_path / "out.svg"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--mode", "scaled"]) == 0

    def test_missing_file_error(self, tmp_path, capsys):
        rc = main(["render", str(tmp_path / "none.jed"), "-o",
                   str(tmp_path / "x.png")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestConvert:
    def test_jed_to_json(self, tmp_path, sched_file):
        out = tmp_path / "out.json"
        assert main(["convert", str(sched_file), str(out)]) == 0
        assert len(json_fmt.load(out)) == 2

    def test_json_to_csv(self, tmp_path, simple_schedule):
        src = tmp_path / "s.json"
        json_fmt.dump(simple_schedule, src)
        out = tmp_path / "s.csv"
        assert main(["convert", str(src), str(out)]) == 0
        assert "task_id" in out.read_text()


class TestInfo:
    def test_info_output(self, sched_file, capsys):
        assert main(["info", str(sched_file)]) == 0
        out = capsys.readouterr().out
        assert "tasks:     2" in out
        assert "makespan:  0.5" in out
        assert "computation" in out


class TestValidate:
    def test_valid(self, sched_file, capsys):
        assert main(["validate", str(sched_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_overlap_detected(self, tmp_path, overlap_schedule, capsys):
        src = tmp_path / "o.jed"
        jedule_xml.dump(overlap_schedule, src)
        rc = main(["validate", str(src), "--exclusive", "computation", "transfer"])
        assert rc == 1
        assert "overlap" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_trace_writes_valid_chrome_json(self, tmp_path, sched_file, capsys):
        import json

        from repro import obs

        out = tmp_path / "out.svg"
        trace_path = tmp_path / "trace.json"
        rc = main(["render", str(sched_file), "-o", str(out),
                   "--trace", str(trace_path)])
        assert rc == 0
        doc = json.loads(trace_path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events, "trace must record pipeline spans"
        obs.validate_chrome_events(events)
        names = {e["name"] for e in events}
        assert "io.load" in names
        assert "render.layout" in names
        assert "render.encode" in names

    def test_stats_prints_summary(self, tmp_path, sched_file, capsys):
        out = tmp_path / "out.svg"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--stats"]) == 0
        text = capsys.readouterr().out
        assert "span" in text and "total ms" in text
        assert "render.layout" in text
        assert "io.records" in text  # parser counter made it through

    def test_trace_gantt_renders_own_execution(self, tmp_path, sched_file):
        out = tmp_path / "out.svg"
        gantt = tmp_path / "pipeline.svg"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--trace-gantt", str(gantt)]) == 0
        text = gantt.read_text()
        assert "<svg" in text
        assert text.count("<rect") >= 3  # at least load/layout/encode spans

    def test_observability_off_by_default(self, tmp_path, sched_file):
        from repro import obs

        out = tmp_path / "out.svg"
        assert main(["render", str(sched_file), "-o", str(out)]) == 0
        assert not obs.is_enabled()


class TestStructuredLogging:
    def test_log_json_emits_valid_jsonl(self, tmp_path, sched_file, capsys):
        import json

        out = tmp_path / "out.svg"
        log = tmp_path / "events.jsonl"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--log-json", str(log)]) == 0
        assert "structured JSONL log" in capsys.readouterr().out
        lines = log.read_text().splitlines()
        assert lines
        docs = [json.loads(line) for line in lines]  # every line parses
        assert all({"seq", "time", "event"} <= set(d) for d in docs)
        assert [d["seq"] for d in docs] == list(range(len(docs)))
        events = {d["event"] for d in docs}
        assert {"span_start", "span_end", "counter"} <= events

    def test_log_json_span_ids_match_trace(self, tmp_path, sched_file):
        import json

        from repro import obs

        out = tmp_path / "out.svg"
        log = tmp_path / "events.jsonl"
        trace_file = tmp_path / "trace.json"
        assert main(["render", str(sched_file), "-o", str(out),
                     "--log-json", str(log), "--trace", str(trace_file)]) == 0
        docs = [json.loads(line) for line in log.read_text().splitlines()]
        trace_doc = json.loads(trace_file.read_text())
        obs.validate_chrome_events(trace_doc["traceEvents"])
        # each span id appears exactly once as a start and once as an end,
        # and log names at a given id agree between start and end
        starts = {d["span_id"]: d["name"] for d in docs
                  if d["event"] == "span_start"}
        ends = {d["span_id"]: d["name"] for d in docs
                if d["event"] == "span_end"}
        assert starts == ends and len(starts) > 0
        assert sorted(starts) == list(range(len(starts)))  # trace indices
        # the same spans, by name, appear in the Chrome trace
        trace_names = {e["name"] for e in trace_doc["traceEvents"]
                       if e["ph"] == "B"}
        assert set(starts.values()) == trace_names

    def test_runlog_appends_records(self, tmp_path, sched_file, capsys):
        from repro.obs.runlog import RunLog

        registry = tmp_path / "runs.jsonl"
        for i in range(2):
            out = tmp_path / f"out{i}.svg"
            assert main(["render", str(sched_file), "-o", str(out),
                         "--runlog", str(registry)]) == 0
        assert "logged run" in capsys.readouterr().out
        records = RunLog(registry).records()
        assert len(records) == 2
        for r in records:
            assert (r.suite, r.name) == ("cli", "render")
            assert r.stages  # pipeline stage timings captured
            assert r.metrics["tasks"] == 2.0  # schedule quality recorded
            assert r.env["python"]
            assert r.meta["inputs"] and r.meta["output"]


class TestReportCommand:
    def test_dashboard_from_two_persisted_runs(self, tmp_path, sched_file,
                                               capsys):
        registry = tmp_path / "runs.jsonl"
        for i in range(2):
            main(["render", str(sched_file), "-o", str(tmp_path / f"o{i}.svg"),
                  "--runlog", str(registry)])
        dash = tmp_path / "dash.svg"
        assert main(["report", str(registry), "-o", str(dash)]) == 0
        assert "dashboard over 2 run record(s)" in capsys.readouterr().out
        text = dash.read_text()
        assert "<svg" in text
        assert "makespan" in text  # quality panel drawn from the records

    def test_report_png_backend(self, tmp_path, sched_file):
        registry = tmp_path / "runs.jsonl"
        for i in range(2):
            main(["render", str(sched_file), "-o", str(tmp_path / f"o{i}.svg"),
                  "--runlog", str(registry)])
        dash = tmp_path / "dash.png"
        assert main(["report", str(registry), "-o", str(dash)]) == 0
        img = decode_png(dash.read_bytes())
        assert img.shape[2] == 3 and img.shape[0] > 100

    def test_report_filters(self, tmp_path, sched_file, capsys):
        registry = tmp_path / "runs.jsonl"
        for i in range(3):
            main(["render", str(sched_file), "-o", str(tmp_path / f"o{i}.svg"),
                  "--runlog", str(registry)])
        dash = tmp_path / "dash.svg"
        assert main(["report", str(registry), "-o", str(dash),
                     "--suite", "cli", "--last", "2"]) == 0
        assert "over 2 run record(s)" in capsys.readouterr().out

    def test_report_empty_registry_fails_cleanly(self, tmp_path, capsys):
        registry = tmp_path / "runs.jsonl"
        registry.write_text("")
        rc = main(["report", str(registry), "-o", str(tmp_path / "dash.svg")])
        assert rc == 2
        assert "no matching run records" in capsys.readouterr().err


class TestModuleRun:
    def test_module_run_imports_itself_once(self):
        """``python -m repro.cli.main`` runs without runpy's warning that
        the package had already imported the module."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.cli.main", "--help"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "batch" in proc.stdout
