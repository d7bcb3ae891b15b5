"""Command-line mode (paper Section II-D-2).

Subcommands::

    jedule render   schedule.jed -o out.png [--cmap map.xml] [--grayscale] ...
    jedule batch    manifest.json [--jobs N] [--no-cache] ...
    jedule serve    [--port P | --socket PATH] [--workers N] ...
    jedule submit   --url URL (--manifest man.json | inputs ...)
    jedule top      --url URL [--interval S | --once]
    jedule convert  schedule.jed out.json
    jedule info     schedule.jed
    jedule validate schedule.jed
    jedule view     schedule.jed          (terminal interactive mode)

``render`` supports the parameters the paper names: output format, color
map, width/height, scaled/aligned cluster time frames, plus style files,
grayscale conversion, composite-task synthesis, type/cluster filters and a
time window.  ``batch`` mass-produces a whole manifest of figures through
the parallel, content-addressed-cached runner in :mod:`repro.batch`.

Every subcommand loads its inputs through
:func:`repro.io.registry.load_schedule`, so explicit ``--input-format``,
suffix dispatch and content sniffing all behave identically everywhere,
and renders through a single :class:`repro.render.api.RenderRequest`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.stats import idle_area, per_type_area, utilization
from repro.core.timeframe import ViewMode
from repro.core.validate import validate_schedule
from repro.errors import ReproError
from repro.io import load_schedule, save_schedule
from repro.io.registry import available_formats
from repro.render.api import OUTPUT_FORMATS, RenderRequest, execute_request
from repro.render.lod import LOD_MODES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jedule",
        description="Visualize schedules of parallel applications (Jedule reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="schedule file")
        p.add_argument("--input-format", choices=available_formats(),
                       help="force the input format (default: by suffix)")

    render = sub.add_parser("render", help="export schedule pictures")
    render.add_argument("input", nargs="+",
                        help="schedule file(s); several inputs need --outdir")
    render.add_argument("--input-format", choices=available_formats(),
                        help="force the input format (default: by suffix)")
    out = render.add_mutually_exclusive_group(required=True)
    out.add_argument("-o", "--output", help="output image file (single input)")
    out.add_argument("--outdir", help="output directory for batch rendering "
                                      "(one image per input; needs --format)")
    render.add_argument("--format", choices=sorted(OUTPUT_FORMATS),
                        help="output format (default: by suffix)")
    render.add_argument("--with-profile", action="store_true",
                        help="stack the utilization profile under the chart")
    render.add_argument("--cmap", help="color map XML file")
    render.add_argument("--grayscale", action="store_true",
                        help="convert the color map to grayscale")
    render.add_argument("--style", help="style file (key = value lines)")
    render.add_argument("--width", type=int, default=900)
    render.add_argument("--height", type=int, default=480)
    render.add_argument("--mode", choices=[m.value for m in ViewMode],
                        default=ViewMode.ALIGNED.value,
                        help="align cluster time frames or scale them locally")
    render.add_argument("--lod", choices=list(LOD_MODES), default="auto",
                        help="level-of-detail aggregation for large schedules "
                             "(auto: only when tasks outnumber pixels)")
    render.add_argument("--title", help="title drawn above the chart")
    render.add_argument("--html-threshold", type=int, metavar="N",
                        help="html backend: embed raw tasks up to N of them, "
                             "LOD cell tiers beyond (default 4000)")
    render.add_argument("--html-tiers", type=int, metavar="K",
                        help="html backend: number of LOD zoom tiers to "
                             "embed (1..6, default 3)")
    render.add_argument("--composites", action="store_true",
                        help="synthesize composite tasks for overlaps")
    render.add_argument("--auto-colors", metavar="METAKEY", nargs="?", const="",
                        help="auto-assign colors per task type, or per value of a meta key")
    render.add_argument("--types", nargs="+", help="only draw these task types")
    render.add_argument("--clusters", nargs="+", help="only draw these clusters")
    render.add_argument("--window", nargs=2, type=float, metavar=("T0", "T1"),
                        help="restrict to a time window")
    render.add_argument("--trace", metavar="OUT.json",
                        help="write a Chrome trace-event JSON of this run "
                             "(open in chrome://tracing or Perfetto)")
    render.add_argument("--stats", action="store_true",
                        help="print a per-stage timing/counter summary "
                             "after rendering")
    render.add_argument("--trace-gantt", metavar="OUT",
                        help="render this run's own execution trace as a "
                             "Gantt chart (spans as tasks, stages as bands)")
    render.add_argument("--log-json", metavar="OUT.jsonl",
                        help="write structured JSONL logs of this run (one "
                             "event per pipeline span/counter, span ids "
                             "shared with --trace)")
    render.add_argument("--runlog", metavar="RUNLOG.jsonl",
                        help="append a run record (stage timings, counters, "
                             "schedule metrics, env fingerprint) to this "
                             "JSONL run registry")

    batch = sub.add_parser("batch",
                           help="render a whole manifest of figures in "
                                "parallel, with a content-addressed cache")
    batch.add_argument("manifest", help="batch manifest JSON file")
    batch.add_argument("-j", "--jobs", type=int,
                       help="worker processes (default: all CPU cores)")
    batch.add_argument("--cache-dir",
                       help="render cache directory (default: from the "
                            "manifest, else '.jedule-cache' next to it)")
    batch.add_argument("--no-cache", action="store_true",
                       help="render everything, bypassing the cache")
    batch.add_argument("--timeout", type=float, metavar="SECONDS",
                       help="per-batch deadline; unfinished jobs fail")
    batch.add_argument("--retries", type=int, default=1,
                       help="extra attempts for failed jobs (default: 1)")
    batch.add_argument("--stats", action="store_true",
                       help="print a per-stage timing/counter summary")
    batch.add_argument("--trace", metavar="OUT.json",
                       help="write a Chrome trace-event JSON of this run")
    batch.add_argument("--runlog", metavar="RUNLOG.jsonl",
                       help="append a batch run record (jobs, cache "
                            "hits/misses, timings) to this JSONL registry")

    serve = sub.add_parser("serve",
                           help="long-lived render service: warm worker "
                                "pool, fair job queue, shared render cache")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8734,
                       help="TCP port (default: 8734; 0 picks a free port)")
    serve.add_argument("--socket", metavar="PATH",
                       help="serve on a Unix domain socket instead of TCP")
    serve.add_argument("--workers", type=int, default=2,
                       help="warm render worker processes (default: 2)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max queued jobs before 429 backpressure "
                            "(default: 64)")
    serve.add_argument("--cache-dir",
                       help="shared render cache directory "
                            "(default: '.jedule-cache')")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed render cache")
    serve.add_argument("--job-timeout", type=float, metavar="SECONDS",
                       help="kill a worker stuck on one job this long")
    serve.add_argument("--runlog", metavar="RUNLOG.jsonl",
                       help="append a service run record (job counts, cache "
                            "hits, latency percentiles) at drain time")
    serve.add_argument("--no-trace", action="store_true",
                       help="disable per-request trace stitching "
                            "(X-Jedule-Trace ids, /jobs/<id>/trace)")

    submit = sub.add_parser("submit",
                            help="submit render jobs to a running "
                                 "'jedule serve' daemon")
    where = submit.add_mutually_exclusive_group(required=True)
    where.add_argument("--url", help="service URL, e.g. http://127.0.0.1:8734")
    where.add_argument("--socket", metavar="PATH",
                       help="service Unix domain socket")
    submit.add_argument("inputs", nargs="*", help="schedule file(s)")
    submit.add_argument("--manifest", metavar="MANIFEST.json",
                        help="submit every job of a batch manifest instead "
                             "of naming inputs")
    submit.add_argument("-o", "--output",
                        help="output image file (single input)")
    submit.add_argument("--outdir", help="output directory (several inputs; "
                                         "needs --format)")
    submit.add_argument("--format", choices=sorted(OUTPUT_FORMATS),
                        help="output format (default: by suffix)")
    submit.add_argument("--width", type=int, default=900)
    submit.add_argument("--height", type=int, default=480)
    submit.add_argument("--client", default=None,
                        help="client id for the server's fair queue "
                             "(default: user@host)")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="max seconds to wait per job (default: 300)")
    submit.add_argument("--trace", metavar="OUT.json",
                        help="fetch the stitched request traces and write "
                             "one combined Chrome trace-event JSON")
    submit.add_argument("--trace-gantt", metavar="OUT.img",
                        help="render the stitched request traces as a "
                             "Gantt chart (the service visualized by "
                             "the tool it serves)")

    top = sub.add_parser("top",
                         help="live terminal dashboard of a running "
                              "'jedule serve' daemon (/statz + /metricz)")
    where_top = top.add_mutually_exclusive_group(required=True)
    where_top.add_argument("--url",
                           help="service URL, e.g. http://127.0.0.1:8734")
    where_top.add_argument("--socket", metavar="PATH",
                           help="service Unix domain socket")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period in seconds (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (no screen refresh)")

    convert = sub.add_parser("convert", help="convert between schedule formats")
    add_input(convert)
    convert.add_argument("output", help="output schedule file")
    convert.add_argument("--output-format", choices=available_formats())

    info = sub.add_parser("info", help="print schedule statistics")
    add_input(info)
    info.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON instead of text")

    validate = sub.add_parser("validate", help="check schedule invariants")
    add_input(validate)
    validate.add_argument("--exclusive", nargs="+", metavar="TYPE", default=[],
                          help="task types that must not timeshare hosts")

    view = sub.add_parser("view", help="interactive terminal viewer")
    add_input(view)
    view.add_argument("--width", type=int, default=100, help="columns of the text view")
    view.add_argument("--ansi", action="store_true", help="use ANSI background colors")

    compare = sub.add_parser("compare",
                             help="render several schedules into one picture")
    compare.add_argument("inputs", nargs="+", help="schedule files")
    compare.add_argument("-o", "--output", required=True)
    compare.add_argument("--format", choices=sorted(OUTPUT_FORMATS))
    compare.add_argument("--width", type=int, default=900)
    compare.add_argument("--panel-height", type=int, default=350)
    compare.add_argument("--independent-axes", action="store_true",
                         help="give each panel its own time frame")
    compare.add_argument("--horizontal", action="store_true",
                         help="place panels side by side instead of stacked")

    profile = sub.add_parser("profile",
                             help="render the busy-host utilization profile")
    add_input(profile)
    profile.add_argument("-o", "--output", required=True)
    profile.add_argument("--format", choices=sorted(OUTPUT_FORMATS))
    profile.add_argument("--width", type=int, default=900)
    profile.add_argument("--height", type=int, default=240)
    profile.add_argument("--types", nargs="+",
                         help="draw one profile per task type")
    profile.add_argument("--title")

    diff = sub.add_parser("diff", help="compare two schedules task by task")
    diff.add_argument("before", help="baseline schedule file")
    diff.add_argument("after", help="schedule file to compare against it")
    diff.add_argument("--fail-on-delay", action="store_true",
                      help="exit nonzero when any task finishes later")

    rep = sub.add_parser("report",
                         help="render a perf/quality dashboard from a "
                              "JSONL run registry")
    rep.add_argument("runlog", help="run registry written by --runlog or "
                                    "the benchmark suites")
    rep.add_argument("-o", "--output", required=True)
    rep.add_argument("--format", choices=sorted(OUTPUT_FORMATS))
    rep.add_argument("--suite", help="only plot records of this suite")
    rep.add_argument("--name", help="only plot records with this name")
    rep.add_argument("--last", type=int, metavar="N",
                     help="only plot the N most recent matching records")
    rep.add_argument("--width", type=int, default=1000)
    rep.add_argument("--panel-height", type=int, default=260)
    rep.add_argument("--title", help="dashboard title")

    from repro.cli.sched import add_sched_parser
    add_sched_parser(sub)
    return parser


def _request_from_args(args: argparse.Namespace, input_path: str,
                       output: Path) -> RenderRequest:
    """Map the ``render`` argparse namespace onto one RenderRequest."""
    return RenderRequest(
        input_path=str(input_path),
        input_format=args.input_format,
        output_path=str(output),
        output_format=args.format,
        width=args.width,
        height=args.height,
        mode=args.mode,
        title=args.title,
        lod=args.lod,
        style_path=args.style,
        cmap_path=args.cmap or None,
        grayscale=args.grayscale,
        auto_colors=args.auto_colors,
        types=args.types,
        clusters=args.clusters,
        window=tuple(args.window) if args.window else None,
        composites=args.composites,
        with_profile=args.with_profile,
        **{k: v for k, v in (("html_threshold", args.html_threshold),
                             ("html_tiers", args.html_tiers))
           if v is not None},
    )


def _render_one(args: argparse.Namespace, input_path: str, output: Path) -> None:
    request = _request_from_args(args, input_path, output)
    schedule = request.load_schedule()
    if getattr(args, "runlog", None):
        from repro.obs.runlog import schedule_metrics

        # metrics of the rendered schedule land in the run record
        # (last input wins for multi-input renders; inputs listed in meta)
        args._schedule_metrics = schedule_metrics(schedule)
    execute_request(request, schedule)
    print(f"wrote {output}")


def _export_observability(args: argparse.Namespace, trace) -> None:
    """Write/print the collected pipeline trace per the --trace* flags."""
    from repro import obs

    if args.trace:
        Path(args.trace).write_text(obs.to_chrome_json(trace, indent=2),
                                    encoding="utf-8")
        print(f"wrote {args.trace} ({len(trace.spans)} spans)")
    if args.trace_gantt:
        from repro.render.api import export_schedule

        gantt = obs.trace_to_schedule(trace)
        export_schedule(gantt, Path(args.trace_gantt),
                        title="repro pipeline trace")
        print(f"wrote {args.trace_gantt} (pipeline Gantt, {len(gantt)} spans)")
    if args.stats:
        print(obs.summary_table(trace), end="")
    if args.runlog:
        record = obs.record_from_trace(
            "cli", "render", trace,
            metrics=getattr(args, "_schedule_metrics", None),
            meta={"inputs": list(args.input),
                  "output": args.output or args.outdir})
        obs.RunLog(args.runlog).append(record)
        print(f"logged run {record.run_id} to {args.runlog}")


def _cmd_render(args: argparse.Namespace) -> int:
    if args.trace or args.stats or args.trace_gantt or args.log_json \
            or args.runlog:
        from contextlib import nullcontext

        from repro import obs

        log_ctx = obs.log_to(args.log_json) if args.log_json else nullcontext()
        with log_ctx, obs.capture() as trace:
            rc = _run_render(args)
        _export_observability(args, trace)
        if args.log_json:
            print(f"wrote {args.log_json} (structured JSONL log)")
        return rc
    return _run_render(args)


def _run_render(args: argparse.Namespace) -> int:
    if args.outdir:
        if not args.format:
            print("error: --outdir needs --format", file=sys.stderr)
            return 2
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for input_path in args.input:
            target = outdir / (Path(input_path).stem + f".{args.format}")
            _render_one(args, input_path, target)
        return 0
    if len(args.input) != 1:
        print("error: several inputs need --outdir", file=sys.stderr)
        return 2
    _render_one(args, args.input[0], Path(args.output))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.batch import batch_record, load_manifest, run_manifest

    manifest = load_manifest(args.manifest)
    kwargs = dict(jobs=args.jobs, use_cache=not args.no_cache,
                  timeout_s=args.timeout, retries=args.retries)
    if args.cache_dir:
        kwargs["cache_dir"] = args.cache_dir

    if args.stats or args.trace or args.runlog:
        from repro import obs

        with obs.capture() as trace:
            report = run_manifest(manifest, **kwargs)
        if args.trace:
            Path(args.trace).write_text(obs.to_chrome_json(trace, indent=2),
                                        encoding="utf-8")
            print(f"wrote {args.trace} ({len(trace.spans)} spans)")
        if args.stats:
            print(obs.summary_table(trace), end="")
        if args.runlog:
            record = batch_record(report, trace=trace,
                                  meta={"manifest": str(args.manifest)})
            obs.RunLog(args.runlog).append(record)
            print(f"logged run {record.run_id} to {args.runlog}")
    else:
        report = run_manifest(manifest, **kwargs)

    print(report.summary())
    if not report.ok:
        print(report.error_table(), end="", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.batch.runner import DEFAULT_CACHE_DIR
    from repro.serve.server import RenderServer

    cache_dir = None if args.no_cache \
        else (args.cache_dir or DEFAULT_CACHE_DIR)
    server = RenderServer(
        host=args.host, port=args.port, socket_path=args.socket,
        workers=args.workers, queue_depth=args.queue_depth,
        cache_dir=cache_dir, runlog=args.runlog,
        job_timeout_s=args.job_timeout,
        trace_jobs=not args.no_trace).start()
    print(f"serving on {server.url} "
          f"({args.workers} warm worker(s), "
          f"cache: {cache_dir or 'off'})", flush=True)

    def _on_drain(signum, frame):
        print("drain requested; finishing queued jobs ...", flush=True)
        server.begin_drain()

    def _on_reload(signum, frame):
        print("reloading worker pool ...", flush=True)
        threading.Thread(target=server.reload, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_drain)
    signal.signal(signal.SIGINT, _on_drain)
    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, _on_reload)
    while not server.wait(timeout=0.5):
        pass
    print("drained; all jobs finished", flush=True)
    return 0


def _submit_requests(args: argparse.Namespace) -> list[RenderRequest]:
    if args.manifest:
        from repro.batch.manifest import load_manifest

        return list(load_manifest(args.manifest).requests)
    if not args.inputs:
        raise ReproError("submit needs schedule inputs or --manifest")
    if args.outdir:
        if not args.format:
            raise ReproError("--outdir needs --format")
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        return [RenderRequest(
            input_path=str(p),
            output_path=str(outdir / (Path(p).stem + f".{args.format}")),
            output_format=args.format, width=args.width, height=args.height)
            for p in args.inputs]
    if len(args.inputs) != 1 or not args.output:
        raise ReproError("several inputs need --outdir; one input needs -o")
    return [RenderRequest(input_path=str(args.inputs[0]),
                          output_path=str(args.output),
                          output_format=args.format,
                          width=args.width, height=args.height)]


def _cmd_submit(args: argparse.Namespace) -> int:
    import getpass
    import socket as _socket
    import time

    from repro.errors import ServeError
    from repro.serve.client import ServeClient

    client_id = args.client or f"{getpass.getuser()}@{_socket.gethostname()}"
    client = ServeClient(args.url, socket_path=args.socket,
                         client_id=client_id)
    requests = _submit_requests(args)

    submitted = []
    for request in requests:
        while True:  # honor the server's backpressure, don't hammer it
            try:
                submitted.append((request, client.submit(request)))
                break
            except ServeError as exc:
                if exc.code != "queue-full":
                    raise
                time.sleep(getattr(exc, "retry_after", 1))

    failures = 0
    for request, job in submitted:
        doc = client.wait(job["id"], timeout=args.timeout)
        result = doc.get("result") or {}
        tag = result.get("cache", "?")
        target = result.get("output") or "<bytes>"
        if doc["status"] == "done":
            print(f"{request.input_path}: {target} [{tag}]")
        else:
            failures += 1
            print(f"{request.input_path}: FAILED - "
                  f"{result.get('error', 'unknown error')}", file=sys.stderr)
    done = len(submitted) - failures
    print(f"{done}/{len(submitted)} job(s) ok, {failures} failed")
    if args.trace or args.trace_gantt:
        _export_submit_traces(args, client, [job for _, job in submitted])
    return 1 if failures else 0


def _export_submit_traces(args: argparse.Namespace, client,
                          jobs: list[dict]) -> None:
    """Fetch the stitched per-request traces and export them combined."""
    from repro.errors import ServeError
    from repro.obs.export import (
        to_chrome_json,
        trace_from_doc,
        trace_to_schedule,
    )
    from repro.serve.tracing import merge_traces

    traces = []
    for job in jobs:
        try:
            traces.append(trace_from_doc(client.job_trace(job["id"])))
        except (ServeError, ValueError):
            continue  # failed job, pruned job, or tracing disabled
    if not traces:
        print("no stitched traces available (server started with "
              "--no-trace?)", file=sys.stderr)
        return
    merged = merge_traces(traces)
    if args.trace:
        Path(args.trace).write_text(to_chrome_json(merged, indent=2),
                                    encoding="utf-8")
        print(f"wrote {args.trace} ({len(merged.spans)} spans, "
              f"{len(traces)} request(s))")
    if args.trace_gantt:
        from repro.render.api import export_schedule

        gantt = trace_to_schedule(merged, name="serve requests")
        export_schedule(gantt, Path(args.trace_gantt),
                        title="render service request trace")
        print(f"wrote {args.trace_gantt} (service Gantt, "
              f"{len(gantt)} spans)")


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.cli.top import run_top

    return run_top(url=args.url, socket_path=args.socket,
                   interval_s=args.interval, once=args.once)


def _cmd_convert(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.input, args.input_format)
    save_schedule(schedule, args.output, args.output_format)
    print(f"wrote {args.output} ({len(schedule)} tasks)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.input, args.input_format)
    if getattr(args, "json", False):
        import json

        payload = {
            "file": str(args.input),
            "clusters": {c.id: c.num_hosts for c in schedule.clusters},
            "hosts": schedule.num_hosts,
            "tasks": len(schedule),
            "types": list(schedule.task_types()),
            "start_time": schedule.start_time,
            "end_time": schedule.end_time,
            "makespan": schedule.makespan,
            "utilization": utilization(schedule),
            "idle_area": idle_area(schedule),
            "area_per_type": per_type_area(schedule),
            "meta": dict(schedule.meta),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"file:      {args.input}")
    print(f"clusters:  {len(schedule.clusters)}"
          f"  ({', '.join(f'{c.id}:{c.num_hosts}' for c in schedule.clusters)})")
    print(f"hosts:     {schedule.num_hosts}")
    print(f"tasks:     {len(schedule)}")
    print(f"types:     {', '.join(schedule.task_types()) or '-'}")
    print(f"span:      [{schedule.start_time:.6g}, {schedule.end_time:.6g}]")
    print(f"makespan:  {schedule.makespan:.6g}")
    print(f"utilization: {utilization(schedule):.3f}")
    print(f"idle area:   {idle_area(schedule):.6g}")
    for task_type, area in sorted(per_type_area(schedule).items()):
        print(f"  area[{task_type}] = {area:.6g}")
    for k, v in sorted(schedule.meta.items()):
        print(f"meta {k} = {v}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.input, args.input_format)
    violations = validate_schedule(schedule, forbid_overlap_types=args.exclusive)
    if not violations:
        print("OK: no violations")
        return 0
    for v in violations:
        print(str(v))
    print(f"{len(violations)} violation(s)")
    return 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.render.api import export_drawing
    from repro.render.compose import compare_schedules

    schedules = [load_schedule(path) for path in args.inputs]
    titles = [Path(p).stem for p in args.inputs]
    drawing = compare_schedules(
        schedules, titles, width=args.width, panel_height=args.panel_height,
        share_time_axis=not args.independent_axes, horizontal=args.horizontal)
    export_drawing(drawing, args.output, args.format)
    print(f"wrote {args.output} ({len(schedules)} panels)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.render.profile import export_profile

    schedule = load_schedule(args.input, args.input_format)
    export_profile(schedule, args.output, format=args.format,
                   width=args.width, height=args.height, types=args.types,
                   title=args.title)
    print(f"wrote {args.output}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.core.diff import diff_schedules

    before = load_schedule(args.before)
    after = load_schedule(args.after)
    diff = diff_schedules(before, after)
    print(diff.summary())
    for delta in diff.deltas:
        print(f"  {delta}")
    for task_id in diff.added:
        print(f"  {task_id}: added")
    for task_id in diff.removed:
        print(f"  {task_id}: removed")
    if args.fail_on_delay and diff.delayed_tasks():
        print(f"{len(diff.delayed_tasks())} task(s) delayed")
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import report_from_runlog

    out, n = report_from_runlog(
        args.runlog, args.output, suite=args.suite, name=args.name,
        last=args.last, format=args.format, width=args.width,
        panel_height=args.panel_height, title=args.title)
    print(f"wrote {out} (dashboard over {n} run record(s))")
    return 0


def _cmd_view(args: argparse.Namespace) -> int:
    from repro.cli.interactive import InteractiveViewer

    schedule = load_schedule(args.input, args.input_format)
    viewer = InteractiveViewer(schedule, width=args.width, ansi=args.ansi)
    return viewer.run()


def _cmd_sched(args: argparse.Namespace) -> int:
    from repro.cli.sched import cmd_sched

    return cmd_sched(args)


_COMMANDS = {
    "render": _cmd_render,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "top": _cmd_top,
    "convert": _cmd_convert,
    "info": _cmd_info,
    "validate": _cmd_validate,
    "view": _cmd_view,
    "compare": _cmd_compare,
    "profile": _cmd_profile,
    "diff": _cmd_diff,
    "report": _cmd_report,
    "sched": _cmd_sched,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
