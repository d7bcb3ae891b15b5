"""Standard Workload Format (SWF) reader/writer.

SWF is the format of the Parallel Workloads Archive (PWA) used by the
paper's Section VII case study (the LLNL Thunder trace is distributed as
``LLNL-Thunder-2007-*.swf``).  Each data line holds 18 whitespace-separated
fields; header lines start with ``;`` and carry ``Key: Value`` metadata.

Reference: Feitelson's PWA documentation.  Field order::

     1 job number            10 requested memory
     2 submit time (s)       11 status (0/1/5 completed, ...)
     3 wait time (s)         12 user id
     4 run time (s)          13 group id
     5 allocated processors  14 executable number
     6 average CPU time      15 queue number
     7 used memory (KB)      16 partition number
     8 requested processors  17 preceding job number
     9 requested time (s)    18 think time (s)

Missing values are encoded as ``-1``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.errors import ParseError
from repro.obs import core as _obs

__all__ = ["SWFJob", "SWFTrace", "loads", "load", "dumps", "dump",
           "iter_jobs", "iter_load", "load_header"]


@dataclass(frozen=True, slots=True)
class SWFJob:
    """One job record of an SWF trace."""

    job_id: int
    submit_time: float
    wait_time: float
    run_time: float
    allocated_procs: int
    avg_cpu_time: float = -1.0
    used_memory: float = -1.0
    requested_procs: int = -1
    requested_time: float = -1.0
    requested_memory: float = -1.0
    status: int = 1
    user_id: int = -1
    group_id: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    preceding_job: int = -1
    think_time: float = -1.0

    @property
    def start_time(self) -> float:
        """Dispatch instant: submit + wait."""
        return self.submit_time + self.wait_time

    @property
    def end_time(self) -> float:
        """Completion instant: start + run time."""
        return self.start_time + self.run_time

    @property
    def completed(self) -> bool:
        """PWA status codes 0, 1 and 5 denote jobs that actually ran."""
        return self.status in (0, 1, 5)

    def to_line(self) -> str:
        """Serialize to one SWF data line."""

        def num(x: float) -> str:
            return str(int(x)) if float(x).is_integer() else f"{x:.2f}"

        return " ".join([
            str(self.job_id), num(self.submit_time), num(self.wait_time),
            num(self.run_time), str(self.allocated_procs), num(self.avg_cpu_time),
            num(self.used_memory), str(self.requested_procs), num(self.requested_time),
            num(self.requested_memory), str(self.status), str(self.user_id),
            str(self.group_id), str(self.executable), str(self.queue),
            str(self.partition), str(self.preceding_job), num(self.think_time),
        ])

    @classmethod
    def from_line(cls, line: str, *, source: str = "<string>",
                  lineno: int | None = None) -> "SWFJob":
        """Parse one SWF data line (shorter lines are padded with -1)."""
        parts = line.split()
        if len(parts) < 5:
            raise ParseError(f"SWF line has {len(parts)} fields, need >= 5",
                             source=source, line=lineno)
        parts = parts + ["-1"] * (18 - len(parts))
        try:
            return cls(
                job_id=int(parts[0]),
                submit_time=float(parts[1]),
                wait_time=float(parts[2]),
                run_time=float(parts[3]),
                allocated_procs=int(float(parts[4])),
                avg_cpu_time=float(parts[5]),
                used_memory=float(parts[6]),
                requested_procs=int(float(parts[7])),
                requested_time=float(parts[8]),
                requested_memory=float(parts[9]),
                status=int(float(parts[10])),
                user_id=int(float(parts[11])),
                group_id=int(float(parts[12])),
                executable=int(float(parts[13])),
                queue=int(float(parts[14])),
                partition=int(float(parts[15])),
                preceding_job=int(float(parts[16])),
                think_time=float(parts[17]),
            )
        except ValueError as exc:
            raise ParseError(f"bad SWF field: {exc}", source=source, line=lineno) from exc


@dataclass
class SWFTrace:
    """A parsed SWF file: header metadata plus job records."""

    header: dict[str, str] = field(default_factory=dict)
    jobs: list[SWFJob] = field(default_factory=list)

    @property
    def max_procs(self) -> int:
        """``MaxProcs`` header value, falling back to the widest job."""
        declared = self.header.get("MaxProcs")
        if declared is not None:
            try:
                return int(declared)
            except ValueError:
                pass
        return max((j.allocated_procs for j in self.jobs), default=0)

    def completed_jobs(self) -> list[SWFJob]:
        return [j for j in self.jobs if j.completed]

    def jobs_of_user(self, user_id: int) -> list[SWFJob]:
        return [j for j in self.jobs if j.user_id == user_id]

    def finished_within(self, t0: float, t1: float) -> list[SWFJob]:
        """Jobs whose end time falls in ``[t0, t1)`` — the paper's "all jobs
        that finished on 02/02" day selection."""
        return [j for j in self.jobs if t0 <= j.end_time < t1]


def _header_entry(line: str) -> tuple[str, str] | None:
    """Parse one ``; Key: Value`` comment line; None when it carries no
    metadata (no colon, empty key, or a key containing spaces — prose)."""
    body = line.lstrip("; ").strip()
    if ":" not in body:
        return None
    key, value = body.split(":", 1)
    key = key.strip()
    if not key or " " in key:
        return None
    return key, value.strip()


def _scan(lines: Iterable[str], *, source: str,
          header: dict[str, str] | None) -> Iterator[SWFJob]:
    """Yield job records from SWF lines, collecting header metadata into
    ``header`` (when given) as comment lines are encountered."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            if header is not None:
                entry = _header_entry(line)
                if entry is not None:
                    header.setdefault(entry[0], entry[1])
            continue
        yield SWFJob.from_line(line, source=source, lineno=lineno)


def iter_jobs(text: str, *, source: str = "<string>") -> Iterator[SWFJob]:
    """Stream jobs from SWF text, skipping header/comment lines."""
    return _scan(text.splitlines(), source=source, header=None)


@_obs.span("parse.swf")
def loads(text: str, *, source: str = "<string>") -> SWFTrace:
    """Parse a complete SWF document (header + jobs)."""
    trace = SWFTrace()
    trace.jobs.extend(_scan(text.splitlines(), source=source, header=trace.header))
    _obs.add("io.records", len(trace.jobs))
    return trace


def iter_load(path: str | Path, *, header: dict[str, str] | None = None) -> Iterator[SWFJob]:
    """Stream job records from an SWF file, one line at a time.

    Unlike :func:`load`, neither the file text nor the record list is ever
    held in memory at once, so this scales to multi-year PWA traces.  Pass a
    dict as ``header`` to collect ``; Key: Value`` metadata as the iterator
    advances past comment lines (for header-only access without touching
    data lines, see :func:`load_header`).
    """
    path = Path(path)
    with path.open(encoding="utf-8-sig", errors="replace") as fh:
        yield from _scan(fh, source=str(path), header=header)


def load_header(path: str | Path) -> dict[str, str]:
    """Metadata from the leading comment block, without parsing any jobs.

    Stops at the first data line, so the cost is independent of trace size.
    """
    path = Path(path)
    header: dict[str, str] = {}
    with path.open(encoding="utf-8-sig", errors="replace") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if not line.startswith(";"):
                break
            entry = _header_entry(line)
            if entry is not None:
                header.setdefault(entry[0], entry[1])
    return header


@_obs.span("parse.swf")
def load(path: str | Path) -> SWFTrace:
    """Parse an SWF file, streaming its lines rather than slurping the text."""
    path = Path(path)
    trace = SWFTrace()
    with path.open(encoding="utf-8-sig", errors="replace") as fh:
        trace.jobs.extend(_scan(fh, source=str(path), header=trace.header))
    _obs.add("io.records", len(trace.jobs))
    return trace


def dumps(trace: SWFTrace) -> str:
    """Serialize a trace to SWF text."""
    lines = [f"; {k}: {v}" for k, v in trace.header.items()]
    lines.extend(j.to_line() for j in trace.jobs)
    return "\n".join(lines) + "\n"


def dump(trace: SWFTrace, path: str | Path) -> None:
    Path(path).write_text(dumps(trace), encoding="utf-8")
