"""``jedule sched`` over the scheduler zoo, end to end.

The registry lists; each of the six online and moldable schedulers runs
twice on one seeded Poisson arrival trace, once through
:func:`repro.cli.main.main` and once as a ``jedule`` subprocess with its
own hash seed, and prints the same metrics both times; an unknown option
is a structured error; and a preemptive schedule renders to SVG.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli.main import main

#: scheduler -> its ``-O`` options
ZOO = {
    "rr": ["-O", "cpus=2", "-O", "quantum=4"],
    "sjf": ["-O", "cpus=2"],
    "mlfq": ["-O", "cpus=2", "-O", "levels=3", "-O", "quantum=2"],
    "cfs": ["-O", "cpus=2", "-O", "latency=12"],
    "online-list": ["-O", 'speeds="2,1.5,1,1"'],
    "moldable-list": ["-O", "alpha=0.5", "-O", "cap=0.5"],
}

TRACE = ["--arrivals", "poisson", "--jobs", "20", "--seed", "7"]


def jedule(*argv: str) -> subprocess.CompletedProcess:
    """``jedule`` in a fresh interpreter, its hash seed left random."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "repro.cli.main", *argv],
                          capture_output=True, text=True, env=env)


def test_sched_list_runs(capsys):
    assert main(["sched", "--list"]) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", list(ZOO))
def test_scheduler_metrics_are_deterministic(name, capsys):
    argv = ["sched", name, *TRACE, "--json", *ZOO[name]]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    run = jedule(*argv)
    assert run.returncode == 0, run.stderr
    second = json.loads(run.stdout)
    assert first["metrics"] == second["metrics"], f"{name}: metrics not deterministic"
    assert first["metrics"]["makespan"] > 0, first


def test_unknown_option_is_a_structured_error():
    err = jedule("sched", "rr", "--arrivals", "poisson", "-O", "bogus=1")
    assert err.returncode != 0
    assert "bogus" in err.stderr and "'rr'" in err.stderr, err.stderr


def test_preemptive_schedule_renders(tmp_path):
    out = tmp_path / "mlfq-smoke.svg"
    assert main(["sched", "mlfq", *TRACE, "-O", "cpus=2", "-O", "quantum=2",
                 "-o", str(out)]) == 0
    assert "<svg" in out.read_text()
