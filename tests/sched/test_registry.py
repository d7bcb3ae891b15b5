"""Tests for the scheduler registry."""

from __future__ import annotations

import pytest

from repro.core.slices import validate_slices
from repro.errors import SchedulerError
from repro.sched.registry import (
    DagProblem,
    JobsProblem,
    MultiDagProblem,
    SchedulerSpec,
    available_schedulers,
    canonical_problem,
    register_scheduler,
    run_scheduler,
    scheduler_for,
)
from repro.sched.result import SchedResult


class TestProblems:
    def test_kinds(self):
        assert DagProblem(None, None).kind == "dag"
        assert MultiDagProblem([], None).kind == "multi-dag"
        assert JobsProblem([]).kind == "jobs"

    def test_jobs_problem_coerces_and_validates(self):
        p = JobsProblem(iter(()), machines=4)
        assert p.jobs == ()
        with pytest.raises(SchedulerError):
            JobsProblem([], machines=0)

    def test_problems_are_frozen(self):
        p = JobsProblem([], machines=4)
        with pytest.raises(AttributeError):
            p.machines = 8


class TestRegistry:
    def test_listing_is_sorted_by_family(self):
        specs = available_schedulers()
        assert len(specs) >= 18
        assert [(s.family, s.name) for s in specs] == \
            sorted((s.family, s.name) for s in specs)

    def test_every_expected_name_present(self):
        names = {s.name for s in available_schedulers()}
        assert {"cpa", "mcpa", "mcpa2", "heft", "cpop", "mheft",
                "task-parallel", "data-parallel", "cra", "cra-backfill",
                "fcfs", "easy", "online-list", "moldable-list",
                "rr", "sjf", "mlfq", "cfs"} <= names

    def test_unknown_scheduler_lists_available(self):
        with pytest.raises(SchedulerError, match="unknown scheduler 'nope'"):
            scheduler_for("nope")
        with pytest.raises(SchedulerError, match="available: "):
            scheduler_for("nope")

    def test_duplicate_registration_refused(self):
        spec = available_schedulers()[0]
        with pytest.raises(SchedulerError, match="already registered"):
            register_scheduler(spec)

    def test_bad_problem_kind_in_spec(self):
        with pytest.raises(SchedulerError, match="unknown problem kind"):
            SchedulerSpec("x", "f", "s", "nope", lambda p: None)


class TestRunScheduler:
    @pytest.mark.parametrize(
        "name", [s.name for s in available_schedulers()])
    def test_round_trip_on_canonical_problem(self, name):
        spec = scheduler_for(name)
        result = run_scheduler(name, canonical_problem(spec.problem))
        assert isinstance(result, SchedResult)
        assert result.scheduler == name
        assert result.makespan > 0
        assert result.metrics["tasks"] >= 1
        assert result.metrics["utilization"] > 0
        assert len(result.schedule) >= 1
        assert validate_slices(result.schedule) == []

    def test_metrics_are_read_only(self):
        result = run_scheduler("rr", canonical_problem("jobs"))
        with pytest.raises(TypeError):
            result.metrics["makespan"] = 0.0

    def test_wrong_problem_kind(self):
        with pytest.raises(SchedulerError,
                           match="needs a 'dag' problem, got 'jobs'"):
            run_scheduler("heft", canonical_problem("jobs"))

    def test_unknown_option_names_scheduler_and_options(self):
        with pytest.raises(SchedulerError) as err:
            run_scheduler("rr", canonical_problem("jobs"), bogus=1)
        msg = str(err.value)
        assert "bogus" in msg and "rr" in msg
        assert "quantum" in msg   # the supported options are listed

    def test_bad_option_value_names_the_option(self):
        with pytest.raises(SchedulerError, match="quantum"):
            run_scheduler("rr", canonical_problem("jobs"),
                          quantum="not-a-number")

    def test_options_actually_reach_the_runner(self):
        p = canonical_problem("jobs")
        fine = run_scheduler("rr", p, quantum=1.0)
        coarse = run_scheduler("rr", p, quantum=1e9)
        assert fine.metrics["slices"] > coarse.metrics["slices"]

