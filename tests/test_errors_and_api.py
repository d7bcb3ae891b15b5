"""Tests for the error hierarchy and public-API surface."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    ColorError,
    ParseError,
    PlatformError,
    RenderError,
    ReproError,
    ScheduleError,
    SchedulingError,
    SimulationError,
    ValidationError,
    WorkloadError,
)


@pytest.mark.parametrize("exc_type", [
    ScheduleError, ValidationError, ParseError, ColorError, RenderError,
    PlatformError, SchedulingError, SimulationError, WorkloadError,
])
def test_all_errors_derive_from_repro_error(exc_type):
    assert issubclass(exc_type, ReproError)
    with pytest.raises(ReproError):
        raise exc_type("boom")


def test_validation_error_is_schedule_error():
    assert issubclass(ValidationError, ScheduleError)


def test_parse_error_location_formatting():
    e = ParseError("bad token", source="file.xml", line=7)
    assert str(e) == "bad token in file.xml at line 7"
    assert e.source == "file.xml" and e.line == 7
    assert str(ParseError("oops")) == "oops"
    assert str(ParseError("oops", source="f")) == "oops in f"


def test_library_errors_are_catchable_uniformly(tmp_path):
    """One except clause covers IO, model and render failures."""
    from repro.io import jedule_xml
    from repro.core.model import Schedule
    from repro.render.api import render_drawing
    from repro.render.geometry import Drawing

    failures = 0
    for action in (
        lambda: jedule_xml.loads("<broken"),
        lambda: Schedule().new_cluster(0, -1),
        lambda: render_drawing(Drawing(10, 10), "gif"),
    ):
        try:
            action()
        except ReproError:
            failures += 1
    assert failures == 3


def test_package_all_resolves():
    """Everything advertised in __all__ exists (per package)."""
    import repro.core
    import repro.dag
    import repro.io
    import repro.platform
    import repro.render
    import repro.sched
    import repro.simulate
    import repro.taskpool
    import repro.workloads

    for module in (repro, repro.core, repro.dag, repro.io, repro.platform,
                   repro.render, repro.sched, repro.simulate, repro.taskpool,
                   repro.workloads):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} missing"


def test_removed_shims_stay_gone():
    """Schedulers run through the registry or their family submodule;
    schedules render through a RenderRequest; benchmarks keep no BENCH
    snapshots; ``jedule submit --trace`` merges traces through
    ``repro.serve.tracing``; traces keep no histograms; ``lod`` is a mode
    string aggregated by the one ``repro.render.lod.aggregate``."""
    import repro.obs
    import repro.obs.export
    import repro.render
    import repro.render.api
    import repro.render.lod
    import repro.sched

    with pytest.raises(AttributeError):
        repro.sched.heft_schedule
    with pytest.raises(ImportError):
        from repro.sched import HeftResult  # noqa: F401
    assert not hasattr(repro.render.api, "render_schedule")
    with pytest.raises(ImportError):
        import repro.obs.bench  # noqa: F401
    for name in ("BenchSuite", "load_bench", "time_min_of_k", "compare_bench",
                 "merge_chrome_traces"):
        assert not hasattr(repro.obs, name), name
    assert not hasattr(repro.obs.export, "merge_chrome_traces")
    assert not hasattr(repro.obs, "observe")
    assert not hasattr(repro.obs.Trace(), "histograms")
    assert not hasattr(repro.render, "LodOptions")
    for name in ("LodOptions", "band_cell_grid", "aggregate_band",
                 "aggregate_window", "resolve_lod", "_grid_shape"):
        assert not hasattr(repro.render.lod, name), name


def test_version():
    assert repro.__version__.count(".") == 2
