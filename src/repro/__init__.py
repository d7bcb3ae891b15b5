"""repro — a faithful Python reproduction of Jedule (Hunold, Hoffmann, Suter; PSTI 2010).

A tool for visualizing schedules of parallel applications, plus every
substrate its case studies depend on:

* :mod:`repro.core` — the schedule data model, composite tasks, color maps,
  view modes, viewport/selection logic, statistics;
* :mod:`repro.io` — Jedule XML, JSON, CSV, SWF formats and the parser registry;
* :mod:`repro.render` — layout engine and SVG/PNG/PDF/EPS/BMP/PPM/ASCII backends;
* :mod:`repro.cli` — command-line and terminal-interactive modes;
* :mod:`repro.dag`, :mod:`repro.platform`, :mod:`repro.simulate`,
  :mod:`repro.sched` — DAG models, platform models, discrete-event
  simulation and the scheduling algorithms of the case studies
  (CPA/MCPA/MCPA2, HEFT, CRA, backfilling);
* :mod:`repro.taskpool` — the NUMA task-pool runtime simulator;
* :mod:`repro.workloads` — parallel workload archive tooling.
"""

from repro.core import (
    Cluster,
    Color,
    ColorMap,
    Configuration,
    HostRange,
    Schedule,
    Task,
    ViewMode,
    Viewport,
    auto_colormap,
    default_colormap,
    grayscale_colormap,
    with_composites,
)
from repro.io import load_schedule, save_schedule
from repro.render import (
    RenderRequest,
    RenderResult,
    execute_request,
    export_schedule,
    render_ascii,
)

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "Color",
    "ColorMap",
    "Configuration",
    "HostRange",
    "RenderRequest",
    "RenderResult",
    "Schedule",
    "Task",
    "ViewMode",
    "Viewport",
    "__version__",
    "auto_colormap",
    "default_colormap",
    "execute_request",
    "export_schedule",
    "grayscale_colormap",
    "load_schedule",
    "render_ascii",
    "save_schedule",
    "with_composites",
]
