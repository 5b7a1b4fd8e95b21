"""Experiment harness: testbed assembly, overhead protocol, figure series.

* :mod:`repro.harness.testbed` — builds the standard simulated machine
  (cluster + parallel FS at ``/pfs`` + NFS home at ``/home`` + local
  scratch at ``/tmp``), mirroring the paper's testbed;
* :mod:`repro.harness.experiment` — the traced-vs-untraced measurement
  protocol for one point, run in-process;
* :mod:`repro.harness.parallel` — pickle-safe run specs and
  :func:`run_sweep`, the one executor every sweep goes through (serial,
  process pool or cache);
* :mod:`repro.harness.runcache` — content-addressed on-disk cache of
  sweep-point results (determinism makes every point replayable);
* :mod:`repro.harness.figures` — series generators for the paper's
  Figures 2-4;
* :mod:`repro.harness.report` — paper-style text rendering of results.
"""

from repro.harness.testbed import Testbed, TestbedConfig, build_testbed
from repro.harness.experiment import (
    OverheadMeasurement,
    measure_overhead,
    run_untraced,
)
from repro.harness.parallel import (
    FrameworkSpec,
    PointResult,
    RunSpec,
    SweepReport,
    execute_spec,
    run_sweep,
)
from repro.harness.runcache import RunCache

__all__ = [
    "Testbed",
    "TestbedConfig",
    "build_testbed",
    "OverheadMeasurement",
    "measure_overhead",
    "run_untraced",
    "FrameworkSpec",
    "PointResult",
    "RunSpec",
    "SweepReport",
    "execute_spec",
    "run_sweep",
    "RunCache",
]
