"""The taxonomy's quantitative element: overhead measurement (§3.1).

The feature classification is "done by inspection"; overhead is "based
upon empirical measurements of the performance and end-to-end timing
overheads using a synthetic application benchmark".  This module is the
bridge between the two: it runs the measurement protocol through
:mod:`repro.harness.parallel` and condenses the results into the
:class:`~repro.core.values.OverheadReport` cell a classification carries.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.core.values import OverheadReport
from repro.errors import ReproError
from repro.harness.parallel import build_sweep_specs, run_sweep
from repro.harness.testbed import TestbedConfig
from repro.units import MiB
from repro.workloads import AccessPattern

__all__ = ["elapsed_time_overhead", "measure_overhead_report"]


def elapsed_time_overhead(untraced_elapsed: float, traced_elapsed: float) -> float:
    """The paper's formula, as a fraction.

    (elapsed time of traced application - elapsed time of untraced
    application) / elapsed time of untraced application.
    """
    if untraced_elapsed <= 0:
        raise ValueError("untraced elapsed time must be positive")
    return (traced_elapsed - untraced_elapsed) / untraced_elapsed


def measure_overhead_report(
    framework: Any,
    block_sizes: Iterable[int],
    patterns: Iterable[AccessPattern] = tuple(AccessPattern),
    total_bytes_per_rank: int = 16 * MiB,
    config: Optional[TestbedConfig] = None,
    nprocs: int = 8,
    seed: int = 0,
    note: str = "",
) -> OverheadReport:
    """Measure a framework's elapsed-time-overhead cell empirically.

    ``framework`` is anything :func:`~repro.harness.parallel.as_framework_spec`
    accepts: a spec, a registered factory name or a registered framework
    class.  Sweeps the synthetic benchmark over patterns × block sizes in
    one :func:`~repro.harness.parallel.run_sweep` and condenses to the
    min/max range the paper reports (e.g. LANL-Trace's "24% - 222%").
    """
    sizes = list(block_sizes)
    specs = []
    for pattern in patterns:
        specs.extend(
            build_sweep_specs(
                framework,
                "mpi_io_test",
                {"pattern": pattern, "path": "/pfs/mpi_io_test.out"},
                sizes,
                total_bytes_per_rank,
                config=config,
                nprocs=nprocs,
                seed=seed,
            )
        )
    points = run_sweep(specs).points
    for p in points:
        if p.error is not None:
            raise ReproError("overhead point %r failed: %s" % (p.params_dict(), p.error))
    overheads = [p.elapsed_overhead for p in points]
    return OverheadReport(
        min_percent=round(100.0 * min(overheads), 1),
        max_percent=round(100.0 * max(overheads), 1),
        note=note or "measured on the synthetic benchmark",
    )
