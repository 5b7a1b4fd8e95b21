"""Table 2 — classification summary for LANL-Trace, Tracefs, //TRACE.

Regenerates the case-study comparison table (§4, Table 2) two ways:

1. the published feature values, verbatim;
2. with the overhead row *measured live* on the simulated testbed for
   each framework, demonstrating the taxonomy's quantitative element.
"""

import pytest

from repro.core import Feature, render_summary_table
from repro.core.casestudy import (
    lanl_trace_classification,
    paper_table2,
    ptrace_classification,
    tracefs_classification,
)
from repro.core.overhead import measure_overhead_report
from repro.core.values import OverheadReport
from repro.frameworks.ptrace import PTrace
from repro.frameworks.tracefs import Tracefs, TracefsConfig
from repro.harness.experiment import measure_overhead
from repro.harness.figures import paper_testbed
from repro.units import KiB, MiB
from repro.workloads import AccessPattern, mpi_io_test
from repro.workloads.generators import io_intensive


def test_table2_published(once):
    table = once(lambda: render_summary_table(list(paper_table2().values())))
    print("\n" + table)
    for name in ("LANL-Trace", "Tracefs", "//TRACE"):
        assert name in table
    # the distinguishing cells the Conclusion reasons from
    assert "24% - 222%" in table
    assert "12.4" in table
    assert "As low as 6%" in table
    assert "205" in table


def _measure_lanl():
    return measure_overhead_report(
        "lanl-trace",
        block_sizes=[64 * KiB, 1 * MiB],
        patterns=[AccessPattern.N_TO_1_STRIDED, AccessPattern.N_TO_N],
        total_bytes_per_rank=8 * MiB,
        config=paper_testbed(nprocs=16),
        nprocs=16,
        note="measured (simulated testbed)",
    )


def _measure_tracefs():
    m = measure_overhead(
        lambda: Tracefs(TracefsConfig(target_mount="/tmp")),
        io_intensive,
        {"base": "/tmp/w", "n_files": 16, "file_size": 256 * KiB, "block_size": 32 * KiB},
        nprocs=1,
    )
    return OverheadReport(
        max_percent=round(100 * m.elapsed_overhead, 1),
        note="measured, full tracing (simulated)",
    )


def _measure_ptrace():
    base = measure_overhead(
        PTrace,
        mpi_io_test,
        {"pattern": AccessPattern.N_TO_1_NONSTRIDED, "block_size": 256 * KiB,
         "nobj": 32, "path": "/pfs/out"},
        config=paper_testbed(nprocs=8),
        nprocs=8,
    )
    return OverheadReport(
        min_percent=round(100 * max(0.0, base.elapsed_overhead), 1),
        max_percent=205.0,
        note="floor measured; ceiling by throttling design",
    )


def test_table2_with_measured_overheads(once):
    def build():
        return render_summary_table(
            [
                lanl_trace_classification(overhead=_measure_lanl()),
                tracefs_classification(overhead=_measure_tracefs()),
                ptrace_classification(overhead=_measure_ptrace()),
            ]
        )

    table = once(build)
    print("\n" + table)
    assert "measured" in table


def test_conclusion_recommendations():
    """§5's three conclusions, via the requirements engine."""
    from repro.core import Requirements, recommend

    cls = list(paper_table2().values())
    # replayable + parallel -> //TRACE
    r1 = recommend(Requirements(need_replayable=True, need_parallel_fs=True), cls)
    assert r1[0].framework_name == "//TRACE" and r1[0].qualifies
    # advanced anonymization -> LANL-Trace inadequate
    r2 = recommend(Requirements(min_anonymization=3), cls)
    assert not [r for r in r2 if r.framework_name == "LANL-Trace"][0].qualifies
    # low-friction install -> not Tracefs
    r3 = recommend(Requirements(max_install_difficulty=3), cls)
    assert not [r for r in r3 if r.framework_name == "Tracefs"][0].qualifies
    print("\n" + "\n".join(r.render() for r in r1))
