"""Series generators for the paper's figures and headline numbers.

* :func:`paper_testbed` — the calibrated simulated machine standing in for
  the paper's 32-processor cluster (§4.1.2);
* :func:`figure_series` — one of Figures 2/3/4: LANL-Trace bandwidth and
  bandwidth-overhead versus block size for a given access pattern;
* :func:`elapsed_overhead_range` — the §4.1.1 headline "24% to 222%"
  elapsed-time overhead span across patterns and block sizes.

Calibration notes (see DESIGN.md §4): the network's per-client effective
bandwidth is set to 2007-era TCP-over-GigE goodput (~40 MiB/s) rather
than wire speed, the parallel FS has 8 storage servers × 31-drive RAID-5
(the paper's 252 drives, 64 KiB stripes), and LANL-Trace's per-event costs
are in :class:`~repro.frameworks.lanltrace.framework.LANLTraceConfig`.
Absolute bandwidths are simulator units; the reproduced quantities are the
overhead percentages and their block-size/pattern structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.cluster.cluster import ClusterConfig
from repro.cluster.network import NetworkConfig
from repro.harness.experiment import sweep_block_sizes
from repro.harness.parallel import (
    FrameworkSpec,
    SweepReport,
    build_sweep_specs,
    run_sweep,
)
from repro.harness.testbed import TestbedConfig
from repro.simfs.pfs import PFSParams
from repro.store.segments import DEFAULT_CODEC
from repro.units import KiB, MiB
from repro.workloads import AccessPattern

__all__ = [
    "FigurePoint",
    "FigureSeries",
    "FigureSweep",
    "paper_testbed",
    "figure_series",
    "run_figures",
    "elapsed_overhead_range",
    "PAPER_BLOCK_SIZES",
    "FIGURE_PATTERNS",
]

#: Block sizes swept in Figures 2-4 (the paper reports 64 KiB and 8192 KiB
#: endpoints explicitly).
PAPER_BLOCK_SIZES: Sequence[int] = (
    64 * KiB,
    256 * KiB,
    1024 * KiB,
    8192 * KiB,
)

#: Figure number -> access pattern, as in the paper.
FIGURE_PATTERNS: Dict[int, AccessPattern] = {
    2: AccessPattern.N_TO_1_STRIDED,
    3: AccessPattern.N_TO_1_NONSTRIDED,
    4: AccessPattern.N_TO_N,
}


def paper_testbed(seed: int = 0, nprocs: int = 32) -> TestbedConfig:
    """The calibrated stand-in for the paper's testbed."""
    return TestbedConfig(
        cluster=ClusterConfig(
            n_nodes=nprocs,
            seed=seed,
            network=NetworkConfig(link_bandwidth=40 * MiB, fabric_streams=24),
        ),
        pfs=PFSParams(server_threads=16),
    )


@dataclass(frozen=True)
class FigurePoint:
    """One x-position of a figure: a block size with its measurements.

    ``error`` is the graceful-degradation seam: a point whose measurement
    failed (fault injection, timeout...) carries zeroed numbers plus the
    annotation here, and the figure is still emitted around it.
    """

    block_size: int
    untraced_bandwidth: float
    traced_bandwidth: float
    bandwidth_overhead: float  # fraction in [0, 1)
    elapsed_overhead: float  # fraction, may exceed 1
    error: Optional[str] = None


@dataclass(frozen=True)
class FigureSeries:
    """A full figure: pattern + points ordered by block size.

    ``measurements`` keeps the raw per-point result objects (when the
    generating sweep provided them) so callers can reach data the
    :class:`FigurePoint` summary drops — notably telemetry payloads.  It
    is excluded from equality: point results carry host wall-clock times,
    and two byte-identical series must compare equal across runs.
    """

    figure_number: int
    pattern: AccessPattern
    nprocs: int
    points: List[FigurePoint]
    measurements: List[Any] = field(default_factory=list, compare=False, repr=False)

    def block_sizes(self) -> List[int]:
        """The x axis: block sizes in point order."""
        return [p.block_size for p in self.points]

    def bandwidth_overheads(self) -> List[float]:
        """Bandwidth-overhead fractions in point order."""
        return [p.bandwidth_overhead for p in self.points]

    def elapsed_overheads(self) -> List[float]:
        """Elapsed-time-overhead fractions in point order."""
        return [p.elapsed_overhead for p in self.points]


def _figure_points(sizes: Sequence[int], measurements: Sequence[Any]) -> List[FigurePoint]:
    # Works for both OverheadMeasurement and parallel.PointResult — the two
    # expose identical overhead/bandwidth accessors by design.
    return [
        FigurePoint(
            block_size=bs,
            untraced_bandwidth=m.untraced.aggregate_bandwidth,
            traced_bandwidth=m.traced.aggregate_bandwidth,
            bandwidth_overhead=m.bandwidth_overhead,
            elapsed_overhead=m.elapsed_overhead,
            error=getattr(m, "error", None),
        )
        for bs, m in zip(sizes, measurements)
    ]


def figure_series(
    figure_number: int,
    block_sizes: Optional[Iterable[int]] = None,
    total_bytes_per_rank: int = 32 * MiB,
    nprocs: int = 32,
    seed: int = 0,
    framework_factory: Optional[Callable] = None,
    framework: Union[FrameworkSpec, str] = "lanl-trace",
    jobs: int = 1,
    cache: Optional[Any] = None,
    telemetry: bool = False,
    progress: Optional[Callable] = None,
    store: Optional[str] = None,
    store_codec: str = DEFAULT_CODEC,
) -> FigureSeries:
    """Regenerate Figure 2, 3 or 4.

    ``total_bytes_per_rank`` is the scaled-down stand-in for the paper's
    100 GB (N-1) / 10 GB-per-rank (N-N) files: constant per block size, so
    large blocks still amortize per-run costs as in the paper.

    ``framework`` is a pickle-safe spec (or registered factory name); with
    ``jobs > 1`` the sweep points fan out over worker processes, and with a
    ``cache`` (:class:`~repro.harness.runcache.RunCache`) previously
    measured points are served from disk.  The legacy ``framework_factory``
    closure argument forces the serial in-process path.  All paths produce
    byte-identical series — the simulator is deterministic.
    """
    try:
        pattern = FIGURE_PATTERNS[figure_number]
    except KeyError:
        raise ValueError("paper figures with overhead sweeps are 2, 3, 4") from None
    sizes = sorted(block_sizes if block_sizes is not None else PAPER_BLOCK_SIZES)
    measurements = sweep_block_sizes(
        framework_factory if framework_factory is not None else framework,
        "mpi_io_test",
        {"pattern": pattern, "path": "/pfs/mpi_io_test.out"},
        sizes,
        total_bytes_per_rank,
        config=paper_testbed(seed=seed, nprocs=nprocs),
        nprocs=nprocs,
        seed=seed,
        jobs=jobs,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
        store=store,
        store_codec=store_codec,
    )
    return FigureSeries(
        figure_number=figure_number,
        pattern=pattern,
        nprocs=nprocs,
        points=_figure_points(sizes, measurements),
        measurements=list(measurements),
    )


@dataclass
class FigureSweep:
    """All figure series from one combined sweep, plus execution stats.

    ``bench_points`` is one record per sweep point with the wall-clock,
    kernel-event, and cache data the ``BENCH_sweep.json`` artifact reports.
    """

    series: Dict[int, FigureSeries]
    overhead_range: Dict[str, float]
    report: SweepReport
    bench_points: List[Dict[str, Any]] = field(default_factory=list)


def run_figures(
    figures: Sequence[int] = (2, 3, 4),
    block_sizes: Optional[Iterable[int]] = None,
    total_bytes_per_rank: int = 32 * MiB,
    nprocs: int = 32,
    seed: int = 0,
    framework: Union[FrameworkSpec, str] = "lanl-trace",
    jobs: int = 1,
    cache: Optional[Any] = None,
    telemetry: bool = False,
    progress: Optional[Callable] = None,
    store: Optional[str] = None,
    store_codec: str = DEFAULT_CODEC,
) -> FigureSweep:
    """Regenerate several figures as one flat sweep (maximum parallelism).

    All points of all requested figures go into a single
    :func:`~repro.harness.parallel.run_sweep` call, so with ``jobs > 1``
    the pool stays saturated across figure boundaries instead of draining
    between them.
    """
    sizes = sorted(block_sizes if block_sizes is not None else PAPER_BLOCK_SIZES)
    config = paper_testbed(seed=seed, nprocs=nprocs)
    specs = []
    owners: List[int] = []
    for figno in figures:
        try:
            pattern = FIGURE_PATTERNS[figno]
        except KeyError:
            raise ValueError("paper figures with overhead sweeps are 2, 3, 4") from None
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
                telemetry=telemetry,
                store=store,
                store_codec=store_codec,
            )
        )
        owners.extend([figno] * len(sizes))
    result = run_sweep(specs, jobs=jobs, cache=cache, progress=progress)

    series: Dict[int, FigureSeries] = {}
    bench_points: List[Dict[str, Any]] = []
    for idx, figno in enumerate(figures):
        chunk = result.points[idx * len(sizes) : (idx + 1) * len(sizes)]
        series[figno] = FigureSeries(
            figure_number=figno,
            pattern=FIGURE_PATTERNS[figno],
            nprocs=nprocs,
            points=_figure_points(sizes, chunk),
            measurements=list(chunk),
        )
        for bs, point in zip(sizes, chunk):
            row = {"figure": figno, "block_size": bs}
            row.update(point.headline())
            bench_points.append(row)
    # Failed (annotated) points carry zeroed numbers; keep them out of the
    # headline range so one bad point doesn't fake a 0% minimum.
    overheads = [
        p.elapsed_overhead
        for s in series.values()
        for p in s.points
        if p.error is None
    ]
    if not overheads:
        overheads = [0.0]
    return FigureSweep(
        series=series,
        overhead_range={"min": min(overheads), "max": max(overheads)},
        report=result.report,
        bench_points=bench_points,
    )


def elapsed_overhead_range(
    block_sizes: Optional[Iterable[int]] = None,
    total_bytes_per_rank: int = 32 * MiB,
    nprocs: int = 32,
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[Any] = None,
) -> Dict[str, float]:
    """The §4.1.1 headline: min/max elapsed-time overhead across patterns
    and block sizes ("observed to be highly variable ranging from 24% to
    222% ... related directly to the block size").

    ``jobs``/``cache`` parallelize and memoize the 24-simulation sweep
    exactly as in :func:`run_figures`, with identical results.
    """
    sweep = run_figures(
        figures=tuple(FIGURE_PATTERNS),
        block_sizes=block_sizes,
        total_bytes_per_rank=total_bytes_per_rank,
        nprocs=nprocs,
        seed=seed,
        jobs=jobs,
        cache=cache,
    )
    return sweep.overhead_range
