"""The taxonomy's overhead measurement protocol (§3.1).

The paper defines elapsed time overhead as::

    (elapsed time of traced app  -  elapsed time of untraced app)
    --------------------------------------------------------------
                elapsed time of untraced app

"These measurements can be made using a tool such as the Linux command
line utility time."  Our ``time`` utility is the simulator's true clock:
each measurement builds two *identical* fresh testbeds (same seed), runs
the workload untraced on one and traced on the other, and compares.

Bandwidth overhead (Figures 2-4) is reported as the fractional bandwidth
*loss*, ``(BW_untraced - BW_traced) / BW_untraced`` — equivalent to time
overhead mapped into [0, 1), which is how the paper's per-pattern
percentages (51.3% ... 0.6%) behave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.frameworks.base import TracedRun, TracingFramework
from repro.harness.testbed import Testbed, TestbedConfig, build_testbed
from repro.simmpi.runtime import JobResult, mpirun
from repro.store.segments import DEFAULT_CODEC

__all__ = [
    "RunOutcome",
    "OverheadMeasurement",
    "run_untraced",
    "run_traced",
    "measure_overhead",
    "sweep_args_for_block_size",
    "sweep_block_sizes",
]

FrameworkFactory = Callable[[], TracingFramework]


@dataclass(frozen=True)
class RunOutcome:
    """One application run on a fresh testbed.

    ``events_executed`` is the testbed simulator's kernel-event count at
    job end — a determinism fingerprint: two runs of the same spec must
    match it exactly (the run cache verifies this on every hit).
    """

    elapsed: float
    bytes_moved: int
    job: JobResult
    events_executed: int = 0

    @property
    def aggregate_bandwidth(self) -> float:
        """Total payload bytes over true elapsed seconds."""
        if self.elapsed <= 0:
            return 0.0
        return self.bytes_moved / self.elapsed


def _total_payload(job: JobResult) -> int:
    # Read and written bytes count independently: a read-only workload
    # (read_back replays, pseudo-app reads) has no ``bytes_written``
    # attribute yet still moves payload.
    total = 0
    for r in job.results:
        total += int(getattr(r, "bytes_written", 0) or 0)
        total += int(getattr(r, "bytes_read", 0) or 0)
    return total


def run_untraced(
    workload: Callable,
    workload_args: Dict[str, Any],
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
) -> RunOutcome:
    """Run the workload with no tracer attached, on a fresh testbed.

    ``seed`` overrides the config's cluster seed when given; by default
    the config's own seed is used (so two calls with the same config see
    the same machine, clocks and all).
    """
    tb = build_testbed(config, seed=seed)
    job = mpirun(tb.cluster, tb.vfs, workload, nprocs=nprocs, args=workload_args)
    return RunOutcome(
        elapsed=job.elapsed,
        bytes_moved=_total_payload(job),
        job=job,
        events_executed=tb.sim.events_executed,
    )


def run_traced(
    framework_factory: FrameworkFactory,
    workload: Callable,
    workload_args: Dict[str, Any],
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
) -> tuple[RunOutcome, TracedRun]:
    """Run the workload with a tracer attached, on an identical testbed."""
    tb = build_testbed(config, seed=seed)
    framework = framework_factory()
    framework.prepare(tb)
    app = framework.wrap_app(workload)
    job = mpirun(
        tb.cluster,
        tb.vfs,
        app,
        nprocs=nprocs,
        args=workload_args,
        setup=framework.setup_rank,
    )
    bundle = framework.finalize(job)
    traced = TracedRun(framework_name=framework.name, job=job, bundle=bundle)
    return (
        RunOutcome(
            elapsed=job.elapsed,
            bytes_moved=_total_payload(job),
            job=job,
            events_executed=tb.sim.events_executed,
        ),
        traced,
    )


@dataclass(frozen=True)
class OverheadMeasurement:
    """Paired traced/untraced measurement with the paper's two overheads."""

    untraced: RunOutcome
    traced: RunOutcome
    traced_run: TracedRun
    params: Dict[str, Any]

    @property
    def elapsed_overhead(self) -> float:
        """The paper's §3.1 formula: (T_traced - T_untraced) / T_untraced."""
        if self.untraced.elapsed <= 0:
            return 0.0
        return (self.traced.elapsed - self.untraced.elapsed) / self.untraced.elapsed

    @property
    def bandwidth_overhead(self) -> float:
        """Fractional bandwidth loss: (BW_u - BW_t) / BW_u, in [0, 1)."""
        bw_u = self.untraced.aggregate_bandwidth
        if bw_u <= 0:
            return 0.0
        return (bw_u - self.traced.aggregate_bandwidth) / bw_u


def measure_overhead(
    framework_factory: FrameworkFactory,
    workload: Callable,
    workload_args: Dict[str, Any],
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
) -> OverheadMeasurement:
    """The full protocol: identical machines, one untraced + one traced run."""
    untraced = run_untraced(workload, workload_args, config, nprocs, seed)
    traced, traced_run = run_traced(
        framework_factory, workload, workload_args, config, nprocs, seed
    )
    return OverheadMeasurement(
        untraced=untraced,
        traced=traced,
        traced_run=traced_run,
        params=dict(workload_args),
    )


def sweep_args_for_block_size(
    base_args: Dict[str, Any], block_size: int, total_bytes_per_rank: int
) -> Dict[str, Any]:
    """Workload args for one sweep point at constant bytes per rank.

    The paper holds file size constant and varies block size, so the
    number of objects per rank is ``total_bytes_per_rank // block_size``.
    """
    nobj = max(1, total_bytes_per_rank // block_size)
    return dict(base_args, block_size=block_size, nobj=nobj)


def sweep_block_sizes(
    framework_factory: Any,
    workload: Any,
    base_args: Dict[str, Any],
    block_sizes: Iterable[int],
    total_bytes_per_rank: int,
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    cache: Optional[Any] = None,
    telemetry: bool = False,
    progress: Optional[Callable] = None,
    store: Optional[str] = None,
    store_codec: str = DEFAULT_CODEC,
) -> List[Any]:
    """Measure overhead across block sizes at constant bytes per rank.

    With the defaults this is the original serial protocol and returns
    :class:`OverheadMeasurement` objects (carrying live trace bundles).
    Passing ``jobs > 1``, a :class:`~repro.harness.runcache.RunCache`, a
    pickle-safe framework spec (a :class:`~repro.harness.parallel.FrameworkSpec`
    or registered factory name instead of a closure), ``telemetry=True``,
    a ``store`` archive root (each point then ingests its traced bundle
    into that TraceBank), or a ``progress`` callback routes the sweep through
    :func:`repro.harness.parallel.run_sweep` and returns
    :class:`~repro.harness.parallel.PointResult` objects — same overhead
    numbers and fingerprints, no live simulator state.
    """
    from repro.harness.parallel import FrameworkSpec, build_sweep_specs, run_sweep

    if (
        jobs != 1
        or cache is not None
        or telemetry
        or store is not None
        or progress is not None
        or isinstance(framework_factory, (FrameworkSpec, str))
    ):
        specs = build_sweep_specs(
            framework_factory,
            workload,
            base_args,
            block_sizes,
            total_bytes_per_rank,
            config=config,
            nprocs=nprocs,
            seed=seed,
            telemetry=telemetry,
            store=store,
            store_codec=store_codec,
        )
        return run_sweep(specs, jobs=jobs, cache=cache, progress=progress).points
    if isinstance(workload, str):
        from repro.harness.parallel import WORKLOADS

        workload = WORKLOADS[workload]
    out: List[OverheadMeasurement] = []
    for bs in block_sizes:
        args = sweep_args_for_block_size(base_args, bs, total_bytes_per_rank)
        out.append(
            measure_overhead(framework_factory, workload, args, config, nprocs, seed)
        )
    return out
