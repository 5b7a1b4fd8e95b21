"""paper-sweep: the §3.1 untraced + traced LANL-Trace protocol.

Figures 2-4's three access patterns at the paper's two reported block
sizes, 64 KiB and 8 MiB, on the calibrated 32-rank paper testbed with
32 MiB per rank.  Each point is one ``measure_overhead`` call (a fresh
untraced run and an identical fresh traced run); points repeat in passes
until the time budget is spent, and each metric sums the per-point
medians of one block size.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from common import LayerSampler, SpanLog, alternate, median

NPROCS = 32
BYTES_PER_RANK = 32 << 20
#: Ranks of the warm-up pass that set-up makes.
SETUP_NPROCS = 4
BLOCK_SIZES = {"64k": 64 << 10, "8m": 8 << 20}
FIGURES = (2, 3, 4)
#: One pass: every pattern at both block sizes, the slow half first.
POINTS: List[Tuple[int, str]] = [(fig, size) for size in BLOCK_SIZES for fig in FIGURES]
LAYERS = ("des", "simos", "simfs", "cluster", "simmpi", "frameworks", "workloads")
#: Nominal host seconds of one pass on a 2-vCPU VM.  A run makes
#: ``seconds // PASS_SECONDS`` passes (at least two, so that a traced run
#: has an on and an off pass): a fixed count, so that runs on a faster or
#: busier host, or of a faster commit, do the same work.
PASS_SECONDS = 10.0


def point_key(fig: int, size: str) -> str:
    return "fig%d-%s" % (fig, size)


def _args(fig: int, size: str) -> Dict[str, Any]:
    from repro.harness.experiment import sweep_args_for_block_size
    from repro.harness.figures import FIGURE_PATTERNS

    base = {"pattern": FIGURE_PATTERNS[fig], "path": "/pfs/mpi_io_test.out"}
    return sweep_args_for_block_size(base, BLOCK_SIZES[size], BYTES_PER_RANK)


def _measure(fig: int, size: str, seed: int, nprocs: int = NPROCS) -> Any:
    from repro.harness.experiment import measure_overhead
    from repro.harness.figures import paper_testbed
    from repro.harness.parallel import WORKLOADS, FrameworkSpec

    return measure_overhead(
        FrameworkSpec.create("lanl-trace").build,
        WORKLOADS["mpi_io_test"],
        _args(fig, size),
        paper_testbed(seed=seed, nprocs=nprocs),
        nprocs,
        seed,
    )


def outputs(m: Any) -> Dict[str, Any]:
    """The simulated results of one point that the check pins."""
    return {
        "elapsed_untraced": m.untraced.elapsed,
        "elapsed_traced": m.traced.elapsed,
        "bytes_untraced": m.untraced.bytes_moved,
        "bytes_traced": m.traced.bytes_moved,
    }


def check(state: None, raw: Dict[str, Any],
          reference: Dict[str, Dict[str, Any]]) -> List[str]:
    """Problems with the simulated outputs; empty when all are right.

    The testbed seed moves only node clocks, so one reference serves
    every seed: every repeat of every point must equal it exactly.
    """
    problems = []
    for key in sorted(set(raw["observed"]) | set(reference)):
        want = reference.get(key)
        for sample in raw["observed"].get(key, [None]):
            if sample != want:
                problems.append("%s: got %s, reference %s" % (key, sample, want))
                break
    return problems


def setup(seed: int) -> None:
    """Warm the program (imports, registries, both block-size paths) with
    the whole pass at 4 ranks: long enough, at about a second, that one
    scheduler hiccup does not dominate its time."""
    for fig, size in POINTS:
        _measure(fig, size, seed, nprocs=SETUP_NPROCS)


def teardown(state: None) -> None:
    pass


class _Probe:
    """Wraps the layer entry points the protocol calls, from outside.

    ``measure_overhead`` reaches the testbed, the MPI runtime and the
    framework's ``finalize`` through module attributes and the framework
    factory; the probe rebinds those to timing wrappers that also keep
    the testbeds, whose simulator and PFS counters are read afterwards.
    """

    def __init__(self, spans: SpanLog) -> None:
        self.spans = spans
        self.walls: Dict[str, List[float]] = {
            "build_testbed": [], "mpirun": [], "finalize": []
        }
        self.testbeds: List[Any] = []
        self.bundle_events = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        for sink in self.walls.values():
            sink.clear()
        self.testbeds = []
        self.bundle_events = 0

    def install(self) -> None:
        import repro.harness.experiment as experiment
        from repro.harness.parallel import FRAMEWORK_FACTORIES

        wrap = self.spans.wrap
        real_build = experiment.build_testbed
        real_mpirun = experiment.mpirun
        real_factory = FRAMEWORK_FACTORIES["lanl-trace"]
        timed_build = wrap(real_build, "build_testbed", "harness",
                           self.walls["build_testbed"])

        def build(*args: Any, **kwargs: Any) -> Any:
            tb = timed_build(*args, **kwargs)
            self.testbeds.append(tb)
            return tb

        def factory(params: Any) -> Any:
            fw = real_factory(params)
            timed_finalize = wrap(fw.finalize, "finalize", "frameworks",
                                  self.walls["finalize"])

            def finalize(job: Any) -> Any:
                bundle = timed_finalize(job)
                self.bundle_events += sum(len(f.events) for f in bundle.files.values())
                return bundle

            fw.finalize = finalize
            return fw

        self._saved = [
            (experiment, "build_testbed", real_build),
            (experiment, "mpirun", real_mpirun),
            (FRAMEWORK_FACTORIES, "lanl-trace", real_factory),
        ]
        experiment.build_testbed = build
        experiment.mpirun = wrap(real_mpirun, "mpirun", "simmpi", self.walls["mpirun"])
        FRAMEWORK_FACTORIES["lanl-trace"] = factory

    def uninstall(self) -> None:
        for owner, name, value in self._saved:
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._saved = []

    def counters(self) -> Dict[str, float]:
        events = sum(tb.sim.events_executed for tb in self.testbeds)
        stats = [s for tb in self.testbeds for s in tb.pfs.server_stats()]
        return {
            "build_testbed_s": sum(self.walls["build_testbed"]),
            "mpirun_s": sum(self.walls["mpirun"]),
            "finalize_s": sum(self.walls["finalize"]),
            "events": events,
            "pfs_ops_served": sum(s["ops_served"] for s in stats),
            "pfs_seeks": sum(s["seeks"] for s in stats),
            "trace_events": self.bundle_events,
        }


def run(state: None, seed: int, seconds: float, trace: bool, spans: SpanLog,
        sampler: Optional[LayerSampler]) -> Dict[str, Any]:
    """Measure ``seconds // PASS_SECONDS`` whole passes; return the raw samples.

    In a traced run, passes alternate between fully instrumented (probe
    installed, spans and sampler on) and bare, so the off passes measure
    the program as the untraced run does.
    """
    walls: Dict[str, List[float]] = {point_key(f, s): [] for f, s in POINTS}
    off_walls: Dict[str, List[float]] = {point_key(f, s): [] for f, s in POINTS}
    layer: Dict[str, List[Dict[str, float]]] = {point_key(f, s): [] for f, s in POINTS}
    observed: Dict[str, List[Dict[str, Any]]] = {point_key(f, s): [] for f, s in POINTS}
    probe = _Probe(spans)
    n_passes = max(2, int(seconds // PASS_SECONDS))
    for index in range(n_passes):
        on = alternate(trace, index)
        if on:
            probe.install()
            spans.enabled = True
        try:
            for fig, size in POINTS:
                key = point_key(fig, size)
                probe.reset()
                if on and sampler is not None:
                    sampler.start(size)
                t0 = time.perf_counter()
                try:
                    with spans.span("point " + key, "bench"):
                        m = _measure(fig, size, seed)
                finally:
                    wall = time.perf_counter() - t0
                    if on and sampler is not None:
                        sampler.stop()
                observed[key].append(outputs(m))
                (off_walls if trace and not on else walls)[key].append(wall)
                if on:
                    layer[key].append(probe.counters())
        finally:
            spans.enabled = False
            probe.uninstall()
    return {"walls": walls, "off_walls": off_walls, "layer": layer,
            "observed": observed, "attempted": n_passes * len(POINTS), "failed": 0}


def _sum_medians(series: Dict[str, List[float]], size: str) -> float:
    return sum(median(series[point_key(f, size)]) for f in FIGURES)


def end_to_end(raw: Dict[str, Any]) -> Dict[str, Any]:
    """A main action is the 64 KiB half of one pass (three points, each an
    untraced plus a traced run), a side action the 8 MiB half; work is
    simulated MiB moved per host second.  Untraced runs only: there every
    sample lands in ``walls``."""
    walls = raw["walls"]

    def halves(size: str) -> List[float]:
        per_point = [walls[point_key(f, size)] for f in FIGURES]
        return [sum(ws) * 1e3 for ws in zip(*per_point)]

    moved = sum(o["bytes_untraced"] + o["bytes_traced"]
                for samples in raw["observed"].values() for o in samples)
    return {
        "main_ms": halves("64k"),
        "side_ms": halves("8m"),
        "work_per_s": moved / float(1 << 20) / sum(sum(ws) for ws in walls.values()),
    }


def per_layer(state: Any, raw: Dict[str, Any], spans: SpanLog,
              sampler: LayerSampler) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for size in BLOCK_SIZES:
        sfx = "." + size

        def summed(name: str) -> float:
            return sum(median([c[name] for c in raw["layer"][point_key(f, size)]])
                       for f in FIGURES)

        mpirun_s = summed("mpirun_s")
        events = summed("events")
        out["harness.build_testbed_s" + sfx] = summed("build_testbed_s")
        out["simmpi.mpirun_s" + sfx] = mpirun_s
        out["frameworks.finalize_s" + sfx] = summed("finalize_s")
        out["des.events" + sfx] = int(events)
        out["des.us_per_event" + sfx] = mpirun_s / events * 1e6
        for name in ("pfs_ops_served", "pfs_seeks"):
            out["simfs.%s%s" % (name, sfx)] = int(summed(name))
        out["frameworks.trace_events" + sfx] = int(summed("trace_events"))
        shares = sampler.shares(size)
        for name in LAYERS:
            out["%s.host_share%s" % (name, sfx)] = shares.get(name, 0.0)
        out["bench.tracing_overhead_s" + sfx] = (
            _sum_medians(raw["walls"], size) - _sum_medians(raw["off_walls"], size)
        )
    return out
