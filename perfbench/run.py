"""The repository benchmark: one command, two gated workloads and one more.

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and writes ``.perfbench/<workload>-seed<N>.perfetto.json``.
``--workload all`` runs every workload in turn, service-mixed included.
The last line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit code is 1 when an output check fails
and 2 when the program's sources are missing.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Any, Dict, List

from common import (
    SRC,
    WORK,
    LayerSampler,
    SpanLog,
    median,
    metric,
    peak_rss_mb,
    percentile,
    trimmed_mean,
)

#: The workloads BENCHMARK.json gates on.
WORKLOADS = ("paper-sweep", "archive-analytics")
#: Runnable and checked but not gated: its latencies moved with host
#: contention by more than any bound allows (see README.md).
UNGATED = ("service-mixed",)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: End-to-end metrics, reported by every workload (name -> unit).  What
#: "main" and "side" actions and "work" are differs per workload; a
#: "typical" latency is the mean of the middle 80% of samples.  See
#: README.md.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_share": "share",
    "main_typical_ms": "ms",
    "main_p90_ms": "ms",
    "side_typical_ms": "ms",
    "side_p90_ms": "ms",
    "work_per_s": "1/s",
}

_SWEEP_LAYER = {
    "harness.build_testbed_s": "s",
    "simmpi.mpirun_s": "s",
    "frameworks.finalize_s": "s",
    "des.events": "count",
    "des.us_per_event": "us",
    "simfs.pfs_ops_served": "count",
    "simfs.pfs_seeks": "count",
    "frameworks.trace_events": "count",
    "des.host_share": "share",
    "simos.host_share": "share",
    "simfs.host_share": "share",
    "cluster.host_share": "share",
    "simmpi.host_share": "share",
    "frameworks.host_share": "share",
    "workloads.host_share": "share",
    "bench.tracing_overhead_s": "s",
}

#: Per-layer metrics of the traced run (name -> unit).  Every gated
#: workload prints all of them; a layer a workload does not run reads 0.
PER_LAYER: Dict[str, str] = {
    **{name + sfx: unit for sfx in (".64k", ".8m") for name, unit in _SWEEP_LAYER.items()},
    "store.ingest_s": "s",
    "store.ingest_events_per_s": "1/s",
    "trace.encode_s": "s",
    "store.segments_new": "count",
    "store.segments_deduped": "count",
    "trace.bytes_per_event": "B",
    "trace.decode_s": "s",
    "store.manifests_ms": "ms",
    "store.query_ms.ops": "ms",
    "store.query_ms.bytes": "ms",
    "store.query_ms.bandwidth": "ms",
    "store.query_ms.events": "ms",
    "store.query_ms.dfg": "ms",
    "store.segments_scanned": "count",
    "store.segments_pruned": "count",
    "store.match_ratio": "share",
    "obs.fingerprint_ms": "ms",
    "obs.diagnose_s": "s",
    "obs.diagnose_runs_per_s": "1/s",
    "store.self_s": "s",
    "trace.self_s": "s",
    "obs.self_s": "s",
    "store.host_share": "share",
    "trace.host_share": "share",
    "obs.host_share": "share",
    "bench.tracing_overhead_ms": "ms",
}

#: Per-layer metrics of the service-mixed traced run.
SERVICE_LAYER: Dict[str, str] = {
    "service.http_ms": "ms",
    "service.wal_ms": "ms",
    "service.commit_ms": "ms",
    "service.bank_ms": "ms",
    "service.queue_depth_mean": "count",
    "service.status_429": "count",
    "service.commit_lag_ms": "ms",
    "service.drain_s": "s",
    "service.dedup_ratio": "ratio",
    "loadgen.lateness_p90_ms": "ms",
    "bench.tracing_overhead_ms": "ms",
}


def _module(name: str) -> Any:
    if name == "paper-sweep":
        import paper_sweep as mod
    elif name == "archive-analytics":
        import archive as mod
    else:
        import service_mixed as mod
    return mod


def load_references() -> Dict[str, Any]:
    from pathlib import Path

    path = Path(__file__).resolve().parent / "references.json"
    return json.loads(path.read_text("utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Set up, measure, check; return the result object for one workload."""
    mod = _module(name)
    setup_walls: List[float] = []
    state = None
    spans = SpanLog()
    sampler = LayerSampler() if trace else None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                mod.teardown(state)
                state = None
            t0 = time.perf_counter()
            state = mod.setup(seed)
            setup_walls.append(time.perf_counter() - t0)
        raw = mod.run(state, seed, seconds, trace, spans, sampler)
        # One paper-sweep reference serves every seed; archive-analytics
        # has one per recorded seed.
        reference = load_references().get(name)
        if name == "archive-analytics":
            reference = (reference or {}).get(str(seed))
        problems = mod.check(state, raw, reference)
    finally:
        if state is not None:
            mod.teardown(state)
    attempted, failed = raw["attempted"], raw["failed"]
    if trace:
        declared = PER_LAYER if name in WORKLOADS else SERVICE_LAYER
        metrics = {k: metric(0 if u == "count" else 0.0, u) for k, u in declared.items()}
        for key, value in mod.per_layer(state, raw, spans, sampler).items():
            metrics[key] = metric(value, declared[key])
        out = WORK / ("%s-seed%d.perfetto.json" % (name, seed))
        n_spans = spans.export(out)
        print("%s: %d spans -> %s" % (name, n_spans, out), file=sys.stderr)
    else:
        e2e = mod.end_to_end(raw)
        values = {
            "setup_s": median(setup_walls),
            "peak_rss_mb": max(peak_rss_mb(), raw.get("child_rss_mb", 0.0)),
            "completed_share": (attempted - failed) / attempted,
            "main_typical_ms": trimmed_mean(e2e["main_ms"]),
            "main_p90_ms": percentile(e2e["main_ms"], 0.90),
            "side_typical_ms": trimmed_mean(e2e["side_ms"]),
            "side_p90_ms": percentile(e2e["side_ms"], 0.90),
            "work_per_s": e2e["work_per_s"],
        }
        metrics = {k: metric(values[k], END_TO_END[k]) for k in END_TO_END}
        extra = {k: v for k, v in e2e.items() if k not in ("main_ms", "side_ms")}
        print("%s: %d main / %d side samples; %s"
              % (name, len(e2e["main_ms"]), len(e2e["side_ms"]), extra), file=sys.stderr)
    for problem in problems:
        print("CHECK FAILED %s: %s" % (name, problem), file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + UNGATED + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: the program's sources (%s) are missing" % (SRC / "repro"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A SIGTERM still runs every teardown, so no server child outlives
    # the benchmark.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS + UNGATED if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s.%s" % (n, k): v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
