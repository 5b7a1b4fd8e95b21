"""archive-analytics: ingest, query and diagnose a trace archive.

Set-up simulates a fixed set of traced bundles (LANL-Trace and Tracefs,
three patterns, 16 and 64 KiB blocks, three machines each so that
diagnosis has peer groups; the seed draws the machine seeds and the
ingest order).  Each timed iteration then ingests them into
``INGEST_PASSES`` fresh ``TraceBank``s with the program's default codec,
runs one sequential query suite (``run_query`` aggregates and
``build_dfg``) over the last and finishes with ``diagnose_archive``.  No
simulation runs in the timed part, so only the trace codec, store and
obs layers are exercised.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (
    WORK,
    LayerSampler,
    SpanLog,
    alternate,
    median,
    patch_everywhere,
    unpatch,
)

NPROCS = 4
BYTES_PER_RANK = 2 << 20
FRAMEWORKS = (("lanl-trace", "/pfs/perfbench.out"), ("tracefs", "/tmp/perfbench.out"))
FIGURES = (2, 3, 4)
BLOCK_SIZES = (16 << 10, 64 << 10)
MACHINES = 3
#: Fresh archives each iteration ingests the bundles into.  One ingest
#: pass takes a tenth of the query suite and diagnosis; several passes
#: give ingest enough of the run's time for its statistics to settle.
INGEST_PASSES = 4
#: Start of the simulated clock the frameworks stamp events with.
EPOCH = 1159808000.0
PLACEHOLDER = "<run>"
#: Significant digits floats keep in compared reports.
FLOAT_DIGITS = 9


def bundle_plan(seed: int) -> List[Dict[str, Any]]:
    """The bundles to simulate: every framework, pattern and block size on
    ``MACHINES`` machines whose seeds, and the ingest order, come from
    ``seed``.  The amount of work is the same for every seed."""
    rng = random.Random(seed)
    plan = [
        {"framework": fw, "path": path, "figure": fig, "block_size": bs,
         "machine": rng.randrange(1 << 16)}
        for fw, path in FRAMEWORKS for fig in FIGURES for bs in BLOCK_SIZES
        for _ in range(MACHINES)
    ]
    rng.shuffle(plan)
    return plan


def queries() -> List[Tuple[str, Any]]:
    """The query suite: (label, Query); labels starting ``dfg`` use build_dfg."""
    from repro.store import Query

    writes = ["SYS_write", "vfs_write", "MPI_File_write_at"]
    return [
        ("ops", Query.create(agg="ops")),
        ("ops-syscall", Query.create(agg="ops", layers=["syscall"])),
        ("ops-tracefs", Query.create(agg="ops", where={"framework": "tracefs"})),
        ("bytes", Query.create(agg="bytes")),
        ("bytes-writes", Query.create(agg="bytes", names=writes, ranks=[0, 1])),
        ("bandwidth", Query.create(agg="bandwidth", window=0.05)),
        ("events-open", Query.create(agg="events",
                                     names=["SYS_open", "vfs_open", "MPI_File_open"])),
        ("events-window", Query.create(agg="events", ranks=[0], names=writes,
                                       since=EPOCH, until=EPOCH + 0.2)),
        ("events-glob", Query.create(agg="events", path_glob="/tmp/*",
                                     names=["vfs_statfs", "vfs_open"])),
        ("dfg", Query.create()),
        ("dfg-lanl", Query.create(layers=["syscall"],
                                  where={"framework": "lanl-trace"})),
    ]


def _simulate(item: Dict[str, Any]) -> Tuple[Any, Dict[str, Any]]:
    from repro.harness.experiment import run_traced, sweep_args_for_block_size
    from repro.harness.figures import FIGURE_PATTERNS, paper_testbed
    from repro.harness.parallel import WORKLOADS, FrameworkSpec

    args = sweep_args_for_block_size(
        {"pattern": FIGURE_PATTERNS[item["figure"]], "path": item["path"]},
        item["block_size"], BYTES_PER_RANK,
    )
    _outcome, traced = run_traced(
        FrameworkSpec.create(item["framework"]).build, WORKLOADS["mpi_io_test"],
        args, paper_testbed(seed=item["machine"], nprocs=NPROCS), NPROCS,
        item["machine"],
    )
    meta = {
        "kind": "perfbench",
        "framework": item["framework"],
        "workload": "mpi_io_test",
        "workload_args": {"figure": item["figure"], "block_size": item["block_size"]},
        "nprocs": NPROCS,
        "seed": item["machine"],
    }
    return traced.bundle, meta


def setup(seed: int) -> Dict[str, Any]:
    return {"bundles": [_simulate(item) for item in bundle_plan(seed)]}


def teardown(state: Dict[str, Any]) -> None:
    shutil.rmtree(WORK / "archive", ignore_errors=True)


# -- normalization and checks -------------------------------------------------


def scrub(obj: Any, run_ids: List[str]) -> Any:
    """``obj`` with every run id replaced by a placeholder and every float
    rounded to ``FLOAT_DIGITS`` significant digits.

    Run ids embed the segment codec, so two archives of the same traces
    under different codecs differ there.  Lists whose order followed run
    ids (any list holding a placeholder) are put in canonical order.
    Float sums differ in their last bits with summation order, which
    differs between codecs.
    """
    from repro.obs.metrics import canonical_json

    if isinstance(obj, float):
        return float("%.*g" % (FLOAT_DIGITS, obj))
    if isinstance(obj, str):
        for rid in run_ids:
            if rid in obj:
                obj = obj.replace(rid, PLACEHOLDER)
        return obj
    if isinstance(obj, dict):
        return {scrub(k, run_ids): scrub(v, run_ids) for k, v in obj.items()}
    if isinstance(obj, list):
        items = [scrub(v, run_ids) for v in obj]
        keyed = [(canonical_json(v), v) for v in items]
        if any(PLACEHOLDER in k for k, _ in keyed):
            items = [v for _k, v in sorted(keyed, key=lambda kv: kv[0])]
        return items
    return obj


def digests(reports: Dict[str, Any], run_ids: List[str]) -> Dict[str, str]:
    """sha256 of each scrubbed report in canonical JSON."""
    from repro.obs.metrics import canonical_json

    return {
        label: hashlib.sha256(
            canonical_json(scrub(rep, run_ids)).encode("utf-8")
        ).hexdigest()
        for label, rep in reports.items()
    }


def answer_all(bank: Any, spans: Optional[SpanLog] = None
               ) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Run the query suite and diagnosis over ``bank``.

    Returns label -> report and label -> wall seconds.
    """
    from repro.obs.diagnose import diagnose_archive
    from repro.store import run_query
    from repro.store.dfg import build_dfg

    spans = spans or SpanLog()
    reports: Dict[str, Any] = {}
    walls: Dict[str, float] = {}
    for label, q in queries():
        t0 = time.perf_counter()
        with spans.span("query " + label, "store"):
            reports[label] = build_dfg(bank, q) if label.startswith("dfg") else run_query(bank, q)
        walls[label] = time.perf_counter() - t0
    t0 = time.perf_counter()
    with spans.span("diagnose_archive", "obs"):
        reports["diagnose"] = diagnose_archive(str(bank.root))
    walls["diagnose"] = time.perf_counter() - t0
    return reports, walls


def oracle_digests(bundles: List[Tuple[Any, Dict[str, Any]]], codec: str,
                   root: Any) -> Dict[str, str]:
    """Digests of the suite over an archive written with an explicit codec."""
    from repro.store import TraceBank

    bank = TraceBank(root)
    for bundle, meta in bundles:
        bank.ingest_bundle(bundle, meta=meta, codec=codec)
    return digests(answer_all(bank)[0], bank.run_ids())


def check(state: Dict[str, Any], raw: Dict[str, Any],
          reference: Optional[Dict[str, str]]) -> List[str]:
    """Every iteration answered identically, verify passed, and the
    answers match the recorded reference (or, for a seed without one,
    the same archive written under every segment codec)."""
    from repro.store.segments import CODECS

    problems = list(raw["verify_problems"])
    got = raw["digests"]
    if any(d != got[0] for d in got[1:]):
        problems.append("iterations disagree on the reports")
    if reference is not None:
        want = {"reference": reference}
    else:
        want = {}
        for codec in CODECS:
            root = WORK / "archive" / ("oracle-" + codec)
            want["codec " + codec] = oracle_digests(state["bundles"], codec, root)
            shutil.rmtree(root, ignore_errors=True)
    for source, expected in want.items():
        for label in sorted(set(expected) | set(got[0])):
            if got[0].get(label) != expected.get(label):
                problems.append("%s report differs from the %s" % (label, source))
    return problems


# -- the timed loop -------------------------------------------------------------


class _Probe:
    """Timing wrappers around the codec, manifest and fingerprint entry
    points, installed from outside for the traced run."""

    def __init__(self, spans: SpanLog) -> None:
        self.spans = spans
        self.sinks: Dict[str, List[float]] = {
            "encode": [], "decode": [], "manifests": [], "fingerprint": []
        }
        self._undo: List[Callable[[], None]] = []

    def install(self) -> None:
        from repro.obs import diagnose
        from repro.store import segments
        from repro.store.bank import TraceBank
        from repro.trace import columnar

        wrap = self.spans.wrap
        for fn, name, layer, sink in (
            (segments.encode_segment, "encode", "trace", "encode"),
            (segments.decode_segment, "decode", "trace", "decode"),
            (columnar.read_columns, "read_columns", "trace", "decode"),
            (diagnose.fingerprint_run, "fingerprint", "obs", "fingerprint"),
        ):
            patched = patch_everywhere(fn, wrap(fn, name, layer, self.sinks[sink]))
            self._undo.append(lambda p=patched, f=fn: unpatch(p, f))
        real = TraceBank.manifests
        TraceBank.manifests = wrap(real, "manifests", "store", self.sinks["manifests"])
        self._undo.append(lambda: setattr(TraceBank, "manifests", real))

    def uninstall(self) -> None:
        for undo in self._undo:
            undo()
        self._undo = []

    def take(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {k: sum(v) for k, v in self.sinks.items()}
        out["fingerprint_ms"] = [v * 1e3 for v in self.sinks["fingerprint"]]
        for sink in self.sinks.values():
            sink.clear()
        return out


def run(state: Dict[str, Any], seed: int, seconds: float, trace: bool,
        spans: SpanLog, sampler: Optional[LayerSampler]) -> Dict[str, Any]:
    """Repeat the ingest-query-diagnose iteration until ``seconds`` pass.

    In a traced run, iterations alternate between fully instrumented
    (probe installed, spans and sampler on) and bare, so the off
    iterations measure the program as the untraced run does.
    """
    from repro.store import TraceBank

    bundles = state["bundles"]
    probe = _Probe(spans)
    query_ms: Dict[str, List[float]] = {}
    ingest_ms: List[float] = []
    diagnose_s: List[float] = []
    iterations: List[Dict[str, Any]] = []
    all_digests: List[Dict[str, str]] = []
    verify_problems: List[str] = []
    attempted = 0
    t_end = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < t_end:
        on = alternate(trace, i)
        root = WORK / "archive" / ("bank%d" % i)
        shutil.rmtree(root, ignore_errors=True)
        if on:
            probe.install()
            spans.enabled = True
            if sampler is not None:
                sampler.start("archive")
        try:
            t_iter = time.perf_counter()
            passes: List[float] = []
            with spans.span("iteration %d" % i, "bench"):
                for k in range(INGEST_PASSES):
                    bank = TraceBank(root / str(k))
                    results = []
                    for bundle, meta in bundles:
                        t0 = time.perf_counter()
                        with spans.span("ingest_bundle", "store"):
                            results.append(bank.ingest_bundle(bundle, meta=meta))
                        ingest_ms.append((time.perf_counter() - t0) * 1e3)
                    passes.append(sum(ingest_ms[-len(bundles):]) / 1e3)
                reports, per_query = answer_all(bank, spans)
            iter_wall = time.perf_counter() - t_iter
        finally:
            if on:
                if sampler is not None:
                    sampler.stop()
                spans.enabled = False
                probe.uninstall()
        attempted += INGEST_PASSES * len(bundles) + len(per_query)
        diagnose_s.append(per_query.pop("diagnose"))
        for label, wall in per_query.items():
            query_ms.setdefault(label, []).append(wall * 1e3)
        events = sum(r.events for r in results)
        row: Dict[str, Any] = {
            "on": on, "wall": iter_wall, "passes": passes, "events": events,
            "new": sum(r.new_segments for r in results),
            "deduped": sum(r.deduped_segments for r in results),
            "queries": per_query, "diagnose_s": diagnose_s[-1],
            "runs": len(bank.run_ids()),
        }
        if on:
            row.update(probe.take())
        if i == 0:
            verify = bank.verify()
            if not verify.get("ok"):
                verify_problems.append("verify after ingest: %s" % verify.get("errors"))
            row["layout"] = _layout(bank, reports)
        all_digests.append(digests(reports, bank.run_ids()))
        iterations.append(row)
        shutil.rmtree(root, ignore_errors=True)
        i += 1
    return {
        "attempted": attempted, "failed": 0, "query_ms": query_ms,
        "ingest_ms": ingest_ms, "diagnose_s": diagnose_s, "iterations": iterations,
        "digests": all_digests, "verify_problems": verify_problems,
        "runs": iterations[0]["runs"],
    }


def _layout(bank: Any, reports: Dict[str, Any]) -> Dict[str, float]:
    """Space per event and pushdown effectiveness of the query suite."""
    from repro.store.query import select_shards

    manifests = bank.manifests()
    seg_events = {(m.run_id, s.rank, s.sha256): s.n_events
                  for m in manifests for s in m.segments}
    encoded = sum(s.encoded_bytes for m in manifests for s in m.segments)
    events = sum(m.n_events for m in manifests)
    scanned = pruned = matched = in_scanned = 0
    for label, q in queries():
        scan = reports[label]["scan"]
        scanned += scan["segments_scanned"]
        pruned += scan["segments_pruned"]
        matched += scan["events_matched"]
        _sel, shards, _stats = select_shards(bank, q)
        in_scanned += sum(seg_events[(rid, rank, sha)] for _root, rid, rank, sha in shards)
    return {
        "bytes_per_event": encoded / events,
        "scanned": scanned,
        "pruned": pruned,
        "match_ratio": matched / in_scanned if in_scanned else 0.0,
    }


def end_to_end(raw: Dict[str, Any]) -> Dict[str, Any]:
    """Main actions are queries, side actions bundle ingests; work is
    ingested events per second.  Diagnosis cost follows how many outliers
    the seed's machines produce, so it is reported per layer only."""
    runs = raw["runs"]
    return {
        "main_ms": [v for vs in raw["query_ms"].values() for v in vs],
        "side_ms": raw["ingest_ms"],
        "work_per_s": median([it["events"] / s for it in raw["iterations"]
                              for s in it["passes"]]),
        "diagnose_runs_per_s": median([runs / s for s in raw["diagnose_s"]]),
    }


def per_layer(state: Dict[str, Any], raw: Dict[str, Any], spans: SpanLog,
              sampler: LayerSampler) -> Dict[str, float]:
    on = [it for it in raw["iterations"] if it["on"]]
    off = [it for it in raw["iterations"] if not it["on"]]
    layout = raw["iterations"][0]["layout"]

    def med(key: str) -> float:
        return median([it[key] for it in on])

    out: Dict[str, float] = {
        "store.ingest_s": median([s for it in on for s in it["passes"]]),
        "store.ingest_events_per_s": median([it["events"] / s for it in on
                                             for s in it["passes"]]),
        "trace.encode_s": med("encode") / INGEST_PASSES,
        "store.segments_new": on[0]["new"],
        "store.segments_deduped": on[0]["deduped"],
        "trace.bytes_per_event": layout["bytes_per_event"],
        "trace.decode_s": med("decode"),
        "store.manifests_ms": median([it["manifests"] * 1e3 / len(it["queries"])
                                      for it in on]),
        "store.segments_scanned": layout["scanned"],
        "store.segments_pruned": layout["pruned"],
        "store.match_ratio": layout["match_ratio"],
        "obs.fingerprint_ms": median([v for it in on for v in it["fingerprint_ms"]]),
        "obs.diagnose_s": med("diagnose_s"),
        "obs.diagnose_runs_per_s": median([it["runs"] / it["diagnose_s"] for it in on]),
        "bench.tracing_overhead_ms": (median([it["wall"] for it in on])
                                      - median([it["wall"] for it in off])) * 1e3,
    }
    for agg in ("ops", "bytes", "bandwidth", "events", "dfg"):
        out["store.query_ms." + agg] = median([
            v * 1e3 for it in on for label, v in it["queries"].items()
            if label.split("-")[0] == agg
        ])
    self_s = spans.self_times()
    shares = sampler.shares("archive")
    for layer in ("store", "trace", "obs"):
        out[layer + ".self_s"] = self_s.get(layer, 0.0) / len(on)
        out[layer + ".host_share"] = shares.get(layer, 0.0)
    return out
