"""Command-line interface: ``python -m repro <command>``.

Commands:

``table2 [--format text|markdown|csv]``
    Render the paper's Table 2 (classification of all registered
    frameworks' published values).
``classify NAME``
    One framework's classification as a Table-1-style reference card.
``recommend [constraint flags]``
    Formalize tracing requirements and rank the frameworks (§5).
``figure N [--quick] [--jobs N] [--no-cache] [--telemetry]``
    Regenerate Figure 2, 3 or 4 on the simulated testbed.  With
    ``--telemetry`` every point also exports a metrics snapshot and a
    Perfetto-loadable Chrome trace into ``--telemetry-out`` (default
    ``telemetry/``).
``figures [--quick] [--jobs N] [--no-cache] [--bench-out PATH] [--telemetry]``
    Regenerate Figures 2-4 and the §4.1.1 overhead range as one sweep —
    points fan out over ``--jobs`` worker processes, results are memoized
    in ``.repro-cache/`` (disable with ``--no-cache``), and a
    ``BENCH_sweep.json`` artifact records wall-clock per point, events/sec,
    and the cache hit rate.  ``--progress`` (or a tty stderr) shows live
    ``N/M points, ETA`` lines while the sweep runs.
``chaos [--matrix NAME] [--frameworks ...] [--jobs N] [--report-out PATH]``
    Run a named fault matrix (node crash, network partition, disk storms)
    against the paper's frameworks under the simulator-wide fault plane,
    reporting per-scenario survival and overhead deltas versus the
    no-fault baseline.  Every scenario is bounded by a simulated-time
    horizon with exponential-backoff retries — no hangs — and the matrix
    is byte-deterministic across ``--jobs`` values and warm-cache reruns.
``observe PATH [--validate]``
    Summary report of a telemetry artifact written by ``--telemetry``
    (per-layer call mix, bytes moved, utilizations, span counts);
    ``--validate`` additionally checks the embedded Chrome trace against
    the trace-event schema.
``summarize TRACE``
    Call summary of a trace file (text ``.trace`` or binary ``.bin``).
``convert IN OUT``
    Convert a trace between the human-readable and binary formats
    (direction inferred from file extensions).
``anonymize IN OUT [--mode randomize|encrypt] [--key HEX] [--fields ...]``
    Anonymize a trace file for release.
``obs diff|critpath|slice|diagnose|check``
    The regression observatory.  ``diff`` structurally compares two
    runs' telemetry (counter deltas, histogram divergence, span-tree
    alignment with per-layer self-time deltas) — runs are addressed by
    telemetry file or TraceBank run-id prefix.  ``critpath`` attributes
    self time to stack layers, names the straggler rank chain bounding
    elapsed time, and exports collapsed-stack flamegraph lines.
    ``slice`` extracts the causal slice explaining one run's latency
    around an anchor (the straggler by default, or ``--rank``/``--op``/
    ``--path``): per-layer attributed time in the anchor window, the
    cross-layer bounding chain, overlapping injected faults, and ranked
    suspect layers, with ``--perfetto``/``--flame`` renderings.
    ``diagnose`` runs archive-scale anomaly diagnosis over a TraceBank:
    fingerprints every archived run (DFG shape + per-layer self time),
    clusters by fingerprint distance, flags outliers with median/MAD
    scoring against their peer group (or ``--against`` a pinned
    baseline run), auto-slices each outlier, and prints the ranked
    "suspect layer + op + rank" table — byte-identical for any
    ``--jobs``.  ``check`` gates the latest ``BENCH_history.jsonl``
    record (appended by ``figures --baseline``) with median/MAD change
    detection; ``--fail-on-regression`` exits nonzero when a metric
    regressed.
``store ingest|ls|query|dfg|verify|gc``
    The TraceBank trace archive: ingest trace files or whole sweeps
    (``--store`` on ``figure``/``figures``/``chaos`` auto-archives every
    traced bundle in columnar v2 segments that queries scan by column
    projection; ``--codec v1`` writes row-major segments, which every
    reader still accepts), list runs, run filtered/aggregated
    queries and
    directly-follows graphs over the archive (``--jobs`` fans shard scans
    over processes with byte-identical output), verify end-to-end
    integrity, and garbage-collect unreferenced segments.
``zoo ls|describe|run|matrix|replay``
    The workload zoo.  ``ls``/``describe`` browse the scenario registry
    (checkpoint/restart with burst-buffer tiering, ML-epoch shuffled
    reads, log-structured append+compaction, metadata storm); ``run``/
    ``matrix`` execute scenarios through the §3.1 harness (same sweep
    flags as ``figures``: ``--jobs``, run cache, ``--store`` archiving,
    ``--baseline`` gate records) and check each archived trace against
    the scenario's declared I/O signature; ``--replay-check`` closes the
    loop by replaying every archived run from its run id and requiring
    an exact fidelity report.  ``replay`` takes any trace source — a
    TraceBank run-id prefix, a raw ``strace -f -T -ttt`` capture, or
    library trace files — compiles it to a pseudo-application, replays
    it on a fresh simulated cluster under a documented timing policy
    (``afap`` or ``preserve``), and prints the per-op-class fidelity
    report.
``service serve|ingest|query|loadgen``
    TraceBank as a service: ``serve`` boots the stdlib-asyncio HTTP API
    (per-tenant namespaces over one shared segment pool, write-ahead
    ingest queue with 429 backpressure); ``ingest``/``query`` are thin
    HTTP clients (a service query answer is byte-identical to ``store
    query --json`` over the same namespace); ``loadgen`` hammers a live
    server with a deterministic multi-client ingest/query mix and writes
    ``BENCH_service.json`` (req/s, p50/p99 latency, dedup ratio).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.casestudy import paper_table2
from repro.core.requirements import Requirements, recommend
from repro.core.summary_table import render_csv, render_markdown, render_summary_table
from repro.errors import ReproError
from repro.store.segments import CODECS, DEFAULT_CODEC
from repro.trace import binary_format, text_format
from repro.trace.anonymize import (
    ANONYMIZABLE_FIELDS,
    FieldSelectiveAnonymizer,
    RandomizingAnonymizer,
)
from repro.trace.records import TraceFile

__all__ = ["main", "build_parser"]


def _load_trace(path: Path) -> TraceFile:
    data = path.read_bytes()
    if data[:4] == binary_format.MAGIC:
        return binary_format.decode_trace_file(data)
    return text_format.decode_trace_file(data.decode("utf-8"))


def _store_trace(tf: TraceFile, path: Path) -> None:
    if path.suffix in (".bin", ".rtb"):
        path.write_bytes(binary_format.encode_trace_file(tf))
    else:
        path.write_text(text_format.encode_trace_file(tf))


def _cmd_table2(args: argparse.Namespace) -> int:
    classifications = list(paper_table2().values())
    if args.include_extensions:
        from repro.frameworks.netmsg import MsgTrace

        classifications.append(MsgTrace().classification())
    renderer = {
        "text": render_summary_table,
        "markdown": render_markdown,
        "csv": render_csv,
    }[args.format]
    print(renderer(classifications), end="")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    # Importing the framework packages populates the registry.
    import repro.frameworks.lanltrace  # noqa: F401
    import repro.frameworks.netmsg  # noqa: F401
    import repro.frameworks.ptrace  # noqa: F401
    import repro.frameworks.tracefs  # noqa: F401
    from repro.frameworks.base import FRAMEWORK_REGISTRY

    table = paper_table2()
    by_alias = {
        "lanl-trace": table["LANL-Trace"],
        "tracefs": table["Tracefs"],
        "ptrace": table["//TRACE"],
        "//trace": table["//TRACE"],
    }
    name = args.name.lower()
    if name in by_alias:
        print(render_summary_table(by_alias[name]), end="")
        return 0
    cls = FRAMEWORK_REGISTRY.get(name)
    if cls is None:
        print(
            "unknown framework %r (known: %s)"
            % (args.name, ", ".join(sorted(set(by_alias) | set(FRAMEWORK_REGISTRY)))),
            file=sys.stderr,
        )
        return 2
    print(render_summary_table(cls().classification()), end="")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    reqs = Requirements(
        need_parallel_fs=args.parallel_fs,
        min_anonymization=args.min_anonymization,
        need_replayable=args.replayable,
        need_dependencies=args.dependencies,
        need_analysis_tools=args.analysis_tools,
        need_skew_drift_accounting=args.skew_drift,
        min_granularity_control=args.min_granularity,
        max_install_difficulty=args.max_install,
        max_elapsed_overhead_percent=args.max_overhead,
    )
    for rec in recommend(reqs, paper_table2().values()):
        print(rec.render())
    return 0


def _sweep_shape(quick: bool):
    from repro.units import KiB, MiB

    if quick:
        return [64 * KiB, 1024 * KiB], 8 * MiB, 16
    return None, 32 * MiB, 32


def _make_cache(args: argparse.Namespace):
    if args.no_cache:
        return None
    from repro.harness.runcache import RunCache

    return RunCache(args.cache_dir)


def _make_progress(args: argparse.Namespace):
    """A live ``N/M points, ETA`` stderr reporter, or None when unwanted.

    Enabled by ``--progress`` or automatically when stderr is a tty.  The
    callback runs in the parent process only (workers never print), and
    only observes the sweep — results are byte-identical without it.
    """
    import time as _time

    if not (getattr(args, "progress", False) or sys.stderr.isatty()):
        return None
    t0 = _time.perf_counter()

    def progress(done: int, total: int, _point) -> None:
        elapsed = _time.perf_counter() - t0
        if done < total:
            eta = elapsed / done * (total - done) if done else 0.0
            sys.stderr.write(
                "\rsweep: %d/%d points, ETA %.1fs " % (done, total, eta)
            )
        else:
            sys.stderr.write(
                "\rsweep: %d/%d points, %.1fs      \n" % (done, total, elapsed)
            )
        sys.stderr.flush()

    return progress


def _write_telemetry_artifacts(outdir: str, entries) -> List[Path]:
    """Write per-point telemetry artifacts; returns the file paths.

    ``entries`` yields ``(figure_number, block_size, point)`` where the
    point carries a telemetry payload dict.  Each point produces the full
    combined payload (``*.telemetry.json``) plus one directly
    Perfetto-loadable Chrome trace per run (``*.{untraced,traced}.trace.json``).
    All files are canonical JSON, so same-seed re-runs rewrite identical bytes.
    """
    from repro.obs.metrics import canonical_json

    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for figno, block_size, point in entries:
        payloads = getattr(point, "telemetry", None)
        if not payloads:
            continue
        stem = "fig%d_bs%d" % (figno, block_size)
        combined = root / (stem + ".telemetry.json")
        combined.write_text(canonical_json(payloads) + "\n")
        written.append(combined)
        for run_name, payload in sorted(payloads.items()):
            trace_path = root / ("%s.%s.trace.json" % (stem, run_name))
            trace_path.write_text(canonical_json(payload["trace"]) + "\n")
            written.append(trace_path)
    return written


def _report_archived(points) -> None:
    """Print the post-sweep archive line for points that carried run ids."""
    run_ids = sorted(
        {p.store_run_id for p in points if getattr(p, "store_run_id", None)}
    )
    if run_ids:
        print("archived %d run(s) into the trace store" % len(run_ids))


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness.figures import figure_series
    from repro.harness.report import render_figure

    blocks, total, nprocs = _sweep_shape(args.quick)
    series = figure_series(
        args.number,
        block_sizes=blocks,
        total_bytes_per_rank=total,
        nprocs=nprocs,
        jobs=args.jobs,
        cache=_make_cache(args),
        telemetry=args.telemetry,
        progress=_make_progress(args),
        store=args.store,
        store_codec=args.codec,
    )
    print(render_figure(series), end="")
    _report_archived(series.measurements)
    if args.telemetry:
        written = _write_telemetry_artifacts(
            args.telemetry_out,
            (
                (args.number, p.block_size, m)
                for p, m in zip(series.points, series.measurements)
            ),
        )
        print("wrote %d telemetry artifact(s) to %s" % (len(written), args.telemetry_out))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import json

    from repro.harness.figures import run_figures
    from repro.harness.report import render_figure, render_overhead_range

    blocks, total, nprocs = _sweep_shape(args.quick)
    cache = _make_cache(args)
    sweep = run_figures(
        figures=(2, 3, 4),
        block_sizes=blocks,
        total_bytes_per_rank=total,
        nprocs=nprocs,
        jobs=args.jobs,
        cache=cache,
        telemetry=args.telemetry,
        progress=_make_progress(args),
        store=args.store,
        store_codec=args.codec,
    )
    _report_archived(
        m for figno in sorted(sweep.series) for m in sweep.series[figno].measurements
    )
    for figno in sorted(sweep.series):
        print(render_figure(sweep.series[figno]), end="")
        print()
    print(render_overhead_range(sweep.overhead_range, 24, 222), end="")
    report = sweep.report
    print(
        "\nsweep: %d points, jobs=%d, %.2fs wall, cache %d hit / %d miss"
        % (
            report.n_points,
            report.jobs,
            report.wall_seconds,
            report.cache_hits,
            report.cache_misses,
        )
    )
    bench = {
        "schema": "repro/bench_sweep/v1",
        "command": "figures",
        "quick": bool(args.quick),
        "jobs": report.jobs,
        "nprocs": nprocs,
        "wall_seconds": report.wall_seconds,
        "cache": {
            "enabled": cache is not None,
            "dir": None if cache is None else str(cache.root),
            "hits": report.cache_hits,
            "misses": report.cache_misses,
            "hit_rate": report.cache_hit_rate,
        },
        "points": sweep.bench_points,
        "elapsed_overhead_range": sweep.overhead_range,
    }
    if args.bench_out:
        Path(args.bench_out).write_text(json.dumps(bench, indent=2) + "\n")
        print("wrote %s" % args.bench_out)
    if args.telemetry:
        written = _write_telemetry_artifacts(
            args.telemetry_out,
            (
                (figno, p.block_size, m)
                for figno in sorted(sweep.series)
                for p, m in zip(
                    sweep.series[figno].points, sweep.series[figno].measurements
                )
            ),
        )
        print("wrote %d telemetry artifact(s) to %s" % (len(written), args.telemetry_out))
    if args.baseline:
        from repro.obs.baseline import append_history, make_record

        record = make_record(
            sweep.bench_points,
            quick=bool(args.quick),
            nprocs=nprocs,
            jobs=report.jobs,
            label=args.baseline_label,
        )
        idx = append_history(args.baseline, record)
        print(
            "appended baseline record #%d (%d point(s)) to %s"
            % (idx, len(sweep.bench_points), args.baseline)
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults.chaos import (
        CHAOS_FRAMEWORKS,
        render_chaos_report,
        run_chaos_matrix,
    )

    frameworks = tuple(args.frameworks) if args.frameworks else CHAOS_FRAMEWORKS
    report = run_chaos_matrix(
        matrix=args.matrix,
        frameworks=frameworks,
        jobs=args.jobs,
        cache=_make_cache(args),
        progress=_make_progress(args),
        store=args.store,
        store_codec=args.codec,
    )
    print(render_chaos_report(report), end="")
    archived = sorted(
        {r["store_run_id"] for r in report["rows"] if r.get("store_run_id")}
    )
    if archived:
        print("archived %d run(s) into the trace store" % len(archived))
    if args.report_out:
        from repro.obs.metrics import canonical_json

        Path(args.report_out).write_text(canonical_json(report) + "\n")
        print("wrote %s" % args.report_out)
    return 0


def _is_store_dir(path: Path) -> bool:
    """True when ``path`` is a TraceBank archive root (has STORE.json)."""
    return path.is_dir() and (path / "STORE.json").is_file()


def _cmd_zoo_ls(args: argparse.Namespace) -> int:
    from repro.zoo import SCENARIOS

    print("%-14s %-7s %-22s %-9s %s"
          % ("name", "nprocs", "workload", "dominant", "title"))
    print("-" * 96)
    for sc in SCENARIOS.values():
        print(
            "%-14s %-7d %-22s %-9s %s"
            % (sc.name, sc.nprocs, sc.workload,
               sc.signature_dict().get("dominant", "?"), sc.title)
        )
    return 0


def _cmd_zoo_describe(args: argparse.Namespace) -> int:
    from repro.obs.metrics import canonical_json
    from repro.zoo import get

    sc = get(args.scenario)
    if args.json:
        print(canonical_json(sc.describe()))
        return 0
    d = sc.describe()
    print("%s — %s" % (sc.name, sc.title))
    print("  %s" % sc.description)
    print("  workload:  %s  (framework %s, %d ranks)"
          % (d["workload"], d["framework"], d["nprocs"]))
    print("  signature: %s" % ", ".join(
        "%s=%s" % kv for kv in sorted(d["signature"].items())))
    print("  parameters (full scale -> smoke overrides):")
    for k, desc in d["param_space"].items():
        smoke = d["smoke_args"].get(k)
        print("    %-20s %-12s %s"
              % (k,
                 "%s%s" % (d["base_args"].get(k),
                           "" if smoke is None else " -> %s" % smoke),
                 desc))
    return 0


def _run_zoo(args: argparse.Namespace, scenarios) -> int:
    """Shared body of ``zoo run`` and ``zoo matrix``."""
    from repro.obs.metrics import canonical_json
    from repro.zoo import ZOO_NPROCS, bench_points, render_zoo_report, run_zoo_matrix

    report = run_zoo_matrix(
        scenarios=scenarios,
        smoke=args.smoke,
        seed=args.seed,
        jobs=args.jobs,
        cache=_make_cache(args),
        progress=_make_progress(args),
        framework=args.framework,
        store=args.store,
        store_codec=args.codec,
        replay_check=args.replay_check,
    )
    print(render_zoo_report(report), end="")
    ex = report["execution"]
    print(
        "\nzoo: %d point(s), jobs=%d, %.2fs wall, cache %d hit / %d miss"
        % (report["summary"]["points"], ex["jobs"], ex["wall_seconds"],
           ex["cache_hits"], ex["cache_misses"])
    )
    if args.replay_check:
        exact = report["summary"]["replay_exact"]
        print("replay check: %d/%d exact" % (exact, report["summary"]["archived"]))
    if getattr(args, "bench_out", None):
        bench = {
            "schema": "repro/bench_sweep/v1",
            "command": "zoo",
            "quick": bool(args.smoke),
            "jobs": ex["jobs"],
            "nprocs": ZOO_NPROCS,
            "wall_seconds": ex["wall_seconds"],
            "points": bench_points(report),
        }
        import json

        Path(args.bench_out).write_text(json.dumps(bench, indent=2) + "\n")
        print("wrote %s" % args.bench_out)
    if getattr(args, "baseline", None):
        from repro.obs.baseline import append_history, make_record

        record = make_record(
            bench_points(report),
            quick=bool(args.smoke),
            nprocs=ZOO_NPROCS,
            jobs=ex["jobs"],
            label=args.baseline_label,
        )
        idx = append_history(args.baseline, record)
        print("appended baseline record #%d to %s" % (idx, args.baseline))
    if args.report_out:
        Path(args.report_out).write_text(canonical_json(report) + "\n")
        print("wrote %s" % args.report_out)
    if args.replay_check and report["summary"]["replay_exact"] < report["summary"]["archived"]:
        return 1
    return 0


def _cmd_zoo_run(args: argparse.Namespace) -> int:
    return _run_zoo(args, [args.scenario])


def _cmd_zoo_matrix(args: argparse.Namespace) -> int:
    return _run_zoo(args, args.scenarios or None)


def _cmd_zoo_replay(args: argparse.Namespace) -> int:
    from repro.obs.metrics import canonical_json
    from repro.zoo import render_fidelity_report, replay_pipeline

    report = replay_pipeline(
        args.sources,
        store=args.store,
        layer=args.layer,
        timing=args.timing,
        seed=args.seed,
        honor_sync=not args.no_sync,
        per_event_overhead=args.per_event_overhead,
        remap_root=args.remap_root,
    )
    print(render_fidelity_report(report), end="")
    if args.report_out:
        Path(args.report_out).write_text(canonical_json(report) + "\n")
        print("wrote %s" % args.report_out)
    return 0 if report["exact"] or not args.require_exact else 1


def _cmd_observe(args: argparse.Namespace) -> int:
    import json

    from repro.errors import TelemetryError
    from repro.obs.perfetto import validate_chrome_trace
    from repro.obs.report import render_payload_summary

    path = Path(args.path)
    if _is_store_dir(path):
        from repro.store import TraceBank, render_store_summary

        bank = TraceBank(path, create=False)
        print(render_store_summary(bank.stats()), end="")
        for m in bank.manifests():
            print(
                "  %s  %-6s %-12s %4d seg  %6d events"
                % (
                    m.run_id[:12],
                    str(m.meta.get("kind", "?")),
                    str(m.meta.get("framework", "?")),
                    len(m.segments),
                    m.n_events,
                )
            )
        return 0
    obj = json.loads(path.read_text("utf-8"))
    # Accept all three artifact shapes: a combined {untraced, traced} file,
    # a single payload, or a bare Chrome trace (validate-only).
    if isinstance(obj, dict) and obj.get("schema") == "repro/telemetry/v1":
        payloads = {"": obj}
    elif isinstance(obj, dict) and {"untraced", "traced"} <= set(obj):
        payloads = {name: obj[name] for name in ("untraced", "traced")}
    elif isinstance(obj, (list, dict)) and (
        isinstance(obj, list) or "traceEvents" in obj
    ):
        validate_chrome_trace(obj)
        events = obj if isinstance(obj, list) else obj["traceEvents"]
        print("valid Chrome trace: %d events" % len(events))
        return 0
    else:
        raise TelemetryError(
            "%s is not a telemetry artifact (expected a repro/telemetry/v1 "
            "payload, an {untraced, traced} pair, or a Chrome trace)" % args.path
        )
    for i, (label, payload) in enumerate(payloads.items()):
        if i:
            print()
        print(render_payload_summary(payload, label=label), end="")
        if args.validate:
            validate_chrome_trace(payload["trace"])
            print("trace: valid (%d events)" % len(payload["trace"]["traceEvents"]))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.analysis.summary import summarize_calls, summarize_store

    path = Path(args.trace)
    if _is_store_dir(path):
        summary = summarize_store(str(path), jobs=args.jobs)
        print("# store-backed summary of %s (%d functions)" % (path, len(summary)))
    else:
        tf = _load_trace(path)
        summary = summarize_calls(tf.events)
        print("# %d events from %s (pid %d, rank %s)"
              % (len(tf), tf.hostname or "?", tf.pid, tf.rank))
    print("%-28s %15s %25s" % ("Function Name", "Number of Calls", "Total time (s)"))
    for row in summary.rows():
        print("%-28s %15d %25.6f" % (row.name, row.n_calls, row.total_time))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    tf = _load_trace(Path(args.input))
    _store_trace(tf, Path(args.output))
    print("converted %d events: %s -> %s" % (len(tf), args.input, args.output))
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    tf = _load_trace(Path(args.input))
    fields = frozenset(args.fields) if args.fields else ANONYMIZABLE_FIELDS
    if args.mode == "randomize":
        anonymizer = RandomizingAnonymizer(fields)
    else:
        if not args.key:
            print("encrypt mode requires --key (32 hex chars)", file=sys.stderr)
            return 2
        anonymizer = FieldSelectiveAnonymizer(
            fields, mode="encrypt", key=bytes.fromhex(args.key)
        )
    _store_trace(tf.map(anonymizer), Path(args.output))
    print("anonymized %d events (%s: %s) -> %s"
          % (len(tf), args.mode, ", ".join(sorted(fields)), args.output))
    return 0


# -- obs commands ------------------------------------------------------------


def _load_telemetry_payload(source: str, store: str, run: str):
    """Resolve one diff/critpath source to a telemetry payload + label.

    ``source`` is a telemetry artifact on disk (a bare payload or the
    combined ``{untraced, traced}`` file, where ``run`` picks the side)
    or a TraceBank run-id prefix resolved against ``store`` (the payload
    is then synthesized from the archived events).
    """
    import json

    from repro.errors import TelemetryError

    path = Path(source)
    if path.is_file():
        obj = json.loads(path.read_text("utf-8"))
        if isinstance(obj, dict) and obj.get("schema") == "repro/telemetry/v1":
            return obj, path.name
        if isinstance(obj, dict) and {"untraced", "traced"} <= set(obj):
            return obj[run], "%s:%s" % (path.name, run)
        raise TelemetryError(
            "%s is not a telemetry payload or an {untraced, traced} pair"
            % source
        )
    from repro.store import TraceBank, telemetry_view

    bank = TraceBank(store, create=False)
    payload = telemetry_view(bank, source)
    return payload, "store:%s" % payload["source"]["run_id"][:12]


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.compare import compare_payloads, render_diff
    from repro.obs.metrics import canonical_json

    run_a = args.run_a or args.run
    run_b = args.run_b or args.run
    payload_a, label_a = _load_telemetry_payload(args.run_a_source, args.store, run_a)
    payload_b, label_b = _load_telemetry_payload(args.run_b_source, args.store, run_b)
    report = compare_payloads(payload_a, payload_b, label_a=label_a, label_b=label_b)
    if args.format == "json":
        print(canonical_json(report))
    else:
        print(render_diff(report, markdown=(args.format == "markdown")), end="")
    if args.report_out:
        Path(args.report_out).write_text(canonical_json(report) + "\n")
        print("wrote %s" % args.report_out)
    return 0


def _cmd_obs_critpath(args: argparse.Namespace) -> int:
    from repro.obs.critpath import (
        critical_path,
        flamegraph_lines,
        render_critical_path,
    )
    from repro.obs.metrics import canonical_json

    payload, _label = _load_telemetry_payload(args.source, args.store, args.run)
    report = critical_path(payload)
    if args.json:
        print(canonical_json(report))
    else:
        print(render_critical_path(report), end="")
    if args.flame:
        lines = flamegraph_lines(payload)
        Path(args.flame).write_text("".join(line + "\n" for line in lines))
        print("wrote %d flamegraph stack(s) to %s" % (len(lines), args.flame))
    return 0


def _cmd_obs_slice(args: argparse.Namespace) -> int:
    from repro.obs.metrics import canonical_json
    from repro.obs.slice import (
        causal_slice,
        render_slice,
        slice_flamegraph_lines,
        slice_from_store,
        slice_trace,
    )

    anchor, value = "straggler", None
    if args.rank is not None:
        anchor, value = "rank", args.rank
    elif args.op is not None:
        anchor, value = "op", args.op
    elif args.path_anchor is not None:
        anchor, value = "path", args.path_anchor

    payload = None
    if Path(args.source).is_file():
        payload, _label = _load_telemetry_payload(args.source, args.store, args.run)
        report = causal_slice(
            payload, anchor=anchor, value=value, max_roots=args.max_roots
        )
    else:
        from repro.store import TraceBank, telemetry_view

        bank = TraceBank(args.store, create=False)
        report = slice_from_store(
            bank, args.source, anchor=anchor, value=value,
            max_roots=args.max_roots,
        )
        if args.flame or args.perfetto:
            payload = telemetry_view(bank, report["source"]["run_id"])
    if args.json:
        print(canonical_json(report))
    else:
        print(render_slice(report), end="")
    if args.report_out:
        Path(args.report_out).write_text(canonical_json(report) + "\n")
        print("wrote %s" % args.report_out)
    if args.perfetto:
        trace = slice_trace(payload, report)
        Path(args.perfetto).write_text(canonical_json(trace) + "\n")
        print("wrote %d trace event(s) to %s"
              % (len(trace["traceEvents"]), args.perfetto))
    if args.flame:
        lines = slice_flamegraph_lines(payload, report)
        Path(args.flame).write_text("".join(line + "\n" for line in lines))
        print("wrote %d flamegraph stack(s) to %s" % (len(lines), args.flame))
    return 0


def _cmd_obs_diagnose(args: argparse.Namespace) -> int:
    from repro.obs.diagnose import diagnose_archive, render_diagnose
    from repro.obs.metrics import canonical_json

    report = diagnose_archive(
        args.store,
        run_prefixes=args.run_prefix or None,
        against=args.against,
        jobs=args.jobs,
        k=args.k,
        eps=args.eps,
        slice_outliers=not args.no_slice,
    )
    if args.json:
        print(canonical_json(report))
    else:
        print(render_diagnose(report), end="")
    if args.report_out:
        Path(args.report_out).write_text(canonical_json(report) + "\n")
        print("wrote %s" % args.report_out)
    if args.fail_on_outlier and report["summary"]["outliers"] > 0:
        return 1
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    from repro.obs.baseline import check_history, load_history, render_check
    from repro.obs.metrics import canonical_json

    records = load_history(args.history)
    report = check_history(records, k=args.k, min_history=args.min_history)
    if args.json:
        print(canonical_json(report))
    else:
        print(render_check(report), end="")
    if args.report_out:
        Path(args.report_out).write_text(canonical_json(report) + "\n")
        print("wrote %s" % args.report_out)
    if args.fail_on_regression and report["summary"]["regressions"] > 0:
        return 1
    return 0


def _obs_get_json(base_url: str, path: str):
    import json as _json

    from repro.errors import ServiceError

    status, _headers, payload = _http_request(base_url.rstrip("/") + path)
    if status != 200:
        raise ServiceError(
            "GET %s returned %d: %s"
            % (path, status, payload.decode("utf-8", "replace").strip())
        )
    return _json.loads(payload.decode("utf-8"))


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.reqtrace import render_top

    iterations = 1 if args.once else args.iterations
    prev_counters = None
    i = 0
    while iterations <= 0 or i < iterations:
        if i:
            _time.sleep(args.interval)
        stats = _obs_get_json(args.url, "/v1/stats")
        metrics = _obs_get_json(args.url, "/v1/metrics")
        slowest = _obs_get_json(args.url, "/v1/traces/slowest").get("slowest", [])
        frame = render_top(
            stats, metrics, slowest,
            prev_counters=prev_counters,
            interval=args.interval if prev_counters is not None else None,
        )
        if i:
            print()
        print(frame, end="")
        prev_counters = metrics.get("counters") or {}
        i += 1
    return 0


def _cmd_obs_reqtrace(args: argparse.Namespace) -> int:
    from repro.obs.metrics import canonical_json
    from repro.obs.perfetto import validate_chrome_trace
    from repro.obs.reqtrace import (
        render_trace,
        trace_flamegraph_lines,
        trace_to_chrome,
    )

    trace_id = args.trace_id
    if trace_id == "slowest":
        target = "/v1/traces/slowest"
        if args.route:
            target += "?route=%s" % args.route
        listing = _obs_get_json(args.url, target).get("slowest", [])
        if not listing:
            print("error: the server has no retained traces yet",
                  file=sys.stderr)
            return 1
        trace_id = listing[0]["trace_id"]
    report = _obs_get_json(args.url, "/v1/traces/%s" % trace_id)
    if args.json:
        print(canonical_json(report))
    else:
        print(render_trace(report), end="")
    if args.flame:
        lines = trace_flamegraph_lines(report)
        Path(args.flame).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )
        print("wrote %s (%d stack(s))" % (args.flame, len(lines)))
    if args.perfetto:
        chrome = trace_to_chrome(report)
        validate_chrome_trace(chrome)
        Path(args.perfetto).write_text(
            canonical_json(chrome) + "\n", encoding="utf-8"
        )
        print("wrote %s (validated, %d event(s))"
              % (args.perfetto, len(chrome["traceEvents"])))
    return 0


# -- store commands ----------------------------------------------------------


def _store_query_from_args(args: argparse.Namespace):
    from repro.errors import StoreQueryError
    from repro.store import Query

    where = {}
    for item in args.where or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise StoreQueryError("--where expects key=value, got %r" % item)
        where[key] = value
    return Query.create(
        agg=getattr(args, "agg", "ops"),
        ranks=args.ranks,
        names=args.ops,
        layers=args.layers,
        path_glob=args.path_glob,
        since=args.since,
        until=args.until,
        where=where,
        runs=args.runs,
        window=getattr(args, "window", 0.05),
        limit=getattr(args, "limit", None),
    )


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    from repro.store import TraceBank
    from repro.trace.records import TraceBundle

    bank = TraceBank(args.store)
    bundle = TraceBundle()
    for i, name in enumerate(args.traces):
        tf = _load_trace(Path(name))
        rank = tf.rank if tf.rank is not None else i
        bundle.add_file(int(rank), tf)
        if tf.framework:
            bundle.metadata.setdefault("framework", tf.framework)
    meta = {"kind": "manual"}
    for item in args.meta or []:
        key, sep, value = item.partition("=")
        if sep and key:
            meta[key] = value
    result = bank.ingest_bundle(bundle, meta=meta, codec=args.codec)
    print(
        "ingested run %s: %d segment(s) (%d new, %d deduped), %d event(s)"
        % (
            result.run_id[:12],
            result.segments,
            result.new_segments,
            result.deduped_segments,
            result.events,
        )
    )
    return 0


def _cmd_store_ls(args: argparse.Namespace) -> int:
    from repro.store import TraceBank, render_store_summary

    bank = TraceBank(args.store, create=False)
    print(render_store_summary(bank.stats()), end="")
    for m in bank.manifests():
        print(
            "  %s  %-6s %-12s %4d seg  %6d events"
            % (
                m.run_id[:12],
                str(m.meta.get("kind", "?")),
                str(m.meta.get("framework", "?")),
                len(m.segments),
                m.n_events,
            )
        )
    return 0


def _cmd_store_query(args: argparse.Namespace) -> int:
    from repro.obs.metrics import canonical_json
    from repro.store import TraceBank, run_query

    bank = TraceBank(args.store, create=False)
    report = run_query(bank, _store_query_from_args(args), jobs=args.jobs)
    if args.json or args.agg != "ops":
        print(canonical_json(report))
        return 0
    scan = report["scan"]
    print(
        "# %d run(s), %d/%d segment(s) scanned (%d pruned), %d event(s)"
        % (
            scan["runs_selected"],
            scan["segments_scanned"],
            scan["segments_total"],
            scan["segments_pruned"],
            scan["events_matched"],
        )
    )
    print("%-28s %15s %25s" % ("Function Name", "Number of Calls", "Total time (s)"))
    for name, cell in report["result"]["ops"].items():
        print("%-28s %15d %25.6f" % (name, cell["calls"], cell["total_time"]))
    return 0


def _cmd_store_dfg(args: argparse.Namespace) -> int:
    from repro.obs.metrics import canonical_json
    from repro.store import TraceBank, build_dfg, render_dfg_dot, render_dfg_text

    bank = TraceBank(args.store, create=False)
    args.agg = "ops"  # DFG ignores the aggregate; reuse the shared filters
    report = build_dfg(bank, _store_query_from_args(args), jobs=args.jobs)
    if args.json:
        print(canonical_json(report))
    elif args.dot:
        print(render_dfg_dot(report), end="")
    else:
        print(render_dfg_text(report), end="")
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.store import TraceBank

    bank = TraceBank(args.store, create=False)
    report = bank.verify(jobs=args.jobs)
    print(
        "verified %d run(s), %d segment(s): %s"
        % (report["runs"], report["segments_checked"],
           "OK" if report["ok"] else "CORRUPT")
    )
    for err in report["errors"]:
        sha = err["sha256"][:12] if err["sha256"] else "-"
        print("  %s %s: %s" % (str(err["run_id"])[:12], sha, err["error"]))
    if report["orphan_segments"]:
        print("  %d orphan segment(s) (not an error; 'store gc' reclaims them)"
              % len(report["orphan_segments"]))
    return 0 if report["ok"] else 1


def _cmd_store_gc(args: argparse.Namespace) -> int:
    from repro.store import TraceBank

    bank = TraceBank(args.store, create=False)
    report = bank.gc(dry_run=args.dry_run, tmp_ttl_seconds=args.ttl_seconds)
    verb = "would remove" if report["dry_run"] else "removed"
    print(
        "%s %d unreferenced segment(s), %d byte(s); %d referenced segment(s) kept"
        % (verb, len(report["removed_segments"]), report["bytes_freed"],
           report["kept_segments"])
    )
    if report["kept_fresh_segments"]:
        print(
            "  %d fresh unreferenced segment(s) kept (younger than the "
            "--ttl-seconds grace; may be a live ingest)"
            % report["kept_fresh_segments"]
        )
    return 0


# -- service commands --------------------------------------------------------


def _split_url(url: str) -> "tuple[str, int]":
    from urllib.parse import urlsplit

    from repro.errors import ServiceError

    parts = urlsplit(url if "//" in url else "http://" + url)
    if not parts.hostname:
        raise ServiceError("bad service URL %r" % url)
    return parts.hostname, parts.port or 80


def _http_request(url: str, method: str = "GET", body: bytes = b""):
    """One stdlib HTTP round trip -> (status, headers, body bytes)."""
    import http.client
    from urllib.parse import urlsplit

    from repro.errors import ServiceError

    parts = urlsplit(url)
    if parts.scheme not in ("http", ""):
        raise ServiceError("only http:// service URLs are supported")
    conn = http.client.HTTPConnection(
        parts.hostname or "127.0.0.1", parts.port or 80, timeout=60
    )
    target = parts.path + ("?" + parts.query if parts.query else "")
    try:
        conn.request(method, target or "/", body=body or None,
                     headers={"Content-Length": str(len(body))})
        resp = conn.getresponse()
        payload = resp.read()
        return resp.status, dict(resp.getheaders()), payload
    except (ConnectionError, OSError) as exc:
        raise ServiceError("cannot reach %s: %s" % (url, exc)) from None
    finally:
        conn.close()


def _cmd_service_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    serve(
        args.store,
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        max_body_bytes=args.max_body_bytes,
        query_jobs=args.jobs,
        commit_workers=args.workers,
        access_log=args.access_log,
        trace_ring=args.trace_ring,
        slowest_per_route=args.slowest_per_route,
    )
    return 0


def _cmd_service_ingest(args: argparse.Namespace) -> int:
    import json as _json

    for i, name in enumerate(args.traces):
        body = Path(name).read_bytes()
        tf = _load_trace(Path(name))
        rank = tf.rank if tf.rank is not None else i
        target = "%s/v1/t/%s/ingest?sync=1&rank=%d" % (
            args.url.rstrip("/"), args.tenant, int(rank),
        )
        for item in args.meta or []:
            key, sep, value = item.partition("=")
            if sep and key:
                from urllib.parse import quote_plus

                target += "&meta.%s=%s" % (quote_plus(key), quote_plus(value))
        status, _headers, payload = _http_request(target, "POST", body)
        if status != 200:
            print("error: ingest of %s failed (%d): %s"
                  % (name, status, payload.decode("utf-8", "replace").strip()),
                  file=sys.stderr)
            return 1
        result = _json.loads(payload)
        print(
            "ingested run %s into tenant %s: %d segment(s) (%d new, %d deduped)"
            % (
                result["run_id"][:12],
                args.tenant,
                result["segments"],
                result["new_segments"],
                result["deduped_segments"],
            )
        )
    return 0


def _cmd_service_query(args: argparse.Namespace) -> int:
    from urllib.parse import quote_plus

    pairs = [("agg", args.agg)]
    for rank in args.ranks or []:
        pairs.append(("ranks", str(rank)))
    for op in args.ops or []:
        pairs.append(("ops", op))
    for layer in args.layers or []:
        pairs.append(("layers", layer))
    if args.path_glob is not None:
        pairs.append(("path_glob", args.path_glob))
    if args.since is not None:
        pairs.append(("since", repr(args.since)))
    if args.until is not None:
        pairs.append(("until", repr(args.until)))
    for item in args.where or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            from repro.errors import StoreQueryError

            raise StoreQueryError("--where expects key=value, got %r" % item)
        pairs.append(("where." + key, value))
    for run in args.runs or []:
        pairs.append(("runs", run))
    pairs.append(("window", repr(args.window)))
    if args.limit is not None:
        pairs.append(("limit", str(args.limit)))
    target = "%s/v1/t/%s/query?%s" % (
        args.url.rstrip("/"),
        args.tenant,
        "&".join("%s=%s" % (quote_plus(k), quote_plus(v)) for k, v in pairs),
    )
    status, _headers, payload = _http_request(target)
    if status != 200:
        print("error: query failed (%d): %s"
              % (status, payload.decode("utf-8", "replace").strip()),
              file=sys.stderr)
        return 1
    sys.stdout.write(payload.decode("utf-8"))
    return 0


def _cmd_service_loadgen(args: argparse.Namespace) -> int:
    from repro.obs.metrics import canonical_json
    from repro.service import build_plan, run_loadgen, write_bench

    host, port = _split_url(args.url)
    plan = build_plan(
        clients=args.clients,
        requests_per_client=args.requests,
        tenants=args.tenants,
        payload_pool=args.payloads,
        ingest_fraction=args.ingest_fraction,
        seed=args.seed,
        payload_events=args.payload_events,
    )
    print(
        "loadgen: %d client(s) x %d request(s) against http://%s:%d (seed %d)"
        % (args.clients, args.requests, host, port, args.seed)
    )
    result = run_loadgen(host, port, plan)
    report = write_bench(result, args.out) if args.out else result.report()
    print(canonical_json(report))
    if args.out:
        print("wrote %s" % args.out)
    if args.baseline:
        from repro.obs.baseline import append_history, make_record

        record = make_record(
            [
                {
                    "figure": "service",
                    "block_size": None,
                    "service_req_per_sec": report["req_per_sec"],
                    "service_p99_ms": report["latency_p99_ms"],
                }
            ],
            label=args.baseline_label,
        )
        idx = append_history(args.baseline, record)
        print("appended baseline record #%d to %s" % (idx, args.baseline))
    return 1 if result.errors else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="I/O Tracing Framework Taxonomy (SC'07) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="render the classification summary table")
    p.add_argument("--format", choices=("text", "markdown", "csv"), default="text")
    p.add_argument(
        "--include-extensions",
        action="store_true",
        help="also classify this library's extension frameworks (MsgTrace)",
    )
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("classify", help="one framework's reference card")
    p.add_argument("name", help="lanl-trace | tracefs | ptrace | msgtrace | ...")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("recommend", help="rank frameworks against requirements")
    p.add_argument("--parallel-fs", action="store_true")
    p.add_argument("--replayable", action="store_true")
    p.add_argument("--dependencies", action="store_true")
    p.add_argument("--analysis-tools", action="store_true")
    p.add_argument("--skew-drift", action="store_true")
    p.add_argument("--min-anonymization", type=int, default=0, metavar="0..5")
    p.add_argument("--min-granularity", type=int, default=0, metavar="0..5")
    p.add_argument("--max-install", type=int, default=None, metavar="1..5")
    p.add_argument("--max-overhead", type=float, default=None, metavar="PERCENT")
    p.set_defaults(fn=_cmd_recommend)

    def add_sweep_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--quick", action="store_true", help="small fast sweep")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for sweep points (default 1)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="bypass the deterministic run cache",
        )
        p.add_argument(
            "--cache-dir",
            default=".repro-cache",
            metavar="DIR",
            help="run cache directory (default .repro-cache)",
        )
        p.add_argument(
            "--telemetry",
            action="store_true",
            help="record metrics + Perfetto traces for every sweep point",
        )
        p.add_argument(
            "--telemetry-out",
            default="telemetry",
            metavar="DIR",
            help="directory for --telemetry artifacts (default telemetry/)",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="force live 'N/M points, ETA' progress on stderr "
            "(automatic when stderr is a tty)",
        )
        p.add_argument(
            "--store",
            nargs="?",
            const=".repro-store",
            default=None,
            metavar="DIR",
            help="archive every traced bundle into a TraceBank at DIR "
            "(default .repro-store when the flag is given bare)",
        )
        p.add_argument(
            "--codec",
            choices=CODECS,
            default=DEFAULT_CODEC,
            help="segment codec for --store ingests: v2 columnar (fast "
            "projected scans, the default) or v1 row-major (still read "
            "everywhere, written on request)",
        )

    p = sub.add_parser("figure", help="regenerate Figure 2, 3 or 4")
    p.add_argument("number", type=int, choices=(2, 3, 4))
    add_sweep_flags(p)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser(
        "figures", help="regenerate Figures 2-4 + overhead range as one sweep"
    )
    add_sweep_flags(p)
    p.add_argument(
        "--bench-out",
        default="BENCH_sweep.json",
        metavar="PATH",
        help="write the sweep benchmark artifact here ('' to skip)",
    )
    p.add_argument(
        "--baseline",
        nargs="?",
        const="BENCH_history.jsonl",
        default=None,
        metavar="PATH",
        help="append this sweep's headline metrics to the baseline history "
        "(default BENCH_history.jsonl when the flag is given bare); "
        "'repro obs check' gates against it",
    )
    p.add_argument(
        "--baseline-label",
        default=None,
        metavar="TEXT",
        help="free-form label stored on the --baseline record "
        "(a commit id, a date, ...)",
    )
    p.set_defaults(fn=_cmd_figures)

    from repro.faults.chaos import CHAOS_MATRICES

    p = sub.add_parser(
        "chaos", help="run a fault matrix against the frameworks (no hangs)"
    )
    p.add_argument(
        "--matrix",
        # "zoo" materializes lazily from the scenario registry, so it is
        # offered even before the chaos module has built it.
        choices=sorted(set(CHAOS_MATRICES) | {"zoo"}),
        default="smoke",
        help="named fault matrix to run (default smoke; 'zoo' crosses "
        "every workload-zoo scenario with baseline + disk-storm)",
    )
    p.add_argument(
        "--frameworks",
        nargs="*",
        default=None,
        metavar="NAME",
        help="framework subset (default: lanl-trace tracefs ptrace)",
    )
    p.add_argument(
        "--report-out",
        default="CHAOS_report.json",
        metavar="PATH",
        help="write the canonical-JSON chaos report here ('' to skip)",
    )
    add_sweep_flags(p)
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("observe", help="summarize a --telemetry artifact")
    p.add_argument("path", help="*.telemetry.json or *.trace.json file")
    p.add_argument(
        "--validate",
        action="store_true",
        help="also validate the Chrome trace against the trace-event schema",
    )
    p.set_defaults(fn=_cmd_observe)

    p = sub.add_parser(
        "obs",
        help="the regression observatory (diff/critpath/slice/diagnose/check)",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    def add_obs_source_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--store",
            default=".repro-store",
            metavar="DIR",
            help="TraceBank to resolve run-id-prefix sources against "
            "(default .repro-store)",
        )
        sp.add_argument(
            "--run",
            choices=("untraced", "traced"),
            default="traced",
            help="which side of a combined {untraced, traced} artifact to "
            "load (default traced)",
        )

    sp = obs_sub.add_parser(
        "diff", help="structured telemetry diff between two runs"
    )
    sp.add_argument("run_a_source", metavar="RUN_A",
                    help="telemetry file or store run-id prefix (the base)")
    sp.add_argument("run_b_source", metavar="RUN_B",
                    help="telemetry file or store run-id prefix (the candidate)")
    add_obs_source_flags(sp)
    sp.add_argument("--run-a", choices=("untraced", "traced"), default=None,
                    help="override --run for RUN_A only")
    sp.add_argument("--run-b", choices=("untraced", "traced"), default=None,
                    help="override --run for RUN_B only")
    sp.add_argument("--format", choices=("text", "markdown", "json"),
                    default="text", help="rendering (default text)")
    sp.add_argument("--report-out", default=None, metavar="PATH",
                    help="also write the canonical-JSON diff report here")
    sp.set_defaults(fn=_cmd_obs_diff)

    sp = obs_sub.add_parser(
        "critpath", help="critical-path attribution + flamegraph export"
    )
    sp.add_argument("source", metavar="RUN",
                    help="telemetry file or store run-id prefix")
    add_obs_source_flags(sp)
    sp.add_argument("--flame", default=None, metavar="PATH",
                    help="write collapsed-stack flamegraph lines here")
    sp.add_argument("--json", action="store_true",
                    help="print the canonical-JSON report")
    sp.set_defaults(fn=_cmd_obs_critpath)

    sp = obs_sub.add_parser(
        "slice", help="causal slice explaining one run's latency"
    )
    sp.add_argument("source", metavar="RUN",
                    help="telemetry file or store run-id prefix")
    add_obs_source_flags(sp)
    anchor = sp.add_mutually_exclusive_group()
    anchor.add_argument("--rank", type=int, default=None, metavar="N",
                        help="anchor on rank N's track instead of the "
                        "straggler")
    anchor.add_argument("--op", default=None, metavar="NAME",
                        help="anchor on the slowest instance of op NAME")
    anchor.add_argument("--path", dest="path_anchor", default=None,
                        metavar="GLOB",
                        help="anchor on the events touching paths matching "
                        "GLOB (store sources only)")
    sp.add_argument("--max-roots", type=int, default=32, metavar="N",
                    help="keep at most N bounding-chain roots (default 32)")
    sp.add_argument("--json", action="store_true",
                    help="print the canonical-JSON slice report")
    sp.add_argument("--flame", default=None, metavar="PATH",
                    help="write the slice's collapsed-stack flamegraph here")
    sp.add_argument("--perfetto", default=None, metavar="PATH",
                    help="write the slice's Chrome/Perfetto trace here")
    sp.add_argument("--report-out", default=None, metavar="PATH",
                    help="also write the canonical-JSON slice report here")
    sp.set_defaults(fn=_cmd_obs_slice)

    sp = obs_sub.add_parser(
        "diagnose", help="archive-scale anomaly diagnosis over a TraceBank"
    )
    sp.add_argument("--store", default=".repro-store", metavar="DIR",
                    help="TraceBank archive to diagnose (default .repro-store)")
    sp.add_argument("--run-prefix", action="append", default=None,
                    metavar="PREFIX",
                    help="restrict to runs matching this run-id prefix "
                    "(repeatable)")
    sp.add_argument("--against", default=None, metavar="RUN",
                    help="score every run against this baseline run (run-id "
                    "prefix) instead of its group median")
    sp.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="fingerprint/slice worker processes (default 1; "
                    "the report is byte-identical for any N)")
    sp.add_argument("--k", type=float, default=4.0, metavar="F",
                    help="MAD multiplier in the outlier threshold (default 4)")
    sp.add_argument("--eps", type=float, default=0.25, metavar="F",
                    help="fingerprint-distance clustering radius (default "
                    "0.25)")
    sp.add_argument("--no-slice", action="store_true",
                    help="skip auto-slicing each outlier")
    sp.add_argument("--fail-on-outlier", action="store_true",
                    help="exit nonzero when any run is flagged")
    sp.add_argument("--json", action="store_true",
                    help="print the canonical-JSON diagnosis report")
    sp.add_argument("--report-out", default=None, metavar="PATH",
                    help="also write the canonical-JSON diagnosis report here")
    sp.set_defaults(fn=_cmd_obs_diagnose)

    sp = obs_sub.add_parser(
        "check", help="gate the latest baseline record (median/MAD)"
    )
    sp.add_argument("--history", default="BENCH_history.jsonl", metavar="PATH",
                    help="baseline history written by 'figures --baseline' "
                    "(default BENCH_history.jsonl)")
    sp.add_argument("--fail-on-regression", action="store_true",
                    help="exit nonzero when any metric regressed")
    sp.add_argument("--k", type=float, default=4.0, metavar="F",
                    help="MAD multiplier in the change threshold (default 4)")
    sp.add_argument("--min-history", type=int, default=2, metavar="N",
                    help="prior records required before a series is gated "
                    "(default 2)")
    sp.add_argument("--json", action="store_true",
                    help="print the canonical-JSON report")
    sp.add_argument("--report-out", default=None, metavar="PATH",
                    help="also write the canonical-JSON check report here")
    sp.set_defaults(fn=_cmd_obs_check)

    sp = obs_sub.add_parser(
        "top", help="live operational dashboard over a running service"
    )
    sp.add_argument("--url", default="http://127.0.0.1:8080", metavar="URL",
                    help="service base URL (default http://127.0.0.1:8080)")
    sp.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                    help="seconds between polls (default 2)")
    sp.add_argument("--iterations", type=int, default=0, metavar="N",
                    help="stop after N frames (default 0 = run until ^C)")
    sp.add_argument("--once", action="store_true",
                    help="print a single frame and exit")
    sp.set_defaults(fn=_cmd_obs_top)

    sp = obs_sub.add_parser(
        "reqtrace",
        help="dump/export one service request trace (or the slowest)",
    )
    sp.add_argument("trace_id", metavar="TRACE_ID",
                    help="32-hex trace id, or the literal 'slowest'")
    sp.add_argument("--url", default="http://127.0.0.1:8080", metavar="URL",
                    help="service base URL (default http://127.0.0.1:8080)")
    sp.add_argument("--route", default=None, metavar="ROUTE",
                    help="with 'slowest': restrict to one route "
                    "(ingest/query/runs/dfg/...)")
    sp.add_argument("--json", action="store_true",
                    help="print the canonical-JSON trace report")
    sp.add_argument("--flame", default=None, metavar="PATH",
                    help="write collapsed-stack flamegraph lines here")
    sp.add_argument("--perfetto", default=None, metavar="PATH",
                    help="write the validated Chrome/Perfetto trace here")
    sp.set_defaults(fn=_cmd_obs_reqtrace)

    p = sub.add_parser(
        "summarize", help="call summary of a trace file or trace-store dir"
    )
    p.add_argument("trace", help="trace file, or a TraceBank directory")
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parallel shard scans for store-backed summaries (default 1)",
    )
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("convert", help="convert text <-> binary trace formats")
    p.add_argument("input")
    p.add_argument("output", help=".bin/.rtb => binary, anything else => text")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("anonymize", help="anonymize a trace for release")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--mode", choices=("randomize", "encrypt"), default="randomize")
    p.add_argument("--key", help="hex key for encrypt mode (32 hex chars)")
    p.add_argument(
        "--fields", nargs="*", choices=sorted(ANONYMIZABLE_FIELDS), default=None
    )
    p.set_defaults(fn=_cmd_anonymize)

    p = sub.add_parser(
        "store", help="the TraceBank trace archive (ingest/ls/query/dfg/verify/gc)"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)

    def add_store_root(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--store",
            default=".repro-store",
            metavar="DIR",
            help="archive directory (default .repro-store)",
        )

    def add_store_filters(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--ranks", nargs="*", type=int, default=None, metavar="R",
                        help="only these segment ranks")
        sp.add_argument("--ops", nargs="*", default=None, metavar="NAME",
                        help="only these function names")
        sp.add_argument("--layers", nargs="*", default=None, metavar="LAYER",
                        help="only these capture layers (syscall libcall vfs net)")
        sp.add_argument("--path-glob", default=None, metavar="GLOB",
                        help="only events whose path matches this fnmatch glob")
        sp.add_argument("--since", type=float, default=None, metavar="T",
                        help="only events starting at or after T (sim seconds)")
        sp.add_argument("--until", type=float, default=None, metavar="T",
                        help="only events starting before T (sim seconds)")
        sp.add_argument("--where", nargs="*", default=None, metavar="K=V",
                        help="only runs whose manifest metadata matches "
                        "(dotted keys, string compare)")
        sp.add_argument("--runs", nargs="*", default=None, metavar="PREFIX",
                        help="only runs whose id starts with one of these")
        sp.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel shard scans (default 1; output is "
                        "byte-identical for any N)")

    sp = store_sub.add_parser("ingest", help="archive trace file(s) as one run")
    add_store_root(sp)
    sp.add_argument("traces", nargs="+", help="trace files (text or binary)")
    sp.add_argument("--meta", nargs="*", default=None, metavar="K=V",
                    help="extra run metadata (queryable via --where)")
    sp.add_argument("--codec", choices=CODECS, default=DEFAULT_CODEC,
                    help="segment codec: v2 columnar (fast projected scans, "
                    "the default) or v1 row-major (still read everywhere, "
                    "written on request)")
    sp.set_defaults(fn=_cmd_store_ingest)

    sp = store_sub.add_parser("ls", help="list archived runs + archive stats")
    add_store_root(sp)
    sp.set_defaults(fn=_cmd_store_ls)

    sp = store_sub.add_parser("query", help="filtered aggregate over the archive")
    add_store_root(sp)
    add_store_filters(sp)
    sp.add_argument("--agg", choices=("events", "ops", "bytes", "bandwidth"),
                    default="ops", help="aggregate to compute (default ops)")
    sp.add_argument("--window", type=float, default=0.05, metavar="SEC",
                    help="bandwidth bucket width in sim seconds (default 0.05)")
    sp.add_argument("--limit", type=int, default=None, metavar="N",
                    help="truncate the events aggregate after N rows")
    sp.add_argument("--json", action="store_true",
                    help="print the canonical-JSON report (default for "
                    "non-ops aggregates)")
    sp.set_defaults(fn=_cmd_store_query)

    sp = store_sub.add_parser(
        "dfg", help="directly-follows graph over archived events"
    )
    add_store_root(sp)
    add_store_filters(sp)
    sp.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    sp.add_argument("--json", action="store_true",
                    help="print the canonical-JSON report")
    sp.set_defaults(fn=_cmd_store_dfg)

    sp = store_sub.add_parser("verify", help="end-to-end archive integrity check")
    add_store_root(sp)
    sp.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="parallel segment checks (default 1)")
    sp.set_defaults(fn=_cmd_store_verify)

    sp = store_sub.add_parser("gc", help="remove unreferenced segment files")
    add_store_root(sp)
    sp.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without deleting")
    sp.add_argument("--ttl-seconds", type=float, default=3600.0,
                    help="grace period for in-flight tmp files and fresh "
                         "unreferenced segments (a concurrent ingest may "
                         "not have landed its manifest yet); 0 reclaims "
                         "immediately (default: 3600)")
    sp.set_defaults(fn=_cmd_store_gc)

    p = sub.add_parser(
        "service",
        help="TraceBank as a service (serve/ingest/query/loadgen)",
    )
    service_sub = p.add_subparsers(dest="service_command", required=True)

    def add_service_url(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--url", default="http://127.0.0.1:8080",
                        metavar="URL",
                        help="service base URL (default http://127.0.0.1:8080)")

    sp = service_sub.add_parser(
        "serve", help="boot the multi-tenant HTTP API over a store root"
    )
    sp.add_argument("--store", default=".repro-store", metavar="DIR",
                    help="service store root (default .repro-store)")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8080,
                    help="listen port (0 picks a free one; default 8080)")
    sp.add_argument("--queue-capacity", type=int, default=256, metavar="N",
                    help="max in-flight ingest entries before 429 "
                    "(default 256)")
    sp.add_argument("--max-body-bytes", type=int, default=32 << 20,
                    metavar="N", help="largest accepted upload (default 32MiB)")
    sp.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="parallel shard scans per query (default 1)")
    sp.add_argument("--workers", type=int, default=2, metavar="N",
                    help="concurrent ingest commit workers (default 2)")
    sp.add_argument("--access-log", default=None, metavar="PATH",
                    help="write one canonical JSONL access-log line per "
                    "request here")
    sp.add_argument("--trace-ring", type=int, default=512, metavar="N",
                    help="finished request traces kept in the in-memory "
                    "ring (default 512)")
    sp.add_argument("--slowest-per-route", type=int, default=8, metavar="N",
                    help="slowest traces retained per route past ring "
                    "eviction (default 8)")
    sp.set_defaults(fn=_cmd_service_serve)

    sp = service_sub.add_parser(
        "ingest", help="upload trace file(s) into a tenant namespace"
    )
    add_service_url(sp)
    sp.add_argument("tenant", help="tenant namespace name")
    sp.add_argument("traces", nargs="+", help="trace files (text or binary)")
    sp.add_argument("--meta", nargs="*", default=None, metavar="K=V",
                    help="extra run metadata (queryable via --where)")
    sp.set_defaults(fn=_cmd_service_ingest)

    sp = service_sub.add_parser(
        "query",
        help="query a tenant namespace (byte-identical to 'store query "
        "--json' over the same runs)",
    )
    add_service_url(sp)
    sp.add_argument("tenant", help="tenant namespace name")
    add_store_filters(sp)
    sp.add_argument("--agg", choices=("events", "ops", "bytes", "bandwidth"),
                    default="ops", help="aggregate to compute (default ops)")
    sp.add_argument("--window", type=float, default=0.05, metavar="SEC",
                    help="bandwidth bucket width in sim seconds (default 0.05)")
    sp.add_argument("--limit", type=int, default=None, metavar="N",
                    help="truncate the events aggregate after N rows")
    sp.set_defaults(fn=_cmd_service_query)

    sp = service_sub.add_parser(
        "loadgen",
        help="deterministic multi-client load test against a live server",
    )
    add_service_url(sp)
    sp.add_argument("--clients", type=int, default=100, metavar="N",
                    help="concurrent simulated clients (default 100)")
    sp.add_argument("--requests", type=int, default=10, metavar="N",
                    help="requests per client (default 10)")
    sp.add_argument("--tenants", type=int, default=4, metavar="N",
                    help="tenant namespaces in the mix (default 4)")
    sp.add_argument("--payloads", type=int, default=16, metavar="N",
                    help="distinct trace payloads dealt to ingests — "
                    "smaller pool = more dedup (default 16)")
    sp.add_argument("--payload-events", type=int, default=64, metavar="N",
                    help="events per generated trace payload (default 64)")
    sp.add_argument("--ingest-fraction", type=float, default=0.5, metavar="F",
                    help="fraction of requests that are ingests (default 0.5)")
    sp.add_argument("--seed", type=int, default=7,
                    help="plan RNG seed (default 7)")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the canonical-JSON bench report here "
                    "(e.g. BENCH_service.json)")
    sp.add_argument("--baseline", default=None, metavar="PATH",
                    help="append service_req_per_sec + service_p99_ms to "
                    "this BENCH_history.jsonl for 'repro obs check'")
    sp.add_argument("--baseline-label", default=None, metavar="TEXT",
                    help="free-form label stored with the baseline record")
    sp.set_defaults(fn=_cmd_service_loadgen)

    p = sub.add_parser(
        "zoo",
        help="workload zoo: modern I/O scenarios + trace-driven replay",
    )
    zoo_sub = p.add_subparsers(dest="zoo_command", required=True)

    sp = zoo_sub.add_parser("ls", help="list registered scenarios")
    sp.set_defaults(fn=_cmd_zoo_ls)

    sp = zoo_sub.add_parser(
        "describe", help="one scenario's parameters and I/O signature"
    )
    sp.add_argument("scenario", help="scenario name (see 'zoo ls')")
    sp.add_argument("--json", action="store_true",
                    help="emit the canonical-JSON description")
    sp.set_defaults(fn=_cmd_zoo_describe)

    def add_zoo_run_flags(sp: argparse.ArgumentParser) -> None:
        add_sweep_flags(sp)
        sp.add_argument("--smoke", action="store_true",
                        help="CI-speed parameter scale")
        sp.add_argument("--seed", type=int, default=0,
                        help="testbed + workload seed (default 0)")
        sp.add_argument("--framework", default=None, metavar="NAME",
                        help="tracing framework override "
                        "(default: each scenario's own, lanl-trace)")
        sp.add_argument("--replay-check", action="store_true",
                        help="replay each archived scenario from its run id "
                        "and require an exact fidelity report "
                        "(needs --store; nonzero exit on drift)")
        sp.add_argument("--report-out", default=None, metavar="PATH",
                        help="write the canonical-JSON zoo report here")
        sp.add_argument("--bench-out", default=None, metavar="PATH",
                        help="write BENCH_zoo.json-style gate points here")
        sp.add_argument("--baseline", nargs="?", const="BENCH_history.jsonl",
                        default=None, metavar="PATH",
                        help="append the zoo gate metrics to the baseline "
                        "history ('repro obs check' gates against it)")
        sp.add_argument("--baseline-label", default=None, metavar="TEXT",
                        help="free-form label stored on the --baseline record")

    sp = zoo_sub.add_parser("run", help="run one scenario through the harness")
    sp.add_argument("scenario", help="scenario name (see 'zoo ls')")
    add_zoo_run_flags(sp)
    sp.set_defaults(fn=_cmd_zoo_run)

    sp = zoo_sub.add_parser(
        "matrix", help="run every scenario (or a subset) as one sweep"
    )
    sp.add_argument("--scenarios", nargs="*", default=None, metavar="NAME",
                    help="scenario subset (default: all registered)")
    add_zoo_run_flags(sp)
    sp.set_defaults(fn=_cmd_zoo_matrix)

    sp = zoo_sub.add_parser(
        "replay",
        help="replay a real or archived trace on a simulated cluster",
    )
    sp.add_argument("sources", nargs="+", metavar="SOURCE",
                    help="TraceBank run-id prefix, strace capture, or "
                    "library trace file(s) (one rank per file)")
    sp.add_argument("--store", default=".repro-store", metavar="DIR",
                    help="TraceBank to resolve run-id sources against "
                    "(default .repro-store)")
    sp.add_argument("--timing", choices=("afap", "preserve"), default="afap",
                    help="timing policy: as-fast-as-possible (op-schedule "
                    "replay, default) or inter-arrival-preserving "
                    "(the paper's end-to-end comparison)")
    sp.add_argument("--layer", choices=("auto", "syscall", "libcall", "vfs"),
                    default="auto",
                    help="capture layer to script from (default auto)")
    sp.add_argument("--seed", type=int, default=0,
                    help="replay testbed seed (default 0)")
    sp.add_argument("--no-sync", action="store_true",
                    help="free-run ranks instead of honoring recorded "
                    "synchronization points")
    sp.add_argument("--per-event-overhead", type=float, default=0.0,
                    metavar="SEC",
                    help="deperturbation: tracer cost subtracted per event "
                    "from think times (default 0)")
    sp.add_argument("--remap-root", default=None, metavar="DIR",
                    help="re-root scripted paths under a simulated mount "
                    "(default: /pfs/replay for strace sources, none "
                    "otherwise)")
    sp.add_argument("--require-exact", action="store_true",
                    help="exit nonzero unless the fidelity report is exact")
    sp.add_argument("--report-out", default=None, metavar="PATH",
                    help="write the canonical-JSON fidelity report here")
    sp.set_defaults(fn=_cmd_zoo_replay)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
