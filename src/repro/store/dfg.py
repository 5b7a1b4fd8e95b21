"""Directly-follows graphs over archived traces.

The taxonomy's causality axis asks what a tracer preserves about *order*:
which operation tends to follow which.  This module answers that question
over the archive — for each ``(run, rank)`` segment the filtered event
sequence (capture order) contributes an edge ``a -> b`` for every adjacent
pair, and per-shard partial graphs merge into one weighted
directly-follows graph.  Edges never cross segment boundaries: a rank's
last op does not "precede" another rank's first.

Shard selection, predicate pushdown, filtering, and the determinism
contract (shard-order merge, canonical JSON, byte-identical across job
counts) are all shared with :mod:`repro.store.query`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.obs.metrics import canonical_json
from repro.obs.tracepoints import STATE
from repro.store.bank import TraceBank
from repro.store.query import Query, select_shards, shard_rows, worker_plan

__all__ = ["DFG_SCHEMA", "build_dfg", "render_dfg_text", "render_dfg_dot"]

#: Versioned DFG report schema.
DFG_SCHEMA = "repro/store/dfg/v1"

#: What the graph reads per event: the op, and the two time columns that
#: weight its edges.
_SEQ_FIELDS = ("name", "timestamp", "duration")


def _dfg_shard(task: Tuple[str, str, int, str, Dict[str, Any]]) -> Dict[str, Any]:
    """One shard's partial graph (parallel-map worker entry).

    Module level so it pickles into worker processes; returns only plain
    JSON types.
    """
    root, run_id, rank, sha, plan = task
    blob = TraceBank(root, create=False).read_segment_blob(sha)
    seq = shard_rows(blob, sha, rank, worker_plan(plan), _SEQ_FIELDS)
    nodes: Dict[str, int] = {}
    edges: Dict[str, Dict[str, int]] = {}
    times: Dict[str, Dict[str, List[float]]] = {}
    for name, _ts, _dur in seq:
        nodes[name] = nodes.get(name, 0) + 1
    for (a, a_ts, a_dur), (b, b_ts, _b_dur) in zip(seq, seq[1:]):
        row = edges.setdefault(a, {})
        row[b] = row.get(b, 0) + 1
        # Inter-event gap: idle time between a's completion and b's
        # start.  Negative gaps (overlapping captures) are kept raw —
        # they are themselves a signal.
        gap = (b_ts or 0.0) - ((a_ts or 0.0) + (a_dur or 0.0))
        cell = times.setdefault(a, {}).setdefault(b, [0.0, gap, gap])
        cell[0] += gap
        cell[1] = min(cell[1], gap)
        cell[2] = max(cell[2], gap)
    out: Dict[str, Any] = {
        "matched": len(seq),
        "nodes": nodes,
        "edges": edges,
        "edge_times": times,
        "starts": {},
        "ends": {},
    }
    if seq:
        out["starts"] = {seq[0][0]: 1}
        out["ends"] = {seq[-1][0]: 1}
    return out


def build_dfg(bank: TraceBank, query: Query, jobs: int = 1) -> Dict[str, Any]:
    """Build the weighted directly-follows graph matching ``query``.

    The aggregate choice in ``query.agg`` is ignored — only its filters
    and run selection apply.  Returns a canonical-JSON report with node
    counts, edge weights, start/end op tallies (one start and one end
    per non-empty shard sequence), and per-edge time attribution under
    ``graph["edge_times"]`` (count / sum / mean / min / max of the
    inter-event gap per directly-follows edge — the idle seconds between
    the first op's completion and the next op's start, summed in shard
    order); byte-identical for any ``jobs``.
    """
    from repro.harness.parallel import parallel_map

    query.validate()
    _selected, shards, scan = select_shards(bank, query)
    plan = query.plan()
    tasks = [(root, run_id, rank, sha, plan) for root, run_id, rank, sha in shards]
    partials = parallel_map(_dfg_shard, tasks, jobs=jobs)
    nodes: Dict[str, int] = {}
    edges: Dict[str, Dict[str, int]] = {}
    times: Dict[str, Dict[str, List[float]]] = {}
    starts: Dict[str, int] = {}
    ends: Dict[str, int] = {}
    matched = 0
    for p in partials:
        matched += p["matched"]
        for name, n in sorted(p["nodes"].items()):
            nodes[name] = nodes.get(name, 0) + n
        for a, row in sorted(p["edges"].items()):
            dst = edges.setdefault(a, {})
            for b, n in sorted(row.items()):
                dst[b] = dst.get(b, 0) + n
        for a, row in sorted(p["edge_times"].items()):
            dst_t = times.setdefault(a, {})
            for b, (gap_sum, gap_min, gap_max) in sorted(row.items()):
                cell = dst_t.setdefault(b, [0.0, gap_min, gap_max])
                cell[0] += gap_sum
                cell[1] = min(cell[1], gap_min)
                cell[2] = max(cell[2], gap_max)
        for name, n in sorted(p["starts"].items()):
            starts[name] = starts.get(name, 0) + n
        for name, n in sorted(p["ends"].items()):
            ends[name] = ends.get(name, 0) + n
    edge_times: Dict[str, Dict[str, Dict[str, float]]] = {}
    for a, row in sorted(times.items()):
        for b, (gap_sum, gap_min, gap_max) in sorted(row.items()):
            count = edges[a][b]
            edge_times.setdefault(a, {})[b] = {
                "count": count,
                "sum": gap_sum,
                "mean": gap_sum / count,
                "min": gap_min,
                "max": gap_max,
            }
    col = STATE.collector
    if col is not None:
        col.store_scan(scan["segments_scanned"], scan["segments_pruned"], matched)
    report = {
        "schema": DFG_SCHEMA,
        "query": query.echo(),
        "scan": dict(scan, events_matched=matched),
        "graph": {
            "nodes": dict(sorted(nodes.items())),
            "edges": {a: dict(sorted(row.items())) for a, row in sorted(edges.items())},
            "edge_times": edge_times,
            "starts": dict(sorted(starts.items())),
            "ends": dict(sorted(ends.items())),
            "n_nodes": len(nodes),
            "n_edges": sum(len(row) for row in edges.values()),
        },
    }
    return json.loads(canonical_json(report))


def render_dfg_text(report: Dict[str, Any]) -> str:
    """Human rendering of a DFG report: edges sorted by weight then name."""
    graph = report["graph"]
    lines = [
        "directly-follows graph: %d op(s), %d edge(s), %d event(s) scanned"
        % (graph["n_nodes"], graph["n_edges"], report["scan"]["events_matched"]),
    ]
    flat: List[Tuple[int, str, str]] = []
    for a, row in graph["edges"].items():
        for b, n in row.items():
            flat.append((n, a, b))
    flat.sort(key=lambda t: (-t[0], t[1], t[2]))
    edge_times = graph.get("edge_times", {})
    for n, a, b in flat:
        line = "  %-24s -> %-24s x%d" % (a, b, n)
        cell = edge_times.get(a, {}).get(b)
        if cell is not None:
            line += "  (mean gap %.6f s)" % cell["mean"]
        lines.append(line)
    if graph["starts"]:
        lines.append(
            "starts: " + ", ".join("%s x%d" % kv for kv in graph["starts"].items())
        )
    if graph["ends"]:
        lines.append(
            "ends:   " + ", ".join("%s x%d" % kv for kv in graph["ends"].items())
        )
    return "\n".join(lines) + "\n"


def render_dfg_dot(report: Dict[str, Any]) -> str:
    """Graphviz DOT rendering of a DFG report (edge labels are weights)."""
    graph = report["graph"]
    lines = ["digraph dfg {", "  rankdir=LR;"]
    for name, n in graph["nodes"].items():
        lines.append('  "%s" [label="%s\\n%d"];' % (name, name, n))
    for a, row in graph["edges"].items():
        for b, n in row.items():
            lines.append('  "%s" -> "%s" [label="%d"];' % (a, b, n))
    lines.append("}")
    return "\n".join(lines) + "\n"
