"""The parallel query engine over a TraceBank archive.

A query is answered in three stages:

1. **Select** — run manifests are filtered by metadata equality
   (``where``) and run-id prefixes, via the warm manifest index;
2. **Prune** — each candidate segment's manifest summary is checked
   against the query's rank/op/layer/time predicates
   (:meth:`~repro.store.segments.SegmentMeta.may_match`): segments that
   cannot contain a matching event are never read — predicate pushdown;
3. **Scan** — surviving shards go through one projected scan kernel
   (:func:`project_shard`): only the columns the aggregate and filters
   touch are decoded, whichever codec wrote the segment.  Scans fan out
   over worker processes via :func:`repro.harness.parallel.parallel_map`.

Partial results are merged in shard order (sorted by ``(run_id, rank,
sha)``) regardless of worker completion order, and every report is
normalized through canonical JSON — so query output is byte-identical
across ``jobs=1``, ``jobs=N``, and cold/warm manifest caches, the same
determinism contract the sweep harness pins down.

Aggregates: ``events`` (the matching events themselves), ``ops``
(per-function call/time histogram, the Figure-1 summary shape), ``bytes``
(per-rank event/byte counts), and ``bandwidth`` (payload bytes over fixed
time windows).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import StoreQueryError
from repro.obs.metrics import canonical_json
from repro.obs.tracepoints import STATE
from repro.store.bank import TraceBank
from repro.store.manifest import RunManifest
from repro.store.segments import segment_columns, segment_header

__all__ = [
    "AGGREGATES",
    "Query",
    "project_shard",
    "run_query",
    "scan_events",
    "shard_rows",
    "telemetry_view",
]

#: The supported ``Query.agg`` values.
AGGREGATES: Tuple[str, ...] = ("events", "ops", "bytes", "bandwidth")

QUERY_SCHEMA = "repro/store/query/v1"


@dataclass(frozen=True)
class Query:
    """One declarative archive query (filters + aggregate choice).

    Filters compose conjunctively.  ``ranks``/``names``/``layers`` are
    membership tests; ``path_glob`` is an ``fnmatch`` pattern over the
    event path; ``since``/``until`` bound event *start* timestamps as the
    half-open window ``[since, until)``.  ``where`` filters whole runs by
    manifest metadata equality (dotted keys reach into nested mappings,
    values compare as strings); ``runs`` selects runs by id prefix.
    ``window`` is the ``bandwidth`` bucket width in simulated seconds;
    ``limit`` truncates the ``events`` aggregate after global ordering.
    """

    agg: str = "ops"
    ranks: Optional[Tuple[int, ...]] = None
    names: Optional[Tuple[str, ...]] = None
    layers: Optional[Tuple[str, ...]] = None
    path_glob: Optional[str] = None
    since: Optional[float] = None
    until: Optional[float] = None
    where: Tuple[Tuple[str, str], ...] = ()
    runs: Optional[Tuple[str, ...]] = None
    window: float = 0.05
    limit: Optional[int] = None

    @staticmethod
    def create(
        agg: str = "ops",
        ranks: Optional[Iterable[int]] = None,
        names: Optional[Iterable[str]] = None,
        layers: Optional[Iterable[str]] = None,
        path_glob: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        where: Optional[Mapping[str, Any]] = None,
        runs: Optional[Iterable[str]] = None,
        window: float = 0.05,
        limit: Optional[int] = None,
    ) -> "Query":
        """Build a query from plain Python collections (dicts, lists)."""
        return Query(
            agg=agg,
            ranks=tuple(sorted(set(int(r) for r in ranks))) if ranks else None,
            names=tuple(sorted(set(str(n) for n in names))) if names else None,
            layers=tuple(sorted(set(str(l) for l in layers))) if layers else None,
            path_glob=path_glob,
            since=since,
            until=until,
            where=tuple(sorted((str(k), str(v)) for k, v in (where or {}).items())),
            runs=tuple(sorted(set(str(r) for r in runs))) if runs else None,
            window=float(window),
            limit=limit,
        )

    def validate(self) -> None:
        """Reject malformed queries with a typed error."""
        if self.agg not in AGGREGATES:
            raise StoreQueryError(
                "unknown aggregate %r (known: %s)" % (self.agg, ", ".join(AGGREGATES))
            )
        if self.window <= 0:
            raise StoreQueryError("bandwidth window must be positive")
        if self.limit is not None and self.limit < 0:
            raise StoreQueryError("limit must be non-negative")
        if (
            self.since is not None
            and self.until is not None
            and self.until <= self.since
        ):
            raise StoreQueryError("empty time window: until <= since")

    def plan(self) -> Dict[str, Any]:
        """The pickle-safe scan plan shipped to worker processes."""
        return {
            "agg": self.agg,
            "ranks": list(self.ranks) if self.ranks is not None else None,
            "names": list(self.names) if self.names is not None else None,
            "layers": list(self.layers) if self.layers is not None else None,
            "path_glob": self.path_glob,
            "since": self.since,
            "until": self.until,
            "window": self.window,
        }

    def echo(self) -> Dict[str, Any]:
        """The query's canonical-JSON echo embedded in every report."""
        return {
            "agg": self.agg,
            "filters": self.plan(),
            "where": {k: v for k, v in self.where},
            "runs": list(self.runs) if self.runs is not None else None,
            "limit": self.limit,
        }


def _meta_lookup(meta: Mapping[str, Any], dotted: str) -> Any:
    node: Any = meta
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def _run_selected(m: RunManifest, query: Query) -> bool:
    if query.runs is not None and not any(
        m.run_id.startswith(p) for p in query.runs
    ):
        return False
    for key, want in query.where:
        got = _meta_lookup(m.meta, key)
        if got is None or str(got) != want:
            return False
    return True


def select_shards(
    bank: TraceBank, query: Query
) -> Tuple[List[RunManifest], List[Tuple[str, str, int, str]], Dict[str, int]]:
    """Stages 1+2: pick runs, prune segments; returns deterministic shards.

    Shards are ``(root, run_id, rank, sha)`` tuples sorted by
    ``(run_id, rank, sha)`` — the merge order every aggregate uses.
    """
    manifests = bank.manifests()
    selected = [m for m in manifests if _run_selected(m, query)]
    shards: List[Tuple[str, str, int, str]] = []
    total = pruned = 0
    ranks = set(query.ranks) if query.ranks is not None else None
    names = set(query.names) if query.names is not None else None
    layers = set(query.layers) if query.layers is not None else None
    for m in selected:
        for seg in m.segments:
            total += 1
            if seg.may_match(
                ranks=ranks,
                names=names,
                layers=layers,
                since=query.since,
                until=query.until,
            ):
                shards.append((str(bank.root), m.run_id, seg.rank, seg.sha256))
            else:
                pruned += 1
    shards.sort(key=lambda s: (s[1], s[2], s[3]))
    stats = {
        "runs_total": len(manifests),
        "runs_selected": len(selected),
        "segments_total": total,
        "segments_scanned": len(shards),
        "segments_pruned": pruned,
    }
    return selected, shards, stats


#: Columns each aggregate reads from a segment (beyond filters).
_AGG_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "events": ("timestamp", "duration", "layer", "name", "pid", "hostname",
               "path", "fd", "nbytes", "offset", "result"),
    "ops": ("name", "duration"),
    "bytes": ("nbytes",),
    "bandwidth": ("timestamp", "nbytes"),
}

#: A plan with no event-level filters (whole-segment scans).
_NO_FILTERS: Dict[str, Any] = {
    "ranks": None, "names": None, "layers": None,
    "path_glob": None, "since": None, "until": None,
}


def worker_plan(plan: Dict[str, Any]) -> Dict[str, Any]:
    """A shipped scan plan with its membership filters turned into sets."""
    plan = dict(plan)
    for key in ("ranks", "names", "layers"):
        if plan[key] is not None:
            plan[key] = set(plan[key])
    return plan


def _filter_columns(plan: Dict[str, Any]) -> List[str]:
    """Columns the plan's event-level predicates read."""
    need: List[str] = []
    if plan["names"] is not None:
        need.append("name")
    if plan["layers"] is not None:
        need.append("layer")
    if plan["since"] is not None or plan["until"] is not None:
        need.append("timestamp")
    if plan["path_glob"] is not None:
        need.append("path")
    return need


def _header_prune(
    header: Dict[str, Any],
    rank: int,
    plan: Dict[str, Any],
    matched_paths: Optional[frozenset],
) -> bool:
    """Header-only necessary-condition check: True means zero matches.

    This is segment-granularity pushdown *below* the manifest's
    :meth:`~repro.store.segments.SegmentMeta.may_match`: a v2 header's
    own stats (distinct names, timestamp min/max, distinct paths) can
    rule a segment out after reading one JSON frame, before any column
    is decompressed.  v1 headers carry only ``n_events``.
    """
    if plan["ranks"] is not None and rank not in plan["ranks"]:
        return True
    if not header.get("n_events"):
        return True
    names = header.get("names")
    if plan["names"] is not None and names is not None:
        if not plan["names"].intersection(names):
            return True
    ts = (header.get("stats") or {}).get("timestamp")
    if ts:
        if plan["since"] is not None and ts["max"] < plan["since"]:
            return True
        if plan["until"] is not None and ts["min"] >= plan["until"]:
            return True
    if plan["path_glob"] is not None and matched_paths is not None:
        if not matched_paths:
            return True
    return False


def _selection(
    n: int,
    cols: Dict[str, List[Any]],
    plan: Dict[str, Any],
    matched_paths: Optional[frozenset],
) -> Sequence[int]:
    """Indices of events surviving the plan's filters, capture order.

    The path glob is evaluated per *distinct* path when the header listed
    them (``matched_paths``), turning a per-event fnmatch into a set
    lookup.
    """
    names = plan["names"]
    layers = plan["layers"]
    since, until = plan["since"], plan["until"]
    glob = plan["path_glob"]
    if (names is None and layers is None and since is None
            and until is None and glob is None):
        return range(n)
    name_col = cols.get("name")
    layer_col = cols.get("layer")
    ts_col = cols.get("timestamp")
    path_col = cols.get("path")
    keep: List[int] = []
    append = keep.append
    for i in range(n):
        if names is not None and name_col[i] not in names:
            continue
        if layers is not None and layer_col[i] not in layers:
            continue
        if since is not None and ts_col[i] < since:
            continue
        if until is not None and ts_col[i] >= until:
            continue
        if glob is not None:
            p = path_col[i]
            if p is None:
                continue
            if matched_paths is not None:
                if p not in matched_paths:
                    continue
            elif not fnmatchcase(p, glob):
                continue
        append(i)
    return keep


def project_shard(
    blob: bytes,
    sha: str,
    rank: int,
    plan: Optional[Dict[str, Any]],
    fields: Sequence[str],
) -> Tuple[Sequence[int], Dict[str, List[Any]]]:
    """The projected scan kernel every archive reader goes through.

    Returns ``(indices, columns)``: the capture-order indices of the
    segment's events that pass ``plan``'s filters (``None`` = no
    filters; membership filters as sets, see :func:`worker_plan`) and
    ``fields`` projected over all its events.  When the segment header
    alone proves nothing matches, no column is decoded and both come
    back empty.  Only the columns the fields and filters touch are
    decoded from v2 segments; v1 segments arrive as the same column dict
    through :func:`~repro.store.segments.segment_columns`.
    """
    plan = plan or _NO_FILTERS
    header = segment_header(blob)
    glob = plan["path_glob"]
    matched_paths: Optional[frozenset] = None
    if glob is not None and header.get("paths") is not None:
        matched_paths = frozenset(
            p for p in header["paths"] if fnmatchcase(p, glob)
        )
    if _header_prune(header, rank, plan, matched_paths):
        return range(0), {f: [] for f in fields}
    need = set(fields)
    need.update(_filter_columns(plan))
    cols = segment_columns(blob, sorted(need), expected_sha=sha)
    n = len(cols[fields[0]])
    return _selection(n, cols, plan, matched_paths), cols


def shard_rows(
    blob: bytes,
    sha: str,
    rank: int,
    plan: Optional[Dict[str, Any]],
    fields: Sequence[str],
) -> List[Tuple[Any, ...]]:
    """The filtered per-event ``fields`` tuples of one segment, capture
    order — the op sequence DFGs and diagnosis fingerprints walk."""
    idxs, cols = project_shard(blob, sha, rank, plan, fields)
    picked = [cols[f] for f in fields]
    if not isinstance(idxs, range):
        picked = [list(map(col.__getitem__, idxs)) for col in picked]
    return list(zip(*picked))


def _scan_shard(task: Tuple[str, str, int, str, Dict[str, Any]]) -> Dict[str, Any]:
    """Filter + partially aggregate one shard (worker entry).

    Module-level so it pickles into :func:`~repro.harness.parallel.parallel_map`
    worker processes.  Partial results use only plain JSON types; per-shard
    float sums (``ops`` durations) accumulate in segment order.
    """
    root, run_id, rank, sha, plan = task
    blob = TraceBank(root, create=False).read_segment_blob(sha)
    plan = worker_plan(plan)
    agg = plan["agg"]
    idxs, cols = project_shard(blob, sha, rank, plan, _AGG_COLUMNS[agg])
    matched = len(idxs)
    out: Dict[str, Any] = {"matched": matched}
    if agg == "events":
        ts, du = cols["timestamp"], cols["duration"]
        ly, nm = cols["layer"], cols["name"]
        pid, hn = cols["pid"], cols["hostname"]
        pa, fd = cols["path"], cols["fd"]
        nb, off, res = cols["nbytes"], cols["offset"], cols["result"]
        out["events"] = [
            {
                "run": run_id,
                "rank": rank,
                "seq": i,
                "timestamp": ts[i],
                "duration": du[i],
                "layer": ly[i],
                "name": nm[i],
                "pid": pid[i],
                "hostname": hn[i],
                "path": pa[i],
                "fd": fd[i],
                "nbytes": nb[i],
                "offset": off[i],
                "result": res[i],
            }
            for i in idxs
        ]
    elif agg == "ops":
        ops: Dict[str, List[float]] = {}
        nm, du = cols["name"], cols["duration"]
        for i in idxs:
            cell = ops.setdefault(nm[i], [0, 0.0])
            cell[0] += 1
            cell[1] += du[i]
        out["ops"] = ops
    elif agg == "bytes":
        nb = cols["nbytes"]
        total = 0
        for i in idxs:
            v = nb[i]
            if v is not None:
                total += v
        out["rank"] = rank
        out["events"] = matched
        out["bytes"] = total
    else:  # bandwidth
        window = plan["window"]
        ts, nb = cols["timestamp"], cols["nbytes"]
        buckets: Dict[str, int] = {}
        for i in idxs:
            v = nb[i]
            if v is not None:
                key = str(int(ts[i] // window))
                buckets[key] = buckets.get(key, 0) + v
        out["buckets"] = buckets
    return out


def _merge_result(query: Query, partials: Sequence[Dict[str, Any]]) -> Tuple[Dict[str, Any], int]:
    matched = sum(p["matched"] for p in partials)
    if query.agg == "events":
        rows = [row for p in partials for row in p["events"]]
        rows.sort(key=lambda r: (r["timestamp"], r["run"], r["rank"], r["seq"]))
        truncated = query.limit is not None and len(rows) > query.limit
        if truncated:
            rows = rows[: query.limit]
        return {"events": rows, "truncated": truncated}, matched
    if query.agg == "ops":
        ops: Dict[str, List[float]] = {}
        for p in partials:
            for name, (calls, total) in sorted(p["ops"].items()):
                cell = ops.setdefault(name, [0, 0.0])
                cell[0] += calls
                cell[1] += total
        return {
            "ops": {
                name: {"calls": int(c), "total_time": t}
                for name, (c, t) in sorted(ops.items())
            }
        }, matched
    if query.agg == "bytes":
        ranks: Dict[str, Dict[str, int]] = {}
        for p in partials:
            cell = ranks.setdefault(str(p["rank"]), {"events": 0, "bytes": 0})
            cell["events"] += p["events"]
            cell["bytes"] += p["bytes"]
        total_bytes = sum(c["bytes"] for c in ranks.values())
        return {"ranks": dict(sorted(ranks.items(), key=lambda kv: int(kv[0]))),
                "total_bytes": total_bytes}, matched
    # bandwidth
    buckets: Dict[int, int] = {}
    for p in partials:
        for key, nbytes in p["buckets"].items():
            idx = int(key)
            buckets[idx] = buckets.get(idx, 0) + nbytes
    w = query.window
    rows = [
        {
            "t0": idx * w,
            "t1": (idx + 1) * w,
            "bytes": nbytes,
            "bandwidth": nbytes / w,
        }
        for idx, nbytes in sorted(buckets.items())
    ]
    return {"window": w, "buckets": rows}, matched


def run_query(
    bank: TraceBank, query: Query, jobs: int = 1
) -> Dict[str, Any]:
    """Answer one query; returns the canonical-JSON report dict.

    ``jobs > 1`` fans the shard scans over worker processes with results
    merged in shard order — output bytes never depend on the job count.
    Emits ``store.scan.*`` telemetry when a collector is active.
    """
    from repro.harness.parallel import parallel_map

    query.validate()
    _selected, shards, scan = select_shards(bank, query)
    plan = query.plan()
    tasks = [(root, run_id, rank, sha, plan) for root, run_id, rank, sha in shards]
    partials = parallel_map(_scan_shard, tasks, jobs=jobs)
    result, matched = _merge_result(query, partials)
    col = STATE.collector
    if col is not None:
        col.store_scan(scan["segments_scanned"], scan["segments_pruned"], matched)
    report = {
        "schema": QUERY_SCHEMA,
        "query": query.echo(),
        "scan": dict(scan, events_matched=matched),
        "result": result,
    }
    return json.loads(canonical_json(report))


def scan_events(
    bank: TraceBank, query: Query, jobs: int = 1
) -> List[Dict[str, Any]]:
    """Convenience: the ``events`` aggregate's globally ordered rows."""
    report = run_query(bank, replace(query, agg="events"), jobs=jobs)
    return report["result"]["events"]


def telemetry_view(bank: TraceBank, run_id: str) -> Dict[str, Any]:
    """Synthesize a ``repro/telemetry/v1`` payload from an archived run.

    Lets ``repro obs diff``/``critpath`` address runs by TraceBank run-id
    prefix even when they were archived without ``--telemetry``: the
    archived :class:`~repro.trace.events.TraceEvent` records are replayed
    into a fresh metrics registry and span recorder exactly the way the
    live ``os_call`` tracepoint would have recorded them (per-layer call
    counters, call-seconds and request-bytes histograms, one span per
    call on a ``(node, rank)`` track).  Only what the trace captured is
    reconstructed — DES/network/disk internals of the original run are
    absent, which is fine for diffing what the *frameworks* saw.

    Purely content-derived, so the payload is byte-identical wherever
    and whenever the view is built.  Raises
    :class:`~repro.errors.StoreError` on unknown/ambiguous prefixes.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.perfetto import to_chrome_trace
    from repro.obs.spans import SpanRecorder

    m = bank.manifest(run_id)
    rows = list(bank.iter_run_events(m.run_id))
    hostnames = sorted({e.hostname or ("rank%d" % rank) for rank, e in rows})
    node_index = {h: i for i, h in enumerate(hostnames)}

    registry = MetricsRegistry()
    recorder = SpanRecorder()
    end_time = 0.0
    for rank, e in rows:
        host = e.hostname or ("rank%d" % rank)
        pid = node_index[host]
        layer = e.layer.value
        registry.inc("os.calls.%s" % layer)
        registry.inc("os.%s.%s" % (layer, e.name))
        registry.observe("os.call_seconds", e.duration)
        if e.nbytes is not None:
            registry.observe("os.io_request_bytes", e.nbytes)
        recorder.name_track(pid, "node%d %s" % (pid, host), rank,
                            "rank %d" % rank)
        args = {"nbytes": e.nbytes} if e.nbytes is not None else None
        recorder.complete(pid, rank, e.name, layer, e.timestamp, e.duration,
                          args)
        end_time = max(end_time, e.timestamp + e.duration)
    payload = {
        "schema": "repro/telemetry/v1",
        "metrics": registry.snapshot(end_time=end_time),
        "trace": to_chrome_trace(recorder),
        "source": {"kind": "store", "run_id": m.run_id},
    }
    return json.loads(canonical_json(payload))
