"""service-mixed: open-loop traffic against ``repro service serve``.

The server runs as a child process over an empty store.  The request mix
comes from ``service.loadgen.build_plan`` (half ingests, a query-heavy
read mix, 4 tenants, a 16-payload pool so dedup happens); its per-client
lists are dealt round-robin into one schedule that is sent at a fixed
rate over ``CONNECTIONS`` keep-alive connections.  Each latency runs from
the request's due time, so a stall also delays the requests behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    SRC,
    WORK,
    LayerSampler,
    SpanLog,
    covered,
    fixed_mix,
    median,
    percentile,
)

#: Offered load (requests per second).  The closed-loop capacity with two
#: connections is 47-75 req/s; at this rate the server is busy about a
#: third of the time, so a slower host lengthens latencies roughly in
#: proportion instead of building a queue, and a 30-second run has 300
#: samples of each class.  The plan holds 640 requests (32 seconds).
RATE = 20.0
CONNECTIONS = 2
CLIENTS = 8
REQUESTS_PER_CLIENT = 80
TRACKS = ("http", "wal", "commit", "bank")
#: ``build_plan``'s read mix: a query twice as often as a run listing or a DFG.
READ_MIX = {"query": 0.5, "runs": 0.25, "dfg": 0.25}
READ_TARGETS = {
    "query": "/v1/t/%s/query?agg=ops&limit=32",
    "dfg": "/v1/t/%s/dfg?limit=32",
    "runs": "/v1/t/%s/runs",
}
#: The HTTP answer compared byte for byte with an in-process run_query.
PROBE_QUERY = "agg=ops"


def schedule(seed: int) -> Tuple[List[Tuple[str, ...]], List[bytes]]:
    """The plan's client lists dealt round-robin into one request order."""
    from repro.service.loadgen import build_plan

    plan = build_plan(clients=CLIENTS, requests_per_client=REQUESTS_PER_CLIENT,
                      tenants=4, payload_pool=16, ingest_fraction=0.5, seed=seed)
    order = [ops[step] for step in range(REQUESTS_PER_CLIENT) for ops in plan.ops]
    return order, plan.payloads


class Http:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, target: str, body: bytes = b"",
                      headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        assert self.reader is not None
        lines = ["%s %s HTTP/1.1" % (method, target), "Host: 127.0.0.1",
                 "Content-Length: %d" % len(body)]
        lines += ["%s: %s" % kv for kv in sorted((headers or {}).items())]
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readuntil(b"\r\n")).split(b" ", 2)[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
            elif name.strip().lower() == "connection":
                close = value.strip().lower() == "close"
        payload = await self.reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None


def _get(port: int, target: str) -> Tuple[int, bytes]:
    async def go() -> Tuple[int, bytes]:
        conn = Http(port)
        try:
            return await conn.request("GET", target)
        finally:
            await conn.close()

    return asyncio.run(go())


# -- server lifecycle ------------------------------------------------------------


def setup(seed: int) -> Dict[str, Any]:
    """Build the schedule and boot a healthy server over an empty store."""
    order, payloads = schedule(seed)
    store = WORK / "service" / "store"
    shutil.rmtree(store, ignore_errors=True)
    store.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "service", "serve", "--store", str(store),
         "--port", "0", "--workers", "2", "--trace-ring", "16384"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    state = {"proc": proc, "store": store, "order": order, "payloads": payloads}
    line = proc.stdout.readline() if proc.stdout else ""
    if "listening on http://" not in line:
        teardown(state)
        raise RuntimeError("service did not start: %r" % line)
    state["port"] = int(line.strip().rsplit(":", 1)[1])
    deadline = time.monotonic() + 30.0
    while True:
        try:
            if _get(state["port"], "/healthz")[0] == 200:
                return state
        except OSError:
            pass
        if time.monotonic() > deadline:
            teardown(state)
            raise RuntimeError("service never became healthy")
        time.sleep(0.01)


def teardown(state: Dict[str, Any]) -> None:
    proc = state["proc"]
    if proc.poll() is None:
        # SIGTERM, not SIGINT: a shell starts background jobs with SIGINT
        # ignored, the server inherits that, and would never stop.
        proc.terminate()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    shutil.rmtree(state["store"], ignore_errors=True)


# -- the open loop ---------------------------------------------------------------


def _target(op: Tuple[str, ...]) -> Tuple[str, str]:
    kind, tenant = op[0], op[1]
    if kind == "ingest":
        return "POST", "/v1/t/%s/ingest?rank=0" % tenant
    return "GET", READ_TARGETS[kind] % tenant


async def _drive(state: Dict[str, Any], seed: int, n: int, spans: SpanLog,
                 trace: bool) -> Dict[str, Any]:
    from repro.obs.reqtrace import make_context

    port, order, payloads = state["port"], state["order"], state["payloads"]
    queue: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()
    rows: List[Dict[str, Any]] = []
    lateness: List[float] = []
    root = spans.begin("open loop", "bench") if trace else None

    async def connection(tid: int) -> None:
        conn = Http(port)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                i, due = item
                op = order[i]
                method, target = _target(op)
                body = payloads[int(op[2])] if op[0] == "ingest" else b""
                ctx = make_context("perfbench", seed, i)
                # Odd requests go unrecorded so the traced run also
                # measures what recording costs.
                span = spans.begin("%s %s" % (op[0], op[1]), "client",
                                   parent=root.span_id, tid=tid, start=spans.at(due)
                                   ) if root is not None and i % 2 == 0 else None
                try:
                    status, _ = await conn.request(method, target, body,
                                                   {"traceparent": ctx.header()})
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    status = 0
                    await conn.close()
                done = time.perf_counter()
                if span is not None:
                    span.end = spans.at(done)
                rows.append({"i": i, "kind": op[0], "tenant": op[1], "status": status,
                             "latency": done - due, "trace_id": ctx.trace_id,
                             "recorded": span is not None})
        finally:
            await conn.close()

    workers = [asyncio.create_task(connection(c)) for c in range(CONNECTIONS)]
    t0 = time.perf_counter()
    for i in range(n):
        due = t0 + i / RATE
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(max(0.0, time.perf_counter() - due))
        queue.put_nowait((i, due))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    t_last = time.perf_counter()
    if root is not None:
        root.end = spans.now()
    return {"rows": rows, "lateness": lateness, "wall": t_last - t0, "t_last": t_last}


def _wait_drained(port: int) -> None:
    deadline = time.monotonic() + 60.0
    while json.loads(_get(port, "/healthz")[1])["queue_depth"]:
        if time.monotonic() > deadline:
            raise RuntimeError("ingest queue never drained")
        time.sleep(0.005)


def run(state: Dict[str, Any], seed: int, seconds: float, trace: bool,
        spans: SpanLog, sampler: Optional[LayerSampler]) -> Dict[str, Any]:
    n = min(len(state["order"]), max(1, int(RATE * seconds)))
    spans.enabled = trace
    try:
        out = asyncio.run(_drive(state, seed, n, spans, trace))
        _wait_drained(state["port"])
        out["drain_s"] = time.perf_counter() - out["t_last"]
    finally:
        spans.enabled = False
    out.update(_collect(state, out["rows"]))
    ok = {"ingest": 202, "query": 200, "dfg": 200, "runs": 200}
    out["attempted"] = len(out["rows"])
    out["failed"] = sum(1 for r in out["rows"] if r["status"] != ok[r["kind"]])
    return out


def _collect(state: Dict[str, Any], rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """After the drain: server traces, tenant run lists, stats, metrics,
    and the HTTP-versus-library query pair."""
    from repro.service.tenants import TenantRegistry
    from repro.store import run_query
    from repro.obs.metrics import canonical_json
    from repro.service.api import query_from_params
    from repro.service.server import parse_qs

    port = state["port"]
    traces = {}
    for r in rows:
        status, body = _get(port, "/v1/traces/" + r["trace_id"])
        if status == 200:
            traces[r["trace_id"]] = json.loads(body)
    tenants = sorted({r["tenant"] for r in rows})
    listed = {}
    for tenant in tenants:
        status, body = _get(port, "/v1/t/%s/runs" % tenant)
        listed[tenant] = (sorted(row["run_id"] for row in json.loads(body)["runs"])
                          if status == 200 else [])
    probe_tenant = tenants[0]
    _status, http_body = _get(port, "/v1/t/%s/query?%s" % (probe_tenant, PROBE_QUERY))
    bank = TenantRegistry(state["store"]).bank(probe_tenant, create=False)
    local = run_query(bank, query_from_params(parse_qs(PROBE_QUERY)))
    return {
        "traces": traces,
        "listed": listed,
        "http_query": http_body,
        "local_query": (canonical_json(local) + "\n").encode("utf-8"),
        "stats": json.loads(_get(port, "/v1/stats")[1]),
        "metrics": json.loads(_get(port, "/v1/metrics")[1]),
    }


# -- checks ------------------------------------------------------------------------


def acked_runs(rows: List[Dict[str, Any]], traces: Dict[str, Any]
               ) -> List[Tuple[str, Optional[str]]]:
    """(tenant, run id) of every 202-acked ingest, from the server's own
    trace of that request (its ``bank.ingest`` span names the run)."""
    acked = []
    for r in rows:
        if r["kind"] != "ingest" or r["status"] != 202:
            continue
        run_id = None
        for span in traces.get(r["trace_id"], {}).get("spans", ()):
            if span["name"] == "bank.ingest":
                run_id = (span.get("args") or {}).get("run_id")
        acked.append((r["tenant"], run_id))
    return acked


def check(state: Dict[str, Any], raw: Dict[str, Any],
          reference: Optional[Any] = None) -> List[str]:
    """Every acked ingest is listed in its tenant's runs, and the HTTP
    query answer is byte-identical to ``run_query`` on the same store."""
    problems = []
    for tenant, run_id in acked_runs(raw["rows"], raw["traces"]):
        if run_id is None:
            problems.append("acked ingest to %s has no committed run in its trace" % tenant)
        elif run_id not in raw["listed"].get(tenant, ()):
            problems.append("acked run %s missing from %s/runs" % (run_id[:12], tenant))
    if raw["http_query"] != raw["local_query"]:
        problems.append("HTTP query answer differs from run_query over the same store")
    return problems


# -- metrics -----------------------------------------------------------------------


def end_to_end(raw: Dict[str, Any]) -> Dict[str, Any]:
    """Main actions are ingest acks, side actions reads pooled in the
    plan's read mix (so a seed that draws a few more cheap run listings
    does not read as faster); work is completed requests per second."""
    rows = raw["rows"]
    reads = {kind: [r["latency"] * 1e3 for r in rows if r["kind"] == kind]
             for kind in READ_MIX}
    return {
        "main_ms": [r["latency"] * 1e3 for r in rows if r["kind"] == "ingest"],
        "side_ms": fixed_mix(reads, READ_MIX),
        "work_per_s": (raw["attempted"] - raw["failed"]) / raw["wall"],
    }


def self_ms_by_track(report: Dict[str, Any]) -> Dict[str, float]:
    """One server trace's self time per track, in ms."""
    spans = report["spans"]
    kids: Dict[str, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.get("parent_span_id"):
            kids.setdefault(s["parent_span_id"], []).append(
                (s["ts_us"], s["ts_us"] + s["dur_us"]))
    out: Dict[str, float] = {}
    for s in spans:
        lo, hi = s["ts_us"], s["ts_us"] + s["dur_us"]
        own = (hi - lo) - covered(kids.get(s["span_id"], ()), lo, hi)
        out[s["track"]] = out.get(s["track"], 0.0) + own / 1e3
    return out


def _time_weighted_mean(samples: List[List[float]]) -> float:
    if len(samples) < 2:
        return float(samples[0][1]) if samples else 0.0
    area = sum((t1 - t0) * v for (t0, v), (t1, _) in zip(samples, samples[1:]))
    return area / (samples[-1][0] - samples[0][0])


def per_layer(state: Dict[str, Any], raw: Dict[str, Any], spans: SpanLog,
              sampler: LayerSampler) -> Dict[str, float]:
    by_track: Dict[str, List[float]] = {t: [] for t in TRACKS}
    lags = []
    for report in raw["traces"].values():
        selfs = self_ms_by_track(report)
        for track in TRACKS:
            if track in selfs:
                by_track[track].append(selfs[track])
        names = {s["name"]: s for s in report["spans"]}
        if "wal.queue.wait" in names and "commit" in names:
            lags.append(names["wal.queue.wait"]["dur_us"] / 1e3
                        + names["commit"]["dur_us"] / 1e3)
    timeline = raw["metrics"].get("timelines", {}).get("service.queue_depth", {})
    rows = raw["rows"]
    on = [r["latency"] for r in rows if r["recorded"]]
    off = [r["latency"] for r in rows if not r["recorded"]]
    out = {"service.%s_ms" % t: median(v) for t, v in by_track.items() if v}
    out.update({
        "service.queue_depth_mean": _time_weighted_mean(timeline.get("samples", [])),
        "service.status_429": sum(1 for r in rows if r["status"] == 429),
        "service.commit_lag_ms": median(lags) if lags else 0.0,
        "service.drain_s": raw["drain_s"],
        "service.dedup_ratio": float(raw["stats"].get("dedup_ratio", 0.0)),
        "loadgen.lateness_p90_ms": percentile(raw["lateness"], 0.90) * 1e3,
        "bench.tracing_overhead_ms": (median(on) - median(off)) * 1e3,
    })
    return out
