"""Transport-independent request handling for the TraceBank service.

:class:`ServiceApp` owns the tenant registry, the bounded write-ahead
ingest queue, its commit workers, and the always-on request metrics; the
HTTP server (:mod:`repro.service.server`) is a thin byte shuffler over
:meth:`ServiceApp.handle`, which makes every route testable without a
socket.

Routes (all responses canonical JSON)::

    GET  /healthz                      liveness + queue depth
    GET  /v1/stats                     service-wide archive stats (dedup)
    GET  /v1/metrics                   request/ingest/commit metrics
    GET  /v1/tenants                   tenant namespace listing
    POST /v1/t/{tenant}/ingest        one trace upload (binary or text
                                       format); 202 on accept, or with
                                       ``?sync=1`` 200 after commit with
                                       the dedup-aware ingest result
    GET  /v1/t/{tenant}/runs          the tenant's archived runs
    GET  /v1/t/{tenant}/query         the store query engine (same params
                                       as ``repro store query``; the body
                                       is byte-identical to its --json)
    GET  /v1/t/{tenant}/dfg           directly-follows graph, ditto

Error contract: every failure is a typed JSON body
``{"error": {"type", "message"}}`` — 400 for malformed queries/bodies/
tenant names, 404 for unknown routes/tenants/runs, 405 for wrong
methods, 413 for oversized bodies (enforced by the server before the
body is read), and 429 + ``Retry-After`` when the ingest queue is full.
Nothing is ever persisted for a rejected request: the WAL entry is
written only after the body fully arrived and decoded.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import (
    IngestQueueFull,
    ReproError,
    ServiceError,
    StoreError,
    StoreNotFound,
    StoreQueryError,
    TenantNameError,
    TraceError,
)
from repro.obs.metrics import MetricsRegistry, canonical_json
from repro.obs.prom import render_prometheus
from repro.obs.reqtrace import (
    RequestTrace,
    RequestTraceLog,
    make_context,
    parse_traceparent,
)
from repro.obs.tracepoints import STATE
from repro.service.ingestq import IngestQueue, WalEntry, decode_upload
from repro.service.tenants import TenantRegistry
from repro.store.bank import TraceBank
from repro.store.dfg import build_dfg
from repro.store.query import Query, run_query
from repro.store.segments import DEFAULT_CODEC

__all__ = ["Request", "Response", "ServiceApp", "query_from_params"]

_TENANT_ROUTE = re.compile(r"^/v1/t/([^/]+)/(ingest|runs|query|dfg)$")


@dataclass
class Request:
    """One parsed HTTP request, transport details already stripped."""

    method: str
    path: str
    params: Dict[str, List[str]] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Server-uptime seconds when the request head arrived, stamped by
    #: the transport; ``handle()`` falls back to its own entry time.
    t_recv: Optional[float] = None
    #: The live :class:`~repro.obs.reqtrace.RequestTrace`, set by
    #: ``handle()``; route handlers add their spans to it.
    trace: Optional[RequestTrace] = None
    #: Span id route handlers parent their spans under.
    handler_span_id: Optional[str] = None

    def param(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """The first value of one query parameter, or ``default``."""
        values = self.params.get(name)
        return values[0] if values else default


@dataclass
class Response:
    """One response: status + canonical-JSON (or text) body."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


def _json_body(obj: Any) -> bytes:
    return (canonical_json(obj) + "\n").encode("utf-8")


def _error_response(status: int, exc_type: str, message: str,
                    headers: Optional[Dict[str, str]] = None) -> Response:
    return Response(
        status=status,
        body=_json_body({"error": {"type": exc_type, "message": message}}),
        headers=dict(headers or {}),
    )


def _status_for(exc: BaseException) -> int:
    if isinstance(exc, IngestQueueFull):
        return 429
    if isinstance(exc, StoreNotFound):
        return 404
    if isinstance(exc, (TenantNameError, TraceError, StoreQueryError)):
        return 400
    if isinstance(exc, StoreError) and "no archived run matches" in str(exc):
        return 404
    if isinstance(exc, ReproError):
        return 400
    return 500


def query_from_params(params: Dict[str, List[str]]) -> Query:
    """Build a :class:`~repro.store.query.Query` from URL query params.

    Mirrors the ``repro store query`` CLI flags one-to-one (``ranks``,
    ``ops``, ``layers``, ``path_glob``, ``since``, ``until``, ``window``,
    ``limit``, ``runs``, ``where.<key>=<value>``, ``agg``) so a service
    answer is byte-identical to the CLI's over the same namespace.
    Values may repeat or be comma-separated.  Raises
    :class:`~repro.errors.StoreQueryError` on malformed values.
    """

    def multi(name: str) -> Optional[List[str]]:
        values: List[str] = []
        for raw in params.get(name, []):
            values.extend(v for v in raw.split(",") if v)
        return values or None

    def scalar_float(name: str) -> Optional[float]:
        raw = params.get(name)
        if not raw:
            return None
        try:
            return float(raw[0])
        except ValueError:
            raise StoreQueryError("bad float for %r: %r" % (name, raw[0])) from None

    where: Dict[str, str] = {}
    for key, values in params.items():
        if key.startswith("where.") and values:
            where[key[len("where."):]] = values[-1]
    ranks_raw = multi("ranks")
    try:
        ranks = [int(r) for r in ranks_raw] if ranks_raw is not None else None
    except ValueError:
        raise StoreQueryError("bad integer in ranks=%r" % (ranks_raw,)) from None
    limit_raw = params.get("limit")
    limit: Optional[int] = None
    if limit_raw:
        try:
            limit = int(limit_raw[0])
        except ValueError:
            raise StoreQueryError("bad integer limit %r" % limit_raw[0]) from None
    window = scalar_float("window")
    return Query.create(
        agg=(params.get("agg") or ["ops"])[0],
        ranks=ranks,
        names=multi("ops"),
        layers=multi("layers"),
        path_glob=(params.get("path_glob") or [None])[0],
        since=scalar_float("since"),
        until=scalar_float("until"),
        where=where,
        runs=multi("runs"),
        window=0.05 if window is None else window,
        limit=limit,
    )


class ServiceApp:
    """The service's brain: tenants + WAL queue + workers + metrics."""

    def __init__(
        self,
        store_root: Union[str, Path],
        queue_capacity: int = 256,
        max_body_bytes: int = 32 << 20,
        query_jobs: int = 1,
        commit_workers: int = 2,
        codec: str = DEFAULT_CODEC,
        access_log: Optional[Union[str, Path]] = None,
        trace_ring: int = 512,
        slowest_per_route: int = 8,
    ):
        self.registry = TenantRegistry(store_root)
        self.queue = IngestQueue(self.registry.root, capacity=queue_capacity)
        self.max_body_bytes = int(max_body_bytes)
        self.query_jobs = int(query_jobs)
        self.commit_workers = int(commit_workers)
        self.codec = codec
        self.metrics = MetricsRegistry()
        self.traces = RequestTraceLog(
            ring_size=trace_ring, slowest_per_route=slowest_per_route
        )
        # Wall clock: spans and timelines run on monotonic uptime seconds
        # (perf_counter offset); the epoch base is only for access-log
        # timestamps and the fallback trace-id nonce.
        self._started_epoch = time.time()
        self._started_perf = time.perf_counter()
        self._trace_seq = itertools.count()
        self.access_log_path = Path(access_log) if access_log else None
        self._access_fh = None
        self._access_lock = threading.Lock()
        self.access_lines = 0
        if self.access_log_path is not None:
            self.access_log_path.parent.mkdir(parents=True, exist_ok=True)
            self._access_fh = open(self.access_log_path, "a", encoding="utf-8")
        # Decode/WAL/commit/query all share this pool; keep headroom so
        # accept-path hops cannot starve the commit workers.
        self.executor = ThreadPoolExecutor(
            max_workers=max(4, commit_workers + query_jobs + 2),
            thread_name_prefix="repro-service",
        )
        self._banks: Dict[str, TraceBank] = {}
        self._workers: List["asyncio.Task[None]"] = []
        #: Test hook: when set to an :class:`asyncio.Event`, commit
        #: workers park on it before touching the store — lets fault
        #: tests fill the queue deterministically.
        self.commit_gate: Optional[asyncio.Event] = None

    # -- lifecycle -----------------------------------------------------------

    async def startup(self) -> None:
        """Recover the WAL and start the commit workers."""
        loop = asyncio.get_running_loop()
        recovered = await loop.run_in_executor(self.executor, self.queue.recover)
        for entry in recovered:
            # Recovered entries bypass reserve(): they already consumed
            # their slot in a previous life and must drain regardless.
            self.queue._in_flight += 1
            self.queue.queue.put_nowait(entry)
            self.metrics.inc("service.wal.recovered")
        for _ in range(self.commit_workers):
            self._workers.append(asyncio.create_task(self._commit_loop()))

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the workers, optionally committing queued entries first."""
        if drain and self.queue.depth:
            await self.queue.queue.join()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        self.executor.shutdown(wait=True)
        if self._access_fh is not None:
            self._access_fh.close()
            self._access_fh = None

    def uptime(self) -> float:
        """Wall-clock seconds since this app was constructed (monotonic)."""
        return time.perf_counter() - self._started_perf

    # -- internals -----------------------------------------------------------

    def _bank(self, tenant: str, create: bool = True) -> TraceBank:
        bank = self._banks.get(tenant)
        if bank is None:
            bank = self.registry.bank(tenant, create=create)
            self._banks[tenant] = bank
        return bank

    async def _commit_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            entry: WalEntry = await self.queue.queue.get()
            t_start = self.uptime()
            if entry.trace_id is not None and entry.enqueue_ts is not None:
                self.traces.attach(
                    entry.trace_id, "wal", "wal.queue.wait",
                    entry.enqueue_ts, t_start - entry.enqueue_ts,
                    parent_span_id=entry.parent_span_id,
                )
            try:
                if self.commit_gate is not None:
                    await self.commit_gate.wait()
                bank = self._bank(entry.tenant)
                entry.clock = self.uptime
                result = await loop.run_in_executor(
                    self.executor, self.queue.commit, entry, bank
                )
            except asyncio.CancelledError:
                # Shutdown mid-commit: the entry stays in the WAL and the
                # next startup recovers it (re-commit is idempotent).  No
                # release/task_done — nothing joins the queue after this.
                raise
            except Exception as exc:
                self.metrics.inc("service.commit.errors")
                if isinstance(exc, (TraceError, ValueError)):
                    # Data error: the bytes themselves are bad and a
                    # retry cannot cure them — discard the entry.
                    self.queue.discarded += 1
                    try:
                        entry.path.unlink()
                    except OSError:
                        pass
                else:
                    # Transient failure (ENOSPC, EMFILE, permission
                    # blip): the upload was durably acked, so its WAL
                    # file stays on disk for the next startup's
                    # recovery to re-commit.
                    self.metrics.inc("service.commit.deferred")
                self._commit_spans(entry, t_start, ok=False)
                if entry.future is not None and not entry.future.done():
                    entry.future.set_exception(exc)
            else:
                m = self.metrics
                m.inc("service.commit.runs")
                m.inc("service.commit.segments", result.segments)
                m.inc("service.commit.new_segments", result.new_segments)
                m.inc("service.commit.deduped_segments", result.deduped_segments)
                m.inc("service.commit.events", result.events)
                self._commit_spans(entry, t_start, ok=True, run_id=result.run_id)
                if entry.future is not None and not entry.future.done():
                    entry.future.set_result(result)
            self.queue.release()
            self.metrics.sample(
                "service.queue_depth", self.uptime(), self.queue.depth
            )
            self.queue.queue.task_done()

    def _commit_spans(
        self, entry: WalEntry, t_start: float, ok: bool,
        run_id: Optional[str] = None,
    ) -> None:
        """Attach the async commit/bank spans to the originating trace.

        A no-op once the trace has been evicted from the ring — the span
        chain is complete for every trace the service still serves.
        """
        if entry.trace_id is None:
            return
        commit_sid = self.traces.attach(
            entry.trace_id, "commit", "commit", t_start,
            self.uptime() - t_start,
            parent_span_id=entry.parent_span_id,
            args={"entry_id": entry.entry_id, "ok": ok},
        )
        if (commit_sid is not None and entry.bank_ts is not None
                and entry.bank_dur is not None):
            self.traces.attach(
                entry.trace_id, "bank", "bank.ingest",
                entry.bank_ts, entry.bank_dur,
                parent_span_id=commit_sid,
                args={"run_id": run_id} if run_id else None,
            )

    def _record(self, route: str, tenant: Optional[str], status: int,
                seconds: float) -> None:
        m = self.metrics
        m.inc("service.requests")
        m.inc("service.route.%s" % route)
        m.inc("service.status.%d" % status)
        m.observe("service.request_seconds", seconds)
        m.observe("service.route_seconds{route=%s}" % route, seconds)
        m.observe(
            "service.request_seconds{route=%s,status=%d}" % (route, status),
            seconds,
        )
        if tenant:
            m.observe("service.tenant_seconds{tenant=%s}" % tenant, seconds)
        col = STATE.collector
        if col is not None:
            col.service_request(route, status, seconds)

    def _access(self, request: Request, response: Response,
                rt: RequestTrace) -> None:
        """Write one canonical JSONL access-log line (field order stable).

        ``canonical_json`` sorts keys, so two runs of the same plan emit
        byte-identical field ordering — only the values differ.
        """
        if self._access_fh is None:
            return
        line = canonical_json(
            {
                "bytes_in": len(request.body),
                "bytes_out": len(response.body),
                "method": request.method,
                "path": request.path,
                "queue_depth": rt.queue_depth,
                "route": rt.route,
                "status": rt.status,
                "tenant": rt.tenant,
                "trace_id": rt.trace_id,
                "ts": round(self._started_epoch + self.uptime(), 6),
                "wall_us": rt.wall_us,
            }
        )
        with self._access_lock:
            self._access_fh.write(line + "\n")
            self._access_fh.flush()
            self.access_lines += 1

    # -- dispatch ------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        """Route one request; never raises (errors become typed JSON).

        Every request gets a trace: the client's ``traceparent`` ids when
        it sent one (the client's span becomes the chain root, so client
        and server spans join by id alone), or fresh server-minted ids
        when it did not.  The finished trace lands in the span ring, one
        access-log line is written, and the per-route/status/tenant
        latency instruments are fed — error paths included.
        """
        t0 = self.uptime()
        t_recv = request.t_recv if request.t_recv is not None else t0
        ctx = parse_traceparent(request.headers.get("traceparent"))
        if ctx is None:
            # No (or malformed) client context: the trail starts here.
            ctx = make_context(
                "repro-service", self._started_epoch, next(self._trace_seq)
            )
        rt = RequestTrace(ctx.trace_id, ctx.span_id)
        rt.queue_depth = self.queue.depth
        request.trace = rt
        # Durations are patched in after dispatch; the ids must exist now
        # so handlers can parent their spans under the handler span.
        http_sid = rt.add("http", "http.request", t_recv, 0.0)
        request.handler_span_id = rt.add(
            "http", "handler", t0, 0.0, parent_span_id=http_sid
        )
        route = "other"
        try:
            route, response = await self._dispatch(request)
        except Exception as exc:  # the transport must never see a raise
            # A raising handler already stamped the matched route on the
            # trace (so a 429'd ingest is still an "ingest", not "other").
            route = rt.route
            status = _status_for(exc)
            headers = {}
            if isinstance(exc, IngestQueueFull):
                headers["Retry-After"] = "%.3f" % exc.retry_after
            response = _error_response(status, type(exc).__name__, str(exc), headers)
        t1 = self.uptime()
        rt.route = route
        rt.status = response.status
        rt.wall_us = max(0, int(round((t1 - t_recv) * 1e6)))
        rt.spans[0]["dur_us"] = rt.wall_us
        rt.spans[1]["name"] = "handler:%s" % route
        rt.spans[1]["dur_us"] = max(0, int(round((t1 - t0) * 1e6)))
        self.traces.finish(rt)
        self._record(route, rt.tenant, response.status, t1 - t_recv)
        self.metrics.sample("service.queue_depth", t1, self.queue.depth)
        self._access(request, response, rt)
        response.headers.setdefault("traceparent", ctx.header())
        return response

    async def _dispatch(self, request: Request) -> tuple:
        path = request.path
        if path == "/healthz":
            return "healthz", Response(
                200,
                _json_body(
                    {
                        "ok": True,
                        "queue_depth": self.queue.depth,
                        "queue_capacity": self.queue.capacity,
                    }
                ),
            )
        if path == "/v1/stats":
            return "stats", await self._stats(request)
        if path == "/v1/metrics":
            # end_time is real server uptime so Timeline.time_weighted_mean
            # (queue depth over the life of the process) is meaningful.
            snap = self.metrics.snapshot(end_time=self.uptime())
            if request.param("format") == "prom":
                return "metrics", Response(
                    200,
                    render_prometheus(snap).encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            return "metrics", Response(200, _json_body(snap))
        if path == "/v1/tenants":
            return "tenants", Response(
                200, _json_body({"tenants": self.registry.list_tenants()})
            )
        if path == "/v1/traces/slowest":
            limit_raw = request.param("limit")
            try:
                limit = int(limit_raw) if limit_raw else None
            except ValueError:
                return "traces", _error_response(
                    400, "BadRequest", "bad limit %r" % limit_raw
                )
            return "traces", Response(
                200,
                _json_body(
                    {
                        "slowest": self.traces.slowest(
                            request.param("route"), limit
                        ),
                        "ring": self.traces.stats(),
                    }
                ),
            )
        if path.startswith("/v1/traces/"):
            trace_id = path[len("/v1/traces/"):]
            found = self.traces.get(trace_id)
            if found is None:
                return "traces", _error_response(
                    404, "NotFound", "no retained trace %s" % trace_id
                )
            return "traces", Response(200, _json_body(found.report()))
        m = _TENANT_ROUTE.match(path)
        if m is None:
            return "other", _error_response(404, "NotFound", "no route %s" % path)
        tenant, verb = m.group(1), m.group(2)
        if request.trace is not None:
            request.trace.tenant = tenant
            request.trace.route = verb
        if verb == "ingest":
            if request.method != "POST":
                return "ingest", _error_response(
                    405, "MethodNotAllowed", "ingest is POST-only"
                )
            return "ingest", await self._ingest(tenant, request)
        if request.method != "GET":
            return verb, _error_response(
                405, "MethodNotAllowed", "%s is GET-only" % verb
            )
        if verb == "runs":
            return "runs", await self._runs(tenant)
        if verb == "query":
            return "query", await self._query(tenant, request)
        return "dfg", await self._dfg(tenant, request)

    # -- handlers ------------------------------------------------------------

    async def _stats(self, request: Request) -> Response:
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(self.executor, self.registry.stats)
        stats["queue"] = {
            "depth": self.queue.depth,
            "capacity": self.queue.capacity,
            "committed": self.queue.committed,
            "discarded": self.queue.discarded,
        }
        stats["traces"] = self.traces.stats()
        stats["uptime_seconds"] = self.uptime()
        return Response(200, _json_body(stats))

    async def _ingest(self, tenant: str, request: Request) -> Response:
        from repro.service.tenants import validate_tenant_name

        validate_tenant_name(tenant)
        # An accepted upload implies the namespace: create it at accept
        # time so the tenant's reads work as soon as its first ingest is
        # acknowledged, not only once the commit worker lands it.
        self._bank(tenant)
        if len(request.body) > self.max_body_bytes:
            return _error_response(
                413, "BodyTooLarge",
                "body of %d bytes exceeds the %d-byte limit"
                % (len(request.body), self.max_body_bytes),
            )
        loop = asyncio.get_running_loop()
        rt = request.trace
        self.queue.reserve()
        entry: Optional[WalEntry] = None
        wal_sid: Optional[str] = None
        try:
            t_dec = self.uptime()
            trace = await loop.run_in_executor(
                self.executor, decode_upload, request.body
            )
            if rt is not None:
                rt.add(
                    "wal", "wal.decode", t_dec, self.uptime() - t_dec,
                    parent_span_id=request.handler_span_id,
                    args={"nbytes": len(request.body)},
                )
            rank_raw = request.param("rank")
            try:
                rank = int(rank_raw) if rank_raw is not None else None
            except ValueError:
                raise TraceError("bad rank %r" % rank_raw) from None
            meta = {
                key[len("meta."):]: values[-1]
                for key, values in request.params.items()
                if key.startswith("meta.") and values
            }
            codec = request.param("codec", self.codec) or self.codec
            t_wal = self.uptime()
            entry = await loop.run_in_executor(
                self.executor,
                partial(
                    self.queue.write_wal,
                    tenant, request.body, trace, rank, meta, codec,
                ),
            )
            if rt is not None:
                wal_sid = rt.add(
                    "wal", "wal.append", t_wal, self.uptime() - t_wal,
                    parent_span_id=request.handler_span_id,
                    args={"entry_id": entry.entry_id},
                )
        except BaseException:
            self.queue.release()
            raise
        if rt is not None:
            # Join points for the commit worker, which runs after the
            # response: it attaches its spans to this trace by id.
            entry.trace_id = rt.trace_id
            entry.parent_span_id = wal_sid
        entry.enqueue_ts = self.uptime()
        self.metrics.inc("service.wal.appended")
        sync = request.param("sync") in ("1", "true", "yes")
        if sync:
            entry.future = loop.create_future()
        self.queue.queue.put_nowait(entry)
        if not sync:
            return Response(
                202,
                _json_body(
                    {
                        "accepted": entry.entry_id,
                        "tenant": tenant,
                        "queue_depth": self.queue.depth,
                    }
                ),
            )
        result = await entry.future  # typed errors propagate to handle()
        return Response(
            200,
            _json_body(
                {
                    "run_id": result.run_id,
                    "tenant": tenant,
                    "segments": result.segments,
                    "new_segments": result.new_segments,
                    "deduped_segments": result.deduped_segments,
                    "events": result.events,
                    "manifest_new": result.manifest_new,
                }
            ),
        )

    async def _runs(self, tenant: str) -> Response:
        loop = asyncio.get_running_loop()
        bank = self._bank(tenant, create=False)
        manifests = await loop.run_in_executor(self.executor, bank.manifests)
        rows = [
            {
                "run_id": m.run_id,
                "kind": m.meta.get("kind"),
                "framework": m.meta.get("framework"),
                "segments": len(m.segments),
                "n_events": m.n_events,
            }
            for m in manifests
        ]
        return Response(200, _json_body({"tenant": tenant, "runs": rows}))

    async def _query(self, tenant: str, request: Request) -> Response:
        bank = self._bank(tenant, create=False)
        query = query_from_params(request.params)
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            self.executor, partial(run_query, bank, query, jobs=self.query_jobs)
        )
        return Response(200, _json_body(report))

    async def _dfg(self, tenant: str, request: Request) -> Response:
        bank = self._bank(tenant, create=False)
        params = dict(request.params)
        params["agg"] = ["ops"]  # the DFG reuses the shared filters only
        query = query_from_params(params)
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            self.executor, partial(build_dfg, bank, query, jobs=self.query_jobs)
        )
        return Response(200, _json_body(report))
