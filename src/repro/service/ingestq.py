"""The bounded write-ahead ingest queue (WAL) with explicit backpressure.

Streaming ingest must survive two things a direct ``ingest_bundle`` call
does not: a crash between "client got 202" and "segments on disk", and a
thundering herd of producers.  The queue answers both:

* **Durability** — every accepted upload is first landed as one WAL
  entry (``wal/<seq>.wal``: a JSON header line + the raw upload bytes,
  written atomically) *before* the request is acknowledged.  The commit
  workers then run the idempotent :meth:`TraceBank.ingest_bundle` dedup
  path and unlink the entry; a crash replays surviving entries on the
  next startup (re-committing one is harmless — ingest is idempotent).
* **Backpressure** — at most ``capacity`` entries may be in flight
  (queued or committing).  ``reserve()`` beyond that raises
  :class:`~repro.errors.IngestQueueFull`, which the HTTP layer maps to
  ``429 Too Many Requests`` + ``Retry-After`` — memory and WAL disk are
  bounded by ``capacity × max_body_bytes``, never by client count.

Entries that fail commit with a *data* error (undecodable bytes that
somehow reached the queue, e.g. a WAL file corrupted on disk between
restarts) are discarded — unlinked and counted — not retried forever.
A *transient* commit failure (``OSError`` such as ENOSPC/EMFILE, or any
other non-data exception) must NOT discard: the entry was durably
acked, so its WAL file stays on disk and the next startup's recovery
re-commits it.  The store itself stays verifiable throughout because
nothing touches ``segments/``/``manifests/`` except the atomic-write
ingest path.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import IngestQueueFull, ServiceError, TraceError
from repro.store.bank import IngestResult, _atomic_write_bytes
from repro.trace import binary_format, text_format
from repro.trace.records import TraceBundle, TraceFile

__all__ = ["WAL_SCHEMA", "WalEntry", "IngestQueue", "decode_upload"]

#: Versioned WAL header schema; recovery discards anything else.
WAL_SCHEMA = "repro/service/wal/v1"


def decode_upload(body: bytes) -> TraceFile:
    """Decode one uploaded trace body (binary or text format).

    Raises :class:`~repro.errors.TraceError` subclasses on truncated or
    corrupt bytes — the HTTP layer's typed-4xx contract.  An empty body
    is rejected here too (an aborted client must not become an empty
    run).
    """
    if not body:
        raise TraceError("empty upload body")
    if body[: len(binary_format.MAGIC)] == binary_format.MAGIC:
        return binary_format.decode_trace_file(body)
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError("upload is neither binary-trace nor UTF-8: %s" % exc) from None
    return text_format.decode_trace_file(text)


@dataclass
class WalEntry:
    """One accepted-but-not-yet-committed upload."""

    entry_id: str
    tenant: str
    rank: Optional[int]
    meta: Dict[str, str]
    codec: str
    path: Path
    nbytes: int
    #: Decoded at accept time (fresh uploads) or at recovery; commit
    #: re-uses it so the body is only parsed once per process.
    trace: Optional[TraceFile] = None
    #: Resolved with the :class:`IngestResult` (or exception) for
    #: ``?sync=1`` requests that wait for their commit.
    future: Optional["asyncio.Future[IngestResult]"] = field(
        default=None, repr=False
    )
    #: Trace-context join points, set at accept time so the commit
    #: worker can attach its spans to the originating request's trace
    #: (recovered entries have none — their request is long gone).
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    enqueue_ts: Optional[float] = None
    #: Zero-arg seconds callable (the app's uptime clock); when set,
    #: :meth:`IngestQueue.commit` stamps the ``bank.ingest_bundle``
    #: interval below so the commit worker can emit the bank span.
    clock: Optional[Any] = field(default=None, repr=False)
    bank_ts: Optional[float] = None
    bank_dur: Optional[float] = None


class IngestQueue:
    """Bounded WAL-backed ingest queue (see module docstring).

    ``reserve()``/``release()`` bound the in-flight count; the asyncio
    queue between the HTTP handlers and the commit workers never holds
    more than ``capacity`` entries.  All methods are meant to be called
    from the server's event-loop thread except :meth:`write_wal` and
    :meth:`commit`, which block on file I/O and belong in an executor.
    """

    def __init__(
        self,
        root: Union[str, Path],
        capacity: int = 256,
        retry_after: float = 0.25,
    ):
        if capacity < 1:
            raise ServiceError("ingest queue capacity must be >= 1")
        self.wal_dir = Path(root) / "wal"
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.capacity = int(capacity)
        self.retry_after = float(retry_after)
        self.queue: "asyncio.Queue[WalEntry]" = asyncio.Queue()
        self._in_flight = 0
        #: ``write_wal`` runs in executor threads (one per concurrent
        #: upload), so sequence allocation must be synchronized: two
        #: uploads drawing the same seq would share a WAL path and the
        #: second atomic write would silently overwrite the first
        #: durably-acked entry.
        self._seq_lock = threading.Lock()
        self._seq = self._next_seq_start()
        self.committed = 0
        self.discarded = 0

    def _next_seq_start(self) -> int:
        highest = -1
        for p in self.wal_dir.glob("*.wal"):
            try:
                highest = max(highest, int(p.stem.split("-", 1)[0]))
            except ValueError:
                continue
        return highest + 1

    # -- backpressure --------------------------------------------------------

    @property
    def depth(self) -> int:
        """Entries currently in flight (accepted, not yet committed)."""
        return self._in_flight

    def reserve(self) -> None:
        """Claim one in-flight slot or raise :class:`IngestQueueFull`."""
        if self._in_flight >= self.capacity:
            raise IngestQueueFull(self._in_flight, self.capacity, self.retry_after)
        self._in_flight += 1

    def release(self) -> None:
        """Return one slot (commit finished or accept failed mid-way)."""
        self._in_flight = max(0, self._in_flight - 1)

    # -- accept path ---------------------------------------------------------

    def write_wal(
        self,
        tenant: str,
        body: bytes,
        trace: TraceFile,
        rank: Optional[int],
        meta: Dict[str, str],
        codec: str,
    ) -> WalEntry:
        """Durably land one accepted upload as a WAL entry (blocking I/O).

        The caller must hold a reservation.  The entry file is written
        atomically, so a crash leaves either a complete entry or nothing.
        """
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
        entry_id = "%08d-%s" % (seq, tenant)
        path = self.wal_dir / (entry_id + ".wal")
        if path.exists():
            raise ServiceError(
                "WAL entry %s already exists; refusing to overwrite a "
                "durably-acked upload" % path.name
            )
        header = {
            "schema": WAL_SCHEMA,
            "tenant": tenant,
            "rank": rank,
            "meta": dict(meta),
            "codec": codec,
            "nbytes": len(body),
            "sha256": hashlib.sha256(body).hexdigest(),
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body
        _atomic_write_bytes(path, blob)
        return WalEntry(
            entry_id=entry_id,
            tenant=tenant,
            rank=rank,
            meta=dict(meta),
            codec=codec,
            path=path,
            nbytes=len(body),
            trace=trace,
        )

    # -- recovery ------------------------------------------------------------

    def recover(self) -> List[WalEntry]:
        """Replay WAL entries surviving a previous process (blocking I/O).

        Complete, decodable entries come back ready to enqueue; torn or
        corrupt ones (bad schema, checksum mismatch, undecodable body)
        are discarded on the spot — they never reached a 202 whose data
        the client believes safe, or their bytes rotted and re-upload is
        the only cure.
        """
        entries: List[WalEntry] = []
        for path in sorted(self.wal_dir.glob("*.wal")):
            try:
                blob = path.read_bytes()
                head, sep, body = blob.partition(b"\n")
                header = json.loads(head.decode("utf-8"))
                if (
                    not sep
                    or not isinstance(header, dict)
                    or header.get("schema") != WAL_SCHEMA
                    or len(body) != int(header["nbytes"])
                    or hashlib.sha256(body).hexdigest() != header["sha256"]
                ):
                    raise ValueError("torn or corrupt WAL entry")
                trace = decode_upload(body)
            except (OSError, ValueError, KeyError, TypeError, TraceError):
                self.discarded += 1
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            # An entry without a codec was written before headers carried
            # one, when every ingest was v1.  It must replay as "v1" (not
            # as today's default) to recover the run id it was acked under.
            entries.append(
                WalEntry(
                    entry_id=path.stem,
                    tenant=str(header["tenant"]),
                    rank=(None if header.get("rank") is None else int(header["rank"])),
                    meta={str(k): str(v) for k, v in dict(header.get("meta") or {}).items()},
                    codec=str(header.get("codec") or "v1"),
                    path=path,
                    nbytes=len(body),
                    trace=trace,
                )
            )
        return entries

    # -- commit path ---------------------------------------------------------

    def commit(self, entry: WalEntry, bank) -> IngestResult:
        """Idempotently archive one entry and retire its WAL file.

        Blocking (hashing + file I/O); run in an executor.  The WAL file
        is unlinked only after the manifest is durably in place — the
        crash window re-commits, never loses.
        """
        clock = entry.clock
        trace = entry.trace
        if trace is None:  # pragma: no cover - recovery always decodes
            raise ServiceError("WAL entry %s lost its decoded trace" % entry.entry_id)
        rank = entry.rank
        if rank is None:
            rank = trace.rank if trace.rank is not None else 0
        bundle = TraceBundle(files={int(rank): trace})
        if trace.framework:
            bundle.metadata.setdefault("framework", trace.framework)
        meta: Dict[str, Any] = {"kind": "service"}
        meta.update(entry.meta)
        if clock is not None:
            entry.bank_ts = clock()
        result = bank.ingest_bundle(bundle, meta=meta, codec=entry.codec)
        if clock is not None and entry.bank_ts is not None:
            entry.bank_dur = clock() - entry.bank_ts
        try:
            entry.path.unlink()
        except OSError:
            pass
        self.committed += 1
        return result
