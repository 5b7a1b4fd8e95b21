"""Content-addressed trace segments: the archive's unit of storage.

A *segment* is one ``(run, rank)`` slice of a trace bundle — a
:class:`~repro.trace.records.TraceFile` — serialized with one of two
codecs and addressed by the SHA-256 of its encoded bytes:

* ``v2`` — the columnar layout (:mod:`repro.trace.columnar`), the
  default for every writer;
* ``v1`` — the row-major record stream (:mod:`repro.trace.binary_format`),
  still written on request (``codec="v1"``) and read forever.

Both inherit CRC32 framing and optional zlib compression.  Readers never
need to be told which codec a blob uses — :func:`segment_header` and
:func:`segment_columns` sniff the magic, so old v1 archives stay readable
and a single archive can hold a mix.  :func:`segment_columns` is the one
read contract: either codec answers a projection with the same logical
column dict, which is all the query engine, the DFG builder and
diagnosis ever scan.  Content addressing is what makes the archive dedup
for free: re-ingesting an identical run re-derives the same bytes, the
same digest, and therefore the same on-disk file (per codec: the same
events encoded v1 and v2 are two distinct segments).

Every segment carries a :class:`SegmentMeta` summary in its run manifest —
time range, per-op and per-layer counts, payload bytes — which is what the
query engine's predicate pushdown consults to skip shards without reading
them.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add, attrgetter
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import StoreCorruptionError, StoreError, TraceError
from repro.trace import binary_format
from repro.trace.binary_format import decode_trace_file, encode_trace_file
from repro.trace.columnar import (
    decode_trace_file_columnar,
    encode_trace_file_columnar,
    is_columnar,
    read_columns,
    read_header,
    trace_file_columns,
)
from repro.trace.records import TraceFile

__all__ = [
    "CODECS",
    "DEFAULT_CODEC",
    "SegmentMeta",
    "content_address",
    "encode_segment",
    "decode_segment",
    "segment_codec",
    "segment_columns",
    "segment_header",
    "summarize_segment",
]

#: Codec names accepted by :func:`encode_segment` (and the CLI ``--codec``).
CODECS = ("v1", "v2")

#: The codec every writer uses unless told otherwise.
DEFAULT_CODEC = "v2"


def content_address(blob: bytes) -> str:
    """The segment's identity: SHA-256 hex digest of its encoded bytes."""
    return hashlib.sha256(blob).hexdigest()


def encode_segment(
    tf: TraceFile,
    compressed: bool = True,
    checksum: bool = True,
    codec: str = DEFAULT_CODEC,
) -> Tuple[bytes, str]:
    """Serialize one per-rank trace file; returns ``(blob, sha256)``.

    ``codec`` picks the wire layout: ``"v2"`` columnar, ``"v1"`` row-major
    records.  Either encoding is deterministic for fixed codec flags
    (fixed zlib level, canonical field order), so identical events always
    produce identical bytes — the property content addressing depends on.
    """
    if codec == "v1":
        blob = encode_trace_file(tf, compressed=compressed, checksum=checksum)
    elif codec == "v2":
        blob = encode_trace_file_columnar(
            tf, compressed=compressed, checksum=checksum
        )
    else:
        raise StoreError("unknown segment codec %r (expected one of %s)"
                         % (codec, ", ".join(CODECS)))
    return blob, content_address(blob)


def segment_codec(blob: bytes) -> str:
    """Which codec wrote ``blob`` — ``"v2"`` by magic sniff, else ``"v1"``."""
    return "v2" if is_columnar(blob) else "v1"


def decode_segment(blob: bytes, expected_sha: str = "") -> TraceFile:
    """Decode a segment blob back into a :class:`TraceFile`.

    The codec is sniffed from the blob's magic, so mixed-codec archives
    and pre-columnar (v1) archives decode transparently.  When
    ``expected_sha`` is given the blob's digest is verified first, and
    decode failures are reported as archive corruption
    (:class:`~repro.errors.StoreCorruptionError`) rather than plain trace
    format errors — the caller is reading the archive, not a user file.
    """
    if expected_sha:
        got = content_address(blob)
        if got != expected_sha:
            raise StoreCorruptionError(
                "segment content hash mismatch: manifest says %s, bytes are %s"
                % (expected_sha[:12], got[:12])
            )
    try:
        if is_columnar(blob):
            return decode_trace_file_columnar(blob)
        return decode_trace_file(blob)
    except TraceError as exc:
        if expected_sha:
            raise StoreCorruptionError(
                "segment %s fails to decode: %s" % (expected_sha[:12], exc)
            ) from exc
        raise


def segment_header(blob: bytes) -> Dict[str, Any]:
    """The segment's JSON header, read without touching event data.

    Both codecs carry the file identity and ``n_events``; v2 adds the
    per-column stats and distinct name/path sets that let a scan rule a
    segment out before decoding anything.
    """
    if is_columnar(blob):
        return read_header(blob)
    return binary_format.read_header(blob)


def segment_columns(
    blob: bytes, fields: Sequence[str], expected_sha: str = ""
) -> Dict[str, List[Any]]:
    """Project ``fields`` out of a segment of either codec.

    v2 segments decode only the requested column frames
    (:func:`~repro.trace.columnar.read_columns`).  v1 segments are
    decoded in full by :func:`decode_segment`, which checks
    ``expected_sha`` when given, and transposed into the identical column
    dict (:func:`~repro.trace.columnar.trace_file_columns`), so callers
    never branch on the codec.
    """
    if is_columnar(blob):
        return read_columns(blob, fields)
    return trace_file_columns(decode_segment(blob, expected_sha), fields)


@dataclass(frozen=True)
class SegmentMeta:
    """Manifest-resident summary of one segment (the pushdown index entry).

    ``t_min``/``t_max`` span event start times through end times
    (``timestamp`` .. ``end_timestamp``); ``ops`` and ``layers`` are sorted
    ``(name, count)`` pairs so the dataclass hashes and renders canonically.
    """

    rank: int
    sha256: str
    n_events: int
    t_min: float
    t_max: float
    total_duration: float
    payload_bytes: int
    encoded_bytes: int
    ops: Tuple[Tuple[str, int], ...] = ()
    layers: Tuple[Tuple[str, int], ...] = ()

    def to_json(self) -> Dict[str, Any]:
        """Plain-JSON manifest rendering (sorted mappings, no tuples)."""
        return {
            "rank": self.rank,
            "sha256": self.sha256,
            "n_events": self.n_events,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "total_duration": self.total_duration,
            "payload_bytes": self.payload_bytes,
            "encoded_bytes": self.encoded_bytes,
            "ops": {name: count for name, count in self.ops},
            "layers": {name: count for name, count in self.layers},
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "SegmentMeta":
        """Invert :meth:`to_json` (manifest load path)."""
        return SegmentMeta(
            rank=int(obj["rank"]),
            sha256=str(obj["sha256"]),
            n_events=int(obj["n_events"]),
            t_min=float(obj["t_min"]),
            t_max=float(obj["t_max"]),
            total_duration=float(obj["total_duration"]),
            payload_bytes=int(obj["payload_bytes"]),
            encoded_bytes=int(obj["encoded_bytes"]),
            ops=tuple(sorted((str(k), int(v)) for k, v in obj.get("ops", {}).items())),
            layers=tuple(
                sorted((str(k), int(v)) for k, v in obj.get("layers", {}).items())
            ),
        )

    # -- pushdown -----------------------------------------------------------

    def may_match(
        self,
        ranks=None,
        names=None,
        layers=None,
        since=None,
        until=None,
    ) -> bool:
        """Cheap necessary-condition check: can any event here match?

        ``False`` means the query engine may skip (prune) this segment
        without decoding it; ``True`` only promises the segment is worth
        scanning.  Time bounds compare against event *start* times, which
        is also what the scan-side window filter uses.
        """
        if ranks is not None and self.rank not in ranks:
            return False
        if self.n_events == 0:
            return False
        if since is not None and self.t_max < since:
            return False
        if until is not None and self.t_min >= until:
            return False
        if names is not None and not any(op in names for op, _ in self.ops):
            return False
        if layers is not None and not any(ly in layers for ly, _ in self.layers):
            return False
        return True


_summary_fields = attrgetter("name", "layer", "timestamp", "duration", "nbytes")


def summarize_segment(tf: TraceFile, rank: int, sha256: str, encoded_bytes: int) -> SegmentMeta:
    """Compute a :class:`SegmentMeta` over one trace file's events."""
    if not tf.events:
        return SegmentMeta(rank=rank, sha256=sha256, n_events=0, t_min=0.0,
                           t_max=0.0, total_duration=0.0, payload_bytes=0,
                           encoded_bytes=encoded_bytes)
    names, layers, stamps, durations, nbytes = zip(*map(_summary_fields, tf.events))
    return SegmentMeta(
        rank=rank,
        sha256=sha256,
        n_events=len(names),
        t_min=min(stamps),
        t_max=max(map(add, stamps, durations)),
        # reduce, not sum(): sum() compensates float rounding on newer
        # Pythons, which would change the stored bits across versions.
        total_duration=reduce(add, durations, 0.0),
        payload_bytes=sum(n for n in nbytes if n is not None),
        encoded_bytes=encoded_bytes,
        ops=tuple(sorted(Counter(names).items())),
        layers=tuple(sorted(
            (layer.value, count) for layer, count in Counter(layers).items()
        )),
    )
