"""Binary trace codec (the Tracefs-style format).

Tracefs generates "traces in binary format in order to save space and
facilitate automated parsing", with "optional checksumming, compression,
... or buffering (to improve performance) of output" (§2.2, §4.2).  This
codec has all four properties:

* **binary** — fixed struct header + length-prefixed strings per record;
* **checksummed** — every block travels in a CRC32 frame
  (:mod:`repro.trace.checksum`);
* **compressed** — optional zlib per block (:mod:`repro.trace.compressio`);
* **buffered** — records are grouped into blocks of ``block_records``
  events; larger blocks amortize framing/compression, the same trade the
  kernel module makes.

Layout::

    magic "RTBF" | version u16 | frame(header-json) | frame(block)*

where each block is ``compress(count u32 | record*)``.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Tuple

from repro.errors import TraceFormatError, TraceTruncatedError
from repro.trace.checksum import frame, unframe
from repro.trace.compressio import compress, decompress
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile

__all__ = [
    "encode_trace_file",
    "decode_trace_file",
    "encode_event_record",
    "decode_event_record",
    "read_header",
]

MAGIC = b"RTBF"
VERSION = 1

_FIXED = struct.Struct("<ddBIqqqB")
# timestamp f8 | duration f8 | layer u8 | pid u32 | fd q | nbytes q | offset q | flags u8
_F_RANK = 1 << 0
_F_FD = 1 << 1
_F_NBYTES = 1 << 2
_F_OFFSET = 1 << 3
_F_PATH = 1 << 4
_F_RESULT = 1 << 5

_LAYER_CODE = {layer: i for i, layer in enumerate(EventLayer)}
_CODE_LAYER = {i: layer for layer, i in _LAYER_CODE.items()}


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise TraceFormatError("string too long for binary record")
    return struct.pack("<H", len(raw)) + raw


def _unpack_str(data: bytes, offset: int) -> Tuple[str, int]:
    if offset + 2 > len(data):
        raise TraceTruncatedError("string length truncated")
    (n,) = struct.unpack_from("<H", data, offset)
    start = offset + 2
    if start + n > len(data):
        raise TraceTruncatedError("string body truncated")
    try:
        text = data[start : start + n].decode("utf-8")
    except UnicodeDecodeError:
        # Reachable with checksumming disabled: a flipped bit inside a
        # string body must surface as a format error, not a decode crash.
        raise TraceFormatError("corrupt UTF-8 in string field") from None
    return text, start + n


def encode_event_record(event: TraceEvent) -> bytes:
    """Serialize one event."""
    flags = 0
    rank = event.rank if event.rank is not None else 0
    if event.rank is not None:
        flags |= _F_RANK
    fd = event.fd if event.fd is not None else 0
    if event.fd is not None:
        flags |= _F_FD
    nbytes = event.nbytes if event.nbytes is not None else 0
    if event.nbytes is not None:
        flags |= _F_NBYTES
    off = event.offset if event.offset is not None else 0
    if event.offset is not None:
        flags |= _F_OFFSET
    if event.path is not None:
        flags |= _F_PATH
    if event.result is not None:
        flags |= _F_RESULT
    fixed = _FIXED.pack(
        event.timestamp,
        event.duration,
        _LAYER_CODE[event.layer],
        event.pid,
        fd,
        nbytes,
        off,
        flags,
    )
    # rank rides as i32 after the fixed part (kept out of _FIXED to keep
    # the optional-flag handling uniform).
    parts = [
        fixed,
        struct.pack("<i", rank),
        _pack_str(event.name),
        _pack_str(event.hostname),
        _pack_str(event.user),
        _pack_str(event.path or ""),
        _pack_str("" if event.result is None else str(event.result)),
        _pack_str(json.dumps(list(event.args), separators=(",", ":"))),
    ]
    return b"".join(parts)


def decode_event_record(data: bytes, offset: int = 0) -> Tuple[TraceEvent, int]:
    """Deserialize one event at ``offset``; returns ``(event, next_offset)``."""
    if offset + _FIXED.size > len(data):
        raise TraceTruncatedError("record fixed part truncated")
    ts, dur, layer_code, pid, fd, nbytes, off_, flags = _FIXED.unpack_from(data, offset)
    pos = offset + _FIXED.size
    if pos + 4 > len(data):
        raise TraceTruncatedError("record rank truncated")
    (rank,) = struct.unpack_from("<i", data, pos)
    pos += 4
    name, pos = _unpack_str(data, pos)
    hostname, pos = _unpack_str(data, pos)
    user, pos = _unpack_str(data, pos)
    path, pos = _unpack_str(data, pos)
    result_text, pos = _unpack_str(data, pos)
    args_json, pos = _unpack_str(data, pos)
    try:
        layer = _CODE_LAYER[layer_code]
    except KeyError:
        raise TraceFormatError("unknown layer code %d" % layer_code) from None
    try:
        args = tuple(json.loads(args_json))
    except (ValueError, TypeError):
        # TypeError covers corrupt-but-valid JSON scalars (e.g. "5"):
        # tuple(5) is not an args list, it is a damaged record.
        raise TraceFormatError("corrupt args JSON in record") from None
    result: Optional[object] = None
    if flags & _F_RESULT:
        try:
            result = int(result_text)
        except ValueError:
            result = result_text
    try:
        event = TraceEvent(
            timestamp=ts,
            duration=dur,
            layer=layer,
            name=name,
            args=args,
            result=result,
            pid=pid,
            rank=rank if flags & _F_RANK else None,
            hostname=hostname,
            user=user,
            path=path if flags & _F_PATH else None,
            fd=fd if flags & _F_FD else None,
            nbytes=nbytes if flags & _F_NBYTES else None,
            offset=off_ if flags & _F_OFFSET else None,
        )
    except (ValueError, TypeError):
        # Reachable only for unchecksummed data: corrupted numeric fields
        # (e.g. negative durations) surface as format errors, not crashes.
        raise TraceFormatError("invalid event fields in record") from None
    return event, pos


def encode_trace_file(
    tf: TraceFile,
    compressed: bool = True,
    checksum: bool = True,
    block_records: int = 128,
) -> bytes:
    """Serialize a whole trace file (see module docstring for layout)."""
    if block_records < 1:
        raise TraceFormatError("block_records must be >= 1")
    header = json.dumps(
        {
            "hostname": tf.hostname,
            "pid": tf.pid,
            "rank": tf.rank,
            "framework": tf.framework,
            "n_events": len(tf),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    out = [MAGIC, struct.pack("<H", VERSION), frame(header, with_checksum=checksum)]
    for i in range(0, len(tf.events), block_records):
        chunk = tf.events[i : i + block_records]
        body = struct.pack("<I", len(chunk)) + b"".join(
            encode_event_record(e) for e in chunk
        )
        out.append(frame(compress(body, enabled=compressed), with_checksum=checksum))
    return b"".join(out)


def _read_preamble(data: bytes) -> Tuple[dict, int]:
    """Validate magic/version, return (header, offset-of-first-block)."""
    if data[: len(MAGIC)] != MAGIC:
        raise TraceFormatError("not a binary trace (bad magic)")
    pos = len(MAGIC)
    if pos + 2 > len(data):
        raise TraceTruncatedError("version truncated")
    (version,) = struct.unpack_from("<H", data, pos)
    if version != VERSION:
        raise TraceFormatError("unsupported binary trace version %d" % version)
    pos += 2
    header_raw, pos = unframe(data, pos)
    try:
        header = json.loads(header_raw.decode("utf-8"))
    except ValueError:
        raise TraceFormatError("corrupt header JSON") from None
    if not isinstance(header, dict):
        # json.loads happily returns lists/scalars; header.get on one
        # would crash later with an AttributeError instead of a typed error.
        raise TraceFormatError("header is not a JSON object")
    return header, pos


def read_header(data: bytes) -> dict:
    """The trace's header (file identity and ``n_events``), blocks unread."""
    return _read_preamble(data)[0]


def decode_trace_file(data: bytes) -> TraceFile:
    """Invert :func:`encode_trace_file`, verifying checksums."""
    header, pos = _read_preamble(data)
    events: List[TraceEvent] = []
    while pos < len(data):
        payload, pos = unframe(data, pos)
        body = decompress(payload)
        if len(body) < 4:
            raise TraceTruncatedError("block count truncated")
        (count,) = struct.unpack_from("<I", body, 0)
        rpos = 4
        for _ in range(count):
            event, rpos = decode_event_record(body, rpos)
            events.append(event)
        if rpos != len(body):
            raise TraceFormatError("trailing bytes inside block")
    expected = header.get("n_events")
    if expected is not None and expected != len(events):
        raise TraceFormatError(
            "header said %s events, decoded %d" % (expected, len(events))
        )
    return TraceFile(
        events,
        hostname=header.get("hostname", ""),
        pid=header.get("pid", 0),
        rank=header.get("rank"),
        framework=header.get("framework", ""),
    )
