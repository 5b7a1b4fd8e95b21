"""Columnar binary trace codec (store codec v2).

Where the v1 codec (:mod:`repro.trace.binary_format`) serializes one
record after another — so reading *any* field means decoding *every*
field of every event — this codec shreds a :class:`~repro.trace.records.
TraceFile` into per-field **columns**, each compressed and CRC-framed
independently:

* a query that touches two fields decompresses two frames and hops over
  the rest by length prefix (:func:`repro.trace.checksum.frame_span`) —
  no CRC pass, no inflate, no object construction for unused columns;
* strings (op names, hostnames, users, paths, rendered results, args
  JSON) are interned into one shared dictionary and stored as u32 ids —
  traces repeat a handful of operation names millions of times, and the
  repeats collapse to small integers before zlib ever sees them;
* integer columns are delta-encoded (first value, then differences)
  ahead of zlib; floats are stored as raw IEEE-754 little-endian
  doubles, never delta'd, so decode is bit-exact;
* the header carries per-column min/max plus the distinct op-name and
  path sets, giving readers column-granularity predicate pushdown on
  top of the manifest-granularity pruning the store already does.

Layout::

    magic "RTCF" | version u16 | frame(header-json) | frame(dictionary)
                 | frame(column)*   (fixed order, listed in the header)

where each column frame body is ``compress(enc-tag u8 | packed-bytes)``.
Nullable fields (rank, path, fd, nbytes, offset, result) ride as dense
arrays with a per-event ``flags`` bitmap column marking which slots are
real — exactly the v1 flag bits, transposed.
"""

from __future__ import annotations

import json
import struct
from itertools import accumulate, chain, starmap
from operator import attrgetter, sub
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import TraceFormatError, TraceTruncatedError
from repro.trace.checksum import frame, frame_span, unframe
from repro.trace.compressio import compress, decompress
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile

__all__ = [
    "MAGIC",
    "VERSION",
    "COLUMNS",
    "encode_trace_file_columnar",
    "decode_trace_file_columnar",
    "is_columnar",
    "read_header",
    "read_columns",
    "trace_file_columns",
]

MAGIC = b"RTCF"
VERSION = 2

# v1-compatible per-event presence bits (the flags column), plus one new
# bit preserving whether a present result was an int or a string — v1
# re-parses the rendered text and cannot tell "5" from 5.
_F_RANK = 1 << 0
_F_FD = 1 << 1
_F_NBYTES = 1 << 2
_F_OFFSET = 1 << 3
_F_PATH = 1 << 4
_F_RESULT = 1 << 5
_F_RESULT_INT = 1 << 6

#: The presence bit of each nullable field other than ``result``.
_PRESENCE_BIT = {
    "rank": _F_RANK, "fd": _F_FD, "nbytes": _F_NBYTES, "offset": _F_OFFSET,
    "path": _F_PATH,
}

_LAYER_CODE = {layer: i for i, layer in enumerate(EventLayer)}
_VALUE_LAYER = {layer.value: layer for layer in EventLayer}
_CODE_LAYER_VALUE = {i: layer.value for layer, i in _LAYER_CODE.items()}

#: Physical column file order.  ``enc`` picks the packer: ``u8`` raw
#: bytes, ``f8`` raw doubles, ``id`` dictionary ids, ``i64`` delta ints.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("flags", "u8"),
    ("timestamp", "f8"),
    ("duration", "f8"),
    ("layer", "u8"),
    ("name", "id"),
    ("pid", "i64"),
    ("rank", "i64"),
    ("hostname", "id"),
    ("user", "id"),
    ("path", "id"),
    ("fd", "i64"),
    ("nbytes", "i64"),
    ("offset", "i64"),
    ("result", "id"),
    ("args", "id"),
)

_COLUMN_INDEX = {name: i for i, (name, _enc) in enumerate(COLUMNS)}

#: Columns a logical field needs beyond itself (presence bits, strings).
_NEEDS_FLAGS = frozenset(["rank", "path", "fd", "nbytes", "offset", "result"])
_NEEDS_DICT = frozenset(["name", "hostname", "user", "path", "result", "args"])

# Raw/delta tag inside an integer column body (before compression).
_ENC_RAW = 0
_ENC_DELTA = 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


#: ``json.dumps(args, separators=(",", ":"))`` with one shared encoder
#: instead of a fresh one per call; tuples render as JSON arrays.
_args_json = json.JSONEncoder(separators=(",", ":")).encode

#: Every event field, in :class:`TraceEvent` argument order.
_FIELDS = (
    "timestamp", "duration", "layer", "name", "args", "result", "pid",
    "rank", "hostname", "user", "path", "fd", "nbytes", "offset",
)
_event_fields = attrgetter(*_FIELDS)


def _transpose(events: Sequence[TraceEvent]) -> Dict[str, Sequence[Any]]:
    """Raw per-field value tuples of ``events`` (``None`` slots kept)."""
    if not events:
        return {name: () for name in _FIELDS}
    return dict(zip(_FIELDS, zip(*map(_event_fields, events))))


def _flag_column(raw: Dict[str, Sequence[Any]]) -> List[int]:
    """The per-event presence bits of the ``flags`` column."""
    return [
        (rank is not None) * _F_RANK | (fd is not None) * _F_FD
        | (nbytes is not None) * _F_NBYTES | (offset is not None) * _F_OFFSET
        | (path is not None) * _F_PATH
        | (0 if result is None
           else _F_RESULT | _F_RESULT_INT
           if isinstance(result, int) and not isinstance(result, bool)
           else _F_RESULT)
        for rank, fd, nbytes, offset, path, result in zip(
            raw["rank"], raw["fd"], raw["nbytes"], raw["offset"], raw["path"],
            raw["result"],
        )
    ]


def _dense(values: Sequence[Optional[int]]) -> List[int]:
    """A nullable integer field as a dense array (absent slots are 0)."""
    return [0 if v is None else v for v in values]


def _pack_dictionary(strings: Sequence[str]) -> bytes:
    raws = [text.encode("utf-8") for text in strings]
    if raws and max(map(len, raws)) > 0xFFFF:
        raise TraceFormatError("string too long for dictionary entry")
    out = [_U32.pack(len(raws))]
    for raw in raws:
        out.append(_U16.pack(len(raw)))
        out.append(raw)
    return b"".join(out)


def _unpack_dictionary(data: bytes) -> List[str]:
    end = len(data)
    if end < 4:
        raise TraceTruncatedError("dictionary count truncated")
    (count,) = _U32.unpack_from(data, 0)
    # Walk the length prefixes first and decode the bodies in one batch
    # afterwards.  A malformed walk is reported only once the bodies
    # before it have decoded, so a corrupt entry still wins over a later
    # truncation, as in an entry-by-entry decode.
    bodies: List[bytes] = []
    append = bodies.append
    pos = 4
    problem: Optional[TraceFormatError] = None
    for _ in range(count):
        start = pos + 2
        if start > end:
            problem = TraceTruncatedError("dictionary entry length truncated")
            break
        pos = start + (data[pos] | data[pos + 1] << 8)
        if pos > end:
            problem = TraceTruncatedError("dictionary entry body truncated")
            break
        append(data[start:pos])
    else:
        if pos != end:
            problem = TraceFormatError("trailing bytes after dictionary")
    try:
        strings = list(map(bytes.decode, bodies))
    except UnicodeDecodeError:
        raise TraceFormatError("corrupt UTF-8 in dictionary entry") from None
    if problem is not None:
        raise problem
    return strings


def _pack_ints(values: Sequence[int]) -> bytes:
    """Delta-pack an integer column (falls back to raw on i64 overflow)."""
    n = len(values)
    if n == 0:
        return bytes([_ENC_DELTA])
    deltas = [values[0]]
    deltas += map(sub, values[1:], values)
    try:
        return bytes([_ENC_DELTA]) + struct.pack("<%dq" % n, *deltas)
    except struct.error:
        # A delta overflowed i64 (adversarial offsets); raw still fits
        # because every stored value is i64 by format invariant.
        return bytes([_ENC_RAW]) + struct.pack("<%dq" % n, *values)


def _unpack_ints(data: bytes, n: int) -> List[int]:
    if not data:
        raise TraceTruncatedError("integer column truncated")
    tag = data[0]
    if len(data) != 1 + 8 * n:
        raise TraceFormatError(
            "integer column length mismatch: %d bytes for %d values"
            % (len(data) - 1, n)
        )
    values = struct.unpack_from("<%dq" % n, data, 1)
    if tag == _ENC_DELTA:
        return list(accumulate(values))
    if tag == _ENC_RAW:
        return list(values)
    raise TraceFormatError("unknown integer column encoding 0x%02x" % tag)


def _pack_floats(values: Sequence[float]) -> bytes:
    return struct.pack("<%dd" % len(values), *values)


def _unpack_floats(data: bytes, n: int) -> List[float]:
    if len(data) != 8 * n:
        raise TraceFormatError(
            "float column length mismatch: %d bytes for %d values" % (len(data), n)
        )
    return list(struct.unpack("<%dd" % n, data))


def _unpack_u8(data: bytes, n: int) -> List[int]:
    if len(data) != n:
        raise TraceFormatError(
            "byte column length mismatch: %d bytes for %d values" % (len(data), n)
        )
    return list(data)


def _numeric_stats(values: Sequence[Optional[float]]) -> Optional[Dict[str, Any]]:
    """Min/max over present (non-``None``) values; None when there are none."""
    kept = [v for v in values if v is not None]
    if not kept:
        return None
    return {"min": min(kept), "max": max(kept)}


def encode_trace_file_columnar(
    tf: TraceFile, compressed: bool = True, checksum: bool = True
) -> bytes:
    """Serialize a trace file columnar-first (see module docstring)."""
    raw = _transpose(tf.events)
    names, paths = raw["name"], raw["path"]
    result_text = [None if r is None else str(r) for r in raw["result"]]
    args_text = list(map(_args_json, raw["args"]))

    # The dictionary interns strings event-major in field order (name,
    # hostname, user, path, result, args): first occurrence fixes the id.
    # Absent paths and results are not interned.
    first_seen = dict.fromkeys(chain.from_iterable(zip(
        names, raw["hostname"], raw["user"], paths, result_text, args_text
    )))
    first_seen.pop(None, None)
    strings = list(first_seen)
    string_id = dict(zip(strings, range(len(strings)))).__getitem__

    series: Dict[str, Sequence] = {
        "flags": _flag_column(raw),
        "timestamp": raw["timestamp"],
        "duration": raw["duration"],
        "layer": [_LAYER_CODE[layer] for layer in raw["layer"]],
        "name": list(map(string_id, names)),
        "pid": raw["pid"],
        "rank": _dense(raw["rank"]),
        "hostname": list(map(string_id, raw["hostname"])),
        "user": list(map(string_id, raw["user"])),
        "path": [0 if p is None else string_id(p) for p in paths],
        "fd": _dense(raw["fd"]),
        "nbytes": _dense(raw["nbytes"]),
        "offset": _dense(raw["offset"]),
        "result": [0 if t is None else string_id(t) for t in result_text],
        "args": list(map(string_id, args_text)),
    }

    # Per-column pushdown stats: numeric min/max over *present* values,
    # plus the distinct op-name set (and path set, when small) so scans
    # can drop a whole segment from the header alone.
    stats: Dict[str, Optional[Dict[str, Any]]] = {
        field: _numeric_stats(raw[field])
        for field in ("timestamp", "duration", "pid", "rank", "fd", "nbytes", "offset")
    }
    distinct_names = sorted(set(names))
    distinct_paths = sorted(set(paths).difference([None]))

    header = {
        "hostname": tf.hostname,
        "pid": tf.pid,
        "rank": tf.rank,
        "framework": tf.framework,
        "n_events": len(tf.events),
        "columns": [name for name, _enc in COLUMNS],
        "stats": stats,
        "names": distinct_names if len(distinct_names) <= 512 else None,
        "paths": distinct_paths if len(distinct_paths) <= 512 else None,
    }
    header_raw = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")

    out = [MAGIC, _U16.pack(VERSION), frame(header_raw, with_checksum=checksum)]
    out.append(
        frame(
            compress(_pack_dictionary(strings), enabled=compressed),
            with_checksum=checksum,
        )
    )
    for col_name, enc in COLUMNS:
        values = series[col_name]
        if enc == "u8":
            body = bytes(values)
        elif enc == "f8":
            body = _pack_floats(values)
        else:  # "id" and "i64" are both integer columns
            body = _pack_ints(values)
        out.append(frame(compress(body, enabled=compressed), with_checksum=checksum))
    return b"".join(out)


def is_columnar(data: bytes) -> bool:
    """True when ``data`` carries the columnar magic."""
    return data[: len(MAGIC)] == MAGIC


def _read_preamble(data: bytes) -> Tuple[Dict[str, Any], int]:
    """Validate magic/version, return (header, offset-of-dictionary-frame)."""
    if not is_columnar(data):
        raise TraceFormatError("not a columnar trace (bad magic)")
    pos = len(MAGIC)
    if pos + 2 > len(data):
        raise TraceTruncatedError("version truncated")
    (version,) = _U16.unpack_from(data, pos)
    if version != VERSION:
        raise TraceFormatError("unsupported columnar trace version %d" % version)
    pos += 2
    header_raw, pos = unframe(data, pos)
    try:
        header = json.loads(header_raw.decode("utf-8"))
    except ValueError:
        raise TraceFormatError("corrupt header JSON") from None
    if not isinstance(header, dict):
        raise TraceFormatError("header is not a JSON object")
    if header.get("columns") != [name for name, _enc in COLUMNS]:
        raise TraceFormatError("unexpected column layout in header")
    return header, pos


def read_header(data: bytes) -> Dict[str, Any]:
    """The segment header (counts, file identity, per-column stats)."""
    header, _pos = _read_preamble(data)
    return header


def _decode_column(payload: bytes, enc: str, n: int):
    body = decompress(payload)
    if enc == "u8":
        return _unpack_u8(body, n)
    if enc == "f8":
        return _unpack_floats(body, n)
    return _unpack_ints(body, n)


def read_columns(data: bytes, fields: Sequence[str]) -> Dict[str, List[Any]]:
    """Project ``fields`` out of a columnar segment.

    Returns logical per-event lists (``None`` filled in for absent
    nullable slots, strings resolved through the dictionary, ``layer``
    rendered as its string value, ``args`` as its canonical JSON
    rendering).  Only the frames the projection needs
    are CRC-checked and decompressed; everything else is skipped by
    length prefix.
    """
    return _project(data, fields)[1]


def _project(
    data: bytes, fields: Sequence[str]
) -> Tuple[Dict[str, Any], Dict[str, List[Any]]]:
    """:func:`read_columns`, also returning the segment header."""
    header, pos = _read_preamble(data)
    n = int(header.get("n_events", 0))
    want = set(fields)
    unknown = want.difference(_COLUMN_INDEX)
    if unknown:
        raise TraceFormatError("unknown columns requested: %s" % sorted(unknown))
    physical = set(want)
    if want & _NEEDS_FLAGS:
        physical.add("flags")
    need_dict = bool(want & _NEEDS_DICT)

    if need_dict:
        dict_payload, pos = unframe(data, pos)
        dictionary = _unpack_dictionary(decompress(dict_payload))
    else:
        dictionary = []
        pos = frame_span(data, pos)

    raw: Dict[str, List[Any]] = {}
    for col_name, enc in COLUMNS:
        if col_name in physical:
            payload, pos = unframe(data, pos)
            raw[col_name] = _decode_column(payload, enc, n)
        else:
            pos = frame_span(data, pos)
    if pos != len(data):
        raise TraceFormatError("trailing bytes after last column")

    flags = raw.get("flags")

    def strings(ids: List[int]) -> List[str]:
        try:
            return list(map(dictionary.__getitem__, ids))
        except IndexError:
            raise TraceFormatError("dictionary id out of range") from None

    out: Dict[str, List[Any]] = {}
    for field in fields:
        if field in out:
            continue
        col = raw[field]
        if field == "layer":
            try:
                out[field] = [_CODE_LAYER_VALUE[c] for c in col]
            except KeyError:
                raise TraceFormatError("unknown layer code in column") from None
        elif field in ("name", "hostname", "user", "args"):
            out[field] = strings(col)
        elif field == "result":
            out[field] = [
                None if not f & _F_RESULT else int(t) if f & _F_RESULT_INT else t
                for t, f in zip(strings(col), flags)
            ]
        elif field in _PRESENCE_BIT:
            bit = _PRESENCE_BIT[field]
            values = strings(col) if field == "path" else col
            out[field] = [v if f & bit else None for v, f in zip(values, flags)]
        else:  # flags, timestamp, duration, pid — raw columns
            out[field] = col
    return header, out


def trace_file_columns(tf: TraceFile, fields: Sequence[str]) -> Dict[str, List[Any]]:
    """The column dict :func:`read_columns` returns for ``tf``'s columnar
    encoding, built from already-decoded events.

    This is how row-major (v1) segments join the projected scan: once
    decoded, they answer through the same logical columns as v2.
    """
    unknown = set(fields).difference(_COLUMN_INDEX)
    if unknown:
        raise TraceFormatError("unknown columns requested: %s" % sorted(unknown))
    raw = _transpose(tf.events)
    out: Dict[str, List[Any]] = {}
    for field in fields:
        if field in out:
            continue
        if field == "flags":
            out[field] = _flag_column(raw)
        elif field == "layer":
            out[field] = [layer.value for layer in raw["layer"]]
        elif field == "args":
            out[field] = list(map(_args_json, raw["args"]))
        elif field == "result":
            out[field] = [
                r if r is None or isinstance(r, int) and not isinstance(r, bool)
                else str(r)
                for r in raw["result"]
            ]
        else:
            out[field] = list(raw[field])
    return out


def decode_trace_file_columnar(data: bytes) -> TraceFile:
    """Invert :func:`encode_trace_file_columnar`, verifying checksums."""
    header, cols = _project(data, _FIELDS)
    cols["layer"] = [_VALUE_LAYER[value] for value in cols["layer"]]
    try:
        cols["args"] = [tuple(json.loads(text)) for text in cols["args"]]
    except (ValueError, TypeError):
        raise TraceFormatError("corrupt args JSON in column") from None
    try:
        events = list(starmap(TraceEvent, zip(*(cols[f] for f in _FIELDS))))
    except (ValueError, TypeError):
        raise TraceFormatError("invalid event fields in column data") from None
    return TraceFile(
        events,
        hostname=header.get("hostname", ""),
        pid=header.get("pid", 0),
        rank=header.get("rank"),
        framework=header.get("framework", ""),
    )
