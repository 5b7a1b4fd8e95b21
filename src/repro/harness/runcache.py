"""Content-addressed on-disk cache of sweep-point results.

The simulator is deterministic by construction: a :class:`RunSpec` fully
determines its :class:`~repro.harness.parallel.PointResult`, so the pair
(spec hash → result) can be stored once and replayed forever.  The key is
a SHA-256 over a canonical JSON rendering of the spec — testbed config,
framework name + params, workload name + args, nprocs, seed — **plus the
package version**, so any release that might change the performance model
invalidates every old entry automatically.

Each entry also records the run's ``events_executed`` fingerprints and a
checksum of its own payload.  Both are re-verified on every hit: a
mismatch (hand-edited file, partial write, or a model that drifted without
a version bump) silently discards the entry and re-runs the point rather
than serving stale numbers.  ``--no-cache`` at the CLI is the escape hatch
for bypassing the cache entirely.

Entries are tiny JSON files under ``.repro-cache/<k[:2]>/<key>.json`` (a
git-ignorable directory), written atomically so concurrent sweeps sharing
a cache directory never observe torn entries.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import repro
from repro.harness.parallel import PointResult, RunSpec, RunStats

__all__ = ["DEFAULT_CACHE_DIR", "RunCache", "spec_key"]

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_SCHEMA = "repro/runcache/v1"


def _canon(obj: Any) -> Any:
    """Reduce an object to a canonical JSON-serializable form.

    Dataclasses become ``{"__dataclass__": qualified-name, fields...}``,
    enums ``{"__enum__": qualified-name, "value": ...}``, mappings get
    sorted keys.  Deterministic across processes and sessions — this is
    what gets hashed.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {
            "__dataclass__": "%s.%s" % (type(obj).__module__, type(obj).__qualname__)
        }
        for f in dataclasses.fields(obj):
            out[f.name] = _canon(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return {
            "__enum__": "%s.%s" % (type(obj).__module__, type(obj).__qualname__),
            "value": obj.value,
        }
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (frozenset, set)):
        # Fault-event op sets; canonical order makes equal sets hash equal.
        return sorted(_canon(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError("cannot canonicalize %r for cache keying" % (obj,))


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_key(spec: RunSpec) -> str:
    """Stable SHA-256 cache key of a run spec (includes package version)."""
    material: Dict[str, Any] = {
        "schema": _SCHEMA,
        "version": repro.__version__,
        "framework": _canon(spec.framework),
        "workload": spec.workload,
        "workload_args": _canon(dict(spec.workload_args)),
        "config": _canon(spec.config),
        "nprocs": spec.nprocs,
        "seed": spec.seed,
    }
    # Only telemetric specs add the field, so every pre-telemetry cache
    # entry keeps its key (no version bump, no mass invalidation).
    if getattr(spec, "telemetry", False):
        material["telemetry"] = True
    # Same widening rule for the fault plane: only faulted/bounded specs
    # key on the chaos fields, so plain points keep their old keys.
    if getattr(spec, "faults", None) is not None or getattr(spec, "sim_timeout", None) is not None:
        material["faults"] = _canon(spec.faults)
        material["sim_timeout"] = spec.sim_timeout
        material["retries"] = spec.retries
    # Archived specs widen the key too (a flag, not the store path: the
    # run id is content-derived, so it is valid for any archive location).
    # The segment codec joins the key whenever it is not "v1".  The rule
    # names "v1" on purpose rather than "not the default": v1 was the
    # default when archived entries first entered the cache, so every
    # such entry keeps its key, and a spec on the v2 default keys apart
    # from an explicit-v1 spec, so a warm v1 entry (whose run id names a
    # v1 ingest) is never handed to a v2 run.  Do not rewrite it in terms
    # of DEFAULT_CODEC: flipping the default would then silently alias
    # the two codecs' cache entries.
    if getattr(spec, "store", None) is not None:
        material["store"] = True
        codec = getattr(spec, "store_codec", "v1")
        if codec != "v1":
            material["store_codec"] = codec
    return hashlib.sha256(_dumps(material).encode("utf-8")).hexdigest()


def _decode_value(obj: Any) -> Any:
    """Inverse of :func:`_canon` for the value types stored in params."""
    if isinstance(obj, dict) and "__enum__" in obj:
        modname, _, qualname = obj["__enum__"].rpartition(".")
        import importlib

        cls = getattr(importlib.import_module(modname), qualname)
        return cls(obj["value"])
    if isinstance(obj, list):
        return [_decode_value(v) for v in obj]
    return obj


def _stats_payload(stats: RunStats) -> Dict[str, Any]:
    return {
        "elapsed": stats.elapsed,
        "bytes_moved": stats.bytes_moved,
        "events_executed": stats.events_executed,
    }


def _stats_from_payload(payload: Dict[str, Any]) -> RunStats:
    return RunStats(
        elapsed=float(payload["elapsed"]),
        bytes_moved=int(payload["bytes_moved"]),
        events_executed=int(payload["events_executed"]),
    )


class RunCache:
    """Deterministic run cache rooted at a directory (see module docstring).

    ``hits``/``misses``/``stores`` count this instance's traffic; the
    hit-rate over a whole sweep comes from the sweep's
    :class:`~repro.harness.parallel.SweepReport`.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".json")

    def get(self, spec: RunSpec) -> Optional[PointResult]:
        """Return the cached result for ``spec``, or None.

        Verifies the entry's payload checksum and ``events_executed``
        fingerprint; a failed check deletes the entry and reports a miss.
        """
        key = spec_key(spec)
        path = self._path_for(key)
        try:
            entry = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not self._verify(entry, key):
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        payload = entry["payload"]
        self.hits += 1
        return PointResult(
            params=tuple(
                (str(k), _decode_value(v)) for k, v in payload["params"]
            ),
            untraced=_stats_from_payload(payload["untraced"]),
            traced=_stats_from_payload(payload["traced"]),
            wall_seconds=float(payload["wall_seconds"]),
            cached=True,
            telemetry=payload.get("telemetry"),
            error=payload.get("error"),
            attempts=int(payload.get("attempts", 1)),
            chaos=payload.get("chaos"),
            store_run_id=payload.get("store_run_id"),
        )

    @staticmethod
    def _verify(entry: Any, key: str) -> bool:
        """Integrity + drift checks for one loaded entry."""
        try:
            if entry["schema"] != _SCHEMA or entry["key"] != key:
                return False
            payload = entry["payload"]
            digest = hashlib.sha256(_dumps(payload).encode("utf-8")).hexdigest()
            if digest != entry["payload_sha256"]:
                return False
            fp = entry["fingerprint"]
            return (
                fp["untraced_events"] == payload["untraced"]["events_executed"]
                and fp["traced_events"] == payload["traced"]["events_executed"]
            )
        except (KeyError, TypeError):
            return False

    def put(self, spec: RunSpec, result: PointResult) -> str:
        """Store ``result`` under ``spec``'s key (atomic write); returns key."""
        key = spec_key(spec)
        payload = {
            "params": [[k, _canon(v)] for k, v in result.params],
            "untraced": _stats_payload(result.untraced),
            "traced": _stats_payload(result.traced),
            "wall_seconds": result.wall_seconds,
        }
        if result.telemetry is not None:
            # Telemetry exports are already plain JSON (the collector
            # normalizes through a json round trip), so they serialize
            # byte-identically here and on reload — covered by the
            # payload checksum like everything else.
            payload["telemetry"] = result.telemetry
        if result.error is not None:
            payload["error"] = result.error
        if result.attempts != 1:
            payload["attempts"] = result.attempts
        if result.chaos is not None:
            # Chaos payloads are canonical-JSON round-tripped at creation,
            # so cached and fresh points compare byte-identical.
            payload["chaos"] = result.chaos
        if result.store_run_id is not None:
            payload["store_run_id"] = result.store_run_id
        entry = {
            "schema": _SCHEMA,
            "key": key,
            "version": repro.__version__,
            "fingerprint": {
                "untraced_events": result.untraced.events_executed,
                "traced_events": result.traced.events_executed,
            },
            "payload": payload,
            "payload_sha256": hashlib.sha256(
                _dumps(payload).encode("utf-8")
            ).hexdigest(),
        }
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        return key

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
