"""TraceBank: the sharded, content-addressed on-disk trace archive.

Layout (all files rewritable atomically, safe for concurrent ingest from
sweep worker processes)::

    <root>/
        STORE.json                    # {"schema": "repro/store/v1", ...}
        segments/<sha[:2]>/<sha>.seg  # content-addressed encoded TraceFiles
        manifests/<run_id>.json       # one versioned manifest per run
        index.json                    # warm manifest cache (rebuildable)

Segments shard by the first digest byte (256 fan-out) exactly like the
run cache, so directories stay small at archive scale.  Ingest is
idempotent: a segment whose file already exists is *deduped* (counted,
not rewritten), and a run's manifest path is derived from its content so
re-ingesting a sweep adds nothing.  ``verify`` re-hashes and re-decodes
every referenced segment against its manifest summary; ``gc`` removes
segment files no manifest references (the only way data leaves the
archive — dropping a run means deleting its manifest, then ``gc``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.errors import StoreCorruptionError, StoreError, StoreNotFound
from repro.obs.tracepoints import STATE
from repro.store.index import ManifestIndex
from repro.store.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    compute_run_id,
    json_safe_meta,
)
from repro.store.segments import (
    DEFAULT_CODEC,
    SegmentMeta,
    content_address,
    decode_segment,
    encode_segment,
    summarize_segment,
)
from repro.trace.events import TraceEvent
from repro.trace.records import TraceBundle, TraceFile

__all__ = [
    "STORE_SCHEMA",
    "DEFAULT_STORE_DIR",
    "IngestResult",
    "TraceBank",
    "render_store_summary",
]

#: Versioned store marker schema.
STORE_SCHEMA = "repro/store/v1"

#: Default archive directory, relative to the working directory (the CLI's
#: ``--store`` with no value lands here).
DEFAULT_STORE_DIR = ".repro-store"


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ``ingest_bundle`` call.

    ``new_segments + deduped_segments == segments``; a second ingest of
    the same run reports ``new_segments == 0`` and the same ``run_id``.
    """

    run_id: str
    segments: int
    new_segments: int
    deduped_segments: int
    events: int
    manifest_new: bool


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Atomically (and durably) land ``blob`` at ``path``.

    The temp file is fsynced before ``os.replace`` and the directory
    after, so callers that acknowledge the write (WAL entries, manifest
    commits) survive an OS crash or power loss, not just a process
    crash.  Platforms that refuse directory fsync degrade gracefully.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dfd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)


class TraceBank:
    """One archive rooted at a directory (see module docstring).

    ``create=True`` (the default) initializes an empty archive on first
    touch; ``create=False`` raises :class:`~repro.errors.StoreNotFound`
    for a directory that is not already an archive — the read-only
    commands (``ls``/``query``/``verify``/``gc``) use that mode so a typo
    never silently materializes an empty store.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_DIR, create: bool = True):
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.manifests_dir = self.root / "manifests"
        self.index = ManifestIndex(self.root)
        #: True for tenant namespaces whose ``segments/`` lives in a parent
        #: service store (``segments_root`` in STORE.json); such banks own
        #: their manifests but share segment files with every sibling.
        self.shared_segments = False
        self.tenant: Optional[str] = None
        marker = self.root / "STORE.json"
        if marker.is_file():
            try:
                obj = json.loads(marker.read_text("utf-8"))
            except ValueError:
                raise StoreCorruptionError(
                    "%s exists but is not JSON" % marker
                ) from None
            if not isinstance(obj, dict) or obj.get("schema") != STORE_SCHEMA:
                raise StoreError(
                    "%s is not a %s archive" % (self.root, STORE_SCHEMA)
                )
            seg_root = obj.get("segments_root")
            if seg_root:
                self.segments_dir = (self.root / str(seg_root)).resolve()
                self.shared_segments = True
            if obj.get("tenant") is not None:
                self.tenant = str(obj["tenant"])
        elif create:
            self.root.mkdir(parents=True, exist_ok=True)
            self.segments_dir.mkdir(exist_ok=True)
            self.manifests_dir.mkdir(exist_ok=True)
            _atomic_write_bytes(
                marker,
                (json.dumps({"schema": STORE_SCHEMA, "version": 1}) + "\n").encode(),
            )
        else:
            raise StoreNotFound(
                "%s is not a TraceBank archive (no STORE.json); run "
                "'repro store ingest' or a sweep with --store first" % self.root
            )

    # -- paths ---------------------------------------------------------------

    def segment_path(self, sha: str) -> Path:
        """On-disk location of one segment blob."""
        return self.segments_dir / sha[:2] / (sha + ".seg")

    def manifest_path(self, run_id: str) -> Path:
        """On-disk location of one run manifest."""
        return self.manifests_dir / (run_id + ".json")

    # -- ingest --------------------------------------------------------------

    def ingest_bundle(
        self,
        bundle: TraceBundle,
        meta: Optional[Mapping[str, Any]] = None,
        compressed: bool = True,
        checksum: bool = True,
        codec: str = DEFAULT_CODEC,
    ) -> IngestResult:
        """Archive one trace bundle as one run; idempotent.

        Each source file becomes one segment (keyed by its bundle rank);
        ``meta`` is merged over the bundle's own metadata and becomes the
        manifest's queryable run description.  ``codec`` picks the segment
        wire format (``"v2"`` columnar by default, ``"v1"`` row-major on
        request); readers sniff per blob, so codecs can mix freely within
        one archive.  Returns
        the dedup-aware :class:`IngestResult`; emits ``store.ingest.*``
        telemetry when a collector is active.
        """
        merged_meta: Dict[str, Any] = dict(bundle.metadata)
        merged_meta.update(dict(meta or {}))
        codec_info: Dict[str, Any] = {
            "compressed": bool(compressed),
            "checksum": bool(checksum),
        }
        # v1 manifests keep their pre-columnar shape (and run ids); the
        # "format" key only appears for v2 runs.
        if codec != "v1":
            codec_info["format"] = codec
        segs: List[SegmentMeta] = []
        new = dedup = events = 0
        for rank in sorted(bundle.files):
            tf = bundle.files[rank]
            blob, sha = encode_segment(
                tf, compressed=compressed, checksum=checksum, codec=codec
            )
            seg = summarize_segment(tf, int(rank), sha, len(blob))
            path = self.segment_path(sha)
            if path.is_file():
                dedup += 1
            else:
                _atomic_write_bytes(path, blob)
                new += 1
            segs.append(seg)
            events += seg.n_events
        segs.sort(key=lambda s: (s.rank, s.sha256))
        run_id = compute_run_id(merged_meta, segs, codec_info)
        manifest = RunManifest(
            run_id=run_id,
            meta=json_safe_meta(merged_meta),
            codec=codec_info,
            segments=tuple(segs),
            n_events=events,
            n_barriers=len(bundle.barrier_stamps),
        )
        mpath = self.manifest_path(run_id)
        manifest_new = not mpath.is_file()
        if manifest_new:
            _atomic_write_bytes(mpath, manifest.dumps().encode("utf-8"))
        col = STATE.collector
        if col is not None:
            col.store_ingest(len(segs), new, dedup, events)
        return IngestResult(
            run_id=run_id,
            segments=len(segs),
            new_segments=new,
            deduped_segments=dedup,
            events=events,
            manifest_new=manifest_new,
        )

    def ingest_trace_file(
        self,
        tf: TraceFile,
        meta: Optional[Mapping[str, Any]] = None,
        rank: Optional[int] = None,
        compressed: bool = True,
        checksum: bool = True,
        codec: str = DEFAULT_CODEC,
    ) -> IngestResult:
        """Archive one standalone trace file as a single-segment run."""
        key = rank if rank is not None else (tf.rank if tf.rank is not None else 0)
        bundle = TraceBundle(files={int(key): tf})
        if tf.framework:
            bundle.metadata.setdefault("framework", tf.framework)
        return self.ingest_bundle(
            bundle, meta=meta, compressed=compressed, checksum=checksum, codec=codec
        )

    # -- reads ---------------------------------------------------------------

    def manifests(self) -> List[RunManifest]:
        """Every run manifest, sorted by ``run_id`` (warm-cache path)."""
        return self.index.load()

    def run_ids(self) -> List[str]:
        """All archived run ids, sorted."""
        return [m.run_id for m in self.manifests()]

    def manifest(self, run_id: str) -> RunManifest:
        """One run's manifest; ``run_id`` may be a unique prefix."""
        matches = [m for m in self.manifests() if m.run_id.startswith(run_id)]
        if not matches:
            raise StoreError("no archived run matches %r" % run_id)
        if len(matches) > 1:
            raise StoreError(
                "run id prefix %r is ambiguous (%d matches)" % (run_id, len(matches))
            )
        return matches[0]

    def read_segment(self, sha: str) -> TraceFile:
        """Load and verify one segment by content address."""
        return decode_segment(self.read_segment_blob(sha), expected_sha=sha)

    def read_segment_blob(self, sha: str) -> bytes:
        """Raw encoded bytes of one segment (codec-sniffing callers).

        The content address is verified; decoding — full or columnar
        projection — is the caller's choice.  This is the scan kernel's
        entry (:func:`repro.store.query.project_shard`): it projects
        columns instead of materializing every event.
        """
        path = self.segment_path(sha)
        try:
            blob = path.read_bytes()
        except OSError:
            raise StoreCorruptionError(
                "segment %s referenced but missing on disk" % sha[:12]
            ) from None
        got = content_address(blob)
        if got != sha:
            raise StoreCorruptionError(
                "segment content hash mismatch: manifest says %s, bytes are %s"
                % (sha[:12], got[:12])
            )
        return blob

    def iter_run_events(self, run_id: str) -> Iterator[Tuple[int, TraceEvent]]:
        """Yield ``(rank, event)`` for one run, rank-major, capture order."""
        for seg in self.manifest(run_id).segments:
            tf = self.read_segment(seg.sha256)
            for e in tf.events:
                yield seg.rank, e

    def load_run_bundle(self, run_id: str) -> TraceBundle:
        """Reassemble one run as a :class:`TraceBundle` (analysis entry)."""
        m = self.manifest(run_id)
        files: Dict[int, TraceFile] = {}
        for seg in m.segments:
            files[seg.rank] = self.read_segment(seg.sha256)
        return TraceBundle(files=files, metadata=dict(m.meta))

    def disk_segments(self) -> List[str]:
        """Every segment digest present on disk (referenced or not).

        Only ``*.seg`` files count: the ``*.tmp`` droppings of an
        in-flight (or crashed) atomic write are invisible here, so
        ``verify``/``gc``/``stats`` stay safe to run while a concurrent
        ingest is mid-write.  Stale tmp files are reclaimed by
        :meth:`gc` once they outlive ``tmp_ttl_seconds``.
        """
        if not self.segments_dir.is_dir():
            return []
        return sorted(p.stem for p in self.segments_dir.glob("*/*.seg"))

    def tmp_files(self) -> List[Path]:
        """In-flight/stale ``*.tmp`` atomic-write droppings, sorted.

        Covers the two directories this bank writes atomically into:
        ``segments/`` shards and ``manifests/``.  A live entry here is a
        concurrent ingest mid-``os.replace``; one that persists is the
        residue of a crashed writer.
        """
        out: List[Path] = []
        if self.segments_dir.is_dir():
            out.extend(self.segments_dir.glob("*/*.tmp"))
        if self.manifests_dir.is_dir():
            out.extend(self.manifests_dir.glob("*.tmp"))
        return sorted(out)

    def _tenant_manifest_paths(self) -> List[Path]:
        """Manifest files of tenant namespaces nested under this root.

        A service store keeps per-tenant manifests in
        ``tenants/<name>/manifests/`` while every tenant shares this
        root's ``segments/``; those manifests pin segments exactly like
        the root's own, so ``verify``'s orphan report and ``gc``'s root
        set must include them.
        """
        tenants_dir = self.root / "tenants"
        if self.shared_segments or not tenants_dir.is_dir():
            return []
        return sorted(tenants_dir.glob("*/manifests/*.json"))

    def stats(self) -> Dict[str, Any]:
        """Archive-wide summary: runs, segments, dedup ratio, bytes."""
        manifests = self.manifests()
        referenced: Dict[str, int] = {}
        frameworks: Dict[str, int] = {}
        events = 0
        for m in manifests:
            events += m.n_events
            fw = str(m.meta.get("framework", "?"))
            frameworks[fw] = frameworks.get(fw, 0) + 1
            for seg in m.segments:
                referenced[seg.sha256] = referenced.get(seg.sha256, 0) + 1
        # A tenant namespace shares its segments directory with every
        # sibling tenant: a raw disk listing would count (and report as
        # "orphans") segments belonging to other tenants.  Scope the view
        # to this bank's own referenced set in that case.
        if self.shared_segments:
            on_disk = sorted(
                sha for sha in referenced if self.segment_path(sha).is_file()
            )
        else:
            on_disk = self.disk_segments()
        disk_bytes = 0
        for sha in on_disk:
            try:
                disk_bytes += self.segment_path(sha).stat().st_size
            except OSError:
                pass
        logical = sum(
            seg.encoded_bytes for m in manifests for seg in m.segments
        )
        return {
            "schema": "repro/store/stats/v1",
            "runs": len(manifests),
            "events": events,
            "segments_referenced": sum(referenced.values()),
            "segments_unique": len(referenced),
            "segments_on_disk": len(on_disk),
            "orphan_segments": len(set(on_disk) - set(referenced)),
            "logical_bytes": logical,
            "stored_bytes": disk_bytes,
            "dedup_ratio": (logical / disk_bytes) if disk_bytes else 1.0,
            "runs_by_framework": dict(sorted(frameworks.items())),
        }

    # -- maintenance ---------------------------------------------------------

    def verify(self, jobs: int = 1) -> Dict[str, Any]:
        """Full-archive integrity check; returns a canonical-JSON report.

        Re-reads every manifest from disk (bypassing the warm cache),
        re-hashes and re-decodes every referenced segment, and recomputes
        each segment's summary against the manifest's copy.  ``jobs > 1``
        fans segment checks over worker processes; the report is
        byte-identical for any job count.  ``ok`` is True iff no errors.

        Safe to run while a concurrent ingest is mid-atomic-write: the
        writer's ``*.tmp`` files are never opened or reported as errors
        (their count lands in ``in_flight_tmp``), and segments referenced
        by tenant namespaces under ``tenants/`` never show up as orphans.
        A tenant bank itself (shared ``segments/``) skips the orphan scan
        entirely — it cannot distinguish a sibling's segment from a true
        orphan; the service root's verify owns that question.
        """
        from repro.harness.parallel import parallel_map

        errors: List[Dict[str, Any]] = []
        tasks: List[Tuple[str, str, int, str]] = []
        referenced: set = set()
        n_manifests = 0
        if self.manifests_dir.is_dir():
            for path in sorted(self.manifests_dir.glob("*.json")):
                n_manifests += 1
                try:
                    m = RunManifest.loads(path.read_text("utf-8"))
                except (OSError, StoreCorruptionError) as exc:
                    errors.append(
                        {"run_id": path.stem, "rank": None, "sha256": None,
                         "error": "manifest unreadable: %s" % exc}
                    )
                    continue
                if m.run_id != path.stem:
                    errors.append(
                        {"run_id": path.stem, "rank": None, "sha256": None,
                         "error": "manifest run_id %s does not match its "
                                  "filename" % m.run_id[:12]}
                    )
                for seg in m.segments:
                    referenced.add(seg.sha256)
                    tasks.append(
                        (str(self.root), m.run_id, seg.rank, seg.sha256)
                    )
        for err in parallel_map(_verify_segment_task, tasks, jobs=jobs):
            if err is not None:
                errors.append(err)
        errors.sort(key=lambda e: (str(e["run_id"]), str(e["sha256"]), e["error"]))
        if self.shared_segments:
            orphans: List[str] = []
        else:
            pinned = set(referenced)
            for path in self._tenant_manifest_paths():
                try:
                    pinned.update(
                        RunManifest.loads(path.read_text("utf-8")).segment_shas()
                    )
                except (OSError, StoreCorruptionError):
                    continue  # the tenant's own verify reports it
            orphans = sorted(set(self.disk_segments()) - pinned)
        return {
            "schema": "repro/store/verify/v1",
            "runs": n_manifests,
            "segments_checked": len(tasks),
            "ok": not errors,
            "errors": errors,
            "orphan_segments": orphans,
            "in_flight_tmp": len(self.tmp_files()),
        }

    def gc(self, dry_run: bool = False, tmp_ttl_seconds: float = 3600.0) -> Dict[str, Any]:
        """Remove segment files no manifest references.

        Manifests are the root set (read directly from disk, not the
        cache): this bank's own plus every tenant namespace's under
        ``tenants/*/manifests/`` — tenant runs pin shared segments.
        Anything under ``segments/`` not reachable from one is deleted —
        or merely listed with ``dry_run``.  Never touches manifests
        themselves: to drop a run, delete its manifest file and then
        ``gc``.

        In-flight ``*.tmp`` atomic-write files are left alone unless
        older than ``tmp_ttl_seconds`` (crashed-writer residue; reclaimed
        into ``removed_tmp_files``).  The same grace protects *fresh*
        unreferenced ``.seg`` files: a concurrent ingest lands segments
        before its manifest, so a segment younger than
        ``tmp_ttl_seconds`` may be live even though no manifest names it
        yet — it is kept (counted as ``kept_fresh_segments``) and
        reclaimed by a later gc if its manifest never arrives.  Together
        these make gc safe to run concurrently with a live ingest; pass
        ``tmp_ttl_seconds=0.0`` to reclaim everything immediately when
        no writer can be alive.  A tenant bank (shared ``segments/``) refuses
        to gc at all: it cannot tell a sibling tenant's live segment from
        garbage; gc the service root instead.
        """
        if self.shared_segments:
            raise StoreError(
                "refusing to gc tenant namespace %r: its segments/ is shared "
                "with sibling tenants; gc the service store root instead"
                % str(self.root)
            )
        referenced: set = set()
        roots: List[Path] = []
        if self.manifests_dir.is_dir():
            roots.extend(sorted(self.manifests_dir.glob("*.json")))
        roots.extend(self._tenant_manifest_paths())
        for path in roots:
            try:
                m = RunManifest.loads(path.read_text("utf-8"))
            except (OSError, StoreCorruptionError):
                continue  # verify reports it; gc must not widen damage
            referenced.update(m.segment_shas())
        removed: List[str] = []
        freed = 0
        kept_fresh = 0
        now = time.time()
        for sha in self.disk_segments():
            if sha in referenced:
                continue
            path = self.segment_path(sha)
            try:
                st = path.stat()
            except OSError:
                continue  # vanished mid-scan (another gc, or a drop)
            if now - st.st_mtime < tmp_ttl_seconds:
                # Freshly landed: a live ingest writes segments before
                # its manifest, so this may be referenced momentarily.
                kept_fresh += 1
                continue
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            removed.append(sha)
            freed += st.st_size
        removed_tmp: List[str] = []
        for tmp in self.tmp_files():
            try:
                age = now - tmp.stat().st_mtime
            except OSError:
                continue  # completed (os.replace) or cleaned up mid-scan
            if age < tmp_ttl_seconds:
                continue  # plausibly a live writer; never race it
            if not dry_run:
                try:
                    tmp.unlink()
                except OSError:
                    continue
            removed_tmp.append(str(tmp.relative_to(self.root)))
        return {
            "schema": "repro/store/gc/v1",
            "dry_run": bool(dry_run),
            "removed_segments": removed,
            "removed_tmp_files": removed_tmp,
            "bytes_freed": freed,
            "kept_segments": len(referenced),
            "kept_fresh_segments": kept_fresh,
        }


def _verify_segment_task(task: Tuple[str, str, int, str]) -> Optional[Dict[str, Any]]:
    """Check one referenced segment (parallel-map worker entry).

    Returns ``None`` when the segment is healthy, else an error record.
    Lives at module level so it pickles into worker processes.
    """
    root, run_id, rank, sha = task
    bank = TraceBank(root, create=False)

    def err(msg: str) -> Dict[str, Any]:
        return {"run_id": run_id, "rank": rank, "sha256": sha, "error": msg}

    path = bank.segment_path(sha)
    try:
        blob = path.read_bytes()
    except OSError:
        return err("segment file missing")
    if content_address(blob) != sha:
        return err("content hash mismatch")
    try:
        tf = decode_segment(blob)
    except Exception as exc:  # decode must never crash verify
        return err("undecodable: %s" % exc)
    recomputed = summarize_segment(tf, rank, sha, len(blob))
    m = RunManifest.loads(bank.manifest_path(run_id).read_text("utf-8"))
    stored = next(
        (s for s in m.segments if s.sha256 == sha and s.rank == rank), None
    )
    if stored is None:
        return err("segment not in manifest (index drift)")
    if recomputed != stored:
        return err("summary drift: manifest summary does not match events")
    return None


def render_store_summary(stats: Dict[str, Any]) -> str:
    """Human rendering of :meth:`TraceBank.stats` for ``observe``/``ls``."""
    lines = [
        "TraceBank archive: %d run(s), %d event(s)" % (stats["runs"], stats["events"]),
        "segments: %d referenced (%d unique), %d on disk, %d orphan(s)"
        % (
            stats["segments_referenced"],
            stats["segments_unique"],
            stats["segments_on_disk"],
            stats["orphan_segments"],
        ),
        "bytes: %d logical / %d stored (dedup ratio %.2fx)"
        % (stats["logical_bytes"], stats["stored_bytes"], stats["dedup_ratio"]),
    ]
    if stats["runs_by_framework"]:
        lines.append(
            "runs by framework: "
            + ", ".join(
                "%s=%d" % (fw, n) for fw, n in stats["runs_by_framework"].items()
            )
        )
    return "\n".join(lines) + "\n"
