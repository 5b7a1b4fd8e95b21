"""IngestQueue unit regressions: WAL seq allocation and commit faults.

``write_wal`` runs in executor threads — one per concurrent upload — so
sequence numbers must be race-free: a duplicate seq means a duplicate
WAL path, and the second atomic write would silently overwrite the
first durably-acked entry.  And a *transient* commit failure (ENOSPC,
EMFILE) must leave the entry in the WAL for restart recovery, never
discard a durably-acked upload.
"""

import asyncio
import json
import threading

from repro.errors import TraceError
from repro.service import Request, ServiceApp
from repro.service.ingestq import IngestQueue
from repro.trace.binary_format import encode_trace_file
from storeutil import make_trace_file


def _trace_and_body(rank=0, n=8):
    trace = make_trace_file(rank=rank, n=n)
    return trace, encode_trace_file(trace)


class TestConcurrentWalSeq:
    def test_parallel_write_wal_never_collides(self, tmp_path):
        queue = IngestQueue(tmp_path / "svc", capacity=256)
        trace, body = _trace_and_body()
        n_threads, per_thread = 8, 8
        entries = []
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker():
            try:
                barrier.wait()
                for _ in range(per_thread):
                    entries.append(
                        queue.write_wal("alice", body, trace, 0, {}, "v1")
                    )
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        total = n_threads * per_thread
        entry_ids = {e.entry_id for e in entries}
        assert len(entry_ids) == total  # every upload drew a unique seq
        on_disk = sorted((tmp_path / "svc" / "wal").glob("*.wal"))
        assert len(on_disk) == total  # ...and none overwrote another

    def test_write_wal_refuses_existing_path(self, tmp_path):
        queue = IngestQueue(tmp_path / "svc", capacity=4)
        trace, body = _trace_and_body()
        clash = queue.wal_dir / ("%08d-alice.wal" % queue._seq)
        clash.write_bytes(b"pre-existing durably-acked entry")
        try:
            queue.write_wal("alice", body, trace, 0, {}, "v1")
        except Exception:
            pass  # refusing is fine...
        # ...overwriting is not.
        assert clash.read_bytes() == b"pre-existing durably-acked entry"


class TestTransientCommitFailure:
    def test_oserror_defers_entry_to_recovery(self, tmp_path):
        root = tmp_path / "svc"
        trace, body = _trace_and_body()
        req = Request(
            "POST", "/v1/t/alice/ingest",
            {"rank": ["0"], "sync": ["1"]}, {}, body,
        )

        async def first_life():
            app = ServiceApp(root)
            await app.startup()
            try:
                # Every commit fails like a full disk.
                app.queue.commit = lambda entry, bank: (_ for _ in ()).throw(
                    OSError(28, "No space left on device")
                )
                return app, await app.handle(req)
            finally:
                await app.shutdown()

        app, resp = asyncio.run(first_life())
        assert resp.status == 500
        assert json.loads(resp.body)["error"]["type"] == "OSError"
        # Durably-acked entry kept for recovery, not discarded.
        assert app.queue.discarded == 0
        assert app.metrics.snapshot(end_time=0.0)["counters"][
            "service.commit.deferred"
        ] == 1
        wal = sorted((root / "wal").glob("*.wal"))
        assert len(wal) == 1

        async def second_life():
            app2 = ServiceApp(root)
            await app2.startup()
            try:
                await app2.queue.queue.join()  # recovery re-commits
                return await app2.handle(Request("GET", "/v1/t/alice/runs"))
            finally:
                await app2.shutdown()

        resp2 = asyncio.run(second_life())
        assert resp2.status == 200
        assert len(json.loads(resp2.body)["runs"]) == 1
        assert sorted((root / "wal").glob("*.wal")) == []

    def test_data_error_still_discards(self, tmp_path):
        root = tmp_path / "svc"
        trace, body = _trace_and_body()
        req = Request(
            "POST", "/v1/t/alice/ingest",
            {"rank": ["0"], "sync": ["1"]}, {}, body,
        )

        async def main():
            app = ServiceApp(root)
            await app.startup()
            try:
                app.queue.commit = lambda entry, bank: (_ for _ in ()).throw(
                    TraceError("rotted bytes")
                )
                resp = await app.handle(req)
                return app, resp
            finally:
                await app.shutdown()

        app, resp = asyncio.run(main())
        assert resp.status == 400
        assert app.queue.discarded == 1
        assert sorted((root / "wal").glob("*.wal")) == []


class TestPreUpgradeWalEntry:
    def test_codecless_entry_recovers_as_v1_under_its_acked_run_id(self, tmp_path):
        # WAL headers gained a "codec" field when v2 became selectable; an
        # entry written before that was acked as a v1 ingest.  After the
        # default flipped to v2 it must still recover to the v1 run id.
        from repro.store import TraceBank
        from repro.trace.records import TraceBundle

        root = tmp_path / "svc"
        trace, body = _trace_and_body()
        entry = IngestQueue(root, capacity=4).write_wal(
            "alice", body, trace, 0, {}, "v1"
        )
        head, _sep, rest = entry.path.read_bytes().partition(b"\n")
        header = json.loads(head)
        del header["codec"]
        entry.path.write_bytes(
            json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + rest
        )

        recovered = IngestQueue(root, capacity=4).recover()
        assert [e.codec for e in recovered] == ["v1"]

        acked = TraceBank(tmp_path / "pre-upgrade").ingest_bundle(
            TraceBundle(files={0: trace}, metadata={"framework": trace.framework}),
            meta={"kind": "service"},
            codec="v1",
        ).run_id

        async def restart():
            app = ServiceApp(root)
            await app.startup()
            try:
                await app.queue.queue.join()  # recovery commits the entry
                return await app.handle(Request("GET", "/v1/t/alice/runs"))
            finally:
                await app.shutdown()

        resp = asyncio.run(restart())
        assert resp.status == 200
        assert [r["run_id"] for r in json.loads(resp.body)["runs"]] == [acked]
        assert sorted((root / "wal").glob("*.wal")) == []
