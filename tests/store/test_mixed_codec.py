"""Mixed-codec archives: v1 and v2 segments living side by side.

Readers sniff the codec per blob, so one archive can hold row-major and
columnar runs simultaneously — and every maintenance and query path must
treat them uniformly: verify checks both, gc keeps both, queries and
DFGs return byte-identical reports regardless of which codec (or mix)
produced the events, the job count, or manifest-cache temperature.
"""

import json

import pytest

from storeutil import make_bundle, make_trace_file

from repro.errors import StoreError
from repro.obs.metrics import canonical_json
from repro.store import Query, TraceBank, run_query
from repro.store.dfg import build_dfg
from repro.store.segments import decode_segment, encode_segment, segment_codec
from repro.trace.records import TraceBundle


def mixed_bank(tmp_path):
    """An archive holding the same logical bundle under both codecs."""
    bank = TraceBank(tmp_path / "store")
    r1 = bank.ingest_bundle(make_bundle(nranks=3, n=24), codec="v1")
    r2 = bank.ingest_bundle(make_bundle(nranks=3, n=24), codec="v2")
    return bank, r1, r2


def normalized(report, run_id):
    """A query report with its run-id references scrubbed for comparison."""
    rep = json.loads(json.dumps(report))
    rep["query"]["runs"] = None
    events = rep.get("result", {}).get("events")
    if events is not None:
        for row in events:
            assert row.pop("run") == run_id
    return rep


class TestCodecSelection:
    def test_encode_segment_dispatches_on_codec(self):
        tf = make_trace_file(n=6)
        blob1, sha1 = encode_segment(tf, codec="v1")
        blob2, sha2 = encode_segment(tf, codec="v2")
        assert segment_codec(blob1) == "v1"
        assert segment_codec(blob2) == "v2"
        assert sha1 != sha2  # different bytes, different identity
        assert decode_segment(blob1).events == decode_segment(blob2).events

    def test_unknown_codec_rejected(self):
        with pytest.raises(StoreError):
            encode_segment(make_trace_file(n=1), codec="v3")

    def test_manifest_format_key_only_for_v2(self, tmp_path):
        bank, r1, r2 = mixed_bank(tmp_path)
        assert "format" not in bank.manifest(r1.run_id).codec
        assert bank.manifest(r2.run_id).codec["format"] == "v2"

    def test_same_bundle_under_both_codecs_is_two_runs(self, tmp_path):
        _bank, r1, r2 = mixed_bank(tmp_path)
        assert r1.run_id != r2.run_id
        assert r1.events == r2.events


class TestMaintenance:
    def test_verify_checks_both_codecs(self, tmp_path):
        bank, r1, r2 = mixed_bank(tmp_path)
        report = bank.verify(jobs=2)
        assert report["ok"], report["errors"]
        assert report["segments_checked"] == r1.segments + r2.segments

    def test_verify_flags_corrupt_v2_segment(self, tmp_path):
        bank, _r1, r2 = mixed_bank(tmp_path)
        sha = bank.manifest(r2.run_id).segments[0].sha256
        path = bank.segment_path(sha)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        report = bank.verify()
        assert not report["ok"]
        assert any(e["sha256"] == sha for e in report["errors"])

    def test_gc_keeps_referenced_segments_of_both_codecs(self, tmp_path):
        bank, r1, r2 = mixed_bank(tmp_path)
        report = bank.gc()
        assert report["removed_segments"] == []
        assert report["kept_segments"] == r1.segments + r2.segments

    def test_gc_collects_orphaned_v2_run(self, tmp_path):
        bank, r1, r2 = mixed_bank(tmp_path)
        bank.manifest_path(r2.run_id).unlink()
        report = bank.gc(tmp_ttl_seconds=0.0)
        assert len(report["removed_segments"]) == r2.segments
        assert bank.verify()["ok"]
        assert {s.sha256 for s in bank.manifest(r1.run_id).segments} == set(
            bank.disk_segments()
        )


QUERIES = (
    Query.create(agg="ops"),
    Query.create(agg="bytes"),
    Query.create(agg="bandwidth", window=0.02),
    Query.create(agg="events", limit=40),
    Query.create(agg="ops", names=["SYS_write"], ranks=[0, 2]),
    Query.create(agg="events", since=0.05, until=0.2),
    Query.create(agg="events", path_glob="/pfs/*"),
    Query.create(agg="ops", layers=["syscall"]),
    Query.create(agg="ops", names=["not_present"]),
)


class TestCrossCodecIdentity:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: canonical_json(q.echo())[:48])
    def test_reports_identical_across_codecs_and_jobs(self, tmp_path, query):
        from dataclasses import replace

        bank, r1, r2 = mixed_bank(tmp_path)
        via_v1 = normalized(
            run_query(bank, replace(query, runs=(r1.run_id,)), jobs=1), r1.run_id
        )
        for jobs in (1, 3):
            via_v2 = normalized(
                run_query(bank, replace(query, runs=(r2.run_id,)), jobs=jobs),
                r2.run_id,
            )
            assert canonical_json(via_v2) == canonical_json(via_v1)

    def test_dfg_identical_across_codecs(self, tmp_path):
        bank, r1, r2 = mixed_bank(tmp_path)
        d1 = build_dfg(bank, Query.create(runs=[r1.run_id]))
        d2 = build_dfg(bank, Query.create(runs=[r2.run_id]), jobs=3)
        d1["query"]["runs"] = d2["query"]["runs"] = None
        assert canonical_json(d1) == canonical_json(d2)

    def test_cold_and_warm_manifest_cache_agree(self, tmp_path):
        bank, _r1, r2 = mixed_bank(tmp_path)
        q = Query.create(agg="ops", runs=[r2.run_id])
        warm = run_query(bank, q)
        (bank.root / "index.json").unlink(missing_ok=True)
        cold = run_query(TraceBank(bank.root, create=False), q)
        assert canonical_json(cold) == canonical_json(warm)

    def test_load_run_bundle_lossless_for_v2(self, tmp_path):
        bank, _r1, r2 = mixed_bank(tmp_path)
        want = make_bundle(nranks=3, n=24)
        got = bank.load_run_bundle(r2.run_id)
        assert sorted(got.files) == sorted(want.files)
        for rank in want.files:
            assert got.files[rank].events == want.files[rank].events

    def test_header_pushdown_prunes_but_never_changes_answers(self, tmp_path):
        # A query whose name filter misses every v2 segment: the columnar
        # path answers from the header alone; the report must still match
        # the v1 scan shapes (zero matches, full shard accounting).
        bank, r1, r2 = mixed_bank(tmp_path)
        from dataclasses import replace

        q = Query.create(agg="bytes", names=["never_recorded"])
        a = run_query(bank, replace(q, runs=(r1.run_id,)))
        b = run_query(bank, replace(q, runs=(r2.run_id,)))
        a["query"]["runs"] = b["query"]["runs"] = None
        assert canonical_json(a) == canonical_json(b)
        assert b["scan"]["events_matched"] == 0


class TestSweepCodecPlumbing:
    def test_run_spec_codec_reaches_the_archive(self, tmp_path):
        from repro.harness.parallel import RunSpec, ingest_spec_bundle

        spec = RunSpec.create(
            "lanl-trace",
            "mpi_io_test",
            {"block_size": 4096},
            store=str(tmp_path / "store"),
            store_codec="v2",
        )
        bundle = TraceBundle(files={0: make_trace_file(n=4)})
        run_id = ingest_spec_bundle(spec, bundle)
        bank = TraceBank(tmp_path / "store", create=False)
        assert bank.manifest(run_id).codec["format"] == "v2"
        sha = bank.manifest(run_id).segments[0].sha256
        assert segment_codec(bank.read_segment_blob(sha)) == "v2"

    def test_cache_key_widens_only_for_v2(self):
        from repro.harness.parallel import RunSpec
        from repro.harness.runcache import spec_key

        base = dict(workload="mpi_io_test", workload_args={"block_size": 1})
        plain = RunSpec.create("lanl-trace", **base)
        default = RunSpec.create("lanl-trace", store=".s", **base)
        v1 = RunSpec.create("lanl-trace", store=".s", store_codec="v1", **base)
        v2 = RunSpec.create("lanl-trace", store=".s", store_codec="v2", **base)
        assert spec_key(default) == spec_key(v2)  # the default is v2
        assert spec_key(v2) != spec_key(v1)
        assert spec_key(plain) != spec_key(v1)
