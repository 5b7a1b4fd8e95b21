"""Property tests: the archive is a lossless, order-faithful view.

For any bundle, ``encode -> ingest -> query`` must agree with scanning
the in-memory bundle directly — across both codec flag settings and any
worker count.  This is the satellite-3 acceptance property: the store is
an *archive*, not a lossy summary.  And the two segment codecs answer
any column projection identically, so the one scan kernel cannot tell
which codec wrote a segment.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from storeutil import make_event

from repro.obs.metrics import canonical_json
from repro.store import Query, TraceBank, run_query
from repro.store.segments import encode_segment, segment_columns
from repro.trace.columnar import COLUMNS, read_columns, trace_file_columns
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceBundle, TraceFile

NAMES = ("SYS_read", "SYS_write", "SYS_open")

event_strategy = st.tuples(
    st.sampled_from(NAMES),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=32),
    st.integers(min_value=0, max_value=1 << 20),  # nbytes
)

bundle_strategy = st.dictionaries(
    keys=st.integers(min_value=0, max_value=3),  # ranks
    values=st.lists(event_strategy, min_size=0, max_size=6),
    min_size=1,
    max_size=3,
)


def build_bundle(spec):
    files = {}
    for rank, rows in spec.items():
        events = [
            make_event(name=name, ts=ts, rank=rank, nbytes=nbytes)
            for name, ts, nbytes in rows
        ]
        files[rank] = TraceFile(events, rank=rank, framework="lanl-trace")
    return TraceBundle(files=files, metadata={"workload": "prop"})


def expected_rows(bundle):
    """The plain in-memory scan: what the events query must reproduce."""
    rows = []
    for rank in bundle.files:
        for seq, e in enumerate(bundle.files[rank].events):
            rows.append((e.timestamp, rank, seq, e.name, e.nbytes))
    rows.sort()
    return rows


class TestArchiveRoundtrip:
    @given(
        spec=bundle_strategy,
        compressed=st.booleans(),
        checksum=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_query_matches_plain_scan(self, spec, compressed, checksum):
        bundle = build_bundle(spec)
        with tempfile.TemporaryDirectory() as tmp:
            bank = TraceBank(Path(tmp) / "store")
            bank.ingest_bundle(bundle, compressed=compressed, checksum=checksum)
            report = run_query(bank, Query(agg="events"))
            got = [
                (r["timestamp"], r["rank"], r["seq"], r["name"], r["nbytes"])
                for r in report["result"]["events"]
            ]
            assert got == expected_rows(bundle)

    @given(spec=bundle_strategy)
    @settings(max_examples=20, deadline=None)
    def test_jobs_never_change_report_bytes(self, spec):
        bundle = build_bundle(spec)
        with tempfile.TemporaryDirectory() as tmp:
            bank = TraceBank(Path(tmp) / "store")
            bank.ingest_bundle(bundle)
            for agg in ("events", "ops", "bytes"):
                q = Query(agg=agg)
                assert canonical_json(run_query(bank, q, jobs=1)) == canonical_json(
                    run_query(bank, q, jobs=4)
                )

    @given(spec=bundle_strategy, compressed=st.booleans(), checksum=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_load_run_bundle_is_lossless(self, spec, compressed, checksum):
        bundle = build_bundle(spec)
        with tempfile.TemporaryDirectory() as tmp:
            bank = TraceBank(Path(tmp) / "store")
            r = bank.ingest_bundle(bundle, compressed=compressed, checksum=checksum)
            out = bank.load_run_bundle(r.run_id)
            assert sorted(out.files) == sorted(bundle.files)
            for rank in bundle.files:
                assert out.files[rank].events == bundle.files[rank].events

    @given(spec=bundle_strategy)
    @settings(max_examples=20, deadline=None)
    def test_reingest_is_always_a_full_dedup(self, spec):
        bundle = build_bundle(spec)
        with tempfile.TemporaryDirectory() as tmp:
            bank = TraceBank(Path(tmp) / "store")
            first = bank.ingest_bundle(bundle)
            second = bank.ingest_bundle(bundle)
            assert second.run_id == first.run_id
            assert second.new_segments == 0
            assert not second.manifest_new


# -- cross-codec projection ------------------------------------------------

FIELDS = [name for name, _enc in COLUMNS]

short_text = st.text(max_size=6)
# v1 re-parses a rendered result as an int when it can, so only strings
# no int() accepts keep their type through v1; v2 keeps any string.
word = st.text(alphabet="abcxyzé✓/.:", max_size=6)
i64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)

column_event = st.builds(
    TraceEvent,
    timestamp=st.floats(allow_nan=False),
    duration=st.floats(min_value=0.0, allow_nan=False),
    layer=st.sampled_from(list(EventLayer)),
    name=short_text,
    args=st.tuples() | st.lists(
        st.one_of(st.none(), st.booleans(), i64, word,
                  st.floats(allow_nan=False)),
        max_size=3,
    ).map(tuple),
    result=st.one_of(st.none(), st.booleans(), i64, word,
                     st.floats(allow_nan=False)),
    pid=st.integers(min_value=0, max_value=(1 << 32) - 1),
    rank=st.none() | st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    hostname=short_text,
    user=short_text,
    path=st.none() | short_text,
    fd=st.none() | i64,
    nbytes=st.none() | i64,
    offset=st.none() | i64,
)


class TestCrossCodecColumns:
    @given(
        events=st.lists(column_event, max_size=12),
        subset=st.lists(st.sampled_from(FIELDS), max_size=len(FIELDS) + 2),
        compressed=st.booleans(),
        checksum=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_v1_adapter_columns_equal_v2_projection(
        self, events, subset, compressed, checksum
    ):
        tf = TraceFile(events, hostname="h", pid=1, rank=0, framework="prop")
        v1, sha1 = encode_segment(tf, compressed, checksum, codec="v1")
        v2, sha2 = encode_segment(tf, compressed, checksum, codec="v2")
        for fields in [subset, FIELDS] + [[f] for f in FIELDS]:
            want = read_columns(v2, fields)
            assert segment_columns(v1, fields, expected_sha=sha1) == want
            assert segment_columns(v2, fields, expected_sha=sha2) == want
            assert trace_file_columns(tf, fields) == want
