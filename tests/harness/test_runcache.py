"""Run cache: key stability, round-trips, and hit verification."""

import json

import pytest

import repro
from repro.harness.parallel import build_sweep_specs, execute_spec, run_sweep
from repro.harness.runcache import RunCache, spec_key
from repro.units import KiB, MiB
from repro.workloads import AccessPattern


def _spec(seed=0, block=64 * KiB):
    return build_sweep_specs(
        "lanl-trace",
        "mpi_io_test",
        {"pattern": AccessPattern.N_TO_N, "path": "/pfs/out"},
        [block],
        512 * KiB,
        nprocs=2,
        seed=seed,
    )[0]


class TestKeys:
    def test_key_is_stable_across_calls(self):
        assert spec_key(_spec()) == spec_key(_spec())

    def test_key_varies_with_every_input(self):
        base = spec_key(_spec())
        assert spec_key(_spec(seed=1)) != base
        assert spec_key(_spec(block=256 * KiB)) != base

    def test_key_includes_package_version(self, monkeypatch):
        base = spec_key(_spec())
        monkeypatch.setattr(repro, "__version__", "0.0.0-drifted")
        assert spec_key(_spec()) != base


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _spec()
        assert cache.get(spec) is None
        assert cache.misses == 1
        point = execute_spec(spec)
        cache.put(spec, point)
        assert len(cache) == 1
        got = cache.get(spec)
        assert got is not None and cache.hits == 1
        assert got.cached
        assert got.untraced == point.untraced
        assert got.traced == point.traced
        # params round-trip, including the AccessPattern enum
        assert got.params_dict()["pattern"] is AccessPattern.N_TO_N
        assert got.params_dict() == point.params_dict()

    def test_overheads_survive_the_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _spec()
        point = execute_spec(spec)
        cache.put(spec, point)
        got = cache.get(spec)
        assert got.elapsed_overhead == point.elapsed_overhead
        assert got.bandwidth_overhead == point.bandwidth_overhead

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute_spec(spec))
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(spec) is None


class TestHitVerification:
    def _entry_path(self, cache, spec):
        key = spec_key(spec)
        return cache.root / key[:2] / (key + ".json")

    def test_corrupted_payload_is_discarded(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute_spec(spec))
        path = self._entry_path(cache, spec)
        entry = json.loads(path.read_text())
        entry["payload"]["traced"]["elapsed"] = 0.0  # tampered number
        path.write_text(json.dumps(entry))
        assert cache.get(spec) is None  # checksum mismatch -> miss
        assert not path.exists()  # bad entry evicted

    def test_fingerprint_drift_is_discarded(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute_spec(spec))
        path = self._entry_path(cache, spec)
        entry = json.loads(path.read_text())
        # A model drift without a version bump: stored fingerprint no longer
        # matches the payload's events_executed.
        entry["fingerprint"]["traced_events"] += 1
        path.write_text(json.dumps(entry))
        assert cache.get(spec) is None

    def test_garbage_file_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _spec()
        path = self._entry_path(cache, spec)
        path.parent.mkdir(parents=True)
        path.write_text("not json{")
        assert cache.get(spec) is None


class TestSweepIntegration:
    def test_sweep_report_counts_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        specs = [_spec(), _spec(seed=5)]
        cold = run_sweep(specs, cache=cache)
        assert (cold.report.cache_hits, cold.report.cache_misses) == (0, 2)
        assert cold.report.cache_hit_rate == 0.0
        warm = run_sweep(specs, cache=cache)
        assert (warm.report.cache_hits, warm.report.cache_misses) == (2, 0)
        assert warm.report.cache_hit_rate == 1.0
        assert all(p.cached for p in warm.points)
        for a, b in zip(cold.points, warm.points):
            assert a.untraced == b.untraced and a.traced == b.traced

    def test_archived_hit_against_fresh_store_reexecutes(self, tmp_path):
        # The cache key excludes the store *path* (run ids are
        # content-derived), so a hit can carry a run id ingested into a
        # different archive.  The sweep must not serve a dangling run id:
        # it re-executes so the bundle lands in the new store too.
        from dataclasses import replace

        from repro.store.bank import TraceBank

        cache = RunCache(tmp_path / "cache")
        spec_a = replace(_spec(), store=str(tmp_path / "bank-a"))
        first = run_sweep([spec_a], cache=cache)
        run_id = first.points[0].store_run_id
        assert run_id is not None

        spec_b = replace(spec_a, store=str(tmp_path / "bank-b"))
        second = run_sweep([spec_b], cache=cache)
        assert second.report.cache_hits == 0  # treated as a miss
        assert second.points[0].store_run_id == run_id  # content-derived
        assert TraceBank(tmp_path / "bank-b").manifest(run_id)

        # same store, warm cache: still a hit, no re-execution
        third = run_sweep([spec_b], cache=cache)
        assert third.report.cache_hits == 1
        assert third.points[0].cached


class TestCodecKey:
    """The segment codec in the key: v2 is the default, old v1 entries
    keep their keys, and the two codecs never share an entry."""

    def _archived(self, tmp_path, **kw):
        from dataclasses import replace

        return replace(_spec(), store=str(tmp_path / "bank"), **kw)

    def test_codec_keys_are_unchanged_from_before_the_flip(
        self, tmp_path, monkeypatch
    ):
        # Keys recorded while v1 was still the default (package version
        # pinned so the digests stay comparable): an explicit-v1 spec
        # keeps the key every pre-columnar archived entry was stored
        # under, and the v2 default keys as explicit v2 always did.
        monkeypatch.setattr(repro, "__version__", "golden")
        v1 = self._archived(tmp_path, store_codec="v1")
        assert spec_key(v1) == (
            "505308f4930fdf44da55ba58b056be046098679fd7babfc8493802ea66d2230d"
        )
        assert spec_key(self._archived(tmp_path)) == (
            "039bd1fff871edaf31e34e0edbed577334d5b39f3d591ce33b06216b625cbf02"
        )

    def test_warm_v1_entry_never_serves_a_default_run(self, tmp_path):
        from repro.store.bank import TraceBank

        cache = RunCache(tmp_path / "cache")
        v1 = self._archived(tmp_path, store_codec="v1")
        first = run_sweep([v1], cache=cache)
        v1_run = first.points[0].store_run_id

        second = run_sweep([self._archived(tmp_path)], cache=cache)
        assert second.report.cache_hits == 0
        v2_run = second.points[0].store_run_id
        assert v2_run != v1_run
        bank = TraceBank(tmp_path / "bank", create=False)
        assert "format" not in bank.manifest(v1_run).codec
        assert bank.manifest(v2_run).codec["format"] == "v2"

        # The v1 entry is still warm for explicit-v1 specs.
        third = run_sweep([v1], cache=cache)
        assert third.report.cache_hits == 1
        assert third.points[0].store_run_id == v1_run
