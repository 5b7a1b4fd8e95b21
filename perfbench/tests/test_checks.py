"""The benchmark's own tests: each output check rejects a tampered output,
and the printed metric names are the ones BENCHMARK.json declares.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import archive
import paper_sweep
import service_mixed
from run import END_TO_END, PER_LAYER, SERVICE_LAYER, WORKLOADS, load_references

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


# -- paper-sweep -------------------------------------------------------------------


def _sweep_raw():
    ref = load_references()["paper-sweep"]
    return {"observed": {k: [dict(v), dict(v)] for k, v in ref.items()}}, ref


def test_sweep_check_accepts_the_reference():
    raw, ref = _sweep_raw()
    assert paper_sweep.check(None, raw, ref) == []


@pytest.mark.parametrize("field", ["elapsed_untraced", "elapsed_traced"])
def test_sweep_check_rejects_a_nudged_elapsed(field):
    raw, ref = _sweep_raw()
    sample = raw["observed"]["fig3-64k"][1]
    sample[field] = math.nextafter(sample[field], math.inf)
    problems = paper_sweep.check(None, raw, ref)
    assert problems and "fig3-64k" in problems[0]


def test_sweep_check_rejects_wrong_bytes_and_a_missing_point():
    raw, ref = _sweep_raw()
    raw["observed"]["fig4-8m"][0]["bytes_traced"] -= 1
    del raw["observed"]["fig2-64k"]
    problems = paper_sweep.check(None, raw, ref)
    assert [p.split(":")[0] for p in problems] == ["fig2-64k", "fig4-8m"]


# -- archive-analytics ----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    from repro.store import TraceBank

    bundles = [archive._simulate(item) for item in archive.bundle_plan(0)[:6]]
    reports = {}
    for codec in ("v1", "v2"):
        bank = TraceBank(tmp_path_factory.mktemp("bank") / codec)
        for bundle, meta in bundles:
            bank.ingest_bundle(bundle, meta=meta, codec=codec)
        reports[codec] = (archive.answer_all(bank)[0], bank.run_ids())
    return reports


def test_archive_reports_agree_across_codecs_once_run_ids_are_scrubbed(small_archive):
    (r1, ids1), (r2, ids2) = small_archive["v1"], small_archive["v2"]
    assert set(ids1).isdisjoint(ids2)  # run ids embed the codec
    assert archive.digests(r1, ids1) == archive.digests(r2, ids2)


def test_archive_check_rejects_an_altered_query_report(small_archive):
    reports, ids = small_archive["v1"]
    reference = archive.digests(reports, ids)
    raw = {"verify_problems": [], "digests": [reference, reference]}
    assert archive.check({}, raw, reference) == []
    altered = copy.deepcopy(reports)
    name = sorted(altered["ops"]["result"]["ops"])[0]
    altered["ops"]["result"]["ops"][name]["calls"] += 1
    raw["digests"] = [archive.digests(altered, ids)] * 2
    assert archive.check({}, raw, reference) == ["ops report differs from the reference"]


def test_archive_scrub_hides_run_ids_and_their_order():
    a = {"runs": [{"run_id": "aa", "x": 1}, {"run_id": "bb", "x": 2}], "t": 0.1 + 0.2}
    b = {"runs": [{"run_id": "dd", "x": 2}, {"run_id": "cc", "x": 1}], "t": 0.3}
    assert archive.scrub(a, ["aa", "bb"]) == archive.scrub(b, ["cc", "dd"])


# -- service-mixed ----------------------------------------------------------------------


def _service_raw():
    rows = [
        {"kind": "ingest", "tenant": "tenant00", "status": 202, "trace_id": "t1"},
        {"kind": "ingest", "tenant": "tenant01", "status": 202, "trace_id": "t2"},
        {"kind": "query", "tenant": "tenant00", "status": 200, "trace_id": "t3"},
    ]
    traces = {
        "t1": {"spans": [{"name": "bank.ingest", "args": {"run_id": "run-a"}}]},
        "t2": {"spans": [{"name": "bank.ingest", "args": {"run_id": "run-b"}}]},
    }
    return {
        "rows": rows,
        "traces": traces,
        "listed": {"tenant00": ["run-a"], "tenant01": ["run-b"]},
        "http_query": b'{"x": 1}\n',
        "local_query": b'{"x": 1}\n',
    }


def test_service_check_accepts_consistent_outputs():
    assert service_mixed.check({}, _service_raw()) == []


def test_service_check_rejects_an_acked_run_missing_from_runs():
    raw = _service_raw()
    raw["listed"]["tenant01"] = []
    assert service_mixed.check({}, raw) == ["acked run run-b missing from tenant01/runs"]


def test_service_check_rejects_an_http_query_that_differs():
    raw = _service_raw()
    raw["http_query"] = b'{"x": 2}\n'
    assert len(service_mixed.check({}, raw)) == 1


# -- metric names -------------------------------------------------------------------------


def test_declared_metrics_match_benchmark_json():
    bench = _bench_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOADS


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload,trace,declared", [
    ("service-mixed", "0", "end_to_end"),
    ("archive-analytics", "1", "per_layer"),
    ("service-mixed", "1", SERVICE_LAYER),
])
def test_printed_metric_names_match_benchmark_json(workload, trace, declared):
    proc, lines = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    if isinstance(declared, str):
        declared = {m["name"]: m["unit"] for m in _bench_json()[declared]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_printing_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run("--workload", "paper-sweep", "--seed", "0", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert lines == []
