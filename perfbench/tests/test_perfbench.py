"""Tests of the benchmark itself (not of latgreen).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return workloads.load_references()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_rounds_depend_only_on_the_seed(refs, workload):
    first = workloads.make_rounds(workload, 7, refs)
    assert first == workloads.make_rounds(workload, 7, refs)
    assert first != workloads.make_rounds(workload, 8, refs)
    assert len(first) == workloads.ROUNDS
    assert all(len(r["calls"]) == len(r["meta"]) > 0 for r in first)


def test_rounds_have_the_same_shape_for_every_seed(refs):
    sizes = {len(r["calls"]) for seed in range(5)
             for r in workloads.make_rounds("oracle-grid", seed, refs)}
    assert sizes == {21 * workloads.ORACLE_PER_GROUP}


def test_stratified_takes_one_item_per_slice():
    import random

    rng = random.Random(0)
    items = list(range(12))
    for _ in range(50):
        picks = sorted(workloads.stratified(rng, items, 3))
        assert [p // 4 for p in picks] == [0, 1, 2]


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([float(v) for v in range(100)])
    assert (value, n) == (89.0, 100)
    assert pct == pytest.approx(90.0)
    assert sum(v > value for v in range(100)) == run.TAIL_BEYOND
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3)


def test_oracle_check_accepts_the_reference_and_flags_a_bad_value(refs):
    i = next(k for k, e in enumerate(refs["oracle"]) if e["source"] == "fourier")
    log_ref = refs["oracle"][i]["log_ref"]
    meta = {"ref": i}
    good = [math.exp(log_ref), log_ref, 0.0] * 2
    assert workloads.check_oracle(refs, meta, good) == []
    bad = list(good)
    bad[1] += 1e-7
    assert workloads.check_oracle(refs, meta, bad)
    assert workloads.check_oracle(refs, meta, {"error": "DomainError: x"})


def test_mc_check_pools_three_sigma_coverage(refs):
    table = workloads.mc_reference(refs)
    want = table[(1, 1.0, (0,))] * 2.0
    call = ["walks", 1, 1.0, 10, 0, 0]
    coverage = [0, 0]
    assert workloads.check_mc(table, call, [[[0], want + 4.0, 1.0]], coverage) == []
    assert coverage == [0, 1]
    assert workloads.check_mc(table, call, [[[0], want + 6.0, 1.0]], coverage)


def test_cli_error_path_needs_the_documented_exit_code(refs):
    meta = {"kind": "error", "expect": 64}
    assert workloads.check_cli(refs, meta, [64, "", False]) == []
    assert workloads.check_cli(refs, meta, [1, "", True])


def test_tracer_records_nesting_and_returns_results_unchanged():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda t: [v * 2 for v in t], attr=tracing._size(0))
    outer = tracer.wrap("outer", lambda t: inner(t) + inner(t))
    tracer.request = 3
    assert outer([1, 2]) == [2, 4, 2, 4]
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert {s[tracing.REQUEST] for s in tracer.spans} == {3}
    assert [s[tracing.ATTR] for s in tracer.spans[1:]] == [2, 2]
    own = tracing.self_times(tracer.spans)
    spans = tracer.spans
    assert own[0] == (spans[0][2] - spans[0][1]) - sum(s[2] - s[1] for s in spans[1:])


def test_install_wraps_and_restores_every_trace_point():
    pytest.importorskip("latgreen")
    import importlib

    originals = [getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.TRACE_POINTS]
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        wrapped = [getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.TRACE_POINTS]
        assert all(w is not o for w, o in zip(wrapped, originals))
        import latgreen

        value = latgreen.green_bessel(latgreen.GreenParams(1, 1.0, 1.0), [2])
        names = {s[tracing.NAME] for s in tracer.spans}
        assert {"lattice.green_bessel", "quadrature.integral", "quadrature.integrand",
                "special.ibar"} <= names
    finally:
        uninstall()
    assert [getattr(importlib.import_module(m), a)
            for m, a, _, _ in tracing.TRACE_POINTS] == originals
    assert latgreen.green_bessel(latgreen.GreenParams(1, 1.0, 1.0), [2]) == value


def test_span_metrics_cover_every_per_layer_metric():
    spans = [
        ["lattice.green_bessel", 0, 100, -1, 0, None],
        ["quadrature.integral", 10, 90, 0, 0, None],
        ["quadrature.integrand", 20, 60, 1, 0, 8],
        ["special.ibar", 30, 50, 2, 0, 8],
    ]
    rounds = [{"calls": [None], "meta": [{}]}]
    m = layers.span_metrics(spans, rounds, [[0, 0, 100, None]])
    assert m["special.ibar_evals_per_point"] == 8
    assert m["special.share"] == pytest.approx(0.2)
    assert m["quadrature.self_ms_per_point"] == pytest.approx(40 / 1e6)
    added_by_parent = {"walk.coverage", "trace.overhead_frac", "cli.import_ms",
                       "cli.process_ms_per_invocation"}
    assert set(m) | added_by_parent == set(layers.UNITS)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_run_refuses_a_directory_without_sources():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "mc-walks",
                           "--seed", "1", "--seconds", "1"],
                          cwd=BENCH, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
