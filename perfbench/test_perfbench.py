"""Tests of the benchmark's own machinery: tracing, certificates, tallies.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import tracing

nr = harness.import_nullrank()


@pytest.fixture(scope="module")
def tiny_cases():
    return [harness.build_case(nr, "zero", 2, 0), harness.build_case(nr, "nonzero", 3, 0)]


def _traced_setup_and_pass(cases):
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        rebuilt = []
        for case in cases:
            with tracer.span("setup.case", case.id):
                rebuilt.append(harness.build_case(nr, case.kind, case.n, case.seed))
                harness.certify(nr, rebuilt[-1])
        result = harness.run_pass(nr, rebuilt, tracer)
    return tracer, result


def test_every_layer_records_a_call(tiny_cases):
    tracer, _ = _traced_setup_and_pass(tiny_cases)
    seen = {span[3] for span in tracer.spans}
    missing = (set(tracing.LAYERS) | set(tracing.LAPACK_LAYERS)) - seen
    assert not missing, f"layers without a recorded call: {sorted(missing)}"
    ids = {case.id for case in tiny_cases}
    for sid, parent, case, _, start, end, _ in tracer.spans:
        assert end >= start
        assert case in ids
        assert parent is None or parent < sid


def test_bindings_are_restored_even_after_an_error():
    before = [(mod, key, getattr(mod, key)) for mod, key, _ in tracing.bindings()]
    assert any(key == "evalfr" and mod.__name__ == "nullrank.checks" for mod, key, _ in before)
    assert any(key == "rank_svd" and mod.__name__ == "nullrank.kernels" for mod, key, _ in before)
    with pytest.raises(KeyError):
        with tracing.traced(tracing.Tracer()):
            assert all(getattr(mod, key) is not value for mod, key, value in before)
            raise KeyError("boom")
    for mod, key, value in before:
        assert getattr(mod, key) is value, f"{mod.__name__}.{key} was not restored"


def test_traced_and_untraced_verdicts_agree(tiny_cases):
    plain = harness.run_pass(nr, tiny_cases)
    _, traced = _traced_setup_and_pass(tiny_cases)
    assert traced.verdicts == plain.verdicts
    assert traced.diagnostics == plain.diagnostics


def test_self_time_subtracts_wrapped_children():
    spans = [
        [0, None, "c", "method.m1", 0.0, 10.0, {}],
        [1, 0, "c", "reductions.ctrb_staircase", 1.0, 6.0, {"removed": 3}],
        [2, 1, "c", "kernels.row_compress", 2.0, 4.0, {"max_dim": 7, "flops": 11}],
        [3, 0, "c", "analysis.evalfr", 7.0, 8.0, {"error": "PoleEvaluationError"}],
    ]
    metrics = {k: v["value"] for k, v in tracing.layer_metrics(spans, 0.5).items()}
    assert metrics["reductions.ctrb_staircase.s"] == 5.0
    assert metrics["reductions.ctrb_staircase.self_s"] == 3.0
    assert metrics["reductions.ctrb_staircase.removed"] == 3
    assert metrics["kernels.row_compress.flops"] == 11
    assert metrics["trace.m1_m3_coverage"] == (3.0 + 2.0 + 1.0) / 10.0
    assert metrics["trace.overhead_s"] == 0.5


def test_certificates_reject_a_mislabelled_case(tiny_cases):
    zero = tiny_cases[0]
    mislabelled = harness.Case(zero.id, "nonzero", zero.n, zero.seed, zero.system)
    with pytest.raises(harness.CertificateError):
        harness.certify(nr, mislabelled)
    for case in tiny_cases:
        harness.certify(nr, case)


@pytest.fixture(scope="module")
def sweep_seed_0():
    cases = harness.build_cases(nr, "zero_sweep", 0)
    return cases, harness.run_pass(nr, cases)


def test_zero_sweep_seed_0_reproduces_the_criterion_1_tally(sweep_seed_0):
    cases, result = sweep_seed_0
    tally = harness.verdict_tally(cases, result.verdicts, result.diagnostics)
    counts = {k: v for k, v in tally.items() if k != "wrong"}
    assert counts == {"m1_wrong": 13, "m2_wrong": 0, "m3_wrong": 3, "m4_wrong": 0, "m5_wrong": 0, "errors": 0}
    # The recorded acceptance log has M1 accepting this case.
    assert "z20s1:M1" in tally["wrong"]


def test_only_listed_limits_of_m1_and_m3_are_acceptable(sweep_seed_0):
    cases, result = sweep_seed_0
    verdicts = result.verdicts
    assert harness.verdicts_are_acceptable("zero_sweep", 0, cases, verdicts)
    assert ("z1s0", 1) not in harness.wrong_verdicts(cases, verdicts)
    for k in harness.METHODS:
        worse = {**verdicts, ("z1s0", k): False}
        # known_wrong.json covers seed 0, so no new wrong verdict passes.
        assert not harness.verdicts_are_acceptable("zero_sweep", 0, cases, worse)
        # Beyond the seeds it covers, only M1 and M3 may reject a zero case.
        assert harness.verdicts_are_acceptable("zero_sweep", 10**6, cases, worse) == (k in (1, 3))


def test_a_nonzero_case_judged_null_is_never_acceptable(tiny_cases):
    verdicts = harness.run_pass(nr, tiny_cases).verdicts
    assert harness.verdicts_are_acceptable("nonzero_mixed", 0, tiny_cases, verdicts)
    for k in harness.METHODS:
        worse = {**verdicts, (tiny_cases[1].id, k): True}
        assert not harness.verdicts_are_acceptable("nonzero_mixed", 0, tiny_cases, worse)


def test_benchmark_json_lists_exactly_the_reported_metrics(tiny_cases):
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.layer_metrics([], 0.0))
    one = harness.run_pass(nr, tiny_cases)
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.end_to_end_metrics(tiny_cases, [one], 1.0))
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "zero_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert '"correct"' not in out.stdout
