"""Random generators, certified-zero cases, benchmark sweeps, reports."""

import numpy as np
import pytest

from nullrank import DISCRETE, MethodResult, check_nullrank
from nullrank.analysis import evalfr
from nullrank.bench import (
    BenchRow,
    GeneratorSpec,
    build_zero_case,
    method_totals,
    random_stable_system,
    render_report,
    run_benchmark,
)


# -------------------------------------------------------- random_stable_system


def test_generator_spec_validation():
    GeneratorSpec(3, 2, 1)  # fine
    with pytest.raises(ValueError):
        GeneratorSpec(-1, 2, 1)
    with pytest.raises(ValueError):
        GeneratorSpec(3, 2, 1, timing="sampled")
    with pytest.raises(TypeError, match="^n must be an integer"):
        GeneratorSpec(1.5, 2, 3)
    with pytest.raises(ValueError, match="^seed must be at least 0"):
        GeneratorSpec(3, 2, 1, seed=-1)


def test_random_stable_system_shapes_and_identity_e():
    sys = random_stable_system(GeneratorSpec(5, 2, 3, seed=4))
    assert (sys.n, sys.p, sys.m) == (5, 2, 3)
    assert np.array_equal(sys.E, np.eye(5))
    assert sys.timing == DISCRETE


def test_random_stable_system_is_seed_deterministic():
    a = random_stable_system(GeneratorSpec(6, 2, 2, seed=11))
    b = random_stable_system(GeneratorSpec(6, 2, 2, seed=11))
    for name in "AEBCD":
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = random_stable_system(GeneratorSpec(6, 2, 2, seed=12))
    assert not np.array_equal(a.A, c.A)


def test_random_stable_system_spectrum_stays_inside_margin(rng):
    moduli = []
    some_complex = False
    for seed in range(400):
        n = int(rng.integers(1, 13))
        sys = random_stable_system(GeneratorSpec(n, 1, 1, seed=seed))
        lam = np.linalg.eigvals(sys.A)
        moduli.extend(np.abs(lam))
        some_complex = some_complex or np.any(np.abs(lam.imag) > 1e-12)
    assert max(moduli) < 0.95
    assert some_complex  # the paired blocks do produce complex eigenvalues


def test_random_stable_system_order_zero():
    sys = random_stable_system(GeneratorSpec(0, 2, 3))
    assert sys.n == 0 and sys.D.shape == (2, 3)


# --------------------------------------------------------------- build_zero_case


def test_build_zero_case_shape_and_order():
    # two realization paths of a conjugated order-n system, subtracted:
    # 3 x 2, discrete, of combined order 2n + 5
    for n in (1, 2, 5):
        case = build_zero_case(n, seed=0)
        assert (case.p, case.m) == (3, 2)
        assert case.timing == DISCRETE
        assert case.n == 2 * n + 5
        assert case.n >= 2 * n


def test_build_zero_case_evaluates_to_zero(rng):
    case = build_zero_case(4, seed=7)
    for _ in range(5):
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
        assert np.linalg.norm(evalfr(case, z)) <= 1e-8


def test_build_zero_case_is_deterministic():
    a = build_zero_case(3, seed=5)
    b = build_zero_case(3, seed=5)
    for name in "AEBCD":
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_zero_case_passes_a_cheap_method():
    from nullrank.checks import method5_pencil

    case = build_zero_case(1, seed=0)
    assert method5_pencil(case, 1e-7)[0]


# ----------------------------------------------------------------- run_benchmark


def test_run_benchmark_validates_orders():
    with pytest.raises(ValueError):
        run_benchmark([])
    for seeds in (0, -3):
        with pytest.raises(ValueError, match="^seeds_per_order must be at least 1"):
            run_benchmark([1], seeds_per_order=seeds)
    with pytest.raises(TypeError, match="^seeds_per_order must be an integer"):
        run_benchmark([1], seeds_per_order=1.5)
    with pytest.raises(TypeError, match="^each of orders must be an integer"):
        run_benchmark([1.5])
    assert [(r.n, r.seed) for r in run_benchmark([1, 1], seeds_per_order=1)] == [(1, 0)]


def test_run_benchmark_row_layout_and_order():
    rows = run_benchmark([2, 1], seeds_per_order=2)
    assert [(r.n, r.seed) for r in rows] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    for row in rows:
        assert row.N == 2 * row.n + 5
        assert [res.method for res in row.results] == [1, 2, 3, 4, 5]
        assert min(res.elapsed for res in row.results) > 0.0
        assert all(res.diagnostics == "" for res in row.results)


def test_run_benchmark_rows_hold_the_records_of_check_nullrank():
    def record(res):  # everything but the wall-clock time
        return res.method, res.is_null, res.evidence, res.diagnostics

    for row in run_benchmark([1, 3], tol=1e-6, seeds_per_order=2):
        want = check_nullrank(build_zero_case(row.n, row.seed), tol=1e-6, seed=row.seed)
        assert [record(r) for r in row.results] == [record(r) for r in want]


def test_run_benchmark_decisions_are_deterministic():
    a = run_benchmark([1], seeds_per_order=3)
    b = run_benchmark([1], seeds_per_order=3)
    verdicts = [[res.is_null for res in r.results] for r in a]
    assert verdicts == [[res.is_null for res in r.results] for r in b]
    assert all(all(v) for v in verdicts)


def test_run_benchmark_raises_on_a_case_it_cannot_build(monkeypatch):
    with pytest.raises(ValueError, match="^each of orders must be at least 0"):
        run_benchmark([-1])

    def boom(n, seed):
        raise RuntimeError("spot check tripped")

    monkeypatch.setattr("nullrank.bench.build_zero_case", boom)
    with pytest.raises(RuntimeError, match="spot check tripped"):
        run_benchmark([3], seeds_per_order=2)


def _result(method, is_null, elapsed, diagnostics=""):
    return MethodResult(method, is_null, {}, elapsed, diagnostics)


def _row(n, N, seed, verdicts, times, notes=None):
    notes = notes or {}
    return BenchRow(n, N, seed, tuple(
        _result(k, v, t, notes.get(k, ""))
        for k, (v, t) in enumerate(zip(verdicts, times), start=1)
    ))


def test_bench_row_is_frozen():
    row = _row(1, 7, 0, (True,) * 5, (0.0,) * 5)
    with pytest.raises(AttributeError):
        row.n = 2


def test_method_totals_sums_each_method_over_rows():
    rows = [
        _row(1, 7, 0, (True, True, False, True, True), (0.5, 0.125, 1.0, 0.25, 0.0625)),
        _row(1, 7, 1, (False, True, False, True, True), (0.25, 0.125, 2.0, 0.25, 0.0625)),
    ]
    assert method_totals(rows) == (0.75, 0.25, 3.0, 0.5, 0.125)


# ------------------------------------------------------------------- rendering


def _synthetic_rows():
    return [
        _row(1, 7, 0, (True, True, False, False, True),
             (0.125, 0.25, 0.5, 0.0625, 0.03125)),
        _row(1, 7, 1, (True, False, False, False, True),
             (0.125, 0.25, 0.5, 0.0625, 0.03125),
             {2: "ValueError: what happened"}),
    ]


def test_render_text_golden():
    want = (
        " order  actual  cases     M1     M2     M3     M4     M5\n"
        "------  ------  -----  -----  -----  -----  -----  -----\n"
        "     1       7      2      1    1/2      0      0      1\n"
        "\n"
        "totals over 2 cases, seconds\n"
        "    M1  0.250000\n"
        "    M2  0.500000\n"
        "    M3  1.000000\n"
        "    M4  0.125000\n"
        "    M5  0.062500\n"
        "\n"
        "notes\n"
        "    n=1 seed=1  M2: ValueError: what happened\n"
    )
    assert render_report(_synthetic_rows(), format="text") == want


def test_render_text_empty_is_just_the_header():
    out = render_report([], format="text")
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["order", "actual", "cases", "M1", "M2", "M3", "M4", "M5"]


def test_render_csv_layout():
    out = render_report(_synthetic_rows(), format="csv")
    lines = out.splitlines()
    assert lines[0] == "n,N,seed,m1,m2,m3,m4,m5,t1,t2,t3,t4,t5"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == 13
    assert first[:3] == ["1", "7", "0"]
    assert first[3:8] == ["1", "1", "0", "0", "1"]
    assert first[8:] == ["0.125000", "0.250000", "0.500000", "0.062500", "0.031250"]
    assert lines[2].split(",")[3:8] == ["1", "0", "0", "0", "1"]


def test_render_csv_empty_is_header_only():
    assert render_report([], format="csv") == "n,N,seed,m1,m2,m3,m4,m5,t1,t2,t3,t4,t5\n"


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        render_report([], format="html")
