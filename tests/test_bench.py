"""Random generators, certified-zero cases, benchmark sweeps, reports."""

import numpy as np
import pytest

from nullrank import DISCRETE
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
    assert method5_pencil(case, 1e-7).is_null


# ----------------------------------------------------------------- run_benchmark


def test_run_benchmark_validates_orders():
    with pytest.raises(ValueError):
        run_benchmark([])


def test_run_benchmark_row_layout_and_order():
    rows = run_benchmark([2, 1], seeds_per_order=2)
    assert [(r.n, r.seed) for r in rows] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    for row in rows:
        assert row.N == 2 * row.n + 5
        assert len(row.decisions) == len(row.timings) == 5
        assert None not in row.decisions and min(row.timings) > 0.0
        assert row.diagnostics == ()


def test_run_benchmark_decisions_are_deterministic():
    a = run_benchmark([1], seeds_per_order=3)
    b = run_benchmark([1], seeds_per_order=3)
    assert [r.decisions for r in a] == [r.decisions for r in b]
    assert all(all(r.decisions) for r in a)


def test_run_benchmark_records_construction_failures(monkeypatch):
    def boom(n, seed):
        raise RuntimeError("spot check tripped")

    monkeypatch.setattr("nullrank.bench.build_zero_case", boom)
    rows = run_benchmark([3], seeds_per_order=2)
    assert len(rows) == 2
    for row in rows:
        assert row.N == 0
        assert row.decisions == (None,) * 5
        assert row.diagnostics and "construction" in row.diagnostics[0]


def test_bench_row_is_frozen():
    row = BenchRow(1, 7, 0, (None,) * 5, (0.0,) * 5)
    with pytest.raises(AttributeError):
        row.n = 2


def test_method_totals_sums_only_what_ran():
    rows = [
        BenchRow(1, 7, 0, (True, None, None, True, None),
                 (0.5, 0.0, 0.0, 0.25, 0.0)),
        BenchRow(1, 7, 1, (False, None, None, True, None),
                 (0.25, 0.0, 0.0, 0.25, 0.0)),
    ]
    totals = method_totals(rows)
    assert totals[0] == 0.75
    assert totals[1] is None and totals[2] is None and totals[4] is None
    assert totals[3] == 0.5


# ------------------------------------------------------------------- rendering


def _synthetic_rows():
    return [
        BenchRow(1, 7, 0, (True, True, None, False, True),
                 (0.125, 0.25, 0.0, 0.0625, 0.03125)),
        BenchRow(1, 7, 1, (True, False, None, False, True),
                 (0.125, 0.25, 0.0, 0.0625, 0.03125),
                 ("M2: what happened",)),
    ]


def test_render_text_golden():
    want = (
        " order  actual  cases     M1     M2     M3     M4     M5\n"
        "------  ------  -----  -----  -----  -----  -----  -----\n"
        "     1       7      2      1    1/2      -      0      1\n"
        "\n"
        "totals over 2 cases, seconds\n"
        "    M1  0.250000\n"
        "    M2  0.500000\n"
        "    M3  -\n"
        "    M4  0.125000\n"
        "    M5  0.062500\n"
        "\n"
        "notes\n"
        "    n=1 seed=1  M2: what happened\n"
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
    assert first[3:8] == ["1", "1", "", "0", "1"]
    assert first[8] == "0.125000" and first[10] == ""


def test_render_csv_empty_is_header_only():
    assert render_report([], format="csv") == "n,N,seed,m1,m2,m3,m4,m5,t1,t2,t3,t4,t5\n"


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        render_report([], format="html")
