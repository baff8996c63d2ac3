"""Acceptance suite: one test per published claim of the package.

Each test here encodes one externally visible promise, at its stated
tolerance, against the benchmark constructions.  Run with ``-v`` to get
one pass/fail line per claim.  The two benchmark sweeps are module
fixtures so the expensive cases are built and judged exactly once.
"""

import math
import time

import numpy as np
import pytest

from nullrank import DISCRETE, PoleEvaluationError, check_nullrank
from nullrank.analysis import bilinear, evalfr, random_bilinear_map
from nullrank.bench import (
    GeneratorSpec,
    build_zero_case,
    method_totals,
    random_stable_system,
    run_benchmark,
)
from nullrank.checks import (
    draw_frequencies,
    method3_nrank,
    method4_freq,
    method5_pencil,
)
from nullrank.core import conjugate, make_system, subtract
from nullrank.dssfile import dumps_system, loads_system
from nullrank.reductions import (
    ctrb_staircase,
    minimal_realization,
    obsv_staircase,
    remove_nondynamic,
)

from conftest import random_system, system_with_nondynamic_modes

SMALL_ORDERS = (1, 2, 3, 5, 10, 20)
LARGE_ORDERS = (50, 100, 200)
TOL = 1e-7


@pytest.fixture(scope="module")
def small_order_sweep():
    """All five methods on ten certified-zero cases per small order."""
    start = time.perf_counter()
    rows = run_benchmark(SMALL_ORDERS, tol=TOL, seeds_per_order=10)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def large_order_sweep():
    """The same sweep at the orders where only sampling methods are gated."""
    return run_benchmark(LARGE_ORDERS, tol=TOL, seeds_per_order=10)


def _tally(rows, method):
    votes = [row.decisions[method - 1] for row in rows]
    return sum(bool(v) for v in votes), len(votes)


def test_criterion_1_all_five_methods_accept_small_zero_cases(small_order_sweep):
    rows, elapsed = small_order_sweep
    failures = [
        (row.n, row.seed, k)
        for row in rows
        for k in range(1, 6)
        if row.decisions[k - 1] is not True
    ]
    tallies = ", ".join(
        f"M{k}: {_tally(rows, k)[0]}/{_tally(rows, k)[1]}" for k in range(1, 6)
    )
    assert not failures, (
        f"methods must accept every zero case up to order 20 at tol={TOL} "
        f"({tallies}; failing (n, seed, method): {failures})"
    )
    assert elapsed < 120.0, f"small-order sweep took {elapsed:.1f}s, budget is 120s"


def test_criterion_2_sampling_methods_hold_up_at_large_orders(large_order_sweep):
    rows = large_order_sweep
    recorded = {}
    for n in LARGE_ORDERS:
        group = [row for row in rows if row.n == n]
        assert len(group) == 10, f"order {n} cases did not all complete"
        for k in (1, 3):  # recorded for the report, deliberately not gated
            recorded[(n, k)] = _tally(group, k)
        for k in (2, 4, 5):
            hits, total = _tally(group, k)
            assert hits / total >= 0.95, (
                f"method {k} accepted only {hits}/{total} zero cases at "
                f"order {n} (recorded, non-gated results: {recorded})"
            )
        for row in group:
            assert row.timings[3] < 5.0, f"M4 took {row.timings[3]:.2f}s on one case"
            assert row.timings[4] < 5.0, f"M5 took {row.timings[4]:.2f}s on one case"


def test_criterion_3_differences_of_independent_systems_are_rejected():
    failures = []
    for n in (5, 20):
        for seed in range(20):
            r = random_stable_system(GeneratorSpec(n, 2, 3, DISCRETE, seed=seed))
            s = random_stable_system(
                GeneratorSpec(n, 2, 3, DISCRETE, seed=10_000 + seed)
            )
            case = subtract(conjugate(r), conjugate(s))
            for res in check_nullrank(case, tol=TOL, seed=seed):
                if res.is_null:
                    failures.append((n, seed, res.method))
    assert not failures, (
        f"a nonzero difference was accepted as zero: (n, seed, method) = {failures}"
    )


def test_criterion_4_pencil_sampling_accepts_at_the_default_threshold():
    failures = []
    for n in SMALL_ORDERS:
        for seed in range(10):
            [res] = check_nullrank(build_zero_case(n, seed), (5,), tol=0.0, seed=seed)
            if not res.is_null:
                failures.append((n, seed))
    assert not failures, (
        f"pencil sampling with the default threshold rejected zero cases: {failures}"
    )


def test_criterion_5_sampling_is_cheaper_than_the_gain_scan(
    small_order_sweep, large_order_sweep
):
    rows = small_order_sweep[0] + large_order_sweep
    totals = method_totals(rows)
    t2, t4, t5 = totals[1], totals[3], totals[4]
    assert t4 <= t5, f"response sampling ({t4:.3f}s) should not exceed pencil sampling ({t5:.3f}s)"
    assert t5 < t2, f"pencil sampling ({t5:.3f}s) should undercut the gain scan ({t2:.3f}s)"


def test_criterion_6_substitution_commutes_with_evaluation():
    rng = np.random.default_rng(606)
    done = 0
    while done < 200:
        sys = random_system(rng)
        bmap = random_bilinear_map(rng)
        delta = complex(rng.standard_normal(), rng.standard_normal())
        try:
            want = evalfr(sys, bmap.apply(delta))
            got = evalfr(bilinear(sys, bmap), delta)
        except (PoleEvaluationError, ZeroDivisionError):
            continue
        err = np.linalg.norm(got - want)
        assert err <= 1e-9 * (1.0 + np.linalg.norm(want)), (
            f"substitution mismatch {err:.2e} at delta={delta}, map={bmap}"
        )
        done += 1


def test_criterion_7_structure_and_sampling_agree_on_normal_rank():
    rng = np.random.default_rng(707)
    for i in range(100):
        kind = i % 4
        if kind == 0:
            n = int(rng.integers(1, 11))
            base = random_system(rng, n=n)
            sys = make_system(
                base.A, base.E, base.B, np.zeros_like(base.C), np.zeros_like(base.D)
            )
        elif kind == 1:
            r = int(rng.integers(1, 6))
            w = int(rng.integers(1, 4))
            sys = system_with_nondynamic_modes(rng, r, w)
        else:
            sys = random_system(rng, n=int(rng.integers(1, 11)))
        samples = draw_frequencies(i, count=5)
        r3 = method3_nrank(sys, TOL).evidence["normal_rank"]
        r4 = method4_freq(sys, TOL, samples).evidence["estimated_rank"]
        r5 = method5_pencil(sys, TOL, samples).evidence["estimated_rank"]
        assert r3 == r4 == r5, (
            f"rank disagreement on case {i}: structure={r3}, "
            f"response samples={r4}, pencil samples={r5}"
        )


def test_criterion_8_reduction_stages_preserve_the_transfer():
    rng = np.random.default_rng(808)

    def check_pair(before, after, tag):
        for _ in range(3):
            lam = complex(rng.standard_normal(), 1.0 + rng.random())
            want = evalfr(before, lam)
            got = evalfr(after, lam)
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) <= 1e-8 * scale, tag

    def check_orthogonal(mat, tag):
        k = mat.shape[0]
        if k:
            res = np.linalg.norm(mat.T @ mat - np.eye(k))
            assert res <= 1e-12 * k, f"{tag}: orthogonality residual {res:.2e}"

    for i in range(100):
        if i % 3 == 0:
            r = int(rng.integers(1, 16))
            w = int(rng.integers(1, 5))
            sys = system_with_nondynamic_modes(rng, r, w)
        else:
            sys = random_system(rng, n=int(rng.integers(1, 21)))
        s1, _, q1, z1 = ctrb_staircase(sys, TOL)
        s2, _, q2, z2 = obsv_staircase(s1, TOL)
        s3, _, u, v = remove_nondynamic(s2, TOL)
        check_pair(sys, s1, f"case {i}: controllability stage")
        check_pair(s1, s2, f"case {i}: observability stage")
        check_pair(s2, s3, f"case {i}: non-dynamic stage")
        for mat, tag in ((q1, "Q1"), (z1, "Z1"), (q2, "Q2"), (z2, "Z2"),
                         (u, "U"), (v, "V")):
            check_orthogonal(mat, f"case {i}: {tag}")
        red, _ = minimal_realization(sys, TOL)
        again, report = minimal_realization(red, TOL)
        assert report.original_order == report.final_order == red.n, (
            f"case {i}: reduction is not idempotent ({report})"
        )


def test_criterion_9_file_round_trip_is_bit_exact():
    rng = np.random.default_rng(909)
    for i in range(50):
        timing = DISCRETE if i % 2 else "continuous"
        sys = random_system(rng, timing=timing)
        back = loads_system(dumps_system(sys))
        assert back.timing == sys.timing
        for name in "AEBCD":
            a, b = getattr(sys, name), getattr(back, name)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (
                f"case {i}: matrix {name} did not survive the round trip"
            )
