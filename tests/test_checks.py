"""The five zero-ness tests and their shared driver."""

import numpy as np
import pytest

from nullrank import check_nullrank, make_system, subtract
from nullrank.analysis import evalfr
from nullrank.checks import (
    FrequencySampleSet,
    MethodResult,
    _evaluate_dodging_poles,
    draw_frequencies,
    method1_minreal,
    method2_norm,
    method3_nrank,
    method4_freq,
    method5_pencil,
)

from conftest import random_system

_METHOD_FUNCS = {
    1: method1_minreal,
    2: method2_norm,
    3: method3_nrank,
    4: method4_freq,
    5: method5_pencil,
}


def _structurally_zero(rng, n=4):
    """A realization with C = 0: identically zero with visible dynamics."""
    sys = random_system(rng, n=n, m=2, p=2)
    return make_system(sys.A, sys.E, sys.B, np.zeros((2, n)), np.zeros((2, 2)))


# ------------------------------------------------------------ draw_frequencies


def test_draw_frequencies_is_deterministic_and_prefix_stable():
    a = draw_frequencies(17, count=4)
    b = draw_frequencies(17, count=4)
    assert a.values == b.values
    assert a.seed == 17
    shorter = draw_frequencies(17, count=2)
    assert a.values[:2] == shorter.values


def test_draw_frequencies_lie_in_the_unit_interval():
    real = draw_frequencies(3, count=8)
    assert all(0.0 < v < 1.0 for v in real.values)


def test_sample_sets_on_the_unit_circle_are_passed_explicitly(rng):
    circle = FrequencySampleSet(tuple(np.exp(2j * np.pi * np.array([0.1, 0.35]))), 3)
    nonzero = random_system(rng, n=4, m=2, p=2)
    for method in (method4_freq, method5_pencil):
        res = method(nonzero, 1e-7, circle)
        assert not res.is_null and res.evidence["samples"] == 2
        assert method(_structurally_zero(rng), 1e-7, circle).is_null


def test_different_seeds_give_different_points():
    assert draw_frequencies(1, count=3).values != draw_frequencies(2, count=3).values


# ------------------------------------------------------------- the five tests


def test_all_methods_accept_a_structurally_zero_system(rng):
    sys = _structurally_zero(rng)
    for k, func in _METHOD_FUNCS.items():
        res = func(sys, 1e-7)
        assert isinstance(res, MethodResult)
        assert res.method == k
        assert res.is_null, (k, res)
        assert res.diagnostics == ""
        assert res.elapsed >= 0.0


def test_all_methods_reject_a_generic_nonzero_system(rng):
    sys = random_system(rng, n=3, m=2, p=2)
    for k, func in _METHOD_FUNCS.items():
        res = func(sys, 1e-7)
        assert not res.is_null, (k, res)


def test_method_evidence_fields(rng):
    zero = _structurally_zero(rng)
    assert method1_minreal(zero, 1e-7).evidence == {"final_order": 0, "rank_d": 0}
    assert method2_norm(zero, 1e-7).evidence["peak_gain"] < 1e-7
    assert method3_nrank(zero, 1e-7).evidence["normal_rank"] == 0
    m4 = method4_freq(zero, 1e-7)
    assert m4.evidence == {"estimated_rank": 0, "samples": 1}
    m5 = method5_pencil(zero, 1e-7)
    assert m5.evidence == {"estimated_rank": 0, "samples": 1}


def test_methods_see_self_difference_as_zero(rng):
    base = random_system(rng, n=2, m=2, p=2)
    diff = subtract(base, base)
    for k, func in _METHOD_FUNCS.items():
        assert func(diff, 1e-7).is_null, k


def test_method1_reports_stage_failures_as_not_null():
    # singular pole pencil: the reduction raises internally
    sys = make_system([[0.0]], [[0.0]], [[1.0]], [[1.0]], [[0.0]])
    res = method1_minreal(sys, 1e-7)
    assert not res.is_null
    assert "singular" in res.diagnostics


def test_method4_steps_off_poles_deterministically(rng):
    # place a pole exactly on the sampled point and check the fallback
    sample = draw_frequencies(5)
    lam0 = sample.values[0]
    sys = make_system([[lam0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])
    res = method4_freq(sys, 1e-12, samples=sample)
    again = method4_freq(sys, 1e-12, samples=sample)
    assert res.diagnostics == ""
    assert not res.is_null  # 1/(lam - lam0) is certainly not zero
    assert res.evidence == again.evidence
    # the fallback is the first of five draws seeded by (sample seed, tag)
    redraw = np.random.default_rng([5, 0x9A17]).uniform(size=5)[0]
    [resp] = _evaluate_dodging_poles(sys, sample, 1e-12, 0x9A17)
    assert np.array_equal(resp, evalfr(sys, redraw, rtol=1e-12))


def test_method5_works_at_tol_zero(rng):
    zero = _structurally_zero(rng)
    res = method5_pencil(zero, 0.0)
    assert res.is_null
    nonzero = random_system(rng, n=3)
    assert not method5_pencil(nonzero, 0.0).is_null


def test_method5_rank_matches_method4_on_generic_systems(rng):
    for _ in range(10):
        sys = random_system(rng)
        s = draw_frequencies(int(rng.integers(1000)), count=2)
        r4 = method4_freq(sys, 1e-7, samples=s).evidence["estimated_rank"]
        r5 = method5_pencil(sys, 1e-7, samples=s).evidence["estimated_rank"]
        assert r4 == r5


# -------------------------------------------------------------- check_nullrank


def test_check_nullrank_runs_requested_subset(rng):
    sys = random_system(rng, n=2)
    results = check_nullrank(sys, methods=(5, 1, 3))
    assert [r.method for r in results] == [1, 3, 5]


def test_check_nullrank_validates_method_set(rng):
    sys = random_system(rng, n=1)
    with pytest.raises(ValueError):
        check_nullrank(sys, methods=())
    with pytest.raises(ValueError):
        check_nullrank(sys, methods=(1, 6))


@pytest.mark.parametrize("count", [0, -1])
def test_check_nullrank_rejects_empty_sample_sets(rng, count):
    sys = random_system(rng, n=1)
    with pytest.raises(ValueError, match="sample_count"):
        check_nullrank(sys, methods=(4, 5), sample_count=count)


def test_check_nullrank_is_deterministic(rng):
    sys = _structurally_zero(rng)
    a = check_nullrank(sys, seed=3)
    b = check_nullrank(sys, seed=3)
    assert [r.is_null for r in a] == [r.is_null for r in b]
    assert [r.evidence for r in a] == [r.evidence for r in b]


def test_check_nullrank_method_streams_are_independent(rng):
    # each method's verdict must not depend on which other methods ran
    sys = random_system(rng, n=3, m=2, p=2)
    full = check_nullrank(sys, seed=11)
    for k in (1, 2, 3, 4, 5):
        alone = check_nullrank(sys, methods=(k,), seed=11)[0]
        match = next(r for r in full if r.method == k)
        assert alone.is_null == match.is_null
        assert alone.evidence == match.evidence


def test_check_nullrank_survives_degenerate_input():
    sys = make_system([[0.0]], [[0.0]], [[1.0]], [[1.0]], [[0.0]])
    results = check_nullrank(sys, methods=(1, 2, 3))
    assert all(not r.is_null for r in results)
    assert results[0].diagnostics != ""
    assert "is_regular" in results[1].diagnostics


def test_check_nullrank_sample_count_flows_to_sampling_methods(rng):
    sys = random_system(rng, n=2)
    results = check_nullrank(sys, methods=(4, 5), sample_count=3)
    assert all(r.evidence["samples"] == 3 for r in results)


def test_frequency_sample_set_is_frozen():
    s = FrequencySampleSet((0.5,), 1)
    with pytest.raises(AttributeError):
        s.values = (0.7,)


def test_frequency_sample_set_rejects_no_points():
    with pytest.raises(ValueError, match="at least one point"):
        FrequencySampleSet((), 0)
    assert FrequencySampleSet((0.25,), 0).values == (0.25,)
