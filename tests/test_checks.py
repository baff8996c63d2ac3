"""The five zero-ness tests and their shared driver."""

import re
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nullrank import (
    CONTINUOUS,
    DISCRETE,
    PoleEvaluationError,
    ReductionError,
    check_nullrank,
    make_system,
    subtract,
)
from nullrank import checks
from nullrank.analysis import evalfr
from nullrank.bench import GeneratorSpec, random_stable_system
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
from nullrank.core import conjugate, transpose

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
        is_null, evidence = method(nonzero, 1e-7, circle)
        assert not is_null and evidence["samples"] == 2
        assert method(_structurally_zero(rng), 1e-7, circle)[0]


def test_different_seeds_give_different_points():
    assert draw_frequencies(1, count=3).values != draw_frequencies(2, count=3).values


# ------------------------------------------------------------- the five tests


def test_all_methods_accept_a_structurally_zero_system(rng):
    sys = _structurally_zero(rng)
    for k, func in _METHOD_FUNCS.items():
        assert func(sys, 1e-7)[0], k
    for k, res in zip(_METHOD_FUNCS, check_nullrank(sys, tol=1e-7)):
        assert isinstance(res, MethodResult)
        assert res.method == k
        assert res.is_null, (k, res)
        assert res.diagnostics == ""
        assert res.elapsed >= 0.0


def test_all_methods_reject_a_generic_nonzero_system(rng):
    sys = random_system(rng, n=3, m=2, p=2)
    for k, func in _METHOD_FUNCS.items():
        is_null, evidence = func(sys, 1e-7)
        assert not is_null, (k, evidence)


def test_method_evidence_fields(rng):
    zero = _structurally_zero(rng)
    assert method1_minreal(zero, 1e-7)[1] == {"final_order": 0, "rank_d": 0}
    assert method2_norm(zero, 1e-7)[1]["peak_gain"] < 1e-7
    assert method3_nrank(zero, 1e-7)[1] == {"normal_rank": 0}
    assert method4_freq(zero, 1e-7)[1] == {"estimated_rank": 0, "samples": 1}
    assert method5_pencil(zero, 1e-7)[1] == {"estimated_rank": 0, "samples": 1}


def test_methods_see_self_difference_as_zero(rng):
    base = random_system(rng, n=2, m=2, p=2)
    diff = subtract(base, base)
    for k, func in _METHOD_FUNCS.items():
        assert func(diff, 1e-7)[0], k


@cache
def _random_draws():
    rng = np.random.default_rng(5)
    return [random_system(rng, timing=(CONTINUOUS, DISCRETE)[k % 2]) for k in range(400)]


# All 880 systems these two strategies can give were checked once: M2, M4
# and M5 find every self-difference null, the largest M2 gain 1.4e-11.
_SYSTEMS = st.one_of(
    st.builds(
        lambda n, seed: random_stable_system(GeneratorSpec(n, 2, 3, seed=seed)),
        st.integers(1, 12),
        st.integers(0, 39),
    ),
    st.integers(0, 399).map(lambda k: _random_draws()[k]),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_SYSTEMS)
def test_self_difference_is_null_under_gain_and_sampling(sys):
    for res in check_nullrank(subtract(sys, sys), (2, 4, 5), tol=1e-7, sample_count=3):
        assert res.is_null, res


def test_method2_default_stream_is_fixed():
    sys = random_stable_system(GeneratorSpec(4, 2, 3, seed=1))
    assert method2_norm(sys, 1e-7) == method2_norm(sys, 1e-7)


def test_method1_reports_stage_failures_as_not_null():
    # singular pole pencil: the reduction raises
    sys = make_system([[0.0]], [[0.0]], [[1.0]], [[1.0]], [[0.0]])
    res = check_nullrank(sys, methods=(1,), tol=1e-7)[0]
    assert not res.is_null
    assert res.diagnostics.startswith("ReductionError: ") and "singular" in res.diagnostics


def test_method4_steps_off_poles_deterministically(rng):
    # place a pole exactly on the sampled point and check the fallback
    sample = draw_frequencies(5)
    lam0 = sample.values[0]
    sys = make_system([[lam0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])
    is_null, evidence = method4_freq(sys, 1e-12, samples=sample)
    assert not is_null  # 1/(lam - lam0) is certainly not zero
    assert evidence == method4_freq(sys, 1e-12, samples=sample)[1]
    # the fallback is the first of five draws seeded by (sample seed, tag,
    # index of the point)
    redraw = np.random.default_rng([5, 0x9A17, 0]).uniform(size=5)[0]
    [resp] = _evaluate_dodging_poles(sys, sample, 1e-12)
    assert np.array_equal(resp, evalfr(sys, redraw, rtol=1e-12))


def test_method4_replaces_each_pole_hit_by_its_own_point():
    sample = draw_frequencies(3, 2)
    n = len(sample.values)
    sys = make_system(np.diag(sample.values), np.eye(n), np.eye(n), np.eye(n), np.zeros((n, n)))
    first, second = _evaluate_dodging_poles(sys, sample, 1e-12)
    assert not np.allclose(first, second)
    for index, resp in enumerate((first, second)):
        redraw = np.random.default_rng([3, 0x9A17, index]).uniform(size=5)[0]
        assert np.array_equal(resp, evalfr(sys, redraw, rtol=1e-12))


def test_method5_works_at_tol_zero(rng):
    zero = _structurally_zero(rng)
    assert method5_pencil(zero, 0.0)[0]
    nonzero = random_system(rng, n=3)
    assert not method5_pencil(nonzero, 0.0)[0]


def test_method5_rank_matches_method4_on_generic_systems(rng):
    for _ in range(10):
        sys = random_system(rng)
        s = draw_frequencies(int(rng.integers(1000)), count=2)
        r4 = method4_freq(sys, 1e-7, samples=s)[1]["estimated_rank"]
        r5 = method5_pencil(sys, 1e-7, samples=s)[1]["estimated_rank"]
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


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), -float("inf")])
def test_check_nullrank_rejects_a_tol_that_is_not_a_finite_non_negative_number(tol):
    # unchecked, nan and -1 would run the relative rule of tol = 0 and inf give ranks of -n
    sys = random_stable_system(GeneratorSpec(4, 2, 3, seed=1))
    with pytest.raises(ValueError, match="tol"):
        check_nullrank(sys, tol=tol)


def test_check_nullrank_accepts_tol_zero():
    sys = random_stable_system(GeneratorSpec(4, 2, 3, seed=1))
    results = check_nullrank(sys, methods=(3, 4, 5), tol=0.0)
    assert not any(r.is_null for r in results)
    assert results[0].evidence["normal_rank"] == results[2].evidence["estimated_rank"] > 0


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
    assert results[0].diagnostics.startswith("ReductionError: ")
    assert results[1].diagnostics == "ReductionError: is_regular probe failed on the remapped pencil"


# G(lam) = 1e310 / (lam + 0.5): the response overflows at every point.
_OVERFLOWING = ([[-0.5]], [[1.0]], [[1e5]], [[1e305]], [[0.0]])


def test_check_nullrank_reports_a_method_error_as_a_diagnostic():
    # M2's scan raises ValueError when the response overflows at a grid
    # point; only check_nullrank's catch-all turns that into a verdict.
    res = check_nullrank(make_system(*_OVERFLOWING), methods=(2,), tol=1e-7)[0]
    assert not res.is_null and res.evidence == {}
    assert res.diagnostics == "ValueError: the response is not finite at a grid point"


@pytest.mark.parametrize("timing", [CONTINUOUS, DISCRETE])
def test_an_overflowing_response_is_never_accepted(timing):
    # M2's gains and M4's response singular values come out NaN; neither
    # may read as zero.  evalfr's C @ X warns about the overflow.
    with pytest.warns(RuntimeWarning):
        results = check_nullrank(make_system(*_OVERFLOWING, timing), tol=1e-7)
    assert not any(r.is_null for r in results), results


def _singular_pole_pencil():
    # A and E share a zero column, so det(lam*E - A) vanishes for every lam.
    return make_system([[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]],
                       [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])


def test_singular_pole_pencil_is_flagged_by_methods_1_2_and_4():
    # What M3 and M5 report here is an open problem and not pinned.
    sys = _singular_pole_pencil()
    results = check_nullrank(sys, methods=(1, 2, 4), tol=1e-7)
    assert not any(r.is_null for r in results)
    assert [r.diagnostics for r in results] == [
        "ReductionError: pole pencil is numerically singular",
        "ReductionError: is_regular probe failed on the remapped pencil",
        "PoleEvaluationError: could not find non-pole frequency",
    ]


def test_methods_called_directly_raise_the_typed_error():
    sys = _singular_pole_pencil()
    with pytest.raises(ReductionError, match="numerically singular"):
        method1_minreal(sys, 1e-7)
    with pytest.raises(ReductionError, match="is_regular probe failed"):
        method2_norm(sys, 1e-7)
    with pytest.raises(PoleEvaluationError, match="non-pole frequency"):
        method4_freq(sys, 1e-7)


# For each method, a name it calls in ``checks`` and an error to raise from it.
_FORCED = {
    1: ("minimal_realization", ReductionError("forced stage failure")),
    2: ("peak_gain", PoleEvaluationError("forced pole hit")),
    3: ("kronecker_like", np.linalg.LinAlgError("forced SVD failure")),
    4: ("evalfr", ValueError("forced bad shift")),
    5: ("system_pencil", RuntimeError("forced pencil failure")),
}


@pytest.mark.parametrize("k", sorted(_FORCED))
def test_check_nullrank_turns_a_raised_error_into_a_record(monkeypatch, k):
    name, error = _FORCED[k]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(checks, name, fail)
    sys = random_stable_system(GeneratorSpec(4, 2, 3, seed=1))
    [res] = check_nullrank(sys, methods=(k,), tol=1e-7)
    assert res.elapsed >= 0.0
    assert res == MethodResult(k, False, {}, res.elapsed, f"{type(error).__name__}: {error}")


def _scaled_self_difference(base, scale):
    # Scaling A and E by s maps G - D to (G - D)/s, so this stays zero.
    diff = subtract(base, base)
    return make_system(diff.A * scale, diff.E * scale, diff.B, diff.C, diff.D, diff.timing)


@pytest.mark.parametrize("scale", [1e7, 1e8, 1e12])
def test_method2_accepts_a_self_difference_with_a_and_e_scaled(scale):
    # The scan's pole rule reads pivots of I - mu*K with K = P^-1 E, where
    # the scale cancels.
    for base in (random_system(np.random.default_rng(0), n=3),
                 random_stable_system(GeneratorSpec(4, 2, 3, seed=1))):
        [res] = check_nullrank(_scaled_self_difference(base, scale), methods=(2,), tol=1e-7)
        assert res.is_null, (base.timing, res)


@pytest.mark.parametrize("scale", [1e14, 1e303], ids=["1e14", "1e303"])
def test_method2_names_the_causes_of_a_singular_shift_point(scale):
    # P = A - sigma*E holds the scaled block beside the remapping's unit
    # block, so its pivot ratio is about 1/scale (README, Known limits).
    base = random_system(np.random.default_rng(0), n=3)
    [res] = check_nullrank(_scaled_self_difference(base, scale), methods=(2,), tol=1e-7)
    assert not res.is_null
    assert res.diagnostics.startswith("PoleEvaluationError: the scan's shift point"), res
    assert "scaled far from the remapping's unit block" in res.diagnostics


def test_a_pencil_rank_below_the_order_is_an_error():
    # Scaled down by 1e-7, the pole pencil's singular values fall below the
    # absolute tol, and the system pencil's rank below the order.
    base = random_stable_system(GeneratorSpec(4, 2, 3, seed=1))
    for res in check_nullrank(_scaled_self_difference(base, 1e-7), methods=(3, 5), tol=1e-7):
        assert not res.is_null and res.evidence == {}, res
        assert re.fullmatch(r"ReductionError: system pencil rank \d is below the order 8",
                            res.diagnostics), res


# Up to 8 states and 3 inputs and outputs, empty dimensions included.
_SHAPED = st.builds(
    lambda n, m, p, seed, timing: random_system(np.random.default_rng(seed), n, m, p, timing),
    st.integers(0, 8),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2**16),
    st.sampled_from((CONTINUOUS, DISCRETE)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_SHAPED)
def test_structural_and_pencil_ranks_survive_transpose_and_conjugate(sys):
    variants = [sys, transpose(sys)] + ([conjugate(sys)] if sys.timing == DISCRETE else [])
    ranks = []
    for variant in variants:
        m3, m5 = check_nullrank(variant, methods=(3, 5), tol=1e-7)
        ranks.append((m3.evidence["normal_rank"], m5.evidence["estimated_rank"]))
    assert ranks == ranks[:1] * len(ranks), ranks


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([(0, 2, 3), (0, 0, 0), (3, 0, 2), (3, 2, 0), (0, 2, 0), (2, 0, 0)]),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_empty_dimensions_give_one_verdict_and_no_diagnostics(shape, seed, zero_d):
    sys = random_system(np.random.default_rng(seed), *shape)
    if zero_d:
        sys = make_system(sys.A, sys.E, sys.B, sys.C, np.zeros_like(sys.D))
    results = check_nullrank(sys, tol=1e-7)
    assert all(r.diagnostics == "" for r in results), results
    # With no dynamics the matrix is D; with no inputs or outputs it is empty.
    null = zero_d or 0 in shape[1:]
    assert [r.is_null for r in results] == [null] * 5, results


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
