"""Construction, validation, and algebra of descriptor realizations."""

import numpy as np
import pytest

from nullrank import (
    CONTINUOUS,
    DISCRETE,
    DescriptorSystem,
    ShapeError,
    make_system,
    subtract,
)
from nullrank.analysis import evalfr
from nullrank.core import LinearPencil, conjugate, is_regular, transpose

from conftest import random_system


def test_make_system_accepts_nested_lists():
    sys = make_system([[1.0]], [[1.0]], [[2.0]], [[3.0]], [[0.0]])
    assert sys.n == 1 and sys.m == 1 and sys.p == 1
    assert isinstance(sys.A, np.ndarray)


def test_scalars_and_vectors_are_promoted_to_matrices():
    # 0-d input becomes 1x1, 1-d input becomes a row.
    sys = make_system(1.0, 1.0, 1.0, 1.0, 0.0)
    assert sys.A.shape == (1, 1)
    row = make_system(np.eye(1), np.eye(1), np.ones((1, 2)), 1.0, [5.0, 6.0])
    assert row.D.shape == (1, 2)


def test_empty_order_zero_system():
    empty = np.zeros((0, 0))
    sys = make_system(empty, empty, np.zeros((0, 2)), np.zeros((3, 0)), np.zeros((3, 2)))
    assert sys.n == 0 and sys.m == 2 and sys.p == 3


def test_non_finite_entries_are_rejected():
    with pytest.raises(ShapeError, match="A"):
        make_system([[np.nan]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ShapeError, match="B"):
        make_system([[1.0]], [[1.0]], [[np.inf]], [[1.0]], [[0.0]])


def test_non_numeric_input_is_rejected():
    with pytest.raises(ShapeError):
        make_system([["a"]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])


@pytest.mark.parametrize(
    "shapes",
    [
        ((2, 3), (2, 2), (2, 1), (1, 2), (1, 1)),  # A not square
        ((2, 2), (3, 3), (2, 1), (1, 2), (1, 1)),  # E mismatched
        ((2, 2), (2, 2), (3, 1), (1, 2), (1, 1)),  # B rows
        ((2, 2), (2, 2), (2, 1), (1, 3), (1, 1)),  # C columns
        ((2, 2), (2, 2), (2, 1), (1, 2), (2, 2)),  # D block
    ],
)
def test_inconsistent_shapes_are_rejected(shapes):
    mats = [np.zeros(s) for s in shapes]
    with pytest.raises(ShapeError):
        make_system(*mats)


def test_bad_timing_is_rejected():
    with pytest.raises(ValueError, match="timing"):
        make_system(np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), "sampled")


def test_stored_matrices_are_defensive_and_read_only():
    src = np.eye(2)
    sys = make_system(src, np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
    src[0, 0] = 99.0
    assert sys.A[0, 0] == 1.0
    with pytest.raises(ValueError):
        sys.A[0, 0] = 5.0


def test_system_is_frozen():
    sys = make_system(np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1))
    with pytest.raises(AttributeError):
        sys.A = np.zeros((1, 1))


def test_repr_mentions_dimensions():
    sys = make_system(np.eye(2), np.eye(2), np.ones((2, 3)), np.ones((4, 2)),
                      np.zeros((4, 3)))
    assert "n=2" in repr(sys) and "m=3" in repr(sys) and "p=4" in repr(sys)


def test_linear_pencil_requires_matching_shapes():
    pencil = LinearPencil(np.eye(2), np.zeros((2, 2)))
    assert pencil.shape == (2, 2)
    with pytest.raises(ShapeError):
        LinearPencil(np.eye(2), np.zeros((3, 2)))


def test_is_regular_on_plain_and_degenerate_pencils():
    sys = make_system(np.diag([1.0, 2.0]), np.eye(2), np.ones((2, 1)),
                      np.ones((1, 2)), [[0.0]])
    assert is_regular(sys)
    # det(A - lam E) == 0 identically
    broken = make_system(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 1)),
                         np.ones((1, 2)), [[0.0]])
    assert not is_regular(broken)
    static = make_system(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 1)),
                         np.zeros((1, 0)), [[4.0]])
    assert is_regular(static)


def test_subtract_realizes_the_difference(rng):
    for _ in range(20):
        left = random_system(rng, m=2, p=3)
        right = random_system(rng, m=2, p=3)
        diff = subtract(left, right)
        assert diff.n == left.n + right.n
        lam = complex(rng.standard_normal(), rng.standard_normal())
        want = evalfr(left, lam) - evalfr(right, lam)
        got = evalfr(diff, lam)
        scale = max(1.0, np.linalg.norm(want))
        assert np.linalg.norm(got - want) <= 1e-9 * scale


def test_subtract_self_gives_identically_zero(rng):
    sys = random_system(rng)
    diff = subtract(sys, sys)
    for _ in range(5):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        assert np.linalg.norm(evalfr(diff, lam)) <= 1e-9


def test_subtract_validates_dimensions_and_timing():
    a = make_system(np.eye(1), np.eye(1), np.ones((1, 2)), np.ones((1, 1)),
                    np.zeros((1, 2)))
    b = make_system(np.eye(1), np.eye(1), np.ones((1, 1)), np.ones((1, 1)),
                    np.zeros((1, 1)))
    with pytest.raises(ShapeError):
        subtract(a, b)
    c = make_system(np.eye(1), np.eye(1), np.ones((1, 2)), np.ones((1, 1)),
                    np.zeros((1, 2)), timing=DISCRETE)
    with pytest.raises(ValueError, match="timing"):
        subtract(a, c)


def test_transpose_swaps_io_and_is_an_involution(rng):
    sys = random_system(rng, m=2, p=3)
    t = transpose(sys)
    assert (t.m, t.p) == (sys.p, sys.m)
    back = transpose(t)
    for name in "AEBCD":
        assert np.array_equal(getattr(back, name), getattr(sys, name))
    lam = 0.7 + 0.2j
    assert np.allclose(evalfr(t, lam), evalfr(sys, lam).T)


def test_conjugate_rejects_continuous_time(rng):
    sys = random_system(rng, timing=CONTINUOUS)
    with pytest.raises(ValueError):
        conjugate(sys)


def test_conjugate_value_and_order(rng):
    for _ in range(10):
        sys = random_system(rng, m=2, p=3, timing=DISCRETE)
        conj = conjugate(sys)
        assert conj.timing == DISCRETE
        assert conj.n == sys.n + sys.p
        assert (conj.p, conj.m) == (sys.m, sys.p)
        z = complex(1.3 + rng.uniform(0, 1), 0.4)
        want = evalfr(sys, 1.0 / z).T
        got = evalfr(conj, z)
        scale = max(1.0, np.linalg.norm(want))
        assert np.linalg.norm(got - want) <= 1e-9 * scale


def test_descriptor_system_direct_construction_validates_too():
    with pytest.raises(ShapeError):
        DescriptorSystem(np.eye(2), np.eye(2), np.ones((1, 1)), np.ones((1, 2)),
                         np.zeros((1, 1)))
