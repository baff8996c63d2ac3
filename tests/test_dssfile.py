"""Round-trip and error behavior of the plain-text realization format."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nullrank import DISCRETE, make_system
from nullrank.dssfile import dumps_system, loads_system, read_system, write_system

from conftest import random_system


def _assert_identical(a, b):
    assert a.timing == b.timing
    for name in "AEBCD":
        left, right = getattr(a, name), getattr(b, name)
        assert left.shape == right.shape
        # bit-exact, including signed zeros
        assert np.array_equal(
            left.view(np.uint64), right.view(np.uint64)
        ), f"matrix {name} not reproduced bit-exactly"


def test_round_trip_random_systems(rng):
    for _ in range(25):
        sys = random_system(rng, timing=DISCRETE if rng.random() < 0.5 else "continuous")
        _assert_identical(sys, loads_system(dumps_system(sys)))


def test_round_trip_awkward_values():
    awk = np.array([[0.0, -0.0], [1e-308, -1.7976931348623157e308]])
    sys = make_system(awk, np.eye(2), np.ones((2, 1)),
                      [[0.1 + 0.2, 1 / 3]], [[5e-324]])
    _assert_identical(sys, loads_system(dumps_system(sys)))


_AWKWARD = [0.0, -0.0, 5e-324, -1e-310, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 2),
    st.sampled_from(("continuous", DISCRETE)),
    st.lists(
        st.one_of(st.sampled_from(_AWKWARD), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1,
        max_size=40,
    ),
)
@example(2, 1, 1, DISCRETE, _AWKWARD)
def test_round_trip_is_bit_exact_on_extreme_entries(n, m, p, timing, pool):
    shapes = [(n, n), (n, n), (n, m), (p, n), (p, m)]
    values = np.resize(np.array(pool), sum(r * c for r, c in shapes))
    ends = np.cumsum([r * c for r, c in shapes])
    mats = [v.reshape(shape) for v, shape in zip(np.split(values, ends[:-1]), shapes)]
    sys = make_system(*mats, timing)
    _assert_identical(sys, loads_system(dumps_system(sys)))


def test_round_trip_degenerate_dimensions():
    empty = np.zeros((0, 0))
    sys = make_system(empty, empty, np.zeros((0, 2)), np.zeros((3, 0)),
                      np.arange(6.0).reshape(3, 2))
    again = loads_system(dumps_system(sys))
    _assert_identical(sys, again)
    assert again.n == 0 and again.m == 2 and again.p == 3


def test_file_round_trip(tmp_path, rng):
    sys = random_system(rng)
    path = tmp_path / "sys.dss"
    write_system(sys, path)
    _assert_identical(sys, read_system(path))
    assert path.read_text(encoding="utf-8").startswith("DSS v1\n")


def test_format_is_line_oriented(rng):
    sys = random_system(rng, n=2, m=1, p=1)
    text = dumps_system(sys)
    lines = text.splitlines()
    assert lines[0] == "DSS v1"
    assert lines[1].startswith("timing ")
    assert lines[2] == "dims 2 1 1"
    assert "A" in lines and "E" in lines and "D" in lines
    assert text.endswith("\n")


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: "XSS v1" + t[6:],                      # wrong header
        lambda t: t.replace("timing", "clock", 1),       # bad timing key
        lambda t: t.replace("continuous", "sampled", 1),  # unknown timing
        lambda t: t.replace("dims", "size", 1),          # bad dims key
        lambda t: t.replace("dims 2", "dims -2", 1),     # negative dim
        lambda t: t.replace("dims 2", "dims x", 1),      # non-integer dim
        lambda t: t.replace("\nE\n", "\nF\n", 1),        # wrong matrix name
        lambda t: t + "stray\n",                         # trailing garbage
        lambda t: t[: t.rfind("D")],                     # truncated
    ],
)
def test_malformed_text_raises_value_error(mangle):
    sys = make_system(np.eye(2), np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                      [[0.0]])
    bad = mangle(dumps_system(sys))
    with pytest.raises(ValueError):
        loads_system(bad)


def test_wrong_entry_count_raises():
    sys = make_system(np.eye(2), np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                      [[0.0]])
    text = dumps_system(sys)
    bad = text.replace("1.0 0.0", "1.0 0.0 0.0", 1)
    with pytest.raises(ValueError, match="entries"):
        loads_system(bad)


def test_non_numeric_entry_raises():
    sys = make_system(np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1))
    bad = dumps_system(sys).replace("1.0", "one", 1)
    with pytest.raises(ValueError):
        loads_system(bad)
