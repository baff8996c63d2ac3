"""Point evaluation, variable substitution, and boundary gain scans."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from nullrank import CONTINUOUS, DISCRETE, PoleEvaluationError, analysis, bench, make_system
from nullrank.analysis import _boundary_grid, evalfr, peak_gain, random_bilinear_map
from nullrank.checks import method2_norm
from nullrank.core import PROBE_POINT, BilinearMap, bilinear

from conftest import haar_orthogonal, random_system, system_with_nondynamic_modes


def test_bilinear_map_rejects_degenerate_coefficients():
    with pytest.raises(ValueError):
        BilinearMap(1.0, 2.0, 2.0, 4.0)  # a*d == b*c
    with pytest.raises(ValueError):
        BilinearMap(0.0, 0.0, 0.0, 0.0)


def test_bilinear_map_apply():
    g = BilinearMap(2.0, 1.0, 0.0, 1.0)
    assert g.apply(3.0) == 7.0
    h = BilinearMap(0.0, 1.0, 1.0, 0.0)  # delta -> 1/delta
    assert h.apply(4.0) == 0.25


def test_random_bilinear_map_is_seed_deterministic():
    g1 = random_bilinear_map(42)
    g2 = random_bilinear_map(42)
    assert (g1.a, g1.b, g1.c, g1.d) == (g2.a, g2.b, g2.c, g2.d)
    assert abs(g1.a * g1.d - g1.b * g1.c) > 0.1


def test_evalfr_matches_dense_inverse(rng):
    for _ in range(20):
        sys = random_system(rng)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        T = lam * sys.E - sys.A
        want = sys.D + sys.C @ np.linalg.solve(T, sys.B.astype(complex))
        got = evalfr(sys, lam)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_evalfr_integrator_value():
    # G(lam) = 1/lam
    sys = make_system([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert evalfr(sys, 2.0) == pytest.approx(0.5)
    assert evalfr(sys, 1j).item() == pytest.approx(-1j)


def test_evalfr_static_system_returns_feedthrough():
    empty = np.zeros((0, 0))
    sys = make_system(empty, empty, np.zeros((0, 2)), np.zeros((2, 0)),
                      [[1.0, 2.0], [3.0, 4.0]])
    out = evalfr(sys, 123.0)
    assert out.dtype == complex
    assert np.array_equal(out.real, sys.D)


def test_evalfr_raises_at_poles():
    sys = make_system(np.diag([1.0, 2.0]), np.eye(2), np.ones((2, 1)),
                      np.ones((1, 2)), [[0.0]])
    with pytest.raises(PoleEvaluationError):
        evalfr(sys, 1.0)
    evalfr(sys, 1.5)  # between the poles is fine


def test_evalfr_takes_a_nan_pivot_for_a_pole():
    # Rows 2 and 3 are equal, so lam*E - A is singular; elimination
    # overflows to pivots (1e308, inf, nan).  A NaN pivot passes no
    # comparison, and the pole rule keeps only pivots that pass one.
    A = -np.array([[1.0, -1.7, 1.7], [1.0, 1.7, -1.7], [1.0, 1.7, -1.7]]) * 1e308
    sys = make_system(A, np.zeros((3, 3)), np.ones((3, 1)), np.ones((1, 3)), [[0.0]])
    with pytest.raises(PoleEvaluationError):
        evalfr(sys, 0.0)


def test_bilinear_matches_composition(rng):
    for k in range(40):
        sys = random_system(rng)
        if k % 4 == 0:  # affine maps take the same augmented form
            a, b = rng.uniform(0.1, 1.0, size=2)
            bmap = BilinearMap(a, b, 0.0, 1.0)
        else:
            bmap = random_bilinear_map(rng)
        mapped = bilinear(sys, bmap)
        for _ in range(3):
            delta = complex(rng.standard_normal(), rng.standard_normal())
            lam = bmap.apply(delta)
            try:
                want = evalfr(sys, lam)
                got = evalfr(mapped, delta)
            except PoleEvaluationError:
                continue
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) <= 1e-9 * scale


def test_bilinear_order_bookkeeping(rng):
    sys = random_system(rng, n=4, m=2, p=3)  # dense E, generically nonsingular
    for bmap in (BilinearMap(2.0, -1.0, 0.0, 1.0), BilinearMap(0.0, 1.0, 1.0, 0.0)):
        mapped = bilinear(sys, bmap)
        assert mapped.n == sys.n + sys.m
        assert mapped.timing == sys.timing


def test_bilinear_affine_map_on_singular_e_uses_augmented_form():
    # Affine maps take the order-(n + m) form too, on a singular E as well.
    sys = make_system(np.eye(2), np.diag([1.0, 0.0]), np.ones((2, 1)),
                      np.ones((1, 2)), [[0.0]])
    mapped = bilinear(sys, BilinearMap(1.0, 1.0, 0.0, 1.0))
    assert mapped.n == 3
    got = evalfr(mapped, 1.5)
    want = evalfr(sys, 2.5)
    assert np.allclose(got, want, atol=1e-12)


def test_bilinear_static_system_passthrough():
    empty = np.zeros((0, 0))
    sys = make_system(empty, empty, np.zeros((0, 1)), np.zeros((1, 0)), [[7.0]])
    mapped = bilinear(sys, BilinearMap(0.0, 1.0, 1.0, 0.0))
    assert mapped.n == 0
    assert np.array_equal(mapped.D, sys.D)


def test_bilinear_variable_flip_inverts_an_integrator():
    # G(lam) = 1/lam composed with lam = 1/delta gives delta.
    sys = make_system([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])
    flipped = bilinear(sys, BilinearMap(0.0, 1.0, 1.0, 0.0))
    assert evalfr(flipped, 3.0).item() == pytest.approx(3.0)
    assert evalfr(flipped, -0.25).item() == pytest.approx(-0.25)


def test_peak_gain_zero_and_static_systems(rng):
    zero = make_system(np.diag([-1.0, -2.0]), np.eye(2), np.ones((2, 1)),
                       np.zeros((1, 2)), [[0.0]])
    assert peak_gain(zero) == 0.0
    empty = np.zeros((0, 0))
    static = make_system(empty, empty, np.zeros((0, 2)), np.zeros((2, 0)),
                         [[3.0, 0.0], [0.0, 4.0]])
    assert peak_gain(static) == pytest.approx(4.0)


def test_peak_gain_sees_a_known_resonance():
    # G(s) = 1/(s + 1): gain 1 at s = 0, decaying along the axis.
    sys = make_system([[-1.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert peak_gain(sys) == pytest.approx(1.0, rel=1e-6)


def test_peak_gain_discrete_grid(rng):
    sys = random_system(rng, timing=DISCRETE)
    value = peak_gain(sys)
    assert value >= 0.0
    assert peak_gain(sys) == value  # fixed default seed: deterministic


def test_peak_gain_raises_when_no_point_is_evaluable():
    sys = make_system(np.zeros((1, 1)), np.zeros((1, 1)), [[1.0]], [[1.0]],
                      [[0.0]])
    with pytest.raises(PoleEvaluationError):
        peak_gain(sys)


def test_peak_gain_raises_when_the_shift_point_is_a_pole():
    # The scan factors lam*E - A at core.PROBE_POINT; a pole exactly there
    # leaves an exactly singular LU, which must not warn.
    sys = make_system(np.diag([PROBE_POINT, -1.0]), np.eye(2), np.ones((2, 1)),
                      np.ones((1, 2)), [[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleEvaluationError, match="shift point"):
            peak_gain(sys)


def _reference_evalfr(sys, lam, rtol=0.0):
    """The scipy-wrapper evaluation that evalfr's LAPACK calls must match."""
    if sys.n == 0:
        return sys.D.astype(complex)
    lam = complex(lam)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(lam * sys.E - sys.A)
    diag = np.abs(np.diag(lu))
    cut = rtol if rtol > 0.0 else 16.0 * sys.n * np.finfo(float).eps
    if diag.max() == 0.0 or diag.min() <= cut * diag.max():
        raise PoleEvaluationError(f"evaluation at a pole (lam = {lam})")
    return sys.D + sys.C @ scipy.linalg.lu_solve((lu, piv), sys.B.astype(complex))


def _reference_peak_gain(sys, tol, seed):
    best = None
    for lam in _boundary_grid(sys, np.random.default_rng(seed)):
        try:
            resp = _reference_evalfr(sys, lam, tol)
        except PoleEvaluationError:
            continue
        gain = np.linalg.svd(resp, compute_uv=False)[0] if resp.size else 0.0
        best = gain if best is None else max(best, gain)
    return float(best)


def _with_pole_on_boundary(rng, timing):
    # a pole at s = 0 or z = 1, which is the first grid point of the scan
    sys = random_system(rng, n=5, m=2, p=3, timing=timing)
    A = sys.A.copy()
    A[:, 0] = sys.E[:, 0] * (1.0 if timing == DISCRETE else 0.0)
    return make_system(A, sys.E, sys.B, sys.C, sys.D, timing)


@pytest.mark.parametrize("case", [
    "continuous", "discrete", "continuous pole", "discrete pole",
    "continuous algebraic", "discrete algebraic",
])
def test_evalfr_and_peak_gain_bit_identical_to_scipy_wrappers(rng, case):
    timing = DISCRETE if case.startswith("discrete") else CONTINUOUS
    for k in range(5):
        if case.endswith("algebraic"):
            # singular E: the scan's P^-1 E has w eigenvalues at 0 (infinite poles)
            r, w = (int(v) for v in rng.integers(1, 20, size=2))
            base = system_with_nondynamic_modes(rng, r, w, m=2, p=3)
            sys = make_system(base.A, base.E, base.B, base.C, base.D, timing)
            assert np.linalg.matrix_rank(sys.E) == r
        elif case.endswith("pole"):
            sys = _with_pole_on_boundary(rng, timing)
            first = _boundary_grid(sys, np.random.default_rng(k))[0]
            with pytest.raises(PoleEvaluationError):
                _reference_evalfr(sys, first, 1e-7)
            with pytest.raises(PoleEvaluationError):
                evalfr(sys, first, rtol=1e-7)
        else:
            sys = random_system(rng, n=int(rng.integers(1, 40)), timing=timing)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        got = evalfr(sys, lam)
        assert got.dtype == complex
        assert np.array_equal(got, _reference_evalfr(sys, lam))
        # the QZ scan is not bit-identical; at a skipped pole the gain would be huge
        want = _reference_peak_gain(sys, 1e-7, k)
        assert peak_gain(sys, 1e-7, rng=k) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("n, m, p", [(3, 0, 2), (3, 2, 0), (0, 2, 2), (0, 0, 0)])
def test_evalfr_and_peak_gain_on_empty_dimensions(rng, n, m, p):
    sys = random_system(rng, n=n, m=m, p=p)
    got = evalfr(sys, 0.5j)
    assert got.shape == (p, m) and got.dtype == complex
    assert np.array_equal(got, _reference_evalfr(sys, 0.5j))
    if p and m:
        assert peak_gain(sys) == pytest.approx(_reference_peak_gain(sys, 0.0, 0), rel=1e-9)
    else:
        assert peak_gain(sys) == 0.0


def test_evalfr_rejects_non_finite_shifts(rng):
    sys = random_system(rng, n=3)
    big = make_system(sys.A, 1e300 * np.eye(3), sys.B, sys.C, sys.D)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        with pytest.raises(ValueError):
            evalfr(sys, np.inf)
        with pytest.raises(ValueError):
            evalfr(sys, complex(np.nan, 0.0))
        with pytest.raises(ValueError):
            evalfr(big, 1e10)  # lam*E overflows to inf
        # lam*E overflows at the top of the frequency grid, but the scan
        # never forms it: the gain is the one of E scaled by 1e300.
        huge = make_system(sys.A, 1e305 * np.eye(3), sys.B, sys.C, sys.D)
        assert peak_gain(huge) == peak_gain(big)


def test_peak_gain_refuses_a_response_that_overflows():
    # G(lam) = 1e310 / (lam + 0.5): every gain is NaN or inf, and none may
    # pass for zero.
    sys = make_system([[-0.5]], [[1.0]], [[1e5]], [[1e305]], [[0.0]])
    with pytest.raises(ValueError, match="the response is not finite at a grid point"):
        peak_gain(sys)


def _complex_pole_pairs(rng, pairs, timing, on_grid=False):
    """Only complex pole pairs, so the real QZ has 2x2 blocks only.

    With ``on_grid`` the first pair sits on the boundary point ``1j``
    (continuous) or ``exp(1j*theta)`` with ``theta`` a grid angle (discrete).
    """
    n = 2 * pairs
    A = np.zeros((n, n))
    for k in range(pairs):
        if timing == DISCRETE:
            radius, angle = rng.uniform(0.3, 0.95), rng.uniform(0.1, 3.0)
            re, im = radius * np.cos(angle), radius * np.sin(angle)
        else:
            re, im = -rng.uniform(0.01, 1.0), 10.0 ** rng.uniform(-2.0, 2.0)
        if on_grid and k == 0:
            theta = np.linspace(0.0, np.pi, analysis.GRID_SIZE)[40]
            re, im = (np.cos(theta), np.sin(theta)) if timing == DISCRETE else (0.0, 1.0)
        A[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[re, im], [-im, re]]
    scale = rng.uniform(0.5, 2.0, size=pairs)  # one per pair keeps it a pair
    if on_grid:
        scale[0] = 1.0
    Q, Z = haar_orthogonal(rng, n), haar_orthogonal(rng, n)
    E = np.diag(np.repeat(scale, 2))
    return make_system(Q @ A @ Z, Q @ E @ Z, rng.standard_normal((n, 2)),
                       rng.standard_normal((3, n)), rng.standard_normal((3, 2)), timing)


@pytest.mark.parametrize("timing", [CONTINUOUS, DISCRETE])
def test_peak_gain_on_complex_pole_pairs_matches_the_reference(rng, timing):
    for k in range(4):
        sys = _complex_pole_pairs(rng, 6, timing)
        S = scipy.linalg.qz(sys.A, sys.E, output="real")[0]
        assert np.count_nonzero(np.diag(S, -1)) == 6  # six 2x2 blocks
        want = _reference_peak_gain(sys, 1e-7, k)
        assert peak_gain(sys, 1e-7, rng=k) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("timing", [CONTINUOUS, DISCRETE])
@pytest.mark.parametrize("tol", [0.0, 1e-7])
def test_peak_gain_skips_a_complex_pole_pair_on_the_grid(rng, timing, tol):
    sys = _complex_pole_pairs(rng, 3, timing, on_grid=True)
    want = _reference_peak_gain(sys, tol, 0)
    assert want < 1e6  # the reference skips the pole point
    assert peak_gain(sys, tol, rng=0) == pytest.approx(want, rel=1e-9)


def test_peak_gain_spanning_several_chunks_matches_the_reference(rng):
    # discrete poles inside (-0.9, 0.9) and one at -0.999, so the peak sits
    # at z = -1, the last angle of the grid, in the second chunk
    n, m = 120, 3
    poles = np.append(rng.uniform(-0.9, 0.9, size=n - 1), -0.999)
    Q = haar_orthogonal(rng, n)
    sys = make_system(Q @ np.diag(poles) @ Q.T, np.eye(n), Q @ rng.standard_normal((n, m)),
                      rng.standard_normal((2, n)) @ Q.T, np.zeros((2, m)), DISCRETE)
    per_chunk = analysis._CHUNK_BYTES // (16 * n * m)
    assert per_chunk < analysis.GRID_SIZE - 1  # the 210 points take two chunks
    assert peak_gain(sys, 1e-7, rng=5) == pytest.approx(_reference_peak_gain(sys, 1e-7, 5), rel=1e-9)
    last = np.linalg.svd(evalfr(sys, -1.0), compute_uv=False)[0]
    assert peak_gain(sys, 1e-7, rng=5) == pytest.approx(last, rel=1e-9)


def test_method2_refined_gain_on_an_order_100_zero_case():
    # Without the refinement step the gain here is about 1e-8, a decade
    # below tol; with it, about 1e-10.
    is_null, evidence = method2_norm(bench.build_zero_case(100, 2), 1e-7, rng=18)
    assert is_null
    assert evidence["peak_gain"] < 1e-9
