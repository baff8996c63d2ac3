"""Rank decisions and orthogonal compressions."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from nullrank.kernels import (
    EPS,
    _svd_rank,
    col_compress,
    pair_kernel,
    rank_svd,
    rank_threshold,
    row_basis,
    row_compress,
)


def test_threshold_absolute_when_tol_positive():
    sigma = np.array([5.0, 1e-3, 1e-9])
    assert rank_threshold(sigma, (3, 3), 1e-6) == 1e-6


def test_threshold_default_scales_with_largest_singular_value():
    sigma = np.array([2.0, 1e-20])
    thresh = rank_threshold(sigma, (4, 7), 0.0)
    assert thresh == 7 * EPS * 2.0


def test_threshold_of_zero_matrix_is_zero():
    sigma = np.array([0.0, 0.0])
    assert rank_threshold(sigma, (2, 2), 0.0) == 0.0


def test_rank_svd_counts_strictly_above_threshold():
    M = np.diag([1.0, 1e-6, 1e-16])
    assert rank_svd(M, 1e-6) == 1  # the value equal to tol does not count
    assert rank_svd(M, 1e-17) == 3
    assert rank_svd(M, 0.0) == 2  # default threshold eats 1e-16 of scale 1
    assert rank_svd(np.zeros((3, 2)), 0.0) == 0


def test_an_infinite_entry_never_lowers_the_rank():
    # LAPACK returns NaN singular values here; the count rule reads NaN as
    # not zero, with and without singular vectors.
    M = np.array([[np.inf, 1.0], [1.0, 1.0], [0.0, 2.0]])
    for tol in (1e-7, 0.0):
        assert rank_svd(M, tol) == 2
        assert _svd_rank(M, tol, False)[3] == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nan_or_infinite_entry_reads_as_full_rank(bad):
    # gesdd fails on a NaN entry and the gesvd fallback takes it without a
    # finiteness check, so a NaN matrix takes the inf matrix's path.
    for M, want in (([[bad]], 1), ([[bad, 1.0], [1.0, 2.0]], 2), ([[bad, 1.0], [1.0, 1.0], [0.0, 2.0]], 2)):
        M = np.array(M)
        for tol in (1e-7, 0.0):
            assert rank_svd(M, tol) == want
            U, rank = row_basis(M, tol)
            assert rank == want and U.shape == (len(M), want)


def test_rank_svd_asks_for_no_singular_vectors(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def recording_svd(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert rank_svd(np.diag([3.0, 2.0, 0.0]), 1e-7) == 2
    assert len(calls) == 1 and calls[0].get("compute_uv", True) is False


def test_rank_svd_falls_back_to_gesvd(monkeypatch):
    rng = np.random.default_rng(45)
    M = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 5))
    expected = rank_svd(M, 1e-9)
    drivers = []
    scipy_svd = scipy.linalg.svd

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def recording_scipy_svd(*args, **kwargs):
        drivers.append((kwargs.get("lapack_driver"), kwargs.get("compute_uv")))
        return scipy_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    monkeypatch.setattr(scipy.linalg, "svd", recording_scipy_svd)
    assert expected == 3
    assert rank_svd(M, 1e-9) == expected
    assert drivers == [("gesvd", False)]


@st.composite
def _planted(draw):
    """``(M, tol, rank)``: singular values planted a decade or more from the cutoff.

    A ``k x k`` block with the planted values, rotated, sits at random rows
    and columns of a ``q x r`` zero matrix.  With ``tol > 0`` the block
    also holds values at or below ``tol / 10``; with ``tol = 0`` the zero
    rows and columns carry the only dropped values, since the default
    cutoff ``max(q, r) * eps * s1`` sits at the rounding level.
    """
    q, r = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    k = draw(st.integers(0, min(q, r)))
    tol = 10.0 ** draw(st.integers(-12, -2)) if draw(st.booleans()) else 0.0
    # decades from the cutoff (or from 1 when tol = 0); -inf plants a zero
    if tol > 0:
        decade = st.one_of(st.floats(1, 6), st.floats(-4, -1), st.just(-np.inf))
    else:
        decade = st.floats(-6, 0)
    exponents = np.array(draw(st.lists(decade, min_size=k, max_size=k)), dtype=float)
    sigma = (tol or 1.0) * 10.0**exponents
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = np.linalg.qr(rng.standard_normal((k, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    M = np.zeros((q, r))
    M[np.ix_(rng.permutation(q)[:k], rng.permutation(r)[:k])] = (U * sigma) @ V.T
    return M, tol, int(np.count_nonzero(exponents > 0)) if tol > 0 else k


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_planted())
def test_values_only_rank_matches_the_rank_with_vectors(planted):
    M, tol, rank = planted
    assert rank_svd(M, tol) == _svd_rank(M, tol, full_matrices=False)[3] == rank


def test_row_compress_layout_and_orthogonality():
    rng = np.random.default_rng(41)
    for _ in range(20):
        q, r = rng.integers(1, 8, size=2)
        k = int(rng.integers(0, min(q, r) + 1))
        M = rng.standard_normal((q, k)) @ rng.standard_normal((k, r))
        U, comp, rank = row_compress(M, 0.0)
        assert rank == k
        assert np.allclose(U.T @ U, np.eye(q), atol=1e-13)
        assert comp.shape == (rank, r)
        # the discarded rows carry only rounding-level mass
        resid = U.T @ M
        assert np.linalg.norm(resid[rank:, :]) <= 1e-12 * max(
            1.0, np.linalg.norm(M)
        )
        # the thin basis makes the same decision and spans the kept rows
        basis, thin_rank = row_basis(M, 0.0)
        assert thin_rank == rank and basis.shape == (q, rank)
        assert np.allclose(basis.T @ U[:, :rank] @ U[:, :rank].T @ basis, np.eye(rank))


def test_row_basis_judges_a_projection_by_the_block_it_stands_for():
    # P @ X with P projecting onto 2 of 5 coordinates stands for the 2 x 3
    # block X[3:]: the threshold sees that shape and the rank is capped by it
    X = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])[:, :3] + np.vstack([np.zeros((3, 3)), np.ones((2, 3))])
    P = np.diag([0.0, 0.0, 0.0, 1.0, 1.0])
    basis, rank = row_basis(P @ X, 0.0, (2, 3))
    assert rank == 1 and np.allclose(np.abs(basis[3:, 0]), np.sqrt(0.5))
    noisy = P @ X + 1e-15 * np.eye(5, 3)
    assert row_basis(noisy, 1e-17, (2, 3))[1] == 2
    assert row_basis(noisy, 1e-17)[1] == 3
    basis, rank = row_basis(np.zeros((4, 0)), 1.0)
    assert basis.shape == (4, 0) and rank == 0


def test_col_compress_puts_kernel_columns_first():
    rng = np.random.default_rng(42)
    for _ in range(20):
        q, r = rng.integers(1, 8, size=2)
        k = int(rng.integers(0, min(q, r) + 1))
        M = rng.standard_normal((q, k)) @ rng.standard_normal((k, r))
        Z, rank = col_compress(M, 0.0)
        assert rank == k
        assert np.allclose(Z.T @ Z, np.eye(r), atol=1e-13)
        out = M @ Z
        assert np.linalg.norm(out[:, : r - rank]) <= 1e-12 * max(
            1.0, np.linalg.norm(M)
        )
        # the trailing rank columns carry every nonzero singular value
        sigma = np.linalg.svd(M, compute_uv=False)[:rank]
        assert np.allclose(np.linalg.svd(out[:, r - rank :], compute_uv=False), sigma)


def test_pair_kernel_matches_the_ratios_of_a_direct_formula():
    # With X = Qx Tx, the ratios |R v| / |X v| are the singular values of
    # R Tx^-1; plant them, including two tiny ones that differ by 100x.
    rng = np.random.default_rng(44)
    ratios = np.array([0.0, 1e-12, 1e-10, 3e-3, 0.5, 2.0])
    for _ in range(10):
        k = len(ratios)
        q, n = int(rng.integers(k, 10)), int(rng.integers(k, 10))
        X = rng.standard_normal((n, k))
        Tx = np.linalg.qr(X)[1]
        Pr = np.linalg.qr(rng.standard_normal((q, k)))[0]
        W = np.linalg.qr(rng.standard_normal((k, k)))[0]
        R = Pr @ (rng.permutation(ratios)[:, None] * W.T) @ Tx
        K, small = pair_kernel(R, X, 1e-11)
        assert K.shape == (n, k) and small == 2
        V = np.linalg.lstsq(X, K, rcond=None)[0]
        got = np.linalg.norm(R @ V, axis=0) / np.linalg.norm(K, axis=0)
        assert np.allclose(got, ratios, rtol=1e-6, atol=1e-14)
