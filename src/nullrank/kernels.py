"""Dense rank-revealing primitives shared by the reduction algorithms.

All rank decisions in the package follow one count rule,
:func:`_count_rank`: the singular values not at or below the cutoff of
:func:`rank_threshold`, at most ``min(q, r)`` for a ``q x r`` matrix, so a
NaN from an overflowing matrix counts as nonzero and never lowers a rank.  A
positive ``tol`` is used verbatim as an absolute cutoff, while ``tol = 0``
requests the default ``max(q, r) * eps * s₁`` with ``s₁`` the largest
singular value (zero when the matrix itself is zero).  Keeping the rule in
one place makes the rank behaviour of the staircase reductions
reproducible and easy to reason about.

The rule is fed by two SVD calls.  :func:`_svd_rank` keeps the singular
vectors, for the compressions and bases that use them
(:func:`row_compress`, :func:`col_compress`, :func:`row_basis`);
:func:`rank_svd` asks LAPACK for the singular values only, since a bare
rank needs no vector.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "EPS",
    "col_compress",
    "pair_kernel",
    "rank_svd",
    "row_basis",
    "row_compress",
]

EPS = float(np.finfo(float).eps)


def _svd(mat, full_matrices, compute_uv=True):
    # gesdd occasionally fails to converge on structured input; fall back
    # to the slower but sturdier gesvd driver.  gesdd also fails on a NaN
    # entry; gesvd then returns NaN singular values, as gesdd does for inf.
    try:
        return np.linalg.svd(mat, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(
            mat, full_matrices=full_matrices, compute_uv=compute_uv, check_finite=False, lapack_driver="gesvd"
        )


def rank_threshold(sigma, shape, tol: float = 0.0) -> float:
    """Effective cutoff below which singular values count as zero.

    Parameters
    ----------
    sigma : ndarray
        Singular values in decreasing order (may be empty).
    shape : tuple of int
        Shape of the matrix the values came from.
    tol : float, optional
        Absolute cutoff; ``0`` selects the default rule described in the
        module docstring.
    """
    if tol > 0.0:
        return float(tol)
    if len(sigma) == 0:
        return 0.0
    return max(shape) * EPS * float(sigma[0])


def _count_rank(sigma, shape, tol) -> int:
    """The package's one rank rule: how many of ``sigma`` are not at or below
    :func:`rank_threshold` for ``shape`` (NaN counts), at most ``min(shape)``."""
    rank = int(np.count_nonzero(~(sigma <= rank_threshold(sigma, shape, tol))))
    return min(rank, *shape)


def _svd_rank(mat, tol, full_matrices, shape=None):
    """``(U, sigma, Vt, rank)`` of ``mat``, ranked by :func:`_count_rank`.

    ``shape`` is what the rule sees, by default ``mat.shape``.
    """
    U, sigma, Vt = _svd(mat, full_matrices)
    return U, sigma, Vt, _count_rank(sigma, mat.shape if shape is None else shape, tol)


def rank_svd(mat, tol: float = 0.0) -> int:
    """Numerical rank: singular values not at or below the effective cutoff.

    Takes the singular values only, no vectors.  Empty matrices (either
    dimension zero) have rank 0, as do matrices whose singular values all
    sit at or below the cutoff.
    """
    mat = np.asarray(mat)
    return _count_rank(_svd(mat, False, compute_uv=False), mat.shape, tol)


def row_compress(mat, tol: float = 0.0):
    """Orthogonally compress the rows of ``mat`` to the top.

    Returns ``(Q, R, rank)`` with ``Q`` square orthogonal such that
    ``Q.T @ mat`` equals ``[R; 0]`` up to discarded singular values below
    the cutoff; ``R`` has ``rank`` rows and full row rank.
    """
    mat = np.asarray(mat, dtype=float)
    q, r = mat.shape
    if q == 0 or r == 0:
        return np.eye(q), np.zeros((0, r)), 0
    U, sigma, Vt, k = _svd_rank(mat, tol, full_matrices=True)
    compressed = sigma[:k, None] * Vt[:k, :]
    return U, compressed, k


def row_basis(mat, tol: float = 0.0, shape=None):
    """Orthonormal basis of the numerical range of ``mat``.

    Returns ``(U, rank)`` with ``U`` the ``rank`` leading left singular
    vectors (thin).  ``shape`` is what the threshold rule sees, by default
    ``mat.shape``.  A caller that hands in a projection ``P @ X``, with
    ``P`` an orthogonal projector of rank ``q < len(P)``, passes the
    ``(q, X.shape[1])`` of the block it stands for: both share their
    nonzero singular values, and the rank is capped at ``min(shape)``.
    """
    U, _, _, k = _svd_rank(np.asarray(mat, dtype=float), tol, False, shape)
    return U[:, :k], k


def pair_kernel(R, X, tol: float):
    """Combinations of the columns of ``X`` on which ``R`` is negligible.

    Decides on the generalized singular values of the pair ``(R, X)``
    (same number of columns, ``R`` with at least as many rows as
    columns): a thin QR ``[R; X] = [Qr; Qx] T`` and an SVD
    ``Qr = P diag(s) W.T`` give, for each direction ``w_k``, the ratio
    ``s_k / c_k`` of ``|R v|`` to ``|X v|`` with ``v = T^-1 w_k`` and
    ``c_k = |Qx w_k|``.  The SVD is taken of the ``R`` block because the
    small ``s_k`` are what is decided on, and ``c_k`` close to 1 is then
    accurate; an SVD of ``Qx`` would resolve ``s_k`` only to the square
    root of the rounding level.

    Returns ``(K, small)``: ``K = X v`` for every direction, ordered from
    the smallest ratio up, and how many directions have ``s_k <= tol c_k``.
    """
    Qs = np.linalg.qr(np.vstack([R, X]))[0]
    Qr, Qx = Qs[: len(R)], Qs[len(R) :]
    _, s, Wt = _svd(Qr, full_matrices=False)
    W = Wt[::-1].T
    K = Qx @ W
    small = int(np.count_nonzero(s[::-1] <= tol * np.linalg.norm(K, axis=0)))
    return K, small


def col_compress(mat, tol: float = 0.0):
    """Orthogonally compress the columns of ``mat`` to the right.

    Returns ``(Z, rank)`` with ``Z`` square orthogonal such that
    ``mat @ Z`` equals ``[0, R]`` up to discarded singular values below
    the cutoff; ``R`` has ``rank`` columns and full column rank.
    """
    mat = np.asarray(mat, dtype=float)
    q, r = mat.shape
    if q == 0 or r == 0:
        return np.eye(r), 0
    _, _, Vt, k = _svd_rank(mat, tol, full_matrices=True)
    return Vt.T[:, ::-1], k

