"""Dense rank-revealing primitives shared by the reduction algorithms.

All rank decisions in the package funnel through the same tolerance rule:
a positive ``tol`` is used verbatim as an absolute cutoff on singular
values, while ``tol = 0`` requests the default ``max(q, r) * eps * s₁``
for a ``q x r`` matrix with largest singular value ``s₁`` (zero when the
matrix itself is zero).  Keeping the rule in one place makes the rank
behaviour of the staircase reductions reproducible and easy to reason
about.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "EPS",
    "col_compress",
    "pair_kernel",
    "rank_svd",
    "rank_threshold",
    "row_basis",
    "row_compress",
]

EPS = float(np.finfo(float).eps)


def _svd(mat, full_matrices):
    # gesdd occasionally fails to converge on structured input; fall back
    # to the slower but sturdier gesvd driver.
    try:
        return np.linalg.svd(mat, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(mat, full_matrices=full_matrices, lapack_driver="gesvd")


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


def rank_svd(mat, tol: float = 0.0) -> int:
    """Numerical rank: singular values strictly above the effective cutoff.

    Empty matrices (either dimension zero) have rank 0, as do matrices
    whose singular values all sit at or below the cutoff.
    """
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    sigma = _svd(mat, full_matrices=False)[1]
    return int(np.count_nonzero(sigma > rank_threshold(sigma, mat.shape, tol)))


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
    U, sigma, Vt = _svd(mat, full_matrices=True)
    k = int(np.count_nonzero(sigma > rank_threshold(sigma, mat.shape, tol)))
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
    mat = np.asarray(mat, dtype=float)
    shape = mat.shape if shape is None else shape
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0)), 0
    U, sigma, _ = _svd(mat, full_matrices=False)
    k = min(int(np.count_nonzero(sigma > rank_threshold(sigma, shape, tol))), *shape)
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

    Returns ``(Z, R, rank)`` with ``Z`` square orthogonal such that
    ``mat @ Z`` equals ``[0, R]`` up to discarded singular values below
    the cutoff; ``R`` has ``rank`` columns and full column rank.
    """
    mat = np.asarray(mat, dtype=float)
    q, r = mat.shape
    if q == 0 or r == 0:
        return np.eye(r), np.zeros((q, 0)), 0
    U, sigma, Vt = _svd(mat, full_matrices=True)
    k = int(np.count_nonzero(sigma > rank_threshold(sigma, mat.shape, tol)))
    Z = Vt.T[:, ::-1]
    compressed = (U[:, :k] * sigma[:k])[:, ::-1]
    return Z, compressed, k

