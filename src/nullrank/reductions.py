"""Orthogonal structure extraction for realizations and matrix pencils.

Three families of reductions live here, all driven by SVD rank decisions
under the single tolerance rule from :mod:`nullrank.kernels`:

* staircase deflation of uncontrollable / unobservable dynamics,
* elimination of non-dynamic modes (state directions in the kernel of
  ``E`` that carry no dynamics) by residualization,
* block-triangularization of a general rectangular pencil into a full
  row rank part, a regular square core, and a full column rank part,
  from which the normal rank of the pencil can be read off.

Everything uses dense orthogonal transformations.  The finite stairs of
the controllability staircase (and so of its dual and of the minimal
realization) are decided on projections onto two growing orthonormal
bases, with one triangular solve per stair and no re-triangularization:
``O(n^3)`` in all.  The bases are completed and applied once, only when
states are removed.  :func:`kronecker_like` does the same on large
pencils: one SVD of ``N`` and thin stair decisions, ``O(n^3)``.  Small
pencils keep the dense loop, which takes the SVD of the whole trailing
block at every stair (``O(n^4)`` in the worst case) and is faster there.
The controllability staircase isolates its infinite structure with the
same extraction, run on the pole pencil ``A - lam*E``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf, dorgqr, dtrtrs

from .core import DescriptorSystem, LinearPencil, transpose
from .errors import ReductionError
from .kernels import (
    EPS,
    _svd,
    _svd_rank,
    col_compress,
    pair_kernel,
    rank_svd,
    row_basis,
    row_compress,
)

__all__ = [
    "KroneckerStructure",
    "MinimalizationReport",
    "ctrb_staircase",
    "kronecker_like",
    "minimal_realization",
    "obsv_staircase",
    "pencil_normal_rank",
    "remove_nondynamic",
    "system_pencil",
]


@dataclass(frozen=True)
class MinimalizationReport:
    """Order bookkeeping for :func:`minimal_realization`."""

    original_order: int
    removed_uncontrollable: int
    removed_unobservable: int
    removed_nondynamic: int
    final_order: int


@dataclass(frozen=True)
class KroneckerStructure:
    """Result of :func:`kronecker_like`.

    The transformed pencil ``Q.T @ (M - lam*N) @ Z`` is block upper
    triangular with three diagonal blocks:

    * a ``right_rows x right_cols`` pencil of full row rank for every
      ``lam`` (``right_rows <= right_cols``),
    * a regular square core of order ``regular_order``,
    * a ``left_rows x left_cols`` pencil of full column rank for every
      ``lam`` (``left_cols <= left_rows``).
    """

    right_rows: int
    right_cols: int
    regular_order: int
    left_rows: int
    left_cols: int
    Q: np.ndarray
    Z: np.ndarray
    reduced: LinearPencil


def system_pencil(sys: DescriptorSystem) -> LinearPencil:
    """Stack a realization into the ``(n+p) x (n+m)`` system pencil.

    The pencil is ``[[A - lam*E, B], [C, D]]``; away from the poles its
    rank exceeds the normal rank of the rational matrix by exactly the
    order ``n``, which is what the pencil-based rank checks exploit.
    """
    n, m, p = sys.n, sys.m, sys.p
    M = np.block([[sys.A, sys.B], [sys.C, sys.D]])
    N = np.block(
        [[sys.E, np.zeros((n, m))], [np.zeros((p, n)), np.zeros((p, m))]]
    )
    return LinearPencil(M, N)


def _anchored_tol(tol, *mats):
    """Absolute rank threshold shared by every decision of a reduction.

    A staircase repeatedly takes ranks of sub-blocks of orthogonally
    transformed data.  Judging each block against its own largest
    singular value would declare a block of pure rounding noise full
    rank, so when the caller does not fix ``tol`` the decisions are
    anchored to the scale of the original matrices instead.
    """
    if tol > 0.0:
        return tol
    dim = max([1, *(max(mat.shape) for mat in mats if mat.size)])
    scale = max([0.0, *(np.linalg.norm(mat) for mat in mats if mat.size)])
    return dim * dim * EPS * scale


def _orthonormal(W, cols):
    """Leading ``cols`` columns of the orthogonal factor of ``W = Q R``.

    With ``cols = W.shape[1]`` and ``W`` of full column rank this is an
    orthonormal basis of ``range(W)``; with ``cols = len(W)`` it is that
    basis completed to an orthogonal matrix.  LAPACK is called directly
    because the wrappers' overhead dominates at the small widths here.
    """
    if not len(W):
        return np.zeros((0, cols))
    qr, tau = dgeqrf(W)[:2]
    full = np.zeros((len(W), cols), order="F")
    full[:, : W.shape[1]] = qr
    return dorgqr(full, tau)[0]


def _project_out(U, W):
    """Remove from ``W``, in place, its part in the span of ``U``'s columns.

    ``U`` has orthonormal columns.  Two Gram-Schmidt passes ("twice is
    enough"): the second restores the orthogonality that cancellation in
    the first loses when ``W`` lies close to that span.
    """
    for _ in range(2):
        W -= U @ (U.T @ W)
    return W


def _ctrb_reduce(sys: DescriptorSystem, tol: float):
    """Deflate uncontrollable dynamics; shared core of the staircase ops.

    Returns the reduced matrices, the number of removed states and the
    accumulated orthogonal transforms ``Q``, ``Z`` (full original size)
    satisfying ``Q.T A Z``, ``Q.T E Z``, ``Q.T B``, ``C Z`` block upper
    triangular with the kept part leading.
    """
    tol = _anchored_tol(tol, sys.A, sys.E, sys.B)
    n0 = sys.n
    A = np.array(sys.A)
    E = np.array(sys.E)
    B = np.array(sys.B)
    C = np.array(sys.C)
    Q = np.eye(n0)
    Z = np.eye(n0)

    # Pass 1: peel off state directions unreachable through [E B]; these
    # carry uncontrollable infinite eigenvalues.  One compression can
    # expose further deficiency, so iterate to a fixed point.
    while True:
        nc = A.shape[0]
        if nc == 0:
            break
        Qk, comp, rho = row_compress(np.hstack([E, B]), tol)
        if rho == nc:
            break
        E = np.vstack([comp[:, :nc], np.zeros((nc - rho, nc))])
        B = np.vstack([comp[:, nc:], np.zeros((nc - rho, B.shape[1]))])
        A = Qk.T @ A
        Q[:, :nc] = Q[:, :nc] @ Qk
        lower = A[rho:, :]
        Zk, tau = col_compress(lower, tol)
        if tau < nc - rho:
            raise ReductionError("pole pencil is numerically singular")
        A = A @ Zk
        E = E @ Zk
        C = C @ Zk
        Z[:, :nc] = Z[:, :nc] @ Zk
        # The trailing block is constant and invertible: all infinite,
        # none of it fed by the inputs.  Keep the leading part.
        A = A[:rho, :rho]
        E = E[:rho, :rho]
        B = B[:rho, :]
        C = C[:, :rho]

    removed_inf = n0 - A.shape[0]
    n2 = A.shape[0]

    # Pass 2: isolate what is left of the infinite structure in a leading
    # block.  Kernel directions of E are pushed to the front and the
    # corresponding algebraic equations compressed on top, leaving exact
    # zeros below, so the trailing block has a nonsingular E.  Without
    # this the finite stairs would mix near-kernel directions of E into
    # their rank decisions, with unbounded growth factors.  These are the
    # stairs of the pencil A - lam*E itself; every one must be square.
    Q2, Z2, ninf, cols = _extract_row_structure(A, E, tol)
    if ninf != cols:
        raise ReductionError("pole pencil is numerically singular")
    if ninf > 0:
        B = Q2.T @ B
        C = C @ Z2
        Q[:, :n2] = Q[:, :n2] @ Q2
        Z[:, :n2] = Z[:, :n2] @ Z2

    # Pass 3: staircase on the finite trailing block, E_f = Qe R with R
    # upper triangular and nonsingular.  Working in the rows of Qe, grow
    # an orthonormal basis U of the equations reached so far and one, Z,
    # of the states with R Z in span U (Z = orth(R^-1 U)).  Stair k is
    # U_perp.T A Z_new, with Z_new the states added at stair k - 1 (the
    # first stair is B_f).  Its singular values depend only on span U and
    # span Z_new, which the earlier rank decisions fix, not on the bases
    # chosen for them: a dense staircase that transforms the whole block
    # and re-triangularizes E after every stair sees the same values up
    # to rounding.  So each stair is decided on the projection
    # (I - U U.T) A Z_new at O(nf^2 nu), O(nf^3) in all, and the block is
    # transformed once at the end, only if states are removed.
    nf = n2 - ninf
    kept = n2
    if nf > 0:
        sl = slice(ninf, n2)
        Qe, R = scipy.linalg.qr(E[sl, sl])
        R = np.asfortranarray(R)
        Af = Qe.T @ A[sl, sl]
        stair = Qe.T @ B[sl, :]
        U = np.empty((nf, nf))
        Zf = np.empty((nf, nf))
        k = 0
        while True:
            rem = nf - k
            Un, nu = row_basis(stair, tol, (rem, stair.shape[1]))
            if nu == rem:
                k = nf
                break
            if nu == 0:
                break
            U[:, k : k + nu] = Un
            W, info = dtrtrs(R, Un)
            if info:
                raise ReductionError("pole pencil is numerically singular")
            Zn = _orthonormal(_project_out(Zf[:, :k], W), nu)
            Zf[:, k : k + nu] = Zn
            k += nu
            stair = _project_out(U[:, :k], Af @ Zn)
        if k < nf:
            # Complete both bases to orthogonal matrices; the kept part
            # leads, and what is dropped below it is the rounding residue
            # and the sub-threshold stair.
            L = Qe @ _orthonormal(U[:, :k], nf)
            Zf = _orthonormal(Zf[:, :k], nf)
            A[sl, :] = L.T @ A[sl, :]
            E[sl, :] = L.T @ E[sl, :]
            B[sl, :] = L.T @ B[sl, :]
            Q[:, sl] = Q[:, sl] @ L
            A[:, sl] = A[:, sl] @ Zf
            E[:, sl] = E[:, sl] @ Zf
            C[:, sl] = C[:, sl] @ Zf
            Z[:, sl] = Z[:, sl] @ Zf
            kept = ninf + k
            A = A[:kept, :kept]
            E = E[:kept, :kept]
            B = B[:kept, :]
            C = C[:, :kept]

    removed_fin = n2 - kept
    out = DescriptorSystem(A, E, B, C, sys.D, sys.timing)
    return out, removed_inf + removed_fin, Q, Z


def ctrb_staircase(sys: DescriptorSystem, tol: float = 0.0):
    """Restrict a realization to its controllable part.

    Alternating compressions deflate the uncontrollable infinite
    eigenvalues (directions missing from the row space of ``[E B]``),
    isolate the controllable infinite part in a leading block, and then
    deflate the uncontrollable finite eigenvalues by the staircase on
    the trailing block, leaving an orthogonally similar realization of
    the same rational matrix whose remaining dynamics are completely
    controllable.

    Parameters
    ----------
    sys : DescriptorSystem
        Realization with a regular pole pencil.
    tol : float, optional
        Rank tolerance shared by every decision in the reduction.

    Returns
    -------
    reduced : DescriptorSystem
    removed : int
        How many states were deflated.
    Q, Z : ndarray
        The accumulated orthogonal transforms: ``Q.T A Z``, ``Q.T E Z``,
        ``Q.T B`` and ``C Z`` are block upper triangular with ``reduced``
        as their leading part.

    Raises
    ------
    ReductionError
        If the rank decisions expose a singular pole pencil.
    """
    return _ctrb_reduce(sys, tol)


def obsv_staircase(sys: DescriptorSystem, tol: float = 0.0):
    """Restrict a realization to its observable part.

    Dual of :func:`ctrb_staircase`: the reduction is applied to the
    transposed realization and the result transposed back, and so are
    the returned ``(reduced, removed, Q, Z)``.
    """
    red, removed, Qt, Zt = _ctrb_reduce(transpose(sys), tol)
    # The transforms swap roles under transposition.
    return transpose(red), removed, Zt, Qt


def remove_nondynamic(sys: DescriptorSystem, tol: float = 0.0):
    """Eliminate non-dynamic modes by residualization.

    In coordinates where ``E = diag(E11, 0)`` with ``E11`` nonsingular,
    states in the kernel of ``E`` satisfy purely algebraic relations and
    can be solved out exactly::

        A -> A11 - A12 inv(A22) A21      E -> E11
        B -> B1 - A12 inv(A22) B2        C -> C1 - C2 inv(A22) A21
        D -> D - C2 inv(A22) B2

    The rational matrix is unchanged.  The realization should already be
    controllable and observable at infinity for the removed modes to be
    exactly the non-dynamic ones.  Returns ``(reduced, removed, U, V)``,
    ``U.T E V`` diagonal (identities when nothing is removed).

    Raises
    ------
    ReductionError
        If the trailing block ``A22`` is numerically singular, which
        means the realization is improper or not reduced.
    """
    n = sys.n
    tol = _anchored_tol(tol, sys.A, sys.E)
    U, sigma, Vt, r = _svd_rank(sys.E, tol, full_matrices=True)
    if r == n:
        out, U, V = sys, np.eye(n), np.eye(n)
    else:
        V = Vt.T
        Ab = U.T @ sys.A @ V
        Bb = U.T @ sys.B
        Cb = sys.C @ V
        A11, A12 = Ab[:r, :r], Ab[:r, r:]
        A21, A22 = Ab[r:, :r], Ab[r:, r:]
        B1, B2 = Bb[:r, :], Bb[r:, :]
        C1, C2 = Cb[:, :r], Cb[:, r:]
        if rank_svd(A22, tol) < n - r:
            raise ReductionError("improper or non-reduced realization")
        X = scipy.linalg.solve(A22, np.hstack([A21, B2]))
        XA, XB = X[:, :r], X[:, r:]
        out = DescriptorSystem(
            A11 - A12 @ XA,
            np.diag(sigma[:r]),
            B1 - A12 @ XB,
            C1 - C2 @ XA,
            sys.D - C2 @ XB,
            sys.timing,
        )
    return out, n - r, U, V


def minimal_realization(sys: DescriptorSystem, tol: float = 0.0):
    """Compute a minimal realization of the same rational matrix.

    Runs the controllability staircase, the observability staircase and
    the non-dynamic mode elimination, in that fixed order, under one
    shared tolerance.

    Returns
    -------
    reduced : DescriptorSystem
    report : MinimalizationReport
        Per-stage removal counts; ``original_order`` always equals
        ``final_order`` plus the three removal counts.
    """
    # Resolve the default threshold once, against the original data, so
    # later stages judge the rounding residue left behind by earlier ones
    # on the scale at which it was created.
    tol = _anchored_tol(tol, sys.A, sys.E, sys.B, sys.C)
    s1, removed_c, _, _ = ctrb_staircase(sys, tol)
    s2, removed_o, _, _ = obsv_staircase(s1, tol)
    s3, removed_n, _, _ = remove_nondynamic(s2, tol)
    report = MinimalizationReport(
        original_order=sys.n,
        removed_uncontrollable=removed_c,
        removed_unobservable=removed_o,
        removed_nondynamic=removed_n,
        final_order=s3.n,
    )
    return s3, report


# Pencils whose smaller side is at least this large are extracted by the
# projected staircase; below it the dense loop is faster (README, "Cost of
# method 3").
_PROJECTED_FROM = 54


def _extract_row_structure(M, N, tol):
    """Staircase extraction of the full-row-rank part of ``M - lam*N``.

    Mutates ``M`` and ``N`` in place into ``Q.T (M - lam*N) Z`` of shape::

        [ R   X  ]
        [ 0   P' ]

    where ``R`` spans the returned number of stair ``rows`` and ``cols``,
    has full row rank for every ``lam``, and the trailing ``P'`` has an
    ``N``-part of full column rank.  Returns ``(Q, Z, rows, cols)``.
    """
    if min(M.shape) >= _PROJECTED_FROM:
        return _projected_row_structure(M, N, tol)
    return _dense_row_structure(M, N, tol)


def _dense_row_structure(M, N, tol):
    """:func:`_extract_row_structure` by an SVD of the trailing block per stair."""
    q, r = M.shape
    Q = np.eye(q)
    Z = np.eye(r)
    i = 0
    j = 0
    while True:
        rt = r - j
        if rt == 0:
            break
        Zk, rho = col_compress(N[i:, j:], tol)
        if rho == rt:
            break
        width = rt - rho
        M[:, j:] = M[:, j:] @ Zk
        N[:, j:] = N[:, j:] @ Zk
        Z[:, j:] = Z[:, j:] @ Zk
        N[i:, j : j + width] = 0.0
        Qk, _, tau = row_compress(M[i:, j : j + width], tol)
        M[i:, j:] = Qk.T @ M[i:, j:]
        N[i:, j:] = Qk.T @ N[i:, j:]
        Q[:, i:] = Q[:, i:] @ Qk
        M[i + tau :, j : j + width] = 0.0
        i += tau
        j += width
    return Q, Z, i, j


def _projected_row_structure(M, N, tol):
    """:func:`_extract_row_structure` on projections, ``O(n^3)`` in all.

    After ``i`` rows and ``j`` columns the dense loop's trailing block is
    ``N`` restricted to ``span(V)^perp`` and seen modulo ``span(U)``, with
    ``U`` the rows and ``V`` the columns taken so far.  Its kernel (the
    ``x`` orthogonal to ``V`` with ``N x`` in ``span(U)``) and the rank of
    ``M`` on that kernel depend only on the two subspaces, which the
    earlier decisions fix, not on the bases chosen for them.  So one SVD
    of ``N`` decides the first stair, and every later kernel is decided on
    candidates built from the rows ``Y`` that the last stair added: a new
    kernel vector ``x`` has ``N x`` in ``span(U)`` but not in the span of
    the older rows, so ``N x`` is a new row corrected by old ones.
    """
    q, r = M.shape
    Un, sigma, Vt, rho = _svd_rank(N, tol, full_matrices=True)
    K = Vt[rho:].T
    L = Un[:, rho:]
    Np = (Vt[:rho].T / sigma[:rho]) @ Un[:, :rho].T
    del Un, Vt
    # G is an orthonormal basis of span(L.T U) and L.T H = G with H in
    # span(U): subtracting H G.T L.T v from a row combination v moves it
    # into range(N) without leaving span(U).
    G = np.zeros((q - rho, 0))
    H = np.zeros((q, 0))
    U = np.empty((q, q))
    V = np.empty((r, r))
    i = 0
    j = 0
    while K.shape[1]:
        w = K.shape[1]
        V[:, j : j + w] = K
        j += w
        Y, tau = row_basis(_project_out(U[:, :i], M @ K), tol, (q - i, w))
        U[:, i : i + tau] = Y
        i += tau
        if tau == 0 or j == r:
            break
        y = Y - H @ (G.T @ (L.T @ Y))
        X = _project_out(V[:, :j], Np @ y)
        R = _project_out(U[:, :i], N @ X)
        cand, small = pair_kernel(R, X, tol)
        # The dense SVD of a block wider than tall always reports at
        # least the difference of its sides as kernel.
        w = min(tau, r - j, max(small, (r - j) - (q - i)))
        if w == 0:
            break
        # One refinement step pulls N x back into span(U).
        x = cand[:, :w]
        res = _project_out(U[:, :i], N @ x)
        x -= _project_out(V[:, :j], Np @ (res - H @ (G.T @ (L.T @ res))))
        K = _orthonormal(_project_out(V[:, :j], x), w)
        # The new rows that gave no kernel vector stick out of range(N):
        # their part in span(L) joins G.
        extra = min(tau - w, G.shape[0] - G.shape[1])
        if extra:
            P, s, Wt = _svd(L.T @ y, full_matrices=False)
            G = np.hstack([G, P[:, :extra]])
            H = np.hstack([H, y @ (Wt[:extra].T / s[:extra])])
    Q = _orthonormal(U[:, :i], q)
    Z = _orthonormal(V[:, :j], r)
    M[:] = Q.T @ M @ Z
    N[:] = Q.T @ N @ Z
    M[i:, :j] = 0.0
    N[i:, :j] = 0.0
    return Q, Z, i, j


def kronecker_like(pencil: LinearPencil, tol: float = 0.0) -> KroneckerStructure:
    """Block-triangularize a rectangular pencil by its Kronecker structure.

    Computes orthogonal ``Q``, ``Z`` such that ``Q.T (M - lam*N) Z`` is
    block upper triangular with a full row rank pencil on top, a regular
    square core in the middle and a full column rank pencil at the
    bottom (see :class:`KroneckerStructure`).  The normal rank of the
    input is then the sum ``right_rows + regular_order + left_cols``.

    The reduction is the SVD-based staircase of Van Dooren (1979), with
    every rank decision taken on singular values.  Small pencils run the
    dense loop (``O(n^4)`` in the worst case); large ones decide the same
    stairs on projections at ``O(n^3)``, see
    :func:`_projected_row_structure`.

    Raises
    ------
    ReductionError
        If the block bookkeeping comes out inconsistent, which indicates
        rank decisions at war with each other; try a different tolerance.
    """
    q, r = pencil.shape
    tol = _anchored_tol(tol, pencil.M, pencil.N)
    # Left structure first: run the row extraction on the transposed
    # pencil, transpose back, and flip row/column order so the extracted
    # full-column-rank part lands in the bottom-right corner.
    Mt = pencil.M.T.copy()
    Nt = pencil.N.T.copy()
    Qt, Zt, left_cols, left_rows = _extract_row_structure(Mt, Nt, tol)
    M2 = Mt.T[::-1, ::-1].copy()
    N2 = Nt.T[::-1, ::-1].copy()
    QA = Zt[:, ::-1]  # row transform: transpose then reversal
    ZA = Qt[:, ::-1]
    # Right structure on what is left of the pencil.
    qb = q - left_rows
    rb = r - left_cols
    Msub = M2[:qb, :rb].copy()
    Nsub = N2[:qb, :rb].copy()
    QB, ZB, right_rows, right_cols = _extract_row_structure(Msub, Nsub, tol)
    M2[:qb, :rb] = Msub
    N2[:qb, :rb] = Nsub
    M2[:qb, rb:] = QB.T @ M2[:qb, rb:]
    N2[:qb, rb:] = QB.T @ N2[:qb, rb:]
    Q = QA.copy()
    Q[:, :qb] = QA[:, :qb] @ QB
    Z = ZA.copy()
    Z[:, :rb] = ZA[:, :rb] @ ZB
    core_rows = qb - right_rows
    core_cols = rb - right_cols
    if core_rows != core_cols:
        raise ReductionError(
            "inconsistent rank decisions while splitting the pencil "
            f"(regular core would be {core_rows} x {core_cols}); "
            "try a different tolerance"
        )
    return KroneckerStructure(
        right_rows=right_rows,
        right_cols=right_cols,
        regular_order=core_rows,
        left_rows=left_rows,
        left_cols=left_cols,
        Q=Q,
        Z=Z,
        reduced=LinearPencil(M2, N2),
    )


def pencil_normal_rank(structure: KroneckerStructure) -> int:
    """Normal rank of a pencil from its extracted block structure."""
    return structure.right_rows + structure.regular_order + structure.left_cols
