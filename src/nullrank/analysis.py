"""Frequency-domain analysis: point evaluation, random substitution, gain.

The substitution :func:`~nullrank.core.bilinear` lives in :mod:`nullrank.core`
and is importable from here too.

Point evaluation (:func:`evalfr`) calls LAPACK's ``zgetrf`` and ``zgetrs``
(the routines behind scipy's ``lu_factor``/``lu_solve``) once, without the
wrappers' overhead.

The boundary scan (:func:`peak_gain`) factors the pencil once instead of
once per grid point.  At the real shift ``sigma``
(:data:`~nullrank.core.PROBE_POINT`, where :func:`~nullrank.core.is_regular`
probes) it takes the LU of ``P = A - sigma*E`` (LAPACK ``dgetrf``) and the
real Schur form ``K = U S U^T`` of ``K = P^-1 E``, with ``S``
quasi-triangular; its 1x1 and 2x2 diagonal blocks are read off ``S``'s
subdiagonal.  With ``mu = lam - sigma`` and ``nu = 1/mu``::

    lam*E - A = -P (I - mu*K),    (lam*E - A)^-1 = -nu U (nu*I - S)^-1 U^T P^-1

An infinite eigenvalue of the pencil is an eigenvalue ``0`` of ``K``, and
scaling ``A`` and ``E`` together leaves ``K`` as it is.  Everything stays
real:

* **Pole rule.**  :func:`_off_pole`, the pivot-ratio rule that
  :func:`evalfr` applies to its LU, applied to the diagonal blocks of
  ``I - mu*S``: a grid point is a pole, and is skipped, when the
  smallest pivot is at most ``cut`` times the largest (``cut`` is the
  scan's ``tol``, or ``16 n eps``).  The pivots are ``|mu|`` times those
  of ``nu*I - S``: ``|nu - s|`` for a 1x1 block and, for a 2x2 block
  ``[[a, b], [c, d]]``, those of its partial-pivoted LU: ``max(|a|, |c|)``
  and ``|det|`` over it.  ``sqrt|det|`` in their place would keep a grid
  point that sits on a complex pole pair at the default ``cut``.  An
  infinite eigenvalue reads pivot 1.  The LU of ``P`` goes through the
  same rule at ``16 n eps``: a pole at ``sigma`` raises.
* **Solve.**  ``(nu*I - S) Y = U^T P^-1 B`` is solved for all kept points
  together by a blocked back substitution.  Inside a panel of about
  :data:`_PANEL` columns, a Python loop runs over the diagonal blocks,
  vectorised over the points (explicit 2x2 solves); the rows above a
  panel are updated by one real matrix product of ``S`` with the panel's
  solution, its real and imaginary parts side by side.
* **Refinement.**  One step of iterative refinement against the original
  ``lam*E - A`` follows, its correction solved through the same factors.
  Without it a peak gain of a certified-zero case can come within a
  decade of ``1e-7``.
* **Chunks.**  Points are processed in chunks, so that an ``N x points x m``
  complex work array stays within :data:`_CHUNK_BYTES`; at most four of
  these arrays are alive at a time.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs

from .core import PROBE_POINT, BilinearMap, DescriptorSystem, bilinear
from .errors import PoleEvaluationError
from .kernels import EPS

__all__ = [
    "BilinearMap",
    "bilinear",
    "evalfr",
    "peak_gain",
    "random_bilinear_map",
]

GRID_SIZE = 200  # fixed boundary points of peak_gain's scan
_PANEL = 32  # columns per panel of the blocked back substitution
_CHUNK_BYTES = 1 << 20  # bound on one complex N x points x m work array


def random_bilinear_map(rng=None) -> BilinearMap:
    """Draw a random, well-conditioned change of variable.

    Coefficients are uniform on ``(0, 1)``, redrawn until the determinant
    ``a*d - b*c`` exceeds ``0.1`` in magnitude.
    """
    rng = np.random.default_rng(rng)
    while True:
        a, b, c, d = rng.uniform(size=4)
        if abs(a * d - b * c) > 0.1:
            return BilinearMap(float(a), float(b), float(c), float(d))


def _off_pole(sys, pivots, rtol):
    """Off-pole mask over the last axis of ``pivots``: min > cut * max > 0."""
    cut = rtol if rtol > 0.0 else 16.0 * sys.n * EPS
    dmax = pivots.max(axis=-1)
    return (dmax > 0.0) & (pivots.min(axis=-1) > cut * dmax)


def evalfr(sys: DescriptorSystem, lam, rtol: float = 0.0) -> np.ndarray:
    """Evaluate the rational matrix at one frequency point.

    Solves ``(lam*E - A) X = B`` and returns ``D + C X`` as a complex
    ``p x m`` array.  For order zero this is just ``D``.

    Parameters
    ----------
    sys : DescriptorSystem
    lam : complex
        Evaluation point in the frequency variable of the system.
    rtol : float, optional
        Relative pivot-ratio threshold below which the shifted pencil is
        declared singular; ``0`` selects a machine-level default.

    Raises
    ------
    PoleEvaluationError
        If ``lam*E - A`` is singular at the working precision, i.e. the
        point is (numerically) a pole or the pencil is not regular.
    ValueError
        If ``lam*E - A`` has a non-finite entry (infinite ``lam``, overflow).
    """
    if sys.n == 0:
        return sys.D.astype(complex)
    lam = complex(lam)
    # An infinite or overflowing shift is caught by the finiteness check
    # below; numpy need not warn while forming it.
    with np.errstate(over="ignore", invalid="ignore"):
        T = lam * sys.E - sys.A
    if not np.isfinite(T).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = zgetrf(T, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrf")
    if not _off_pole(sys, np.abs(np.diag(lu)), rtol):
        raise PoleEvaluationError(f"evaluation at a pole (lam = {lam})")
    B = sys.B.astype(complex)
    if B.shape[1]:  # zgetrs gets no empty right-hand side
        B = zgetrs(lu, piv, B)[0]
    return sys.D + sys.C @ B


def _boundary_grid(sys, rng):
    if sys.timing == "discrete":
        theta = np.linspace(0.0, np.pi, GRID_SIZE)
        extra = rng.uniform(0.0, np.pi, size=10)
        return np.exp(1j * np.concatenate([theta, extra]))
    omega = np.concatenate([[0.0], np.logspace(-6.0, 6.0, GRID_SIZE - 1)])
    extra = 10.0 ** rng.uniform(-6.0, 6.0, size=10)
    return 1j * np.concatenate([omega, extra])


def _panels(S):
    """``(start, end, blocks)`` panels of about ``_PANEL`` columns of quasi-triangular ``S``.

    ``blocks`` lists the ``(start, size)`` of the 1x1 and 2x2 diagonal
    blocks in the panel, read off ``S``'s subdiagonal; no panel splits a
    2x2 block.
    """
    n = S.shape[0]
    sub = np.diag(S, -1) != 0.0
    panels, blocks, k = [], [], 0
    while k < n:
        size = 2 if k + 1 < n and sub[k] else 1
        blocks.append((k, size))
        k += size
        if k - blocks[0][0] >= _PANEL or k == n:
            panels.append((blocks[0][0], k, blocks))
            blocks = []
    return panels


class _QuasiTriangular:
    """``nu*I - S`` for the quasi-triangular ``S`` of a real Schur form, solved at many points at once."""

    def __init__(self, S):
        self.S = S
        self.panels = _panels(S)
        blocks = [block for panel in self.panels for block in panel[2]]
        self.ones = np.array([k for k, size in blocks if size == 1], dtype=int)
        self.twos = np.array([k for k, size in blocks if size == 2], dtype=int)

    def _two_by_two(self, nu, k):
        """``a, b, c, d`` of the 2x2 diagonal block of ``nu*I - S`` at row ``k``."""
        S = self.S
        return nu - S[k, k], -S[k, k + 1], -S[k + 1, k], nu - S[k + 1, k + 1]

    def pivots(self, nu):
        """Pivot moduli of the partial-pivoted LU of every diagonal block, per point."""
        a, b, c, d = self._two_by_two(nu[:, None], self.twos)
        first = np.maximum(np.abs(a), np.abs(c))  # c = -S[k + 1, k] is nonzero
        second = np.abs(a * d - b * c) / first
        k = self.ones
        return np.hstack([np.abs(nu[:, None] - self.S[k, k]), first, second])

    def _subtract_product(self, Y, rows, cols):
        """``Y[rows] -= (nu*I - S)[rows, cols] Y[cols]`` at every point, in place."""
        Y[slice(*rows)] += _apply(self.S[slice(*rows), slice(*cols)], Y[slice(*cols)])

    def solve(self, nu, Y):
        """Overwrite ``Y`` (N, points, m) with ``(nu_j I - S)^-1 Y[:, j]``."""
        S = self.S
        for start, end, blocks in reversed(self.panels):
            for k, size in reversed(blocks):
                if size == 1:
                    Y[k] /= (nu - S[k, k])[:, None]
                else:
                    a, b, c, d = self._two_by_two(nu[:, None], k)
                    det = a * d - b * c
                    y0, y1 = Y[k].copy(), Y[k + 1]
                    Y[k] = (d * y0 - b * y1) / det
                    Y[k + 1] = (a * y1 - c * y0) / det
                if k > start:
                    self._subtract_product(Y, (start, k), (k, k + size))
            if start > 0:
                self._subtract_product(Y, (0, start), (start, end))
        return Y


def _real(Y):
    """Real ``(rows, 2 * points * m)`` view of a complex (rows, points, m) array."""
    return Y.view(float).reshape(Y.shape[0], -1)


def _apply(M, Y, out=None):
    """``M @ Y[:, j]`` for every point ``j``, by one real product (into ``out``)."""
    flat = np.matmul(M, _real(Y), out=None if out is None else _real(out))
    return flat.view(complex).reshape(M.shape[0], *Y.shape[1:])


def _refined_solve(sys, lu, piv, qt, U, UPB, lam):
    """``(lam_j E - A)^-1 B`` at every point ``lam_j``, refined once, (N, points, m).

    ``lu, piv`` is the LU of ``P``, ``qt`` and ``U`` the Schur form of
    ``P^-1 E``, and ``UPB`` is ``U^T P^-1 B``.  Three work arrays of that
    shape are reused; a solve adds a fourth.
    """
    nu = 1.0 / (lam - PROBE_POINT)
    Y = np.empty((sys.n, lam.size, sys.m), dtype=complex)
    Y[...] = UPB[:, None, :]
    X = _apply(U, qt.solve(nu, Y))
    X *= -nu[:, None]
    # residual B - (lam E - A) X against the unfactored pencil, in Y
    R = _apply(sys.A, X, out=Y)
    W = _apply(sys.E, X)
    W *= lam[:, None]
    R -= W
    R += sys.B[:, None, :]
    np.matmul(U.T, dgetrs(lu, piv, _real(R))[0], out=_real(W))
    correction = _apply(U, qt.solve(nu, W), out=Y)
    correction *= -nu[:, None]
    X += correction
    return X


def peak_gain(sys: DescriptorSystem, tol: float = 0.0, rng=None):
    """Largest frequency-response gain over a stability-boundary grid.

    Scans the boundary of the stability domain (the imaginary axis for
    continuous systems, the upper unit circle for discrete ones) with
    :data:`GRID_SIZE` points — log-spaced frequencies plus zero, or uniform
    angles — plus ten random boundary points, and returns the maximum
    largest singular value of the response.  This is a grid lower bound
    on the supremum norm over the boundary: crude as a norm, but exactly
    what a "is this identically zero" test needs.

    Grid points that hit a pole are skipped (the pole rule of the module
    docstring, with ``tol`` as the threshold when it is positive).  All
    the randomness comes from ``rng`` (an int seed or a generator; the
    default is a fixed seed, making the scan deterministic).

    Raises
    ------
    PoleEvaluationError
        If every grid point sits on a pole, or the shift point
        :data:`~nullrank.core.PROBE_POINT` of the factorization does.
    ValueError
        If the response is not finite at a kept grid point (it overflows),
        so that no overflow can pass for a zero gain.
    """
    rng = np.random.default_rng(0 if rng is None else rng)
    grid = _boundary_grid(sys, rng)
    if sys.n == 0:
        return float(np.linalg.svd(sys.D, compute_uv=False)[0]) if sys.D.size else 0.0
    # A response that overflows is refused below; numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        lu, piv, _ = dgetrf(sys.A - PROBE_POINT * sys.E, overwrite_a=True)
        if not _off_pole(sys, np.abs(np.diag(lu)), 0.0):
            raise PoleEvaluationError(
                f"the scan's shift point sigma = {PROBE_POINT} makes A - sigma*E numerically singular: "
                "a pole there, a singular pencil, or A and E scaled far from the remapping's unit block"
            )
        S, U = scipy.linalg.schur(dgetrs(lu, piv, sys.E)[0], output="real", overwrite_a=True)
        qt = _QuasiTriangular(S)
        mu = grid - PROBE_POINT
        kept = grid[_off_pole(sys, qt.pivots(1.0 / mu) * np.abs(mu)[:, None], tol)]
        if kept.size == 0:
            raise PoleEvaluationError("every grid point lies on a pole")
        if sys.p == 0 or sys.m == 0:
            return 0.0
        UPB = U.T @ dgetrs(lu, piv, sys.B)[0]
        step = max(1, _CHUNK_BYTES // (16 * sys.n * sys.m))
        best = 0.0
        for start in range(0, kept.size, step):
            X = _refined_solve(sys, lu, piv, qt, U, UPB, kept[start : start + step])
            G = _apply(sys.C, X) + sys.D[:, None, :]
            gains = np.linalg.svd(G.transpose(1, 0, 2), compute_uv=False)[:, 0]
            if not np.isfinite(gains).all():
                raise ValueError("the response is not finite at a grid point")
            best = max(best, float(gains.max()))
    return best
