"""Generalized state-space (descriptor) realizations and their algebra.

A realization bundles five real matrices ``(A, E, B, C, D)`` where
``A - lam*E`` is a square pencil of order ``n``, together with a timing
flag that selects the frequency variable: the Laplace variable ``s``
for continuous-time systems or the Z-transform variable ``z`` for
discrete-time ones.  The rational matrix represented is::

    G(lam) = C (lam*E - A)^-1 B + D

``E`` may be singular, the realization need not be minimal, and ``n = 0``
(a purely static gain ``D``) is legal.  Regularity of the pole pencil,
``det(A - lam*E)`` not identically zero, is required by most downstream
operations but deliberately not enforced at construction time.

The change of variable ``lam = g(delta) = (a*delta + b) / (c*delta + d)``
augments the order by the number of inputs:

    A~ = [ d*A - b*E   d*B ]     E~ = [ a*E - c*A   -c*B ]
         [     0        -I  ]          [     0         0  ]

    B~ = [ 0 ]   C~ = [ C  D ]   D~ = 0
         [ I ]

which satisfies ``C~ (delta*E~ - A~)^-1 B~ = G(g(delta))`` identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels
from .errors import ShapeError

__all__ = [
    "BilinearMap",
    "CONTINUOUS",
    "DISCRETE",
    "DescriptorSystem",
    "LinearPencil",
    "PROBE_POINT",
    "bilinear",
    "conjugate",
    "is_regular",
    "make_system",
    "subtract",
    "transpose",
]

CONTINUOUS = "continuous"
DISCRETE = "discrete"
_TIMINGS = (CONTINUOUS, DISCRETE)

# The one fixed pseudo-random real point where the pencil is probed
# (:func:`is_regular`) and factored (``analysis.peak_gain``), about 0.1379.
PROBE_POINT = float(np.random.default_rng(0x5EED).uniform(0.0, 1.0))


def _as_matrix(value, name):
    """Coerce ``value`` to a real 2-D array, naming the offender on failure."""
    try:
        mat = np.array(value, dtype=float, copy=True)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} is not a real matrix: {exc}") from None
    if mat.ndim == 0:
        mat = mat.reshape(1, 1)
    elif mat.ndim == 1:
        mat = mat.reshape(0, 0) if mat.size == 0 else mat.reshape(1, -1)
    elif mat.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ShapeError(f"{name} contains non-finite entries")
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class DescriptorSystem:
    """Immutable descriptor realization ``(A, E, B, C, D)`` plus timing.

    Attributes
    ----------
    A, E : ndarray
        Square ``n x n`` matrices forming the pole pencil ``A - lam*E``.
    B : ndarray
        Input map, ``n x m``.
    C : ndarray
        Output map, ``p x n``.
    D : ndarray
        Feedthrough, ``p x m``.
    timing : str
        Either ``"continuous"`` or ``"discrete"``.

    The stored arrays are defensive read-only copies; operations always
    return new systems instead of mutating.
    """

    A: np.ndarray
    E: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    timing: str = CONTINUOUS

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        E = _as_matrix(self.E, "E")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        D = _as_matrix(self.D, "D")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ShapeError(f"A must be square, got shape {A.shape}")
        if E.shape != (n, n):
            raise ShapeError(f"E shape {E.shape} does not match A shape {A.shape}")
        if B.shape[0] != n:
            raise ShapeError(f"B row count {B.shape[0]} != n = {n}")
        if C.shape[1] != n:
            raise ShapeError(f"C column count {C.shape[1]} != n = {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ShapeError(
                f"D shape {D.shape} != (p, m) = ({C.shape[0]}, {B.shape[1]})"
            )
        if self.timing not in _TIMINGS:
            raise ValueError(f"timing must be one of {_TIMINGS}, got {self.timing!r}")
        for field, mat in zip("AEBCD", (A, E, B, C, D)):
            object.__setattr__(self, field, mat)

    @property
    def n(self) -> int:
        """State (order) dimension."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Input dimension."""
        return self.B.shape[1]

    @property
    def p(self) -> int:
        """Output dimension."""
        return self.C.shape[0]

    def __repr__(self):
        return (
            f"DescriptorSystem(n={self.n}, m={self.m}, p={self.p}, "
            f"timing={self.timing!r})"
        )


@dataclass(frozen=True)
class LinearPencil:
    """A (possibly rectangular) matrix pencil ``M - lam*N``."""

    M: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        M = _as_matrix(self.M, "M")
        N = _as_matrix(self.N, "N")
        if M.shape != N.shape:
            raise ShapeError(f"M shape {M.shape} != N shape {N.shape}")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)

    @property
    def shape(self):
        return self.M.shape


def make_system(A, E, B, C, D, timing=CONTINUOUS) -> DescriptorSystem:
    """Build a validated descriptor realization.

    Parameters
    ----------
    A, E : array_like
        Square matrices of equal order ``n`` (``n = 0`` is allowed, in
        which case the system is the static gain ``D``).
    B : array_like
        ``n x m`` input matrix.
    C : array_like
        ``p x n`` output matrix.
    D : array_like
        ``p x m`` feedthrough matrix.
    timing : str, optional
        ``"continuous"`` (default) or ``"discrete"``.

    Returns
    -------
    DescriptorSystem

    Raises
    ------
    ShapeError
        If any dimension is inconsistent; the message names the matrix.

    Notes
    -----
    Regularity of ``A - lam*E`` is *not* checked here; use
    :func:`is_regular` when it matters.
    """
    return DescriptorSystem(A, E, B, C, D, timing)


def is_regular(sys: DescriptorSystem, tol: float = 0.0) -> bool:
    """Probabilistically test regularity of the pole pencil.

    Evaluates the pencil at the fixed pseudo-random real point
    :data:`PROBE_POINT` and reports ``True`` when it has full rank there
    at the given tolerance.
    A pencil with ``det(A - lam*E)`` identically zero is rank deficient at
    every point, so one point decides it; a regular pencil can only be
    misjudged if the point happens to hit an eigenvalue, which has
    probability zero, and every further point could only add such a
    false "singular".

    Order zero counts as regular.
    """
    return kernels.rank_svd(sys.A - PROBE_POINT * sys.E, tol) == sys.n


@dataclass(frozen=True)
class BilinearMap:
    """First-order rational change of frequency variable.

    Represents ``g(delta) = (a*delta + b) / (c*delta + d)`` with real
    coefficients and nonzero determinant ``a*d - b*c`` (checked at
    construction), so the map is invertible on the Riemann sphere.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.a * self.d - self.b * self.c == 0.0:
            raise ValueError("degenerate map: a*d - b*c = 0")

    def apply(self, delta):
        """Evaluate ``g(delta)``."""
        return (self.a * delta + self.b) / (self.c * delta + self.d)


def bilinear(sys: DescriptorSystem, bmap: BilinearMap) -> DescriptorSystem:
    """Substitute ``lam = g(delta)`` into a realization.

    Returns the order-``n + m`` realization from the module docstring, in
    the new variable ``delta``, whose point evaluations satisfy
    ``evalfr(result, d0) == evalfr(sys, g(d0))`` wherever both sides are
    defined.  The timing flag is carried over unchanged; it is up to the
    caller to interpret the new variable.  Static systems (``n = 0``) are
    returned unchanged since a change of variable does not affect a
    constant.
    """
    a, b, c, d = bmap.a, bmap.b, bmap.c, bmap.d
    n, m = sys.n, sys.m
    if n == 0:
        return sys
    At = np.block(
        [[d * sys.A - b * sys.E, d * sys.B], [np.zeros((m, n)), -np.eye(m)]]
    )
    Et = np.block(
        [[a * sys.E - c * sys.A, -c * sys.B], [np.zeros((m, n + m))]]
    )
    Bt = np.vstack([np.zeros((n, m)), np.eye(m)])
    Ct = np.hstack([sys.C, sys.D])
    Dt = np.zeros((sys.p, m))
    return DescriptorSystem(At, Et, Bt, Ct, Dt, sys.timing)


def subtract(left: DescriptorSystem, right: DescriptorSystem) -> DescriptorSystem:
    """Realize the difference of two systems.

    The result represents ``G_left(lam) - G_right(lam)`` on the combined
    state space: pole pencils are stacked block-diagonally, the inputs
    are shared and the second output path enters with a sign flip.  The
    order is the sum of the operand orders; no cancellation is attempted.

    Raises
    ------
    ShapeError
        If the input or output dimensions differ.
    ValueError
        If the timings differ.
    """
    if left.m != right.m or left.p != right.p:
        raise ShapeError(
            f"dimension mismatch: ({left.p} x {left.m}) vs ({right.p} x {right.m})"
        )
    if left.timing != right.timing:
        raise ValueError(f"timing mismatch: {left.timing} vs {right.timing}")
    A = scipy.linalg.block_diag(left.A, right.A)
    E = scipy.linalg.block_diag(left.E, right.E)
    B = np.vstack([left.B, right.B])
    C = np.hstack([left.C, -right.C])
    D = left.D - right.D
    return DescriptorSystem(A, E, B, C, D, left.timing)


def transpose(sys: DescriptorSystem) -> DescriptorSystem:
    """Realize the transposed rational matrix ``G(lam)^T``.

    Swaps the roles of inputs and outputs: the result has realization
    ``(A^T, E^T, C^T, B^T, D^T)`` with ``m`` and ``p`` interchanged and
    the same order and timing.
    """
    return DescriptorSystem(
        sys.A.T, sys.E.T, sys.C.T, sys.B.T, sys.D.T, sys.timing
    )


def conjugate(sys: DescriptorSystem) -> DescriptorSystem:
    """Realize the conjugate system ``G(z)~ = G(1/z)^T`` of a discrete system.

    Implemented as the substitution ``z -> 1/z`` applied to the transposed
    realization, which augments the order by the number of outputs of the
    original system (the inputs of the transpose), so the result has order
    ``n + p``.

    Raises
    ------
    ValueError
        If the system is continuous-time; the substitution implemented
        here is the discrete-time one.
    """
    if sys.timing != DISCRETE:
        raise ValueError("conjugate is only defined for discrete-time systems")
    return bilinear(transpose(sys), BilinearMap(0.0, 1.0, 1.0, 0.0))
