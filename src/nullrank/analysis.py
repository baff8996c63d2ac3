"""Frequency-domain analysis: point evaluation, variable substitution, gain.

The substitution machinery implements the change of variable
``lam = g(delta) = (a*delta + b) / (c*delta + d)`` on a realization.  For
an affine map on a system with nonsingular ``E`` the realization keeps
its order; the general case augments the order by the number of inputs:

    A~ = [ d*A - b*E   d*B ]     E~ = [ a*E - c*A   -c*B ]
         [     0        -I  ]          [     0         0  ]

    B~ = [ 0 ]   C~ = [ C  D ]   D~ = 0
         [ I ]

which satisfies ``C~ (delta*E~ - A~)^-1 B~ = G(g(delta))`` identically.

Point evaluation calls LAPACK's ``zgetrf`` and ``zgetrs`` (the routines behind
scipy's ``lu_factor``/``lu_solve``) once per point, without the wrappers'
overhead; :func:`peak_gain` stacks only the ``p x m`` responses for one SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgetrf, zgetrs

from .core import DescriptorSystem
from .errors import PoleEvaluationError
from .kernels import EPS, rank_svd

__all__ = [
    "BilinearMap",
    "bilinear",
    "evalfr",
    "peak_gain",
    "random_bilinear_map",
]


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

    @property
    def is_affine(self) -> bool:
        return self.c == 0.0

    def apply(self, delta):
        """Evaluate ``g(delta)``."""
        return (self.a * delta + self.b) / (self.c * delta + self.d)


def random_bilinear_map(rng=None, affine: bool = False) -> BilinearMap:
    """Draw a random, well-conditioned change of variable.

    Coefficients are uniform on ``(0, 1)``, redrawn until the determinant
    ``a*d - b*c`` exceeds ``0.1`` in magnitude.  With ``affine=True`` the
    result is constrained to ``c = 0``, ``d = 1``.
    """
    rng = np.random.default_rng(rng)
    while True:
        a, b, c, d = rng.uniform(size=4)
        if affine:
            c, d = 0.0, 1.0
        if abs(a * d - b * c) > 0.1:
            return BilinearMap(float(a), float(b), float(c), float(d))


def _response(sys, B, lam, rtol):
    """``D + C (lam*E - A)^-1 B`` at one point, with ``B`` already complex."""
    if sys.n == 0:
        return sys.D.astype(complex)
    lam = complex(lam)
    T = lam * sys.E - sys.A
    if not np.isfinite(T).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = zgetrf(T, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrf")
    diag = np.abs(np.diag(lu))
    dmax = diag.max()
    cut = rtol if rtol > 0.0 else 16.0 * sys.n * EPS
    if dmax == 0.0 or diag.min() <= cut * dmax:
        raise PoleEvaluationError(f"evaluation at a pole (lam = {lam})")
    if B.shape[1]:  # zgetrs gets no empty right-hand side
        B = zgetrs(lu, piv, B)[0]
    return sys.D + sys.C @ B


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
    # An infinite or overflowing shift is caught by the finiteness check
    # in _response; numpy need not warn while forming it.
    with np.errstate(over="ignore", invalid="ignore"):
        return _response(sys, sys.B.astype(complex), lam, rtol)


def bilinear(sys: DescriptorSystem, bmap: BilinearMap) -> DescriptorSystem:
    """Substitute ``lam = g(delta)`` into a realization.

    Returns a realization, in the new variable ``delta``, whose point
    evaluations satisfy ``evalfr(result, d0) == evalfr(sys, g(d0))``
    wherever both sides are defined.  The timing flag is carried over
    unchanged; it is up to the caller to interpret the new variable.

    Affine maps (``c = 0``) on systems with nonsingular ``E`` keep the
    order ``n``; every other case uses the augmented order-``n + m``
    form from the module docstring.  Static systems (``n = 0``) are
    returned unchanged since a change of variable does not affect a
    constant.
    """
    a, b, c, d = bmap.a, bmap.b, bmap.c, bmap.d
    n, m = sys.n, sys.m
    if n == 0:
        return sys
    if bmap.is_affine and rank_svd(sys.E) == n:
        # d != 0 is implied by the nonzero determinant when c == 0.
        return DescriptorSystem(
            sys.A - (b / d) * sys.E,
            (a / d) * sys.E,
            sys.B,
            sys.C,
            sys.D,
            sys.timing,
        )
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


def _boundary_grid(sys, grid_size, rng):
    if sys.timing == "discrete":
        theta = np.linspace(0.0, np.pi, grid_size)
        extra = rng.uniform(0.0, np.pi, size=10)
        return np.exp(1j * np.concatenate([theta, extra]))
    omega = np.concatenate([[0.0], np.logspace(-6.0, 6.0, grid_size - 1)])
    extra = 10.0 ** rng.uniform(-6.0, 6.0, size=10)
    return 1j * np.concatenate([omega, extra])


def peak_gain(sys: DescriptorSystem, tol: float = 0.0, grid_size: int = 200, rng=None):
    """Largest frequency-response gain over a stability-boundary grid.

    Scans the boundary of the stability domain (the imaginary axis for
    continuous systems, the upper unit circle for discrete ones) with
    ``grid_size`` points — log-spaced frequencies plus zero, or uniform
    angles — plus ten random boundary points, and returns the maximum
    largest singular value of the response.  This is a grid lower bound
    on the supremum norm over the boundary: crude as a norm, but exactly
    what a "is this identically zero" test needs.

    Grid points that hit a pole are skipped; ``tol`` (when positive) is
    forwarded as the singularity threshold of the evaluations.  All the
    randomness comes from ``rng`` (an int seed or a generator; the
    default is a fixed seed, making the scan deterministic).

    Raises
    ------
    PoleEvaluationError
        If every grid point sits on a pole.
    """
    rng = np.random.default_rng(0 if rng is None else rng)
    B = sys.B.astype(complex)
    responses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lam in _boundary_grid(sys, grid_size, rng):
            try:
                responses.append(_response(sys, B, lam, tol))
            except PoleEvaluationError:
                continue
    if not responses:
        raise PoleEvaluationError("every grid point lies on a pole")
    if sys.p == 0 or sys.m == 0:
        return 0.0
    gains = np.linalg.svd(np.stack(responses), compute_uv=False)[:, 0]
    return float(max(gains))
