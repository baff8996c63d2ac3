"""Frequency-domain analysis: point evaluation, random substitution, gain.

The substitution :func:`~nullrank.core.bilinear` lives in :mod:`nullrank.core`
and is importable from here too.

Point evaluation calls LAPACK's ``zgetrf`` and ``zgetrs`` (the routines behind
scipy's ``lu_factor``/``lu_solve``) once per point, without the wrappers'
overhead; :func:`peak_gain` stacks only the ``p x m`` responses for one SVD.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import zgetrf, zgetrs

from .core import BilinearMap, DescriptorSystem, bilinear
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


def _boundary_grid(sys, rng):
    if sys.timing == "discrete":
        theta = np.linspace(0.0, np.pi, GRID_SIZE)
        extra = rng.uniform(0.0, np.pi, size=10)
        return np.exp(1j * np.concatenate([theta, extra]))
    omega = np.concatenate([[0.0], np.logspace(-6.0, 6.0, GRID_SIZE - 1)])
    extra = 10.0 ** rng.uniform(-6.0, 6.0, size=10)
    return 1j * np.concatenate([omega, extra])


def peak_gain(sys: DescriptorSystem, tol: float = 0.0, rng=None):
    """Largest frequency-response gain over a stability-boundary grid.

    Scans the boundary of the stability domain (the imaginary axis for
    continuous systems, the upper unit circle for discrete ones) with
    :data:`GRID_SIZE` points — log-spaced frequencies plus zero, or uniform
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
        for lam in _boundary_grid(sys, rng):
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
