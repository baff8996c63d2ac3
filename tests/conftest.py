"""Shared fixtures and generators for the test suite."""

import os

# One BLAS thread, set before numpy loads BLAS.  perfbench/threads.py measured
# two threads 1.8-2.5x slower on these small matrices, with no verdict change.
# A value the caller already exported still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from nullrank import CONTINUOUS, DISCRETE, DescriptorSystem


def random_system(rng, n=None, m=None, p=None, timing=CONTINUOUS):
    """A dense random realization with generically nonsingular E."""
    if n is None:
        n = int(rng.integers(1, 9))
    if m is None:
        m = int(rng.integers(1, 4))
    if p is None:
        p = int(rng.integers(1, 4))
    return DescriptorSystem(
        rng.standard_normal((n, n)),
        rng.standard_normal((n, n)),
        rng.standard_normal((n, m)),
        rng.standard_normal((p, n)),
        rng.standard_normal((p, m)),
        timing,
    )


def haar_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def system_with_nondynamic_modes(rng, r, w, m=2, p=2):
    """Order r+w realization whose trailing w states are purely algebraic.

    Built in split coordinates (E = diag(E11, 0), A22 invertible) and then
    scrambled by random orthogonal transforms on both sides.
    """
    n = r + w
    E = np.zeros((n, n))
    E[:r, :r] = rng.standard_normal((r, r)) + 3.0 * np.eye(r)
    A = rng.standard_normal((n, n))
    A[r:, r:] += 3.0 * np.eye(w)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    Q = haar_orthogonal(rng, n)
    Z = haar_orthogonal(rng, n)
    return DescriptorSystem(Q @ A @ Z, Q @ E @ Z, Q @ B, C @ Z, D)


@pytest.fixture
def rng():
    return np.random.default_rng(709)
