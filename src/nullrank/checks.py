"""Five independent tests for whether a rational matrix is identically zero.

Each ``method*`` function takes a realization and returns the pair
``(is_null, evidence)``: the verdict and the numbers it was based on.  A
method that cannot decide raises.  The methods trade reliability against
cost in different ways:

1. reduce to a minimal realization and inspect what is left;
2. map the frequency variable so the poles move off the stability
   boundary, then measure the peak boundary gain;
3. compute the normal rank of the system pencil by unitary structure
   extraction and subtract the order;
4. measure the rank of the response at random frequency points;
5. measure the rank of the shifted system pencil at random points and
   subtract the order.

Methods 4 and 5 are sampling-based: they evaluate at points drawn from a
continuous distribution, so a nonzero matrix is detected with probability
one while the cost stays at a handful of dense decompositions.
:func:`check_nullrank` runs any subset and is the one place that builds a
:class:`MethodResult`: it times each method and turns an error into a
not-null verdict with the error in ``diagnostics``.

Every random draw comes from an integer ``seed``.  Method 2 draws its map
and scan points from ``default_rng(seed)``.  Methods 4 and 5 read the
point streams of :func:`draw_frequencies`: row ``i`` comes from the
generator seeded with ``[seed, i]``, its first draw is sample point ``i``
and its next five are the points method 4 tries, in order, when point
``i`` is a pole; method 5 reads only the first draw of each row.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .analysis import evalfr, peak_gain, random_bilinear_map
from .core import DescriptorSystem, bilinear, is_regular
from .errors import PoleEvaluationError, ReductionError
from .kernels import EPS, rank_svd
from .reductions import (
    kronecker_like,
    minimal_realization,
    pencil_normal_rank,
    system_pencil,
)

__all__ = [
    "MethodResult",
    "check_nullrank",
    "draw_frequencies",
    "method1_minreal",
    "method2_norm",
    "method3_nrank",
    "method4_freq",
    "method5_pencil",
]


@dataclass(frozen=True)
class MethodResult:
    """Outcome of one zero-ness test.

    Attributes
    ----------
    method : int
        Which test produced this (1 through 5).
    is_null : bool
        The verdict: True means "identically zero as far as this test
        can tell".
    evidence : dict
        Method-specific numbers the verdict was derived from (final
        order, peak gain, estimated rank, ...).
    elapsed : float
        Wall-clock seconds :func:`check_nullrank` spent on the method.
    diagnostics : str
        Empty on a clean run; otherwise the error the method raised, as
        ``"<type>: <message>"`` (``"ReductionError: pole pencil is
        numerically singular"``, say).
    """

    method: int
    is_null: bool
    evidence: dict
    elapsed: float
    diagnostics: str = ""


# Draws per point stream: the sample point and five replacements for a pole.
_STREAM = 6


def _integer(value, name, least):
    """``value`` as an ``int`` of at least ``least``; an error naming ``name`` if it is not one."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return value


def draw_frequencies(seed: int, count: int = 1) -> np.ndarray:
    """The ``count x 6`` point streams of methods 4 and 5, uniform on ``(0, 1)``.

    Row ``i`` holds the first six draws of the generator seeded with
    ``[seed, i]``, so a larger ``count`` adds rows and keeps the leading
    ones.  A ``seed`` below 0 or a ``count`` below 1 (a rank over no
    samples is no evidence) raises ``ValueError``.
    """
    seed, count = _integer(seed, "seed", 0), _integer(count, "count", 1)
    return np.array([np.random.default_rng([seed, i]).uniform(size=_STREAM) for i in range(count)])


def method1_minreal(sys: DescriptorSystem, tol: float = 0.0) -> tuple[bool, dict]:
    """Zero iff the minimal realization is empty with zero feedthrough."""
    reduced, _ = minimal_realization(sys, tol)
    rank_d = rank_svd(reduced.D, tol)
    return reduced.n == 0 and rank_d == 0, {"final_order": reduced.n, "rank_d": rank_d}


def method2_norm(sys: DescriptorSystem, tol: float = 0.0, seed: int = 0) -> tuple[bool, dict]:
    """Zero iff the peak boundary gain vanishes after a random remapping.

    A random change of frequency variable almost surely moves every pole
    off the stability boundary, making the grid scan of
    :func:`~nullrank.analysis.peak_gain` well defined.  One map is drawn and
    probed for regularity once: a map with ``a*d - b*c != 0`` keeps a
    regular pencil regular, so a redraw could only repeat a failed probe,
    and a failed probe raises :class:`ReductionError`.
    The map and the scan draw from ``default_rng(seed)``.
    """
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    mapped = bilinear(sys, random_bilinear_map(rng))
    if not is_regular(mapped, tol):
        raise ReductionError("is_regular probe failed on the remapped pencil")
    gain = peak_gain(mapped, tol, rng=rng)
    thresh = tol if tol > 0.0 else math.sqrt(EPS)
    return gain < thresh, {"peak_gain": gain}


def _rank_above_order(rank, n):
    """``rank - n`` for a system-pencil rank; a rank below the order ``n``
    means ``tol`` dropped part of the pole pencil, which raises."""
    if rank < n:
        raise ReductionError(f"system pencil rank {rank} is below the order {n}")
    return rank - n


def method3_nrank(sys: DescriptorSystem, tol: float = 0.0) -> tuple[bool, dict]:
    """Zero iff the pencil normal rank exceeds the order by nothing.

    The normal rank of the system pencil equals the order plus the
    normal rank of the rational matrix, so structure extraction on the
    pencil answers the question without any frequency evaluation.
    """
    r = _rank_above_order(pencil_normal_rank(kronecker_like(system_pencil(sys), tol)), sys.n)
    return r == 0, {"normal_rank": r}


def _evaluate_off_poles(sys, stream, tol):
    """The response at the first point of ``stream`` that is not a pole.

    A point that stays on a pole through the whole stream raises
    :class:`PoleEvaluationError`.
    """
    for lam in stream:
        try:
            return evalfr(sys, lam, rtol=tol)
        except PoleEvaluationError:
            continue
    raise PoleEvaluationError("could not find non-pole frequency")


def method4_freq(sys: DescriptorSystem, tol: float = 0.0, seed: int = 0, count: int = 1) -> tuple[bool, dict]:
    """Zero iff the response has rank zero at ``count`` random frequency points."""
    streams = draw_frequencies(seed, count).tolist()  # Python floats iterate faster than numpy scalars
    r = max(rank_svd(_evaluate_off_poles(sys, stream, tol), tol) for stream in streams)
    return r == 0, {"estimated_rank": r, "samples": count}


def method5_pencil(sys: DescriptorSystem, tol: float = 0.0, seed: int = 0, count: int = 1) -> tuple[bool, dict]:
    """Zero iff sampled system-pencil ranks stay at the order.

    Evaluates ``rank(M - lam*N) - n`` at ``count`` random points of the
    system pencil ``(M, N)``.  Unlike a response evaluation this needs no
    inversion, so it has no poles to dodge and remains meaningful even
    at ``tol = 0``.
    """
    points = draw_frequencies(seed, count)[:, 0].tolist()
    pencil = system_pencil(sys)
    r = max(_rank_above_order(rank_svd(pencil.M - lam * pencil.N, tol), sys.n) for lam in points)
    return r == 0, {"estimated_rank": r, "samples": count}


# Method k as fn(sys, tol, subseed, sample_count) -> (is_null, evidence).
_METHODS = {
    1: lambda sys, tol, seed, count: method1_minreal(sys, tol),
    2: lambda sys, tol, seed, count: method2_norm(sys, tol, seed),
    3: lambda sys, tol, seed, count: method3_nrank(sys, tol),
    4: method4_freq,
    5: method5_pencil,
}


def check_nullrank(
    sys: DescriptorSystem,
    methods=(1, 2, 3, 4, 5),
    tol: float = 1e-7,
    seed: int = 0,
    sample_count: int = 1,
) -> list[MethodResult]:
    """Run a subset of the five zero-ness tests on one realization.

    Parameters
    ----------
    sys : DescriptorSystem
    methods : iterable of int
        Which tests to run, from ``{1, 2, 3, 4, 5}``; results come back
        sorted by method number.
    tol : float, optional
        Rank/gain threshold shared by all methods, a finite number of at
        least 0.
    seed : int, optional
        Master seed, at least 0.  Method ``k`` runs with the sub-seed
        ``seed * 8 + k``, so adding or removing one method never perturbs
        the others.
    sample_count : int, optional
        Number of points methods 4 and 5 sample, at least 1.

    Returns
    -------
    list of MethodResult
        One entry per requested method, timed here.  A method that raises
        is reported as ``is_null=False`` with empty evidence and the
        error in ``diagnostics``, as ``"<type>: <message>"``; only an
        invalid argument makes this function raise.
    """
    try:
        entries = list(methods)
    except TypeError:
        raise TypeError(f"methods must be an iterable of integers, got {methods!r}") from None
    requested = sorted({_integer(k, "each of methods", 1) for k in entries})
    if not requested or not set(requested) <= set(_METHODS):
        raise ValueError(f"methods must be a non-empty subset of 1..5, got {methods!r}")
    try:
        finite = math.isfinite(tol)
    except TypeError:
        raise TypeError(f"tol must be a real number, got {tol!r}") from None
    if not (finite and tol >= 0):
        raise ValueError(f"tol must be a finite number of at least 0, got {tol!r}")
    seed, sample_count = _integer(seed, "seed", 0), _integer(sample_count, "sample_count", 1)
    results = []
    for k in requested:
        start = time.perf_counter()
        try:
            is_null, evidence = _METHODS[k](sys, tol, seed * 8 + k, sample_count)
            note = ""
        except Exception as exc:
            is_null, evidence, note = False, {}, f"{type(exc).__name__}: {exc}"
        results.append(MethodResult(k, is_null, evidence, time.perf_counter() - start, note))
    return results
