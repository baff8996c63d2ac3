"""Five independent tests for whether a rational matrix is identically zero.

Each ``method*`` function takes a realization and returns a
:class:`MethodResult` with the verdict, the numeric evidence it was based
on, and the wall time spent.  The methods trade reliability against cost
in different ways:

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
:func:`check_nullrank` runs any subset and collects the results.
"""

from __future__ import annotations

import math
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
    "FrequencySampleSet",
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
        Wall-clock seconds spent inside the method.
    diagnostics : str
        Empty on a clean run; otherwise a short note on what went wrong
        (a failed reduction, an unusable sample, ...).
    """

    method: int
    is_null: bool
    evidence: dict
    elapsed: float
    diagnostics: str = ""


@dataclass(frozen=True)
class FrequencySampleSet:
    """An explicit, reproducible set of evaluation points.

    ``values`` holds the points; ``seed`` records where they came from so
    follow-up draws (e.g. to step off a pole) stay deterministic.  An
    empty ``values`` raises ``ValueError``: a rank over no samples is no
    evidence.
    """

    values: tuple
    seed: int

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("FrequencySampleSet needs at least one point")


def draw_frequencies(seed: int, count: int = 1) -> FrequencySampleSet:
    """Draw evaluation points uniform on ``(0, 1)``, one at a time.

    Drawing ``count=k`` gives the same leading points as ``count=k-1``
    with the same seed, so enlarging a sample set refines rather than
    reshuffles it.  Other points (on the unit circle, say) go to methods
    4 and 5 as an explicit :class:`FrequencySampleSet`.
    """
    values = tuple(np.random.default_rng([seed, i]).uniform() for i in range(count))
    return FrequencySampleSet(values, seed)


def method1_minreal(sys: DescriptorSystem, tol: float = 0.0) -> MethodResult:
    """Zero iff the minimal realization is empty with zero feedthrough."""
    start = time.perf_counter()
    try:
        reduced, report = minimal_realization(sys, tol)
    except (ReductionError, np.linalg.LinAlgError) as exc:
        return MethodResult(
            1, False, {}, time.perf_counter() - start, f"stage failure: {exc}"
        )
    rank_d = rank_svd(reduced.D, tol)
    verdict = report.final_order == 0 and rank_d == 0
    evidence = {"final_order": report.final_order, "rank_d": rank_d}
    return MethodResult(1, verdict, evidence, time.perf_counter() - start)


def method2_norm(sys: DescriptorSystem, tol: float = 0.0, rng=None) -> MethodResult:
    """Zero iff the peak boundary gain vanishes after a random remapping.

    A random change of frequency variable almost surely moves every pole
    off the stability boundary, making the grid scan of
    :func:`~nullrank.analysis.peak_gain` well defined.  One map is drawn and
    probed for regularity once: a map with ``a*d - b*c != 0`` keeps a
    regular pencil regular, so a redraw could only repeat a failed probe.
    The map and the scan draw from ``rng`` (an int seed or a generator;
    the default is a fixed seed, so repeated calls agree).
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0 if rng is None else rng)
    mapped = bilinear(sys, random_bilinear_map(rng))
    if not is_regular(mapped, tol):
        note = "is_regular probe failed on the remapped pencil"
        return MethodResult(2, False, {}, time.perf_counter() - start, note)
    try:
        gain = peak_gain(mapped, tol, rng=rng)
    except PoleEvaluationError as exc:
        return MethodResult(2, False, {}, time.perf_counter() - start, str(exc))
    thresh = tol if tol > 0.0 else math.sqrt(EPS)
    return MethodResult(
        2, gain < thresh, {"peak_gain": gain}, time.perf_counter() - start
    )


def method3_nrank(sys: DescriptorSystem, tol: float = 0.0) -> MethodResult:
    """Zero iff the pencil normal rank exceeds the order by nothing.

    The normal rank of the system pencil equals the order plus the
    normal rank of the rational matrix, so structure extraction on the
    pencil answers the question without any frequency evaluation.
    """
    start = time.perf_counter()
    try:
        structure = kronecker_like(system_pencil(sys), tol)
    except (ReductionError, np.linalg.LinAlgError) as exc:
        return MethodResult(
            3, False, {}, time.perf_counter() - start, f"structure extraction: {exc}"
        )
    r = pencil_normal_rank(structure) - sys.n
    return MethodResult(
        3, r == 0, {"normal_rank": r}, time.perf_counter() - start
    )


# Tags the redraw streams of method 4 apart from the sampling streams.
_REDRAW_TAG = 0x9A17


def _evaluate_dodging_poles(sys, sample, tol):
    """Evaluate at each sample point, stepping off poles deterministically.

    A point that lands on a pole is replaced by up to five fresh draws
    seeded from the sample set's own seed and the point's index, so two
    points that hit poles get different replacements; a point that stays
    on a pole after that raises :class:`PoleEvaluationError`.
    """
    responses = []
    for index, lam in enumerate(sample.values):
        try:
            responses.append(evalfr(sys, lam, rtol=tol))
            continue
        except PoleEvaluationError:
            pass
        redraw = np.random.default_rng([sample.seed, _REDRAW_TAG, index])
        for cand in redraw.uniform(size=5):
            try:
                responses.append(evalfr(sys, cand, rtol=tol))
                break
            except PoleEvaluationError:
                continue
        else:
            raise PoleEvaluationError("could not find non-pole frequency")
    return responses


def method4_freq(sys: DescriptorSystem, tol: float = 0.0, samples: FrequencySampleSet | None = None) -> MethodResult:
    """Zero iff the response has rank zero at random frequency points."""
    start = time.perf_counter()
    if samples is None:
        samples = draw_frequencies(0)
    try:
        responses = _evaluate_dodging_poles(sys, samples, tol)
    except PoleEvaluationError as exc:
        return MethodResult(4, False, {}, time.perf_counter() - start, str(exc))
    r = max(rank_svd(resp, tol) for resp in responses)
    evidence = {"estimated_rank": r, "samples": len(samples.values)}
    return MethodResult(4, r == 0, evidence, time.perf_counter() - start)


def method5_pencil(sys: DescriptorSystem, tol: float = 0.0, samples: FrequencySampleSet | None = None) -> MethodResult:
    """Zero iff sampled system-pencil ranks stay at the order.

    Evaluates ``rank(M - lam*N) - n`` at random points of the system
    pencil ``(M, N)``.  Unlike a response evaluation this needs no
    inversion, so it has no poles to dodge and remains meaningful even
    at ``tol = 0``.
    """
    start = time.perf_counter()
    if samples is None:
        samples = draw_frequencies(0)
    pencil = system_pencil(sys)
    r = max(
        rank_svd(pencil.M - lam * pencil.N, tol) - sys.n
        for lam in samples.values
    )
    evidence = {"estimated_rank": r, "samples": len(samples.values)}
    return MethodResult(5, r == 0, evidence, time.perf_counter() - start)


# Method k as fn(sys, tol, subseed, sample_count).
_METHODS = {
    1: lambda sys, tol, seed, count: method1_minreal(sys, tol),
    2: lambda sys, tol, seed, count: method2_norm(sys, tol, rng=seed),
    3: lambda sys, tol, seed, count: method3_nrank(sys, tol),
    4: lambda sys, tol, seed, count: method4_freq(sys, tol, draw_frequencies(seed, count)),
    5: lambda sys, tol, seed, count: method5_pencil(sys, tol, draw_frequencies(seed, count)),
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
        Rank/gain threshold shared by all methods.
    seed : int, optional
        Master seed; each method derives its own stream from it, so
        adding or removing one method never perturbs the others.
    sample_count : int, optional
        Size of the sample sets for methods 4 and 5, at least 1.

    Returns
    -------
    list of MethodResult
        One entry per requested method.  A method that raises is
        reported as ``is_null=False`` with the error in ``diagnostics``
        rather than aborting the sweep.
    """
    requested = sorted(set(methods))
    if not requested or not set(requested) <= set(_METHODS):
        raise ValueError(f"methods must be a non-empty subset of 1..5, got {methods!r}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count!r}")
    results = []
    for k in requested:
        start = time.perf_counter()
        try:
            res = _METHODS[k](sys, tol, seed * 8 + k, sample_count)
        except Exception as exc:  # pragma: no cover - defensive catch-all
            res = MethodResult(
                k, False, {}, time.perf_counter() - start, f"error: {exc}"
            )
        results.append(res)
    return results
