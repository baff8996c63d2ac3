"""Benchmark harness: random systems, certified-zero cases, report rendering.

The central construction is :func:`build_zero_case`: the conjugate of a
random stable discrete-time system is realized along two different
operation orders (transpose after substitution, and substitution after
transpose), and the two realizations are subtracted.  The difference is
the zero rational matrix by construction, but its realization is badly
non-minimal — it carries uncontrollable and unobservable dynamics plus
non-dynamic modes — which is exactly what makes it a worthwhile stress
case for the five zero-ness tests.

:func:`run_benchmark` sweeps such cases over a list of orders and seeds
and :func:`render_report` formats the outcome as an aligned text table
or as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import evalfr
from .checks import check_nullrank
from .core import CONTINUOUS, DISCRETE, BilinearMap, DescriptorSystem, bilinear, conjugate, subtract, transpose

__all__ = [
    "BenchRow",
    "GeneratorSpec",
    "build_zero_case",
    "method_totals",
    "random_stable_system",
    "render_report",
    "run_benchmark",
]


# Every eigenvalue modulus of a random stable system stays below this.
_SPECTRAL_MARGIN = 0.95


@dataclass(frozen=True)
class GeneratorSpec:
    """Dimensions, timing and seed for the random generator."""

    n: int
    p: int
    m: int
    timing: str = DISCRETE
    seed: int = 0

    def __post_init__(self):
        if min(self.n, self.p, self.m) < 0:
            raise ValueError("dimensions must be nonnegative")
        if self.timing not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"bad timing {self.timing!r}")


def _haar_orthogonal(rng, n):
    """Random orthogonal matrix, uniform w.r.t. Haar measure."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(R))
    signs[signs == 0.0] = 1.0
    return Q * signs


def random_stable_system(spec: GeneratorSpec) -> DescriptorSystem:
    """Draw a random system with all eigenvalue moduli below ``margin = 0.95``.

    ``A`` is an orthogonal similarity of a real block-diagonal matrix
    whose 1x1 blocks are uniform in ``(-margin, margin)`` and whose 2x2
    blocks are scaled rotations with modulus uniform in ``(0, margin)``
    (each block contributing a random complex-conjugate eigenvalue
    pair).  ``E`` is the identity and ``B``, ``C``, ``D`` have
    standard-normal entries, so the realization is generically minimal.
    For discrete timing the modulus bound makes the system stable.
    """
    rng = np.random.default_rng(spec.seed)
    n, margin = spec.n, _SPECTRAL_MARGIN
    H = np.zeros((n, n))
    k = 0
    while k < n:
        if n - k == 1 or rng.uniform() < 0.5:
            H[k, k] = rng.uniform(-margin, margin)
            k += 1
        else:
            rho = rng.uniform(0.0, margin)
            theta = rng.uniform(0.0, np.pi)
            co, si = rho * np.cos(theta), rho * np.sin(theta)
            H[k : k + 2, k : k + 2] = [[co, si], [-si, co]]
            k += 2
    Q = _haar_orthogonal(rng, n)
    return DescriptorSystem(
        Q @ H @ Q.T,
        np.eye(n),
        rng.standard_normal((n, spec.m)),
        rng.standard_normal((spec.p, n)),
        rng.standard_normal((spec.p, spec.m)),
        spec.timing,
    )


def build_zero_case(n: int, seed: int) -> DescriptorSystem:
    """Construct a certified-zero rational matrix with a messy realization.

    Draws a random stable discrete-time system ``R`` (2 outputs, 3
    inputs, order ``n``) and forms its conjugate — transpose composed
    with the substitution ``z -> 1/z`` — along both operation orders.
    The two results realize the same 3x2 rational matrix, so their
    difference is identically zero; the combined realization, though,
    is non-minimal by construction (shared dynamics appear once
    uncontrollably and once unobservably, and the substitutions add
    non-dynamic modes).

    The output is spot-checked by evaluation at three random points
    inside the unit disc before being returned; a nonzero residual
    raises ``RuntimeError``, so a corrupted construction can never leak
    into benchmark statistics.
    """
    R = random_stable_system(GeneratorSpec(n, 2, 3, DISCRETE, seed))
    flip = BilinearMap(0.0, 1.0, 1.0, 0.0)
    path_a = transpose(bilinear(R, flip))
    path_b = conjugate(R)
    case = subtract(path_a, path_b)
    probe = np.random.default_rng([seed, 0xD1FF])
    for z in probe.uniform(0.1, 0.9, size=3):
        value = evalfr(case, z)
        scale = max(1.0, np.linalg.norm(evalfr(path_a, z)))
        if np.linalg.norm(value) > 1e-8 * scale:
            raise RuntimeError(
                f"zero-case construction failed its spot check at z = {z}"
            )
    return case


@dataclass(frozen=True)
class BenchRow:
    """One benchmark case: requested order, actual order, and outcomes.

    ``decisions`` and ``timings`` have five slots indexed by method
    number; a case that could not be built holds ``None`` and ``0.0``.
    ``N`` is the order of the constructed case (at least ``2 n``, being
    a difference of two order-at-least-``n`` realizations).
    """

    n: int
    N: int
    seed: int
    decisions: tuple
    timings: tuple
    diagnostics: tuple = ()


def run_benchmark(
    orders, tol: float = 1e-7, seeds_per_order: int = 10
) -> list[BenchRow]:
    """Sweep the zero-ness tests over certified-zero cases.

    For every order in ``orders`` and every seed in
    ``range(seeds_per_order)`` this builds a zero case and runs all five
    methods on it at tolerance ``tol``.  Rows come back ordered by
    ``(n, seed)``.  A failure — in construction or inside a
    method — is recorded in the row's diagnostics and the sweep moves
    on; it never aborts.  Decisions are deterministic in
    ``(orders, tol, seeds_per_order)``; timings are wall-clock.
    """
    orders = sorted(orders)
    if not orders:
        raise ValueError("orders must be nonempty")
    rows = []
    for n in orders:
        for seed in range(seeds_per_order):
            try:
                case = build_zero_case(n, seed)
            except Exception as exc:
                rows.append(
                    BenchRow(
                        n,
                        0,
                        seed,
                        (None,) * 5,
                        (0.0,) * 5,
                        (f"construction: {exc}",),
                    )
                )
                continue
            results = check_nullrank(case, tol=tol, seed=seed)
            decisions = tuple(res.is_null for res in results)
            timings = tuple(res.elapsed for res in results)
            notes = tuple(
                f"M{res.method}: {res.diagnostics}" for res in results if res.diagnostics
            )
            rows.append(BenchRow(n, case.n, seed, decisions, timings, notes))
    return rows


def method_totals(rows) -> tuple:
    """Total elapsed seconds per method across rows (``None`` if never run)."""
    totals = [None] * 5
    for row in rows:
        for k in range(5):
            if row.decisions[k] is not None:
                totals[k] = (totals[k] or 0.0) + row.timings[k]
    return tuple(totals)


def _decision_cell(rows, k):
    votes = [row.decisions[k] for row in rows if row.decisions[k] is not None]
    if not votes:
        return "-"
    hits = sum(votes)
    if hits == len(votes):
        return "1"
    if hits == 0:
        return "0"
    return f"{hits}/{len(votes)}"


def _render_text(rows):
    header = (
        f"{'order':>6}  {'actual':>6}  {'cases':>5}  "
        + "  ".join(f"{f'M{k}':>5}" for k in range(1, 6))
    )
    rule = f"{'-' * 6}  {'-' * 6}  {'-' * 5}  " + "  ".join(["-" * 5] * 5)
    lines = [header, rule]
    if not rows:
        return "\n".join(lines) + "\n"
    for n in sorted({row.n for row in rows}):
        group = [row for row in rows if row.n == n]
        actual = "/".join(str(N) for N in sorted({row.N for row in group}))
        cells = "  ".join(f"{_decision_cell(group, k):>5}" for k in range(5))
        lines.append(f"{n:>6}  {actual:>6}  {len(group):>5}  {cells}")
    lines.append("")
    lines.append(f"totals over {len(rows)} cases, seconds")
    for k, total in enumerate(method_totals(rows), start=1):
        lines.append(f"    M{k}  {'-' if total is None else format(total, '.6f')}")
    notes = [
        f"    n={row.n} seed={row.seed}  {note}"
        for row in rows
        for note in row.diagnostics
    ]
    if notes:
        lines.append("")
        lines.append("notes")
        lines.extend(notes)
    return "\n".join(lines) + "\n"


def _render_csv(rows):
    lines = ["n,N,seed,m1,m2,m3,m4,m5,t1,t2,t3,t4,t5"]
    for row in rows:
        marks = ["" if d is None else str(int(d)) for d in row.decisions]
        times = [
            "" if d is None else format(t, ".6f")
            for d, t in zip(row.decisions, row.timings)
        ]
        lines.append(",".join([str(row.n), str(row.N), str(row.seed), *marks, *times]))
    return "\n".join(lines) + "\n"


def render_report(rows, format: str = "text") -> str:
    """Format benchmark rows as an aligned text table or as CSV.

    The text layout groups rows by order: a decision column shows ``1``
    or ``0`` when the seeds were unanimous and ``k/s`` otherwise, with
    ``-`` for methods that were not run, followed by per-method total
    times and any diagnostics.  The CSV layout is one line per row with
    columns ``n,N,seed,m1..m5,t1..t5`` (times in seconds, 6 decimals).
    """
    if format == "text":
        return _render_text(rows)
    if format == "csv":
        return _render_csv(rows)
    raise ValueError(f"unknown format {format!r}")
