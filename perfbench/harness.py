"""Workloads, certificates and timed passes of the nullrank benchmark.

A workload is a list of cases drawn from the workload seed.  Every case
carries a certificate of its right verdict: a certified-zero case from
``bench.build_zero_case`` (spot-checked there) must be judged null, a
difference of two independent random stable systems must not.  Before any
timing starts each case is certified again from outside: nonzero cases
must show a response above ``NONZERO_FLOOR`` at seeded probe points, and
every case must survive a ``dssfile`` write/read round trip bit-exactly.
A case that fails aborts the run with :class:`CertificateError`.

A pass asks every method for a verdict on every case, one call
``check_nullrank(case, (k,), tol=TOL, seed=case_seed)`` per verdict; the
sub-seed of method ``k`` depends only on ``k``, so this gives the same
verdicts as one combined call.  Each call is timed from outside.

This module imports only the standard library at the top: numpy, scipy
and nullrank are first imported inside :func:`setup`, so that their
import is part of the measured set-up time.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOL = 1e-7
METHODS = (1, 2, 3, 4, 5)
NONZERO_FLOOR = 1e-6
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)

# Workload -> (kind of case, ((order, cases per pass), ...)).  Order ``n``
# with ``c`` cases uses case seeds ``c*seed .. c*seed + c - 1``, so seed 0
# of ``zero_sweep`` is exactly the acceptance suite's seeds 0-9.
WORKLOADS = {
    # Many small calls; the M2 grid scan dominates and the staircases do
    # almost no work.  Carries the criterion-1 tally.
    "zero_sweep": ("zero", ((1, 10), (2, 10), (3, 10), (5, 10), (10, 10), (20, 10))),
    # Order 100 (N = 205) and 200 (N = 405): the O(n^4) reductions of M1
    # and M3 dominate.
    "zero_large": ("zero", ((100, 2), (200, 2))),
    # Right verdict "not null": the staircases walk the full reachable part
    # and deflate little; over-deflation shows as a wrong acceptance.
    "nonzero_mixed": ("nonzero", ((5, 5), (20, 5), (100, 3))),
}

# The structural methods M1 and M3 reject some certified-zero cases; those
# wrong verdicts are their known limits.  Any other wrong verdict makes a
# run incorrect, and so does one of M1 or M3 that ``known_wrong.json`` does
# not list for a seed it covers (see ``known_wrong.py``).
LIMITED_ON_ZERO = (1, 3)
KNOWN_WRONG = Path(__file__).with_name("known_wrong.json")


class CertificateError(RuntimeError):
    """A generated case does not carry the verdict it was built for."""


@dataclass(frozen=True)
class Case:
    id: str
    kind: str
    n: int
    seed: int
    system: object = field(repr=False)

    @property
    def is_null(self) -> bool:
        return self.kind == "zero"


@dataclass
class Pass:
    wall: float
    method_s: list
    verdicts: dict
    diagnostics: dict


def import_nullrank():
    """Import nullrank from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "nullrank" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"nullrank sources not found at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nr = importlib.import_module("nullrank")
    if Path(nr.__file__).resolve() != init.resolve():
        raise ImportError(f"imported nullrank from {nr.__file__}, expected {init}")
    return nr


def case_plan(workload, seed):
    """``(kind, order, case_seed)`` for every case of a workload."""
    kind, orders = WORKLOADS[workload]
    return [
        (kind, n, case_seed)
        for n, count in orders
        for case_seed in range(count * seed, count * seed + count)
    ]


def case_id(kind, n, case_seed):
    return f"{'z' if kind == 'zero' else 'd'}{n}s{case_seed}"


def build_case(nr, kind, n, case_seed):
    if kind == "zero":
        try:
            system = nr.bench.build_zero_case(n, case_seed)
        except RuntimeError as exc:
            raise CertificateError(f"zero case n={n} seed={case_seed}: {exc}") from None
        return Case(case_id(kind, n, case_seed), kind, n, case_seed, system)
    spec = nr.bench.GeneratorSpec
    left = nr.bench.random_stable_system(spec(n, 2, 3, nr.DISCRETE, seed=case_seed))
    right = nr.bench.random_stable_system(spec(n, 2, 3, nr.DISCRETE, seed=10_000 + case_seed))
    system = nr.core.subtract(nr.core.conjugate(left), nr.core.conjugate(right))
    return Case(case_id(kind, n, case_seed), kind, n, case_seed, system)


def certify(nr, case):
    """Check a case's certificate from outside; raise CertificateError."""
    import numpy as np

    if not case.is_null:
        probes = np.random.default_rng([case.seed, 0xCE27]).uniform(0.1, 0.9, size=3)
        for z in probes:
            value = np.linalg.norm(nr.analysis.evalfr(case.system, z))
            if not value > NONZERO_FLOOR:
                raise CertificateError(
                    f"nonzero case {case.id}: |G({z})| = {value:.3e} is not above {NONZERO_FLOOR}"
                )
    back = nr.dssfile.loads_system(nr.dssfile.dumps_system(case.system))
    same = back.timing == case.system.timing and all(
        np.array_equal(getattr(case.system, name).view(np.uint64), getattr(back, name).view(np.uint64))
        for name in "AEBCD"
    )
    if not same:
        raise CertificateError(f"case {case.id}: dssfile round trip is not bit-exact")


def build_cases(nr, workload, seed):
    cases = [build_case(nr, *entry) for entry in case_plan(workload, seed)]
    for case in cases:
        certify(nr, case)
    return cases


def setup(workload, seed):
    """Import nullrank, build and certify a workload; return (nr, cases, s)."""
    start = time.perf_counter()
    nr = import_nullrank()
    cases = build_cases(nr, workload, seed)
    return nr, cases, time.perf_counter() - start


def probe_setup(workload, seed):
    """Time one set-up in a fresh interpreter, so imports are paid again."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe_setup.py")), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_pass(nr, cases, tracer=None):
    """One verdict per (method, case), each call timed from outside.

    The cyclic garbage collector is paused during the pass, as ``timeit``
    does, so that a collection does not land inside a short timed call.
    """
    gc.collect()
    gc.disable()
    try:
        return _run_pass(nr, cases, tracer)
    finally:
        gc.enable()


def _run_pass(nr, cases, tracer):
    check = nr.checks.check_nullrank
    method_s = [0.0] * len(METHODS)
    verdicts = {}
    diagnostics = {}
    start = time.perf_counter()
    # Method-major order: the calls of one method run back to back, so the
    # short M4/M5 calls are not timed against caches that an M1 or M3 call
    # on a large case has just flushed.
    for k in METHODS:
        for case in cases:
            span = tracer.span(f"method.m{k}", case.id) if tracer else nullcontext()
            t0 = time.perf_counter()
            with span:
                res = check(case.system, (k,), tol=TOL, seed=case.seed)[0]
            method_s[k - 1] += time.perf_counter() - t0
            verdicts[(case.id, k)] = bool(res.is_null)
            if res.diagnostics:
                diagnostics[(case.id, k)] = res.diagnostics
    return Pass(time.perf_counter() - start, method_s, verdicts, diagnostics)


def timed_passes(nr, cases, seconds):
    """Repeat passes while another one still fits in ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(nr, cases))
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def wrong_verdicts(cases, verdicts):
    """(case id, method) pairs whose verdict contradicts the certificate."""
    expected = {case.id: case.is_null for case in cases}
    return sorted(key for key, verdict in verdicts.items() if verdict != expected[key[0]])


def verdicts_are_acceptable(workload, seed, cases, verdicts):
    """Every wrong verdict is a known limit of M1 or M3 on a zero case.

    Where ``known_wrong.json`` covers the workload seed, the wrong verdict
    must also be listed there.
    """
    known = json.loads(KNOWN_WRONG.read_text(encoding="utf-8")).get(workload)
    listed = None
    if known and known["seeds"][0] <= seed <= known["seeds"][1]:
        listed = set(known["wrong"])
    kinds = {case.id: case.kind for case in cases}
    return all(
        kinds[case_id] == "zero"
        and k in LIMITED_ON_ZERO
        and (listed is None or f"{case_id}:M{k}" in listed)
        for case_id, k in wrong_verdicts(cases, verdicts)
    )


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(cases, passes, setup_s):
    verdicts = passes[0].verdicts
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (statistics.median(len(p.verdicts) / p.wall for p in passes), "1/s"),
        **{
            f"m{k}_s": (statistics.median(p.method_s[k - 1] for p in passes), "s")
            for k in METHODS
        },
        "verdicts_right": (len(verdicts) - len(wrong_verdicts(cases, verdicts)), "count"),
        "max_rss_mb": (max_rss_mb(), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def verdict_tally(cases, verdicts, diagnostics):
    """Wrong verdicts per method, errors, and the wrong (case, method) list."""
    wrong = wrong_verdicts(cases, verdicts)
    tally = {f"m{k}_wrong": sum(1 for _, j in wrong if j == k) for k in METHODS}
    tally["errors"] = len(diagnostics)
    tally["wrong"] = [f"{case_id}:M{k}" for case_id, k in wrong]
    return tally


# Query functions of plain OpenBLAS and of the scipy-openblas builds that
# numpy (64-bit integer interface, ``64_`` suffix) and scipy ship.
OPENBLAS_SYMBOLS = [
    (f"{prefix}_get_config{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def openblas_runtime():
    """(config, threads) reported by every OpenBLAS loaded in this process."""
    import ctypes
    import re

    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({m.group(1) for m in re.finditer(r"(/\S*openblas\S*\.so\S*)", maps.read())})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for config_name, threads_name in OPENBLAS_SYMBOLS:
            config = getattr(lib, config_name, None)
            threads = getattr(lib, threads_name, None)
            if config and threads:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                found.append({"library": Path(path).name, "config": config().decode(), "threads": threads()})
                break
    return found


def environment():
    """Versions, BLAS build and thread settings, CPU count and model."""
    import numpy as np
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": dep.get("name"), "version": dep.get("version")}

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "openblas_runtime": openblas_runtime(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
    }
