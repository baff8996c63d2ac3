"""Span tracing of nullrank's layers, applied from outside the library.

The benchmark never edits library code.  Instead :func:`traced` replaces,
for the duration of a ``with`` block, every module-level name through
which a layer is reached (``checks.evalfr``, ``analysis.evalfr``,
``reductions.row_compress``, ``kernels.rank_svd`` as used by
``core.is_regular``, ...) with a wrapper that records a span, and puts
the original objects back on exit.  The LAPACK factorizations that the
reductions issue are reached through ``reductions.scipy.linalg``; that
binding is replaced by a proxy whose ``rq`` and ``qr`` are wrapped.

A span is ``[id, parent, case, name, start, end, stats]``.  Spans stay in
memory (``Tracer.spans``) and are written out by the caller when the run
ends.  :func:`layer_metrics` folds them into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


def _removed(args, result):
    return {"removed": int(result[1])}


def _svd_cost(full):
    """Stats hook for an SVD-based kernel: operand size and computed flops.

    The flop count is the Golub-Van Loan operation count of the
    Golub-Reinsch SVD for the operand's shape: ``4 m^2 n + 8 m n^2 + 9 n^3``
    with square ``U`` and ``V`` (``full``), ``14 m n^2 + 8 n^3`` with thin
    ``U``, where ``m >= n``.  It is computed from shapes, not counted.
    """

    def hook(args, result):
        shape = getattr(args[0], "shape", ())
        if len(shape) != 2 or 0 in shape:
            return {"max_dim": max(shape, default=0), "flops": 0}
        m, n = max(shape), min(shape)
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3 if full else 14 * m * n * n + 8 * n**3
        return {"max_dim": m, "flops": flops}

    return hook


# Layer name -> (nullrank submodule, attribute, stats hook).  A stats hook
# maps (args, result) to extra numbers stored on the span.
LAYERS = {
    "reductions.ctrb_staircase": ("reductions", "ctrb_staircase", _removed),
    "reductions.obsv_staircase": ("reductions", "obsv_staircase", _removed),
    "reductions.remove_nondynamic": ("reductions", "remove_nondynamic", _removed),
    "reductions.kronecker_like": ("reductions", "kronecker_like", None),
    "reductions.system_pencil": ("reductions", "system_pencil", None),
    "kernels.row_compress": ("kernels", "row_compress", _svd_cost(full=True)),
    "kernels.col_compress": ("kernels", "col_compress", _svd_cost(full=True)),
    "kernels.rank_svd": ("kernels", "rank_svd", _svd_cost(full=False)),
    "analysis.evalfr": ("analysis", "evalfr", None),
    "analysis.peak_gain": ("analysis", "peak_gain", None),
    "analysis.bilinear": ("analysis", "bilinear", None),
    "core.is_regular": ("core", "is_regular", None),
    "bench.build_zero_case": ("bench", "build_zero_case", None),
    "bench.random_stable_system": ("bench", "random_stable_system", None),
    "dssfile.dumps_system": ("dssfile", "dumps_system", None),
    "dssfile.loads_system": ("dssfile", "loads_system", None),
}

# Reached through ``reductions.scipy.linalg``, not through a nullrank name.
LAPACK_LAYERS = {"reductions.rq": "rq", "reductions.qr": "qr"}

# Per-layer metrics: (layer, statistic, unit, better).  ``calls`` and ``s``
# are span counts and summed durations, ``self_s`` subtracts the time
# covered by wrapped children, other statistics come from the stats hooks.
# As for the end-to-end metrics, a statistic is listed only if it is
# nonzero on every workload.  Traced but left out for that reason: the
# ``removed`` count of ``obsv_staircase`` (0 on ``nonzero_mixed``) and of
# ``remove_nondynamic`` (0 on the zero workloads), the time of
# ``bench.build_zero_case`` (0 on ``nonzero_mixed``), and the pole hits of
# ``evalfr`` (0 everywhere).
PER_LAYER = [
    *[
        (layer, stat, unit, "lower")
        for layer in (
            "reductions.ctrb_staircase",
            "reductions.obsv_staircase",
            "reductions.remove_nondynamic",
        )
        for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
    ],
    ("reductions.ctrb_staircase", "removed", "count", "higher"),
    *[
        (layer, stat, unit, "lower")
        for layer in ("reductions.rq", "reductions.qr")
        for stat, unit in (("calls", "count"), ("s", "s"))
    ],
    ("reductions.kronecker_like", "calls", "count", "lower"),
    ("reductions.kronecker_like", "s", "s", "lower"),
    ("reductions.kronecker_like", "self_s", "s", "lower"),
    *[
        (layer, stat, unit, "lower")
        for layer in ("kernels.row_compress", "kernels.col_compress", "kernels.rank_svd")
        for stat, unit in (("calls", "count"), ("s", "s"), ("max_dim", "count"), ("flops", "flop"))
    ],
    *[
        (layer, stat, unit, "lower")
        for layer in (
            "analysis.evalfr",
            "analysis.peak_gain",
            "core.is_regular",
            "analysis.bilinear",
            "bench.random_stable_system",
            "dssfile.dumps_system",
            "dssfile.loads_system",
        )
        for stat, unit in (("calls", "count"), ("s", "s"))
    ],
    ("reductions.system_pencil", "s", "s", "lower"),
    ("trace.overhead_s", None, "s", "lower"),
    ("trace.m1_m3_coverage", None, "ratio", "higher"),
]


def per_layer_name(layer, stat):
    return layer if stat is None else f"{layer}.{stat}"


class Tracer:
    """In-memory span recorder; spans nest through an explicit stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, case=None):
        parent = self._stack[-1] if self._stack else None
        if case is None and parent is not None:
            case = self.spans[parent][2]
        sid = len(self.spans)
        self.spans.append([sid, parent, case, name, time.perf_counter(), None, {}])
        self._stack.append(sid)
        return sid

    def _close(self, sid, stats):
        span = self.spans[sid]
        span[5] = time.perf_counter()
        span[6] = stats
        self._stack.pop()

    @contextmanager
    def span(self, name, case=None):
        """Record a root or intermediate span around a block."""
        sid = self._open(name, case)
        try:
            yield
        finally:
            self._close(sid, {})

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped so that every call records a span."""

        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, {"error": type(exc).__name__})
                raise
            self._close(sid, hook(args, result) if hook else {})
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class _Proxy:
    """Attribute proxy: overridden names first, then the wrapped object."""

    def __init__(self, target, overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _library_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "nullrank" or name.startswith("nullrank."))
    ]


def _originals():
    return {
        layer: getattr(sys.modules[f"nullrank.{module_name}"], attr)
        for layer, (module_name, attr, _) in LAYERS.items()
    }


def bindings():
    """Every (module, attribute, original) through which a layer is reached."""
    wanted = {id(original) for original in _originals().values()}
    found = [
        (mod, key, value)
        for mod in _library_modules()
        for key, value in list(vars(mod).items())
        if id(value) in wanted
    ]
    reductions = sys.modules["nullrank.reductions"]
    found.append((reductions, "scipy", reductions.scipy))
    return found


@contextmanager
def traced(tracer):
    """Route every layer binding through ``tracer`` inside the block."""
    saved = bindings()
    replacement = {
        id(original): tracer.wrap(layer, original, LAYERS[layer][2])
        for layer, original in _originals().items()
    }
    scipy = sys.modules["nullrank.reductions"].scipy
    lapack = {attr: tracer.wrap(layer, getattr(scipy.linalg, attr)) for layer, attr in LAPACK_LAYERS.items()}
    replacement[id(scipy)] = _Proxy(scipy, {"linalg": _Proxy(scipy.linalg, lapack)})
    try:
        for mod, key, original in saved:
            setattr(mod, key, replacement[id(original)])
        yield tracer
    finally:
        for mod, key, original in saved:
            setattr(mod, key, original)


def layer_metrics(spans, overhead_s):
    """Fold spans into the per-layer metrics listed in :data:`PER_LAYER`.

    ``trace.m1_m3_coverage`` is the share of the M1-M3 root spans covered
    by the self time of wrapped ``reductions``, ``kernels`` and
    ``analysis`` layers beneath them.
    """
    child_time = [0.0] * len(spans)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = {}
    root_of = []
    covered = 0.0
    roots = 0.0
    for sid, parent, _, name, start, end, stats in spans:
        root_of.append(sid if parent is None else root_of[parent])
        duration = end - start
        self_s = duration - child_time[sid]
        acc = totals.setdefault(name, dict.fromkeys(("calls", "s", "self_s", "removed", "max_dim", "flops"), 0))
        acc["calls"] += 1
        acc["s"] += duration
        acc["self_s"] += self_s
        acc["removed"] += stats.get("removed", 0)
        acc["max_dim"] = max(acc["max_dim"], stats.get("max_dim", 0))
        acc["flops"] += stats.get("flops", 0)
        if spans[root_of[sid]][3] in ("method.m1", "method.m2", "method.m3"):
            if parent is None:
                roots += duration
            elif name.split(".")[0] in ("reductions", "kernels", "analysis"):
                covered += self_s
    metrics = {}
    for layer, stat, unit, _ in PER_LAYER:
        acc = totals.get(layer, {})
        if layer == "trace.overhead_s":
            value = overhead_s
        elif layer == "trace.m1_m3_coverage":
            value = covered / roots if roots else 0.0
        else:
            value = acc.get(stat, 0)
        metrics[per_layer_name(layer, stat)] = {"value": value, "unit": unit}
    return metrics
