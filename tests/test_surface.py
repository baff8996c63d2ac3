"""The public surface, and the names the benchmark under perfbench/ reaches.

The benchmark wraps library functions from outside by module and name
(``perfbench/tracing.py``) and calls others through ``nr.<module>.<name>``
(``perfbench/harness.py``); a rename or a move breaks it without failing
any other test.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import nullrank
from nullrank import analysis, bench, checks

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = Path(nullrank.__file__).resolve().parent


def _load(path):
    spec = importlib.util.spec_from_file_location(f"_surface_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_top_level_names():
    assert nullrank.__all__ == [
        "CONTINUOUS",
        "DISCRETE",
        "DescriptorSystem",
        "MethodResult",
        "PoleEvaluationError",
        "ReductionError",
        "ShapeError",
        "check_nullrank",
        "make_system",
        "subtract",
    ]
    assert all(hasattr(nullrank, name) for name in nullrank.__all__)
    assert nullrank.__version__


def test_tracing_layers_resolve():
    path = PERFBENCH / "tracing.py"
    imported = {name.split(".")[0] for name in _imported_modules(ast.parse(path.read_text()))}
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}
    tracing = _load(path)
    for module, attr, _ in tracing.LAYERS.values():
        assert callable(getattr(getattr(nullrank, module), attr)), (module, attr)
    for attr in tracing.LAPACK_LAYERS.values():
        assert callable(getattr(nullrank.reductions.scipy.linalg, attr)), attr


def _chain(node):
    """``["np", "linalg", "svd"]`` for ``np.linalg.svd``; None if not a dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id, *parts[::-1]]
    return None


def _dotted(node):
    chain = _chain(node)
    return chain[1:] if chain and chain[0] == "nr" else None


def test_harness_names_resolve():
    tree = ast.parse((PERFBENCH / "harness.py").read_text())
    chains = {tuple(c) for c in map(_dotted, ast.walk(tree)) if c}
    assert ("core", "conjugate") in chains and ("checks", "check_nullrank") in chains
    for chain in chains:
        obj = nullrank
        for attr in chain:
            obj = getattr(obj, attr)


def test_no_imports_inside_functions():
    # A function-level import is how the core <-> analysis cycle hid.
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = list(_imported_modules(ast.Module(body=node.body, type_ignores=[])))
                assert not inner, f"{path.name}: {node.name} imports {inner}"


def _used_names(tree):
    """Identifiers a module reads: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_library_code_has_a_library_caller():
    # Code that only tests reach is no part of any verdict.
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    used = {stem: set(_used_names(tree)) for stem, tree in trees.items()}
    elsewhere = set().union(*(names for stem, names in used.items() if stem != "kernels"))
    idle = [f"kernels.{name}" for name in nullrank.kernels.__all__ if name not in elsewhere]
    everywhere = set().union(*used.values())
    idle += [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in everywhere
    ]
    assert not idle, f"defined in nullrank but used nowhere in it: {idle}"


def _calls(tree):
    """``(top-level definition, dotted callee)`` for every call in a module."""
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (chain := _chain(node.func)):
                yield where, ".".join(chain)


def test_rank_decisions_live_in_kernels():
    # kernels._count_rank is the one SVD rank rule, the place where decision
    # margins are to be read; analysis keeps the SVDs of its gains.
    stray = [
        f"{path.stem}.{where}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where, name in _calls(ast.parse(path.read_text()))
        if (name.split(".")[-1] == "rank_threshold" and path.stem != "kernels")
        or (name.endswith("linalg.svd") and path.stem not in ("kernels", "analysis"))
    ]
    assert not stray, f"rank decisions outside kernels: {stray}"


def test_one_probe_point_and_no_qz():
    # core.PROBE_POINT is the one seeded point where is_regular probes and
    # peak_gain factors; the scan works from a real Schur form, not a QZ.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(text.upper().count("0X5EED") for text in sources.values()) == 1
    qz = [
        f"{stem}.{where}: {name}"
        for stem, text in sources.items()
        for where, name in _calls(ast.parse(text))
        if name.endswith("linalg.qz")
    ]
    assert not qz, qz


def test_check_nullrank_alone_builds_and_times_the_records():
    # The methods return (is_null, evidence) and raise; one loop times them
    # and writes every record, so one rule decides what a failure reads.
    built = [
        f"{path.stem}.{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where, name in _calls(ast.parse(path.read_text()))
        if name.split(".")[-1] == "MethodResult"
    ]
    assert built == ["checks.check_nullrank"], built
    timed = {
        where
        for where, name in _calls(ast.parse((PACKAGE / "checks.py").read_text()))
        if name.split(".")[-1] == "perf_counter"
    }
    assert timed == {"check_nullrank"}, timed


def _none_defaults(func):
    """Names of the parameters of ``func`` whose default is ``None``."""
    args = func.args
    positional = args.posonlyargs + args.args
    pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
             *zip(args.kwonlyargs, args.kw_defaults)]
    return {arg.arg for arg, default in pairs if isinstance(default, ast.Constant) and default.value is None}


def test_every_random_stream_is_seeded():
    # default_rng() or default_rng(x) with x defaulting to None draws OS
    # entropy, and no seed could reproduce the verdict it serves.
    unseeded = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(tree, set())] + [
            (node, _none_defaults(node))
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ]
        for scope, optional in scopes:
            for node in ast.walk(scope):
                if not (isinstance(node, ast.Call) and (_chain(node.func) or [""])[-1] == "default_rng"):
                    continue
                seeds = [*node.args, *(keyword.value for keyword in node.keywords)]
                if not seeds or (isinstance(seeds[0], ast.Name) and seeds[0].id in optional):
                    unseeded.add(f"{path.stem}:{node.lineno}")
    assert not unseeded, f"random streams without a seed: {sorted(unseeded)}"


class _ComplexLU(Exception):
    pass


def test_evalfr_takes_the_real_lu_at_a_real_point(monkeypatch):
    # Method 4's points, build_zero_case's spot check and perfbench's
    # certificate probes are real, and a complex LU costs about four times
    # a real one; only a point off the real axis may reach zgetrf.
    def complex_lu(*args, **kwargs):
        raise _ComplexLU

    sys_ = bench.random_stable_system(bench.GeneratorSpec(6, 2, 3, seed=1))
    want = analysis.evalfr(sys_, 0.37)
    monkeypatch.setattr(analysis, "zgetrf", complex_lu)
    for lam in (0.37, np.float64(0.37), complex(0.37, 0.0)):
        assert np.array_equal(analysis.evalfr(sys_, lam), want)
    checks.method4_freq(sys_, 1e-7, seed=3, count=4)
    bench.build_zero_case(5, 0)
    with pytest.raises(_ComplexLU):
        analysis.evalfr(sys_, complex(0.37, 0.1))
