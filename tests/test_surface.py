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

import nullrank

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


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "nr":
        return parts[::-1]
    return None


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
