"""Tests of the top-level package surface (imports, __all__, docstrings)."""

import ast
import importlib
import pkgutil
import pydoc
from pathlib import Path

import pytest

import repro

#: The tracer-only shim: no library module may depend on it.
SHIM = "repro.core.kernel"
#: Names of the folded searcher backend, gone from the library.
FOLDED_NAMES = {"EditDistanceBackend", "EditDistanceKernel", "KernelSearcher"}


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


def test_all_names_are_importable():
    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg]
    missing = [f"{package.__name__}.{name}"
               for package in packages
               for name in getattr(package, "__all__", ())
               if not hasattr(package, name)]
    assert not missing, f"__all__ names that do not exist: {missing}"
    assert len(packages) > 5


def test_quickstart_from_module_docstring_works():
    result = repro.pass_join(["vldb", "pvldb", "sigmod", "sigmmod"], tau=1)
    assert sorted((pair.left, pair.right) for pair in result) == [
        ("sigmod", "sigmmod"), ("vldb", "pvldb")]


def test_subpackages_import_cleanly():
    for module in ("repro.core", "repro.distance", "repro.filters",
                   "repro.baselines", "repro.datasets", "repro.bench",
                   "repro.cli"):
        importlib.import_module(module)


def test_public_symbols_have_docstrings():
    undocumented = []
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        if callable(obj) and not pydoc.getdoc(obj):
            undocumented.append(name)
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_every_module_has_a_docstring():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not module.__doc__:
            missing.append(info.name)
    assert not missing, f"modules without docstrings: {missing}"


def _imported_modules(tree: ast.AST, module: str, is_package: bool):
    """Every module an ``import`` in ``tree`` names, relative ones resolved
    against ``module`` (``from ..core import kernel`` names both
    ``repro.core`` and ``repro.core.kernel``)."""
    package = module.split(".") if is_package else module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            target = ".".join(base + (node.module or "").split(".")).strip(".")
            yield target
            yield from (f"{target}.{alias.name}" for alias in node.names)


def _offences(source: str, module: str, is_package: bool = False,
              ) -> list[str]:
    tree = ast.parse(source)
    found = [f"{module} imports {name}"
             for name in _imported_modules(tree, module, is_package)
             if name == SHIM or name.startswith(SHIM + ".")]
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.ClassDef,
                                                    ast.FunctionDef,
                                                    ast.alias))
                else None)
        if name in FOLDED_NAMES:
            found.append(f"{module} names {name}")
    return found


def test_no_library_module_reaches_the_tracer_shim():
    # repro.core.kernel exists only for the e2e tracer; it goes with the
    # tracer's call, so nothing in the library may come to depend on it,
    # nor bring back the backend object the searchers folded in.
    root = Path(repro.__file__).parent
    paths = sorted(root.rglob("*.py"))
    offences = []
    for path in paths:
        parts = path.relative_to(root.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        module = ".".join(parts[:-1] if is_package else parts)
        offences += _offences(path.read_text(), module, is_package)
    assert not offences, offences
    assert len(paths) > 20


@pytest.mark.parametrize("source", [
    "from ..core.kernel import get_kernel",
    "from ..core import kernel",
    "import repro.core.kernel",
    "from repro.core.kernel import get_kernel",
    "x = KernelSearcher()",
    "class EditDistanceBackend: pass",
    "y = module.EditDistanceKernel",
    "from .searcher import KernelSearcher",
])
def test_shim_guard_sees_every_form(source):
    assert _offences(source, "repro.service.server")
    assert not _offences("from ..core.engine import probe_many\n"
                         "from .dynamic import DynamicSearcher",
                         "repro.service.server")
