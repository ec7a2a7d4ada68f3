"""Tests of the top-level package surface (imports, __all__, docstrings)."""

import importlib
import pkgutil
import pydoc

import repro


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
