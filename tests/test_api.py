"""The public surface: every exported name exists, and the package re-exports
each library module's whole __all__, so a deleted function cannot leave a
dangling export behind."""

import importlib
from pathlib import Path

import pytest

import begin

LIBRARY_MODULES = (
    "bitgroup",
    "distribution",
    "engine",
    "graph",
    "hadamard",
    "oracle",
    "quantize",
    "schur",
)


@pytest.mark.parametrize("name", LIBRARY_MODULES + ("cli",))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"begin.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_package_re_exports_each_library_module(name):
    module = importlib.import_module(f"begin.{name}")
    for attr in module.__all__:
        assert getattr(begin, attr, None) is getattr(module, attr), attr


def test_every_library_module_is_listed():
    package = Path(begin.__file__).parent
    modules = {path.stem for path in package.glob("[!_]*.py")}
    assert modules == set(LIBRARY_MODULES) | {"cli"}
