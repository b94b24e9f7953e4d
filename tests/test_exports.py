"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import dmark

MODULES = sorted(
    f"dmark.{info.name}" for info in pkgutil.iter_modules(dmark.__path__)
)


def test_package_exports_resolve():
    missing = [name for name in dmark.__all__ if not hasattr(dmark, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
