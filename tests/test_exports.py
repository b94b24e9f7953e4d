"""Every exported name resolves, and the public strategies' options are listed."""

import importlib
import inspect
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


# every parameter of the public marking entry points; a new option must be
# added here in the same change
OPTIONS = {
    "mark": ["x", "theta", "algorithm", "nu", "counter"],
    "quickmark": ["x", "theta", "counter", "check_invariants"],
    "xstar_kernel": ["x_copy", "theta", "counter"],
    "sort_mark": ["x", "theta", "counter"],
    "binning_mark": ["x", "theta", "nu", "counter"],
    "bin_layout": ["x", "theta", "nu", "counter"],
    "decrement_mark": ["x", "theta", "nu", "counter"],
    "decrement_trace": ["x", "theta", "nu"],
}


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_option_surface(name):
    assert list(inspect.signature(getattr(dmark, name)).parameters) == OPTIONS[name]
