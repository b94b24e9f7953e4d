"""Every exported name resolves, every module imports first, the public
strategies' options are listed, and every console script resolves."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_first(module_name):
    # a fresh interpreter imports the module before any other of the package,
    # so an import cycle through it fails; a package object that holds only
    # the path and the version stands in for dmark/__init__.py, whose own
    # import order would otherwise load the module's dependencies first
    code = (
        "import importlib, sys, types\n"
        "package = types.ModuleType('dmark')\n"
        f"package.__path__ = {list(dmark.__path__)!r}\n"
        f"package.__version__ = {dmark.__version__!r}\n"
        "sys.modules['dmark'] = package\n"
        f"importlib.import_module({module_name!r})\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_sort_mark_names_only_the_function():
    # sort_mark lives in dmark.quickmark, and no submodule of that name
    # hides behind the package attribute
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("dmark.sort_mark")
    assert dmark.sort_mark is importlib.import_module("dmark.quickmark").sort_mark


# every parameter of the public marking entry points; a new option must be
# added here in the same change
OPTIONS = {
    "mark": ["x", "theta", "algorithm", "nu", "counter"],
    "quickmark": ["x", "theta", "counter", "check_invariants"],
    "xstar_kernel": ["x_copy", "theta"],
    "sort_mark": ["x", "theta", "counter"],
    "binning_mark": ["x", "theta", "nu", "counter"],
    "bin_layout": ["x", "theta", "nu"],
    "decrement_mark": ["x", "theta", "nu", "counter"],
    "decrement_trace": ["x", "theta", "nu"],
}


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_option_surface(name):
    assert list(inspect.signature(getattr(dmark, name)).parameters) == OPTIONS[name]


def test_console_scripts_are_callable():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
