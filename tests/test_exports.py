"""Every public export of every oscat module resolves.

A deleted function whose name stays in some `__all__` breaks
`from oscat.<module> import *` only at the caller; these tests catch it here.
"""
import importlib
import pkgutil

import pytest

import oscat

MODULES = ["oscat"] + sorted(
    info.name for info in pkgutil.walk_packages(oscat.__path__, prefix="oscat.")
)


def test_modules_found():
    assert {"oscat.osx", "oscat.qglue", "oscat.vnstruct", "oscat.normlab.diamond"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    assert len(set(getattr(module, "__all__", ()))) == len(getattr(module, "__all__", ()))


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert all(attr in namespace for attr in getattr(importlib.import_module(name), "__all__", ()))


@pytest.mark.parametrize("name", MODULES)
def test_all_declared(name):
    # without `__all__` the two tests above check nothing for the module
    assert isinstance(getattr(importlib.import_module(name), "__all__", None), list), name
