"""Every module under ``repro`` imports, and every name its ``__all__``
lists resolves (a deleted module or function must take its re-exports
with it)."""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
