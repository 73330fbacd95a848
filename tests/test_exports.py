"""Every name a module exports through ``__all__`` resolves, so a deleted
function cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import nmfkit

MODULES = ["nmfkit", *(f"nmfkit.{m.name}" for m in pkgutil.iter_modules(nmfkit.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ lists undefined names {missing}"
