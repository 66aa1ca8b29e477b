"""Every name a module exports through __all__ resolves on that module."""

import importlib
import pkgutil

import pytest

import k3fm

MODULES = ["k3fm"] + [
    f"k3fm.{info.name}"
    for info in pkgutil.iter_modules(k3fm.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
