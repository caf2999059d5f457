import importlib
import pkgutil

import pytest

import romgrid

MODULES = ["romgrid"] + [
    f"romgrid.{name}" for _, name, _ in pkgutil.iter_modules(romgrid.__path__)
    if name != "__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    stale = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert stale == []
