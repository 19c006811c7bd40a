import importlib
import pkgutil

import pytest

import xrqos

MODULES = sorted(info.name for info in pkgutil.iter_modules(xrqos.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"xrqos.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
