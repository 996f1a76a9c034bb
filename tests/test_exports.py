import importlib
import pkgutil

import pytest

import tubevol

MODULES = ["tubevol"] + [f"tubevol.{m.name}" for m in pkgutil.iter_modules(tubevol.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
