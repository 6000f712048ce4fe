import importlib
import pkgutil

import pytest

import glt_stokes

MODULES = [glt_stokes] + [
    importlib.import_module(f"glt_stokes.{info.name}")
    for info in pkgutil.iter_modules(glt_stokes.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []
