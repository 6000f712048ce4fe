import functools
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import glt_stokes
from glt_stokes import symbols

BENCH = Path(__file__).resolve().parents[1] / "bench"

MODULES = [glt_stokes] + [
    importlib.import_module(f"glt_stokes.{info.name}")
    for info in pkgutil.iter_modules(glt_stokes.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_hooks_resolve():
    # bench/recorder.py wraps these (module, attribute) pairs by name, so a
    # renamed function fails here rather than in a benchmark run
    recorder = _load_bench_module("recorder")
    hooks = {**recorder.SETUP_HOOKS, **recorder.TRACE_HOOKS}
    assert hooks
    missing = []
    for module, attr in hooks:
        owner = importlib.import_module(f"{recorder.PACKAGE}.{module}")
        try:
            target = functools.reduce(getattr, attr.split("."), owner)
        except AttributeError:
            target = None
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_bench_symbol_reset_starts_cold(monkeypatch):
    # bench/workloads.py starts every round from a cold symbol set by
    # clearing symbols._SET (it imports bench/checks.py as `checks`); the
    # next default_symbol_set must build anew
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = _load_bench_module("workloads")
    before = symbols.default_symbol_set()
    assert symbols.default_symbol_set() is before
    workloads.reset_symbol_cache()
    after = symbols.default_symbol_set()
    assert after is not before
    assert symbols.default_symbol_set() is after
