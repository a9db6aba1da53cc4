"""Every exported name and every benchmark trace target must resolve.

The benchmark harness wraps the functions it traces by name
(``perfbench/run.py:trace_targets``), so removing or renaming one of them
breaks ``perfbench/run.py --trace 1``; this module makes such a change
fail the test suite instead.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import lsc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ["lsc"] + [f"lsc.{m.name}" for m in pkgutil.iter_modules(lsc.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_every_trace_target_resolves(monkeypatch):
    # the harness modules import each other by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("run").trace_targets()
    assert targets
    missing = []
    for target in targets:
        module_name, _, cls_name = target.owner.partition(":")
        owner = importlib.import_module(module_name)
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if not callable(getattr(owner, target.attr, None)):
            missing.append(f"{target.owner}.{target.attr}")
    assert not missing, f"trace targets that no longer resolve: {missing}"
