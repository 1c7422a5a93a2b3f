"""The benchmark's per-layer hooks still name functions that exist.

``perfbench/tracing.HOOKS`` lists each (module, attribute) it wraps to
time and count a layer; a hook whose target moved reports nothing.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_bench_hook_resolves(monkeypatch):
    if not (PERFBENCH / "tracing.py").is_file():
        pytest.skip("perfbench/ is not in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for metric, _, module, attr, importers, _ in tracing.HOOKS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{metric}: {module}.{attr} does not exist"
        for name in importers:
            assert getattr(importlib.import_module(name), attr, None) is fn, (
                f"{metric}: {name} no longer imports {attr} from {module}"
            )
