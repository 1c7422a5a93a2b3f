"""The benchmark's per-layer hooks still name functions that exist.

``perfbench/tracing.HOOKS`` lists each (module, attribute) it wraps to
time and count a layer; a hook whose target moved reports nothing, and
one that the library no longer calls through its module counts nothing.
"""

import importlib
from pathlib import Path

import pytest

from rheokit import maxwell0d, rheology
from rheokit.potentials import Dashpot, PerfectPlastic, PowerLaw
from rheokit.rheology import Leaf, Parallel, Serial, stress_curve

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


def test_simulate_calls_the_module_level_step_once_per_step(monkeypatch):
    """The ``maxwell0d.step`` hook wraps the module's ``step``: ``simulate`` must
    call it, once per recorded step, for ``maxwell0d.steps`` and ``step_us`` to
    count real steps."""
    calls = []
    step = maxwell0d.step

    def counted(model, e_el, eps, dt):
        calls.append(e_el)
        return step(model, e_el, eps, dt)

    monkeypatch.setattr(maxwell0d, "step", counted)
    m = maxwell0d.MaxwellModel(2.0, [Dashpot(1.0), PowerLaw(1.0, 3.0), PerfectPlastic(0.5)])
    ts = maxwell0d.simulate(m, maxwell0d.DriveProgram([(0.5, 1.0), (1.0, -1.0)]), 0.03, 1.0)
    assert len(calls) == len(ts) - 1 == 34
    assert calls == ts.e_el[:-1].tolist()  # each step starts from the row before


def test_stress_curve_calls_the_module_level_leaf_kernels(monkeypatch):
    """The ``rheology.leaf_calls`` hooks wrap the module's ``_leaf_flow`` and
    ``_leaf_stress`` after the tree is built: a tree's bound laws must look them
    up through the module when called, or the counts read 0."""
    tree = Serial([Parallel([Leaf(PowerLaw(1.0, 2.5)), Leaf(PerfectPlastic(1.0))]),
                   Leaf(Dashpot(1.0))])
    calls = {}
    for name in ("_leaf_flow", "_leaf_stress"):
        kernel = getattr(rheology, name)

        def counted(*args, name=name, kernel=kernel):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args)

        monkeypatch.setattr(rheology, name, counted)
    stress_curve(tree, [0.1, 1.0, 10.0])
    assert calls.get("_leaf_flow", 0) > 0 and calls.get("_leaf_stress", 0) > 0, calls
