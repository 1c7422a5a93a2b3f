"""The benchmark's per-layer hooks still name functions that exist.

``perfbench/tracing.HOOKS`` lists each (module, attribute) it wraps to
time and count a layer; a hook whose target moved reports nothing, and
one that the library no longer calls through its module counts nothing.
"""

import importlib
from pathlib import Path

import pytest

from rheokit import maxwell0d
from rheokit.potentials import Dashpot, PerfectPlastic, PowerLaw

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The ``rheology.leaf_calls`` targets: the numpy tree solve's leaf kernels, removed with it.
# ``tracing.install`` reports them absent, and the benchmark runs on without them.
_REMOVED = {("rheokit.rheology", "_leaf_flow"), ("rheokit.rheology", "_leaf_stress")}


def test_every_bench_hook_resolves(monkeypatch):
    if not (PERFBENCH / "tracing.py").is_file():
        pytest.skip("perfbench/ is not in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for metric, _, module, attr, importers, _ in tracing.HOOKS:
        if (module, attr) in _REMOVED:
            continue
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{metric}: {module}.{attr} does not exist"
        for name in importers:
            assert getattr(importlib.import_module(name), attr, None) is fn, (
                f"{metric}: {name} no longer imports {attr} from {module}"
            )
    for _, _, module, attr, importers, _ in tracing.HOOKS:  # what install wraps, restored after
        for name in (module, *importers):
            mod = importlib.import_module(name)
            if callable(getattr(mod, attr, None)):
                monkeypatch.setattr(mod, attr, getattr(mod, attr))
    rec = tracing.Recorder("hooks")
    tracing.install(rec)
    assert set(rec.absent) == {"rheology.leaf_calls"}
    assert rec.absent["rheology.leaf_calls"] in {".".join(target) for target in _REMOVED}


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
