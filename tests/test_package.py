"""The package namespace: ``import rheokit`` loads no submodule, and each public name is its
submodule's, loaded at its first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import rheokit

# Every public name the package bound when it imported its submodules eagerly, by submodule
_EXPORTED = {
    "_graph": "SubdiffInterval",
    "convex_core": "SampledFunction fenchel_young_residual inf_convolve_direct "
                   "inf_convolve_via_conjugate legendre_transform subdifferential uniform_grid "
                   "yosida",
    "errors": "InvalidInputError NonConvergenceError OutOfRangeError RheokitError SchemaError "
              "UnsupportedModeError",
    "maxwell0d": "DriveProgram MaxwellModel TimeSeries simulate step",
    "potentials": "Dashpot Huber PerfectPlastic Potential PowerLaw QuadPlusBall Sampled "
                  "casson_stress conjugate_analytic dvalue overstress_flow papanastasiou_stress "
                  "sample_potential value",
    "rheology": "Formula Leaf Parallel RheoExpr Serial ThreeElementParams harmonic_mean_linear "
                "map_serial_parallel_params mu_eff_curve mu_eff_formula mu_eff_rigorous "
                "serial_dif_dsl_stress strain_rate_of_stress stress_curve stress_of_strain_rate "
                "three_element_stress",
}
_NAMES = [(module, name) for module, names in _EXPORTED.items() for name in names.split()]

_FRESH = """
import json, sys
def loaded():
    return sorted(name for name in sys.modules if name.startswith("rheokit."))
import rheokit
runs = [loaded(), sorted(set(dir(rheokit)) - {"__builtins__", "importlib"})]
rheokit.Serial
runs.append(loaded())
space = {}
exec("from rheokit import *", space)
runs.append(sorted(name for name in space if name != "__builtins__"))
print(json.dumps(runs))
"""


def test_import_loads_no_submodule_and_a_name_loads_its_own():
    """In a fresh interpreter ``import rheokit`` loads no ``rheokit.*`` module, and
    ``rheokit.Serial`` loads ``rheology`` and what it imports, not ``maxwell0d``, ``schema``,
    ``cli`` or ``convex_core``.  ``from rheokit import *`` binds every exported name and every
    public submodule, which ``dir(rheokit)`` lists before any of them is loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rheokit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    bare, listed, serial, star = json.loads(proc.stdout)
    assert bare == []
    assert [name for name in listed if not name.startswith("_")] == star  # before any loads
    assert serial == ["rheokit._graph", "rheokit._numpy", "rheokit._record", "rheokit.errors",
                      "rheokit.potentials", "rheokit.rheology"]
    submodules = ["cli", "convex_core", "errors", "maxwell0d", "potentials", "rheology", "schema"]
    assert star == sorted([name for _, name in _NAMES] + submodules)


def test_every_exported_name_is_its_submodules():
    assert [(module, name) for module, name in _NAMES if getattr(rheokit, name) is not
            getattr(importlib.import_module(f"rheokit.{module}"), name)] == []


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'rheokit' has no attribute 'no_such_name'"):
        rheokit.no_such_name
    assert not hasattr(rheokit, "_step") and not hasattr(rheokit, "_graph_sum")
    with pytest.raises(ImportError):
        from rheokit import no_such_name  # noqa: F401


_COMMAND = """
import json, sys
import rheokit.cli
assert rheokit.cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps(["rheokit._comparison" in sys.modules, "numpy" in sys.modules]))
"""

_SIMULATION = {"E": 1.0, "elements": [{"kind": "dashpot", "D": 1.3},
                                      {"kind": "powerlaw", "D": 0.7, "n": 2.5}],
               "drive": [{"t_end": 1.0, "eps": 1.2}, {"t_end": 2.0, "eps": -1.2}], "e_el0": 0.0}
_CREEP = {"node": "serial", "children": [
    {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.3}},
    {"node": "leaf", "potential": {"kind": "powerlaw", "D": 0.8, "n": 3.5}}]}
_LEAF = {"node": "leaf", "potential": {"kind": "powerlaw", "D": 0.8, "n": 3.5}}


@pytest.mark.parametrize("argv, comparison, numpy", [
    (["curve", "--model", "creep.json", "--samples", "64"], False, False),
    (["curve", "--model", "creep.json", "--dump-model"], False, False),
    (["simulate", "--model", "simulation.json", "--dt", "0.01", "--t-end", "2"], False, False),
    (["simulate", "--model", "simulation.json", "--dump-model"], False, False),
    (["conjugate", "--model", "leaf.json"], False, True),
    (["compare", "--preset", "fig6"], True, False),
    (["equivalence", "--sigma-a", "1", "--d2", "1", "--d3", "1"], True, True),
], ids=["curve", "curve-dump", "simulate", "simulate-dump", "conjugate", "compare",
        "equivalence"])
def test_only_compare_and_equivalence_load_the_comparison(tmp_path, argv, comparison, numpy):
    """In a fresh interpreter, a ``curve``, ``simulate`` or ``conjugate`` run, and a model's
    ``--dump-model``, leave ``rheokit._comparison`` unloaded; ``compare`` and ``equivalence``
    load it.  ``curve``, ``simulate`` and ``compare`` never import numpy."""
    for name, doc in (("creep", _CREEP), ("simulation", _SIMULATION), ("leaf", _LEAF)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    src = os.path.dirname(os.path.dirname(os.path.abspath(rheokit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _COMMAND, json.dumps(argv + ["--out", str(
        tmp_path / "out")])], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [comparison, numpy]


# The names that ``rheology`` serves from ``_comparison``, and those that ``cli`` serves from it
_MOVED = ("Formula ThreeElementParams _dif_dsl_closed harmonic_mean_linear "
          "map_serial_parallel_params mu_eff_formula serial_dif_dsl_stress "
          "three_element_parallel_serial three_element_serial_parallel three_element_stress")
_SERVED_BY_CLI = "compare_columns equivalence_report mu_eff_formula serial_dif_dsl_stress"
_LAWS = "overstress_flow papanastasiou_stress casson_stress"  # served by ``potentials``


def test_each_moved_name_is_the_comparisons_own_object():
    """``rheokit.rheology``, ``rheokit.potentials`` for the standalone laws, ``rheokit`` for
    what it exports and ``rheokit.cli`` for what it serves hand out the one object that
    ``rheokit._comparison`` defines, and serve no other of its names."""
    comparison = importlib.import_module("rheokit._comparison")
    rheology, potentials, cli = (importlib.import_module(f"rheokit.{m}")
                                 for m in ("rheology", "potentials", "cli"))
    for module, names in ((rheology, _MOVED), (potentials, _LAWS)):
        for name in names.split():
            assert getattr(module, name) is getattr(comparison, name), name
            assert name not in rheokit._WHERE or getattr(rheokit, name) is getattr(comparison,
                                                                                   name)
    for name in _SERVED_BY_CLI.split():
        assert getattr(cli, name) is getattr(comparison, name), name
    for module, name in ((rheology, "_scale"), (rheology, "compare_columns"), (cli, "_scale"),
                         (cli, "Formula"), (rheology, "casson_stress"), (potentials, "_scale"),
                         (potentials, "mu_eff_formula")):
        with pytest.raises(AttributeError, match=f"'{module.__name__}' has no attribute"):
            getattr(module, name)
