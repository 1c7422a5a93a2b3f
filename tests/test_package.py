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
