"""Viscoplastic rheology toolkit.

Builds single dissipation potentials from serial/parallel networks of
viscous and plastic elements, evaluates rigorous and empirical
effective viscosities, and time-integrates the 0D generalized Maxwell
rheology.

``import rheokit`` loads none of its submodules.  Each public name, and each public
submodule, is looked up in ``_WHERE`` at its first use (PEP 562) and kept, so a program
compiles only the modules it reads: ``rheokit.Serial`` loads ``rheology``, and no CLI
command but ``simulate`` loads ``maxwell0d``.  ``from rheokit import *`` binds them all.
"""

import importlib

__version__ = "0.1.0"

# Each public name by the submodule that defines it, and each public submodule by itself.
_WHERE = {name: module for module, names in {
    "_graph": "SubdiffInterval",
    "cli": "",
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
    "schema": "",
}.items() for name in [module, *names.split()] if not name.startswith("_")}
__all__ = [*_WHERE]


def __getattr__(name):
    if name not in _WHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_WHERE[name]}")
    value = globals()[name] = module if name == _WHERE[name] else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_WHERE})
