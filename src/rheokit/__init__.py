"""Viscoplastic rheology toolkit.

Builds single dissipation potentials from serial/parallel networks of
viscous and plastic elements, evaluates rigorous and empirical
effective viscosities, and time-integrates the 0D generalized Maxwell
rheology.
"""

from ._graph import SubdiffInterval
from .errors import (
    InvalidInputError,
    NonConvergenceError,
    OutOfRangeError,
    RheokitError,
    SchemaError,
    UnsupportedModeError,
)
from .maxwell0d import DriveProgram, MaxwellModel, TimeSeries, simulate, step
from .potentials import (
    Dashpot,
    Huber,
    PerfectPlastic,
    Potential,
    PowerLaw,
    QuadPlusBall,
    Sampled,
    casson_stress,
    conjugate_analytic,
    dvalue,
    overstress_flow,
    papanastasiou_stress,
    sample_potential,
    value,
)
from .rheology import (
    Formula,
    Leaf,
    Parallel,
    RheoExpr,
    Serial,
    ThreeElementParams,
    harmonic_mean_linear,
    map_serial_parallel_params,
    mu_eff_curve,
    mu_eff_formula,
    mu_eff_rigorous,
    serial_dif_dsl_stress,
    strain_rate_of_stress,
    stress_curve,
    stress_of_strain_rate,
    three_element_stress,
)

__version__ = "0.1.0"

# The sampled transforms, imported on first use: no CLI command compiles convex_core.
_CONVEX_CORE = {"SampledFunction", "fenchel_young_residual", "inf_convolve_direct",
                "inf_convolve_via_conjugate", "legendre_transform", "subdifferential",
                "uniform_grid", "yosida"}


def __getattr__(name):
    if name not in _CONVEX_CORE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import convex_core

    return getattr(convex_core, name)
