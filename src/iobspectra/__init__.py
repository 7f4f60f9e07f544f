"""Intrinsic optical bistability and emission spectra of a dense two-level medium.

Importing the package loads :mod:`iobspectra.core` alone, which needs no
numpy.  The public names of the other modules, and those modules as
attributes, resolve on first access: each imports its module then and is
bound here.
"""

import importlib
import types

from .core import (
    Branch,
    BranchNotPresentError,
    IntegrationError,
    MechanismError,
    MediumParams,
    Mechanism,
    NoPhysicalRootError,
    validate_mechanism,
    zeta_total,
)

__version__ = "0.1.0"

# the public names of the modules that compute with numpy, by module
_LAZY = {
    "steady_state": (
        "HysteresisScan", "ScanPoint", "SolutionArrays", "StationaryState",
        "SteadyStateSolution", "branch_solution", "coherence", "cubic_coefficients",
        "effective_params", "find_thresholds", "rabi_relation_sq",
        "scan_hysteresis", "solution_arrays", "solutions_at", "solve_inversion",
        "stationary_state",
    ),
    "spectrum": (
        "SpectrumCoefficients", "SpectrumResult", "default_nu_grid",
        "free_atom_saturation_max", "incoherent_spectrum", "oracle_spectrum",
        "peak_positions", "spectrum_coefficients", "spectrum_for_solution",
        "sum_rule_ratio",
    ),
    "dynamics": (
        "BlochState", "NonAdiabaticWarning", "SweepResult", "Trajectory",
        "bloch_rhs", "fixed_point_state", "integrate", "jacobian",
        "sweep_adiabatic",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

# core's names bound above, then the lazy ones
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__ += list(_MODULE_OF)


def __getattr__(name):
    module = name if name in _LAZY else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
