"""Intrinsic optical bistability and emission spectra of a dense two-level medium.

Importing the package loads no module of it.  The public names, and the
modules as attributes, resolve on first access: each imports its module
then and is bound here.  :mod:`iobspectra.core` needs no numpy; the other
modules compute with it.
"""

import importlib

__version__ = "0.1.0"

# the public names, by module
_LAZY = {
    "core": (
        "Branch", "BranchNotPresentError", "IntegrationError", "MechanismError",
        "MediumParams", "Mechanism", "NoPhysicalRootError", "validate_mechanism",
        "zeta_total",
    ),
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

__all__ = list(_MODULE_OF)


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
