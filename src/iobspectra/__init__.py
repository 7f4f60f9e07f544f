"""Intrinsic optical bistability and emission spectra of a dense two-level medium."""

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
from .bloch import BlochState, bloch_rhs, jacobian
from .steady_state import (
    HysteresisScan,
    ScanPoint,
    SolutionArrays,
    StationaryState,
    SteadyStateSolution,
    branch_solution,
    coherence,
    cubic_coefficients,
    effective_params,
    find_thresholds,
    rabi_relation_sq,
    scan_hysteresis,
    solution_arrays,
    solutions_at,
    solve_inversion,
    stationary_state,
)
from .spectrum import (
    SpectrumCoefficients,
    SpectrumResult,
    default_nu_grid,
    free_atom_saturation_max,
    incoherent_spectrum,
    oracle_spectrum,
    peak_positions,
    spectrum_coefficients,
    spectrum_for_branch,
    spectrum_for_solution,
    sum_rule_ratio,
)


# dynamics imports scipy.integrate, most of start-up time: load it on first use
def __getattr__(name):
    if name == "dynamics" or name in __all__:  # the __all__ names not bound above
        from importlib import import_module

        # not "from . import dynamics", which would re-enter this hook
        dynamics = import_module(".dynamics", __name__)
        return dynamics if name == "dynamics" else getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | {"dynamics"})


__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchNotPresentError",
    "BlochState",
    "HysteresisScan",
    "IntegrationError",
    "MechanismError",
    "MediumParams",
    "Mechanism",
    "NoPhysicalRootError",
    "NonAdiabaticWarning",
    "ScanPoint",
    "SolutionArrays",
    "SpectrumCoefficients",
    "SpectrumResult",
    "StationaryState",
    "SteadyStateSolution",
    "SweepResult",
    "Trajectory",
    "bloch_rhs",
    "branch_solution",
    "coherence",
    "cubic_coefficients",
    "default_nu_grid",
    "effective_params",
    "find_thresholds",
    "fixed_point_state",
    "free_atom_saturation_max",
    "incoherent_spectrum",
    "integrate",
    "jacobian",
    "oracle_spectrum",
    "peak_positions",
    "rabi_relation_sq",
    "scan_hysteresis",
    "solution_arrays",
    "solutions_at",
    "solve_inversion",
    "spectrum_coefficients",
    "spectrum_for_branch",
    "spectrum_for_solution",
    "stationary_state",
    "sum_rule_ratio",
    "sweep_adiabatic",
    "validate_mechanism",
    "zeta_total",
]
