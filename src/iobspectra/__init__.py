"""Intrinsic optical bistability and emission spectra of a dense two-level medium."""

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
    spectrum_for_solution,
    sum_rule_ratio,
)
from .dynamics import (
    BlochState,
    NonAdiabaticWarning,
    SweepResult,
    Trajectory,
    bloch_rhs,
    fixed_point_state,
    integrate,
    jacobian,
    sweep_adiabatic,
)

__version__ = "0.1.0"

# every public name bound above, the submodules that the imports bind aside
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
