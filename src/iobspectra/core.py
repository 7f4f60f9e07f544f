"""Domain types and unit conventions for a driven, dense two-level medium.

Every quantity carrying a frequency dimension (spontaneous decay rate,
detuning, Rabi frequency, density couplings, emission-frequency offsets) is
expressed in units of the spontaneous decay rate ``gamma``, which defaults
to 1.  All results therefore depend only on frequency ratios; rescaling all
inputs by a common positive factor leaves every dimensionless output
unchanged.

Two distinct feedback mechanisms can make the steady state multivalued:

* ``lorentz``  - the drive each atom sees is the local field, corrected by
  the polarization of its neighbours.  The effective Rabi frequency becomes
  ``omega_bar = omega + zeta_lorentz * <sigma+>`` and acquires an
  excitation dependence through the steady-state coherence.
* ``detuning`` - the transition frequency itself is shifted linearly in the
  inversion, ``delta_bar = delta - zeta_detuning * W``, with the drive left
  untouched.

Both renormalizations produce the same cubic equation for the inversion
(and hence identical excitation hysteresis when the coupling strengths are
equal); they differ only in the emission spectra they predict.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

# The largest drive.  The steady-state solver scales omega^2 by up to 8 (the
# Routh-Hurwitz test of the Bloch Jacobian), so larger drives would overflow;
# omega^2 <= float max / 16 leaves a factor 2 to spare.
OMEGA_MAX = 0.25 * math.sqrt(sys.float_info.max)


class Mechanism(str, Enum):
    """Which excitation feedback produces the optical nonlinearity."""

    LORENTZ = "lorentz"
    DETUNING = "detuning"
    JOINT = "joint"


class Branch(str, Enum):
    """Steady-state branch label, ordered by ascending excited population."""

    LOWER = "lower"
    MIDDLE = "middle"
    UPPER = "upper"


class MechanismError(ValueError):
    """Mechanism tag is inconsistent with the coupling parameters."""


class NoPhysicalRootError(ArithmeticError):
    """No inversion root in (0, 1]; signals invalid physical inputs."""


class BranchNotPresentError(LookupError):
    """Requested steady-state branch does not exist at the given drive."""


def check_drive(omega: float, name: str = "omega") -> None:
    """ValueError naming ``name`` unless the drive is finite, nonnegative and at most OMEGA_MAX."""
    if not math.isfinite(omega):
        raise ValueError(f"{name} must be finite, got {omega!r}")
    if omega < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    if omega > OMEGA_MAX:
        raise ValueError(f"{name} must be at most {OMEGA_MAX:.4g}, got {omega}")


class IntegrationError(RuntimeError):
    """Time integration failed; ``time`` holds the point of failure."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class MediumParams:
    """Physical inputs, all in units of the decay rate ``gamma``.

    gamma         : spontaneous decay rate, the unit scale (> 0)
    delta         : bare detuning, transition minus laser frequency
    omega         : bare Rabi frequency of the applied field (>= 0 and at
                    most OMEGA_MAX; the drive phase is unobservable and
                    fixed to zero)
    zeta_lorentz  : local-field (near dipole-dipole) coupling strength (>= 0)
    zeta_detuning : excitation-dependent frequency shift strength (>= 0)
    """

    gamma: float = 1.0
    delta: float = 0.0
    omega: float = 0.0
    zeta_lorentz: float = 0.0
    zeta_detuning: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "delta", "omega", "zeta_lorentz", "zeta_detuning"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        check_drive(self.omega)
        if self.zeta_lorentz < 0.0 or self.zeta_detuning < 0.0:
            raise ValueError("coupling strengths zeta_lorentz/zeta_detuning must be nonnegative")


def validate_mechanism(params: MediumParams, mech: Mechanism) -> None:
    """Reject mechanism tags inconsistent with the coupling parameters.

    ``lorentz`` requires ``zeta_detuning == 0``, ``detuning`` requires
    ``zeta_lorentz == 0``; ``joint`` accepts both couplings at once.
    """
    mech = Mechanism(mech)
    if mech is Mechanism.LORENTZ and params.zeta_detuning != 0.0:
        raise MechanismError(
            f"mechanism 'lorentz' requires zeta_detuning == 0, got {params.zeta_detuning}"
        )
    if mech is Mechanism.DETUNING and params.zeta_lorentz != 0.0:
        raise MechanismError(
            f"mechanism 'detuning' requires zeta_lorentz == 0, got {params.zeta_lorentz}"
        )


def zeta_total(params: MediumParams, mech: Mechanism) -> float:
    """Total coupling strength entering the steady-state cubic.

    Both mechanisms feed the same inversion equation, so the cubic only sees
    one number: the sum of both couplings (linear-in-W frequency shifts
    add).  A validated single mechanism has the other coupling 0, so the
    sum is its own zeta.
    """
    validate_mechanism(params, mech)
    return params.zeta_lorentz + params.zeta_detuning
