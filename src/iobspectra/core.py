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

import ctypes
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum

# glibc hands a free heap top over 128 KiB back to the system unless a live
# block lies above it, so the 1-3 MB of numpy temporaries of a drive scan or
# a spectrum were faulted in again on some calls and not others, as the heap
# fell.  Serve blocks up to 4 MiB from the heap and keep up to 8 MiB free.
if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}):
    ctypes.CDLL(None).mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    ctypes.CDLL(None).mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD

# The largest drive.  dynamics' Routh-Hurwitz coefficients of the Bloch
# Jacobian scale omega^2 by up to 8, so larger drives would overflow there;
# omega^2 <= float max / 16 leaves a factor 2 to spare.  It also bounds
# gamma, |delta| and each zeta, so the cubics' largest square,
# (delta - zeta W)^2 with zeta = zeta_l + zeta_m, stays below 9/16 float max.
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

    gamma, |delta| and both couplings are at most OMEGA_MAX too.
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
            if name != "omega" and abs(value) > OMEGA_MAX:  # check_drive bounds the drive
                raise ValueError(
                    f"{name} must be at most {OMEGA_MAX:.4g} in magnitude, got {value}"
                )
            object.__setattr__(self, name, value)
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        check_drive(self.omega)
        if self.zeta_lorentz < 0.0 or self.zeta_detuning < 0.0:
            raise ValueError("coupling strengths zeta_lorentz/zeta_detuning must be nonnegative")


# The coupling each single mechanism switches off; ``joint`` keeps both.
SWITCHED_OFF = {Mechanism.LORENTZ: "zeta_detuning", Mechanism.DETUNING: "zeta_lorentz"}


def validate_mechanism(params: MediumParams, mech: Mechanism) -> None:
    """Reject mechanism tags inconsistent with the coupling parameters: a
    single mechanism requires its :data:`SWITCHED_OFF` coupling to be 0."""
    mech = Mechanism(mech)
    off = SWITCHED_OFF.get(mech)
    if off is not None and getattr(params, off) != 0.0:
        raise MechanismError(
            f"mechanism '{mech.value}' requires {off} == 0, got {getattr(params, off)}"
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
