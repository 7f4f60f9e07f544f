"""The mean-field Bloch flow with self-consistent renormalization.

The state is the real triple (u, v, w): twice the real and imaginary parts
of the coherence, rho12 = (u + i v)/2, and the population difference w.
The equations of motion in the frame rotating at the laser frequency are

    du/dt = -delta_bar v - (gamma/2) u + 2 Im(omega_bar) w
    dv/dt =  delta_bar u - (gamma/2) v - 2 Re(omega_bar) w
    dw/dt =  gamma (1 - w) + 2 (Re(omega_bar) v - Im(omega_bar) u)

with the instantaneous renormalizations
omega_bar(t) = omega(t) + zeta_lorentz (u + i v)/2 and
delta_bar(t) = delta - zeta_detuning w(t).  Zeros of the right-hand side
coincide with the algebraic steady states, which is the dynamic validation
route for the cubic solver; the Routh-Hurwitz test on this Jacobian's
characteristic cubic classifies the stability of each branch.

This module needs numpy alone; the integrators that follow the flow in
time are in :mod:`iobspectra.dynamics`, which imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import MediumParams, Mechanism

BLOCH_BALL_SLACK = 1e-9


@dataclass(frozen=True)
class BlochState:
    """Coherence quadratures and population difference, confined to the unit ball."""

    u: float
    v: float
    w: float

    def __post_init__(self):
        for name in ("u", "v", "w"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.u**2 + self.v**2 + self.w**2 > 1.0 + BLOCH_BALL_SLACK:
            raise ValueError(
                f"state ({self.u}, {self.v}, {self.w}) lies outside the Bloch ball"
            )


def _coupling(params: MediumParams, mech: Mechanism) -> tuple[float, float]:
    # through the module, so that wrapping core.validate_mechanism sees the call
    core.validate_mechanism(params, mech)
    return params.zeta_lorentz, params.zeta_detuning


def _rhs(u, v, w, om, g, d, zl, zm) -> tuple[float, float, float]:
    obr = om + 0.5 * zl * u
    obi = 0.5 * zl * v
    db = d - zm * w
    return (
        -db * v - 0.5 * g * u + 2.0 * obi * w,
        db * u - 0.5 * g * v - 2.0 * obr * w,
        g * (1.0 - w) + 2.0 * (obr * v - obi * u),
    )


def _jac(u, v, w, om, g, d, zl, zm) -> np.ndarray:
    """Jacobian of :func:`_rhs` at one state, a 3x3 matrix."""
    db = d - zm * w
    zs = zl + zm
    return np.array([[-0.5 * g, -db + zl * w, zs * v],
                     [db - zl * w, -0.5 * g, -zs * u - 2.0 * om],
                     [0.0, 2.0 * om, -g]])


def _components(state):
    if isinstance(state, BlochState):
        return state.u, state.v, state.w
    return state[0], state[1], state[2]


def bloch_rhs(state, params: MediumParams, mech: Mechanism, omega_now) -> np.ndarray:
    """Time derivatives (du/dt, dv/dt, dw/dt) at the given state and drive.

    ``state`` is a :class:`BlochState` or a raw (u, v, w) triple.  A raw
    triple is not checked against the Bloch ball, because root searches step
    outside it; its components may also be arrays of one shape, giving a
    (3, ...) result.
    """
    zl, zm = _coupling(params, mech)
    return np.array(_rhs(*_components(state), omega_now, params.gamma, params.delta, zl, zm))


def jacobian(state, params: MediumParams, mech: Mechanism, omega_now) -> np.ndarray:
    """Exact Jacobian of :func:`bloch_rhs`, including the d(omega_bar)/d(u,v)
    and d(delta_bar)/dw self-consistency terms, at one state as there."""
    zl, zm = _coupling(params, mech)
    return _jac(*_components(state), omega_now, params.gamma, params.delta, zl, zm)
