"""Time-domain mean-field Bloch dynamics with self-consistent renormalization.

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .core import Branch, IntegrationError, MediumParams, Mechanism, RowView, validate_mechanism
from . import steady_state

BLOCH_BALL_SLACK = 1e-9
RAMP_RATE_MAX_FACTOR = 1e-3  # max ramp rate in units of gamma^2
JUMP_THRESHOLD = 0.1         # |delta w| per sample marking a branch jump
ADIABATIC_DISTANCE = 0.05    # allowed distance from the instantaneous stable manifold

_METHODS = ("DOP853", "LSODA")


class NonAdiabaticWarning(UserWarning):
    """A sweep strayed from the instantaneous stable manifold away from folds."""


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: times (1/gamma units), (N, 3) states (u, v, w), drives."""

    times: np.ndarray
    uvw: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        uvw = self.uvw
        bad = ~np.isfinite(uvw).all(axis=1) | ((uvw * uvw).sum(axis=1) > 1.0 + BLOCH_BALL_SLACK)
        if bad.any():
            BlochState(*uvw[np.argmax(bad)].tolist())  # raises BlochState's error

    @property
    def states(self) -> RowView:
        """The rows of ``uvw`` as BlochStates, each built when read."""
        return RowView(len(self.uvw), lambda i: BlochState(*self.uvw[i].tolist()))

    def state_array(self) -> np.ndarray:
        return self.uvw


@dataclass(frozen=True, eq=False)
class SweepResult:
    trajectory: Trajectory
    jumps: list[float]


def _coupling(params: MediumParams, mech: Mechanism) -> tuple[float, float]:
    validate_mechanism(params, mech)
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


def fixed_point_state(params: MediumParams, mech: Mechanism, w: float) -> BlochState:
    """Bloch state of the algebraic steady state with inversion w."""
    omega_eff, delta_eff = steady_state.effective_params(w, params, mech)
    r12 = steady_state.coherence(w, omega_eff, delta_eff, params.gamma)
    return BlochState(2.0 * r12.real, 2.0 * r12.imag, w)


def _drive_function(drive) -> Callable[[float], float]:
    if callable(drive):
        return drive
    value = float(drive)
    return lambda t: value


def integrate(
    state0: BlochState,
    params: MediumParams,
    mech: Mechanism,
    drive,
    t_end: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-11,
    *,
    t_eval=None,
    method: str = "DOP853",
) -> Trajectory:
    """Integrate the Bloch equations with an adaptive method.

    ``drive`` is a constant Rabi frequency or a callable omega(t).  The
    method is DOP853 (default), an explicit one-step Runge-Kutta scheme, or
    LSODA, the multistep scheme that switches between stiff and non-stiff
    formulas on its own and is given the analytic Jacobian; slow parameter
    ramps use it.  Sample times are taken from ``t_eval`` when given,
    otherwise the integrator's own steps are returned.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not 0.0 < rel_tol <= 1e-3 or not 0.0 < abs_tol <= 1e-3:
        raise ValueError("tolerances must lie in (0, 1e-3]")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")

    zl, zm = _coupling(params, mech)
    g = params.gamma
    d = params.delta
    omega_of_t = _drive_function(drive)

    def rhs(t, y):
        return _rhs(y[0], y[1], y[2], omega_of_t(t), g, d, zl, zm)

    kwargs = {}
    if method == "LSODA":
        def jac(t, y):
            return _jac(y[0], y[1], y[2], omega_of_t(t), g, d, zl, zm)

        kwargs["jac"] = jac

    sol = solve_ivp(
        rhs,
        (0.0, float(t_end)),
        (state0.u, state0.v, state0.w),
        method=method,
        rtol=rel_tol,
        atol=abs_tol,
        t_eval=t_eval,
        **kwargs,
    )
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else 0.0
        raise IntegrationError(
            f"integration failed at t={t_fail}: {sol.message}", time=t_fail
        )
    omegas = np.array([omega_of_t(t) for t in sol.t])
    try:
        return Trajectory(times=sol.t.copy(), uvw=sol.y.T, omegas=omegas)
    except ValueError as exc:  # solve_ivp's times always increase: a state left the ball
        raise IntegrationError(f"integrator left the Bloch ball: {exc}") from exc


def sweep_adiabatic(
    params: MediumParams,
    mech: Mechanism,
    omega_start: float,
    omega_end: float,
    ramp_rate: float,
    *,
    samples: int | None = None,
) -> SweepResult:
    """Linearly ramp the drive and detect hysteresis jumps.

    The sweep starts on the stable branch appropriate to its direction
    (lower going up, upper going down) and integrates with LSODA, whose
    Fortran steps and linear algebra keep long slow ramps cheap and whose
    output does not depend on the BLAS thread setup.  Branch jumps show up
    as runs of |dw| spikes between samples; the drive midway across the
    largest spike of each run is returned.
    A NonAdiabaticWarning is raised if, away from detected jumps, the state
    strays more than ADIABATIC_DISTANCE from every instantaneous stable
    fixed point.
    """
    if omega_start < 0.0 or omega_end < 0.0 or omega_start == omega_end:
        raise ValueError("sweep endpoints must be nonnegative and distinct")
    if not 0.0 < ramp_rate <= RAMP_RATE_MAX_FACTOR * params.gamma**2:
        raise ValueError(
            f"ramp_rate must lie in (0, {RAMP_RATE_MAX_FACTOR} gamma^2] for adiabaticity"
        )

    direction = 1.0 if omega_end > omega_start else -1.0
    span = abs(omega_end - omega_start)
    t_end = span / ramp_rate

    def drive(t):
        return omega_start + direction * ramp_rate * min(t, t_end)

    start_params = replace(params, omega=float(omega_start))
    sols = steady_state.solutions_at(start_params, mech)
    preferred = Branch.LOWER if direction > 0 else Branch.UPPER
    by_branch = {s.branch: s for s in sols}
    start = by_branch.get(preferred, sols[0])
    y0 = fixed_point_state(start_params, mech, start.w)

    if samples is None:
        samples = min(20001, max(101, int(span / (0.01 * params.gamma)) + 1))
    t_eval = np.linspace(0.0, t_end, samples)

    traj = integrate(
        y0, params, mech, drive, t_end,
        rel_tol=1e-8, abs_tol=1e-10, t_eval=t_eval, method="LSODA",
    )

    w = traj.uvw[:, 2]
    jumps = [float(0.5 * (traj.omegas[k] + traj.omegas[k + 1])) for k in _jump_samples(w)]
    _warn_if_nonadiabatic(traj, params, mech, jumps)
    return SweepResult(trajectory=traj, jumps=jumps)


def _jump_samples(w: np.ndarray) -> list[int]:
    """For each run of consecutive |dw| > JUMP_THRESHOLD between samples of
    ``w``, the index k of its largest step (from sample k to k + 1)."""
    dw = np.abs(np.diff(w))
    edges = np.flatnonzero(np.diff(np.concatenate(([0], dw > JUMP_THRESHOLD, [0]))))
    return [int(a + np.argmax(dw[a:b])) for a, b in zip(edges[::2], edges[1::2])]


def _warn_if_nonadiabatic(
    traj: Trajectory, params: MediumParams, mech: Mechanism, jumps: list[float]
) -> None:
    idx = np.arange(0, len(traj.times), 4)
    omegas = traj.omegas[idx]
    if jumps:
        near = np.abs(omegas[:, None] - np.asarray(jumps)).min(axis=1) < 0.3 * params.gamma
        idx, omegas = idx[~near], omegas[~near]
    if idx.size == 0:
        return
    fps = steady_state.solution_arrays(params, mech, omegas)
    fixed = np.stack([2.0 * fps.rho12.real, 2.0 * fps.rho12.imag, fps.w], axis=-1)
    dist = np.linalg.norm(traj.uvw[idx, None, :] - fixed, axis=-1)
    nearest = np.where(fps.stable, dist, np.inf).min(axis=1)
    nearest = nearest[np.isfinite(nearest)]
    worst = float(nearest.max()) if nearest.size else 0.0
    if worst > ADIABATIC_DISTANCE:
        warnings.warn(
            f"sweep strayed {worst:.3g} from the stable manifold (limit {ADIABATIC_DISTANCE})",
            NonAdiabaticWarning,
            stacklevel=3,
        )
