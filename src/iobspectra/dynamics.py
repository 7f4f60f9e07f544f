"""The mean-field Bloch flow with self-consistent renormalization, and its
integration in time.

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
route for the cubic solver; this Jacobian's characteristic cubic has the
constant term gamma C(W) / W, so the fold cubic C classifies each branch.

The integrators follow the flow from a state or along an adiabatic drive
ramp with scipy's LSODA, in scipy's compiled ODEPACK module alone: importing
this module, building states and evaluating the flow load no scipy module,
and an integration loads that extension module, not scipy.integrate.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    Branch, IntegrationError, MediumParams, Mechanism, check_drive, validate_mechanism,
)
from . import steady_state

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
        if self.u * self.u + self.v * self.v + self.w * self.w > 1.0 + BLOCH_BALL_SLACK:
            raise ValueError(
                f"state ({self.u}, {self.v}, {self.w}) lies outside the Bloch ball"
            )


def _coupling(params: MediumParams, mech: Mechanism) -> tuple[float, float]:
    validate_mechanism(params, mech)
    return params.zeta_lorentz, params.zeta_detuning


def _jac(u, v, w, om, g, d, zl, zm) -> np.ndarray:
    """Jacobian of :func:`bloch_rhs` at one state, a 3x3 matrix."""
    db = d - zm * w
    zs = zl + zm
    return np.array([[-0.5 * g, -db + zl * w, zs * v],
                     [db - zl * w, -0.5 * g, -zs * u - 2.0 * om],
                     [0.0, 2.0 * om, -g]])


def _hurwitz(medium, omega, w, rho12):
    """(c1, c0) of the characteristic cubic l^3 + 2g l^2 + c1 l + c0 of
    :func:`_jac`, [[-g/2, a, zs v], [-a, -g/2, -k], [0, 2 omega, -g]], at
    fixed points given as scalars or arrays that broadcast together."""
    g, zl, zm = medium.gamma, medium.zeta_lorentz, medium.zeta_detuning
    zs = zl + zm
    u, v = 2.0 * rho12.real, 2.0 * rho12.imag
    a = zl * w - (medium.delta - zm * w)
    drive2 = 2.0 * omega
    k = zs * u + drive2
    e = 0.25 * g * g + a * a
    return e + g * g + drive2 * k, g * e + drive2 * (0.5 * g * k + a * zs * v)


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
    g, d = params.gamma, params.delta
    u, v, w = _components(state)
    obr = omega_now + 0.5 * zl * u
    obi = 0.5 * zl * v
    db = d - zm * w
    return np.array((
        -db * v - 0.5 * g * u + 2.0 * obi * w,
        db * u - 0.5 * g * v - 2.0 * obr * w,
        g * (1.0 - w) + 2.0 * (obr * v - obi * u),
    ))


def jacobian(state, params: MediumParams, mech: Mechanism, omega_now) -> np.ndarray:
    """Exact Jacobian of :func:`bloch_rhs`, including the d(omega_bar)/d(u,v)
    and d(delta_bar)/dw self-consistency terms, at one state as there."""
    zl, zm = _coupling(params, mech)
    return _jac(*_components(state), omega_now, params.gamma, params.delta, zl, zm)


def _odepack():
    """scipy's compiled ODEPACK module, loaded in 3 ms without scipy.integrate
    (half a second), and registered so that either import order shares it."""
    name = "scipy.integrate._odepack"
    if name not in sys.modules:  # a top-level spec is found without an import
        path = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                            "integrate")
        spec = importlib.machinery.PathFinder.find_spec(name, [path])
        if spec is None:
            raise ImportError(f"scipy's ODEPACK extension {name} is not in {path}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def __getattr__(name):
    # Bound on first access, by the first integration or by a tracer.  Only
    # tracers ask for solve_ivp, which imports the scipy.integrate package.
    if name not in ("odeint", "solve_ivp"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _odepack() if name == "odeint" else importlib.import_module("scipy.integrate")
    globals()[name] = value = getattr(module, name)
    return value


# odeint's failure statuses, worded as scipy.integrate.odeint words them
_LSODA_MESSAGES = {
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
    -8: "Run terminated (internal error).",
}

RAMP_RATE_MAX_FACTOR = 1e-3  # max ramp rate in units of gamma^2
JUMP_THRESHOLD = 0.1         # |delta w| per sample marking a branch jump
# How long (in 1/gamma) the ringing after a jump can keep |dw| above
# JUMP_THRESHOLD; see _jump_samples.
RING_TIME = 2.0 * math.log(4.0 / JUMP_THRESHOLD)
ADIABATIC_DISTANCE = 0.05    # allowed distance from the instantaneous stable manifold

# LSODA's step cap per output interval (odeint's mxstep, 500 by default).
# A sweep's post-jump ringing takes about 1 500 steps in some 0.01-gamma
# sample intervals of the down-sweep 2.6 -> 0.7.
LSODA_MAX_STEPS = 1_000_000


class NonAdiabaticWarning(UserWarning):
    """A sweep strayed from the instantaneous stable manifold away from folds."""


def _outside_ball(uvw: np.ndarray) -> np.ndarray:
    """Which rows of an (N, 3) state array are non-finite or outside the ball."""
    return ~np.isfinite(uvw).all(axis=1) | ((uvw * uvw).sum(axis=1) > 1.0 + BLOCH_BALL_SLACK)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: times (1/gamma units), (N, 3) states (u, v, w), drives."""

    times: np.ndarray
    uvw: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0.0):  # NaN times fail too
            raise ValueError("trajectory times must be strictly increasing")
        bad = _outside_ball(self.uvw)
        if bad.any():
            BlochState(*self.uvw[np.argmax(bad)].tolist())  # raises BlochState's error

    def state_array(self) -> np.ndarray:
        return self.uvw


@dataclass(frozen=True, eq=False)
class SweepResult:
    trajectory: Trajectory
    jumps: list[float]


def fixed_point_state(params: MediumParams, mech: Mechanism, w: float) -> BlochState:
    """Bloch state of the algebraic steady state with inversion w."""
    omega_eff, delta_eff = steady_state.effective_params(w, params, mech)
    r12 = steady_state.coherence(w, omega_eff, delta_eff, params.gamma)
    return BlochState(2.0 * r12.real, 2.0 * r12.imag, w)


def _real_eigenvalues(g: float, c1: float, c0: float) -> np.ndarray:
    """Real roots of :func:`_jac`'s characteristic cubic s^3 + 2g s^2 + c1 s + c0
    by the kernel's closed form, polished.  A monic cubic needs no quadratic fallback,
    which once c1 passes 1e14 adds a root near -c1 / (2g) that is no root of it."""
    c = steady_state._normalized(np.array([[1.0], [2.0 * g], [c1], [c0]]))
    with np.errstate(all="ignore"):
        roots = steady_state._polish(steady_state._per_root(c), steady_state._cubic_formula(c))[0]
    return roots[np.isfinite(roots)]


def _slow_start(fp: BlochState, params: MediumParams, omega_dot: float) -> BlochState:
    """The state on the slow manifold of a drive ramp at rate ``omega_dot``
    next to the fixed point ``fp`` of ``params`` (mechanism already checked).

    While the drive moves, the slow solution lags the fixed point y*.  With
    y = y* + eta and b = -omega_dot dF/domega = -omega_dot (0, -2w, 2v), to
    first order J eta = dy*/dt = J^-1 b, so eta = J^-2 b.  A start on y*
    itself excites the Jacobian's oscillatory pair, whose ringing a stiff
    integrator resolves in short steps for hundreds of time units.  So the
    shift is taken along that pair only, eta = Re sum_pair v_k beta_k /
    lambda_k^2 for b = sum_k beta_k v_k over the eigenvectors: the real mode
    gets none, since its eigenvalue vanishes at a fold.  Without a complex
    pair (three real roots below) nothing rings and there is no shift.

    The same vector follows without eigenvectors.  J's characteristic cubic
    s^3 + 2g s^2 + c1 s + c0 (Routh-Hurwitz coefficients) factors as
    (s - lr)(s^2 + p s + c) with the real eigenvalue lr, p = 2g + lr and
    c = c1 + lr p = |lambda_pair|^2.  q(J) = J^2 + p J + c vanishes on the
    pair and scales the real mode by q(lr), so b - q(J) b / q(lr) is b's pair
    part, on which J^-2 = (p J + p^2 - c) / c^2.

    The Bloch ball is invariant: R = |y|^2 obeys
    dR/dt = gamma ((1 - R) - (1 - w)^2), so slow solutions lie on the
    sphere only at the pole w = 1 (no drive, no coherence), and there to
    O((1 - w)^2).  At the pole eta is tangent to the sphere and would leave
    the ball by |eta|^2; a shifted state outside the ball is scaled back
    onto the sphere, which is the slow solution's second-order shift
    -|eta|^2 / 2 in w at the pole.
    """
    u, v, w = fp.u, fp.v, fp.w
    g = params.gamma
    c1, c0 = _hurwitz(params, params.omega, w, complex(u, v) / 2.0)
    # _real_eigenvalues in Python floats, bit for bit, or itself where that hands over
    solved = steady_state._scalar_roots((1.0, 2.0 * g, c1, c0))
    real = ([x for x in solved[0] if math.isfinite(x)] if solved is not None
            else _real_eigenvalues(g, c1, c0).tolist())
    y = np.array([u, v, w])
    if len(real) == 1:
        lr = real[0]
        p = 2.0 * g + lr
        c = c1 + lr * p
        jac = _jac(u, v, w, params.omega, g, params.delta,
                   params.zeta_lorentz, params.zeta_detuning)

        def times_jac(x):  # J x elementwise: a 3-vector needs no BLAS call
            return (jac * x).sum(axis=1)

        b = np.array([0.0, 2.0 * omega_dot * w, -2.0 * omega_dot * v])
        jb = times_jac(b)
        pair = b - (times_jac(jb) + p * jb + c * b) / ((lr + p) * lr + c)
        y += (p * times_jac(pair) + (p * p - c) * pair) / (c * c)
    norm_sq = float((y * y).sum())
    if norm_sq > 1.0:
        y /= math.sqrt(norm_sq)
    return BlochState(*y.tolist())


class Ramp(NamedTuple):
    """The drive omega0 + slope min(t, t_end) of a sweep, which ``integrate``
    evaluates inside its right-hand side and Jacobian."""

    omega0: float
    slope: float
    t_end: float


def integrate(
    state0: BlochState,
    params: MediumParams,
    mech: Mechanism,
    drive,
    t_end: float,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    *,
    t_eval=None,
) -> Trajectory:
    """Integrate the Bloch equations from t = 0 with LSODA.

    ``drive`` is a constant drive (see check_drive) or a :class:`Ramp`; a
    callable is a TypeError.  LSODA is the multistep scheme that switches
    between stiff and non-stiff formulas on its own; it is given the
    analytic Jacobian and runs as one call of scipy's compiled ODEPACK
    module (the only scipy module it loads), which returns to Python only
    for the right-hand side and the Jacobian, with ``t_end`` as its critical
    time: it never steps past a ramp that ends at ``t_end``, as every
    sweep's does, but steps across the end of one that stops earlier.  A
    sweep calls them thousands of times, most of its Python time, so neither
    allocates: each writes Python floats into one array made per
    integration, which ODEPACK copies, and the Jacobian's constant entries
    are written once.  It returns states only at the times ``t_eval``, which
    must be given, strictly increasing within [0, t_end] (ValueError
    otherwise).  The default tolerances keep relaxations of the benchmark
    medium at omega = 8 within 1e-9 of one at 1e-13 / 1e-15; sweeps pass
    looser ones.  ``t_end`` must be positive and finite: an integration to
    nan or inf would never return, and a first time after 0 too short for
    LSODA's first step is a ValueError.  A failed integration, one that
    leaves the Bloch ball, and one in which LSODA takes no step raise
    IntegrationError with the time it reached.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0.0 < rel_tol <= 1e-3 or not 0.0 < abs_tol <= 1e-3:
        raise ValueError("tolerances must lie in (0, 1e-3]")
    if t_eval is None:
        raise ValueError("integrate needs t_eval: LSODA returns states at given times only")
    t_eval = np.asarray(t_eval, dtype=float)
    if (t_eval.ndim != 1 or t_eval.size == 0 or not 0.0 <= t_eval[0]
            or not t_eval[-1] <= t_end or not np.all(np.diff(t_eval) > 0.0)):
        raise ValueError("t_eval must increase strictly within [0, t_end]")

    zl, zm = _coupling(params, mech)
    g = params.gamma
    d = params.delta
    if not isinstance(drive, Ramp):  # a constant; a slope of -0.0 adds nothing, even to -0.0
        check_drive(float(drive))
        drive = Ramp(float(drive), -0.0, 0.0)
    o0, slope, t_stop = drive
    y0 = (state0.u, state0.v, state0.w)

    # Python floats, not numpy scalars: the same results at less than half
    # the cost.  The call count locates a failed odeint call's last output.
    calls = 0
    # bloch_rhs and _jac inline, same expressions in the same order: Python
    # reads 0.5 * zl * u as (0.5 * zl) * u, so the hoisted halves keep its bits
    hzl, hg, zs = 0.5 * zl, 0.5 * g, zl + zm
    out = np.empty(3)
    buf = memoryview(out)
    jac_out = np.array([[-0.5 * g, 0.0, 0.0], [0.0, -0.5 * g, 0.0], [0.0, 0.0, -g]])
    jac_buf = memoryview(jac_out.reshape(9))  # a view: jac_out's entries, row by row

    def rhs(t, y):
        nonlocal calls
        calls += 1
        u, v, w = y.tolist()
        om = o0 + slope * (t if t < t_stop else t_stop)
        obr = om + hzl * u
        obi = hzl * v
        db = d - zm * w
        buf[0] = -db * v - hg * u + 2.0 * obi * w
        buf[1] = db * u - hg * v - 2.0 * obr * w
        buf[2] = g * (1.0 - w) + 2.0 * (obr * v - obi * u)
        return out

    def jac(t, y):
        u, v, w = y.tolist()
        om = o0 + slope * (t if t < t_stop else t_stop)
        db = d - zm * w
        jac_buf[1] = -db + zl * w
        jac_buf[2] = zs * v
        jac_buf[3] = db - zl * w
        jac_buf[5] = -zs * u - 2.0 * om
        jac_buf[7] = 2.0 * om
        return jac_out

    # odeint starts at its first time, so 0 leads a t_eval that starts later
    times = t_eval if t_eval[0] == 0.0 else np.concatenate(([0.0], t_eval))
    # DLSODA's first step is 1/sqrt(1/(tol t1 t1) + ...) for the first time t1
    # after 0: once tol t1 t1, so rounded, is at most 1/DBL_MAX it is 0 or NaN
    tol = min(max(rel_tol, 100.0 * sys.float_info.epsilon), 1e-3)
    t1 = float(times[1]) if times.size > 1 else math.inf
    if tol * t1 * t1 <= 1.0 / sys.float_info.max:
        bound = 1.0 / math.sqrt(tol * sys.float_info.max)
        raise ValueError(f"the first output time after 0 must exceed {bound:.3g}")
    # odeint through the module attribute, which loads ODEPACK on first use
    # and which a tracer can wrap, with the arguments scipy's odeint wrapper
    # passes for Dfun=jac, full_output=1, tcrit=[t_end], mxstep and tfirst=1
    uvw, info, status = sys.modules[__name__].odeint(
        rhs, y0, times, (), jac, 0, -1, -1, 1, rel_tol, abs_tol, [t_end], 0.0, 0.0, 0.0, 0,
        LSODA_MAX_STEPS, 0, 12, 5, 1)
    # 2 is success; a lone time 0 is not integrated (1, "Nothing was done")
    if times.size > 1 and status != 2:
        # odeint leaves the rows and counters after the failing output
        # unset; the last one it set is the first whose RHS count is the total
        t_fail = float(info["tcur"][np.argmax(info["nfe"] == calls)])
        raise IntegrationError(f"integration failed at t={t_fail}: {_LSODA_MESSAGES[status]}",
                               time=t_fail)
    # the callbacks' drive at every sample at once, their comparison kept for signed zeros
    omegas = o0 + slope * np.where(t_eval < t_stop, t_eval, t_stop)
    try:
        traj = Trajectory(times=t_eval, uvw=uvw[times.size - t_eval.size:], omegas=omegas)
    except ValueError as exc:  # the times always increase: a state left the ball
        # Row k >= 1 of odeint's rows is the first bad one (row 0 is y0).  It
        # may lie past the time LSODA reached: an RHS that is inf at t = 0
        # gives "Integration successful." and NaN rows, with tcur still 0.
        k = int(np.argmax(_outside_ball(uvw)))
        t_fail = min(float(times[k]), float(info["tcur"][k - 1]))
        raise IntegrationError(f"integrator left the Bloch ball: {exc}", time=t_fail) from exc
    # an overflowed RHS norm makes LSODA's first step 0: it "succeeds" unmoved, hu still 0
    if times.size > 1 and info["hu"][0] == 0.0:
        raise IntegrationError("integration failed at t=0.0: LSODA took no step", time=0.0)
    return traj


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

    The endpoints are distinct drives (see check_drive).  The sweep starts
    next to the stable fixed point appropriate to its direction (lower
    branch going up, upper going down), on the ramp's slow manifold: shifted
    by the first-order lag of the moving fixed point along the Jacobian's
    oscillatory pair (see _slow_start), so that the start excites no
    ringing.  It integrates with LSODA in one ODEPACK call, with the ramp's
    end as the critical time, at the ``samples`` times (at least 2): compiled
    steps and linear algebra keep long slow ramps cheap, and the output does
    not depend on the BLAS thread setup.
    Branch jumps show up as runs of |dw| spikes between samples; the drive
    midway across the largest spike of each run is returned.
    A NonAdiabaticWarning is raised if, away from detected jumps, the state
    strays more than ADIABATIC_DISTANCE from every instantaneous stable
    fixed point.
    """
    check_drive(omega_start, "omega_start")
    check_drive(omega_end, "omega_end")
    if omega_start == omega_end:
        raise ValueError("sweep endpoints must be distinct")
    if not 0.0 < ramp_rate <= RAMP_RATE_MAX_FACTOR * (params.gamma * params.gamma):
        raise ValueError(
            f"ramp_rate must lie in (0, {RAMP_RATE_MAX_FACTOR} gamma^2] for adiabaticity"
        )
    if samples is not None and samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")

    direction = 1.0 if omega_end > omega_start else -1.0
    span = abs(omega_end - omega_start)
    t_end = span / ramp_rate

    start_params = replace(params, omega=float(omega_start))
    sols = steady_state.solutions_at(start_params, mech)
    preferred = Branch.LOWER if direction > 0 else Branch.UPPER
    by_branch = {s.branch: s for s in sols}
    start = by_branch.get(preferred, sols[0])
    fp = BlochState(2.0 * start.rho12.real, 2.0 * start.rho12.imag, start.w)
    y0 = _slow_start(fp, start_params, direction * ramp_rate)

    if samples is None:
        samples = min(20001, max(101, int(span / (0.01 * params.gamma)) + 1))
    t_eval = np.linspace(0.0, t_end, samples)

    traj = integrate(
        y0, params, mech, Ramp(omega_start, direction * ramp_rate, t_end), t_end,
        rel_tol=1e-8, abs_tol=1e-10, t_eval=t_eval,
    )

    w = traj.uvw[:, 2]
    ring = RING_TIME / params.gamma / (t_end / (samples - 1))
    jumps = [float(0.5 * (traj.omegas[k] + traj.omegas[k + 1])) for k in _jump_samples(w, ring)]
    _warn_if_nonadiabatic(traj, params, mech, jumps)
    return SweepResult(trajectory=traj, jumps=jumps)


def _jump_samples(w: np.ndarray, ring: float) -> list[int]:
    """For each branch switch in ``w``, the index k of its largest step
    (from sample k to k + 1).  A switch is a run of consecutive
    |dw| > JUMP_THRESHOLD between samples, together with the later runs
    that start fewer than ``ring`` samples after it began.

    Those later runs are the ringing of the state about the new stable
    branch, a Rabi oscillation whose |dw| between samples can exceed the
    threshold on and off.  Its amplitude in w is at most 2 (|w| <= 1), so a
    step is at most 4 exp(-kappa t) for a decay rate kappa.  At zero
    coupling the Bloch Jacobian's eigenvalues have real parts in
    [-gamma, -gamma/2] (coherence decay gamma/2, population decay gamma),
    and the branches reached by the jumps of the benchmark medium decay at
    0.50 to 0.70 gamma.  With kappa = gamma/2 the steps stay below
    JUMP_THRESHOLD after RING_TIME = (2/gamma) ln(4/JUMP_THRESHOLD), about
    7.4/gamma, which ``ring`` expresses in samples.
    """
    dw = np.abs(np.diff(w))
    edges = np.flatnonzero(np.diff(np.concatenate(([0], dw > JUMP_THRESHOLD, [0])))).tolist()
    switches: list[list[int]] = []
    for a, b in zip(edges[::2], edges[1::2]):
        if switches and a - switches[-1][0] < ring:
            switches[-1][1] = b
        else:
            switches.append([a, b])
    return [a + int(np.argmax(dw[a:b])) for a, b in switches]


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
