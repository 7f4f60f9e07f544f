import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import python
from scipy.integrate import solve_ivp

from iobspectra import dynamics, steady_state
from iobspectra import (
    BlochState,
    Branch,
    IntegrationError,
    MediumParams,
    Mechanism,
    bloch_rhs,
    branch_solution,
    find_thresholds,
    fixed_point_state,
    integrate,
    jacobian,
    solve_inversion,
    solution_arrays,
    sweep_adiabatic,
    Trajectory,
)
from iobspectra.dynamics import JUMP_THRESHOLD, Ramp, _jump_samples
from media import LORENTZ_50, DETUNING_50, OMEGA_UP_EXACT, OMEGA_DOWN_EXACT, fold_points

FREE = MediumParams(delta=3.0)
JOINT_50 = MediumParams(delta=3.0, zeta_lorentz=30.0, zeta_detuning=20.0)
OMEGA_UP, OMEGA_DOWN = find_thresholds(LORENTZ_50, Mechanism.LORENTZ)


def fp_distance(row, fp):
    """Distance from a (u, v, w) row of a trajectory to the state ``fp``."""
    return math.dist(row.tolist(), (fp.u, fp.v, fp.w))


# ------------------------------------------------------------------- state type

def test_bloch_state_validation():
    BlochState(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BlochState(1.0, 1.0, 1.0)  # outside the ball
    with pytest.raises(ValueError):
        BlochState(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        BlochState(0.0, 0.0, 1e200)  # its square overflows


def test_trajectory_holds_one_state_array():
    """A trajectory keeps its states as one (N, 3) array, checked against the
    Bloch ball with BlochState's own error for the first bad row; its rows
    are the (u, v, w) of BlochStates."""
    times, drives = np.arange(4.0), np.zeros(4)
    rows = np.array([[0.6, 0.0, 0.8], [0.0, 0.0, 1.0], [0.1, -0.2, 0.3], [0.0, 0.0, -1.0]])
    traj = Trajectory(times=times, uvw=rows, omegas=drives)
    assert traj.state_array() is traj.uvw
    assert len(traj.uvw) == 4
    assert [BlochState(*r) for r in traj.uvw.tolist()] == [BlochState(*r) for r in rows.tolist()]
    assert BlochState(*traj.uvw[-1].tolist()) == BlochState(0.0, 0.0, -1.0)
    with pytest.raises(IndexError):
        traj.uvw[4]
    cases = [([1.0, 1.0, 1.0], [math.nan, 0.0, 0.0]),
             ([math.nan, 0.0, 0.0], [1.0, 1.0, 1.0]),
             ([0.0, math.inf, 0.0], [0.0, 0.0, 2.0]),
             ([0.0, 0.0, 1.0 + 2e-9], [1.0, 1.0, 1.0])]
    for bad, later in cases:
        uvw = rows.copy()
        uvw[1], uvw[2] = bad, later
        with pytest.raises(ValueError) as got:
            Trajectory(times=times, uvw=uvw, omegas=drives)
        with pytest.raises(ValueError) as want:
            BlochState(*bad)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("times", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0],
                                   [3.0, 2.0, 1.0, 0.0], [0.0, 1.0, math.nan, 2.0]])
def test_trajectory_refuses_times_that_do_not_increase(times):
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(times=np.array(times), uvw=np.zeros((4, 3)), omegas=np.zeros(4))


# ------------------------------------------------------------------ right side

def test_fixed_points_annihilate_rhs():
    for params, mech in ((LORENTZ_50, Mechanism.LORENTZ), (DETUNING_50, Mechanism.DETUNING)):
        for om in np.linspace(0.2, 20.0, 25):
            p = replace(params, omega=float(om))
            for w in solve_inversion(p, mech):
                state = fixed_point_state(p, mech, w)
                rhs = bloch_rhs(state, p, mech, p.omega)
                assert max(abs(r) for r in rhs) <= 1e-10 * p.gamma


def test_free_decay_rates():
    """Zero drive: populations relax at gamma, coherences at gamma/2."""
    p = MediumParams(omega=0.0, delta=2.0)
    state0 = BlochState(0.6, 0.0, 0.8)
    t_eval = np.linspace(0.0, 5.0, 11)
    traj = integrate(state0, p, Mechanism.LORENTZ, 0.0, 5.0, t_eval=t_eval)
    for t, (u, v, w) in zip(traj.times, traj.uvw.tolist()):
        coh = math.hypot(u, v)
        assert coh == pytest.approx(0.6 * math.exp(-0.5 * t), rel=1e-7, abs=1e-12)
        assert w == pytest.approx(1.0 - 0.2 * math.exp(-t), rel=1e-8)


def test_fully_excited_decay():
    p = MediumParams(omega=0.0)
    traj = integrate(BlochState(0.0, 0.0, -1.0), p, Mechanism.LORENTZ, 0.0, 3.0,
                     t_eval=np.linspace(0.0, 3.0, 7))
    for t, w in zip(traj.times, traj.uvw[:, 2].tolist()):
        rho22 = 0.5 * (1.0 - w)
        assert rho22 == pytest.approx(math.exp(-t), rel=1e-8)


def test_no_coherence_means_bare_drive():
    """With u = v = 0 the local-field correction vanishes from the flow."""
    coupled = MediumParams(delta=2.0, zeta_lorentz=40.0)
    free = MediumParams(delta=2.0)
    state = BlochState(0.0, 0.0, 0.5)
    assert bloch_rhs(state, coupled, Mechanism.LORENTZ, 3.0) == pytest.approx(
        bloch_rhs(state, free, Mechanism.LORENTZ, 3.0)
    )


@pytest.mark.parametrize("params, mech", [
    (LORENTZ_50, Mechanism.LORENTZ), (DETUNING_50, Mechanism.DETUNING), (JOINT_50, Mechanism.JOINT),
], ids=["lorentz", "detuning", "joint"])
def test_bloch_rhs_on_arrays_equals_its_scalar_calls(params, mech):
    """Array components of one shape, with an array or a scalar drive, give a
    (3, ...) result whose every column is the scalar call's, bit for bit."""
    rng = np.random.default_rng(11)
    u, v, w = rng.uniform(-0.6, 0.6, (3, 4, 5))
    for drive in (rng.uniform(0.0, 20.0, (4, 5)), 8.0):
        out = bloch_rhs((u, v, w), params, mech, drive)
        assert out.shape == (3, 4, 5)
        drives = np.broadcast_to(drive, (4, 5))
        for k in np.ndindex(4, 5):
            scalar = bloch_rhs((float(u[k]), float(v[k]), float(w[k])), params, mech,
                               float(drives[k]))
            assert out[(slice(None), *k)].tolist() == scalar.tolist(), k


# -------------------------------------------------------------------- Jacobian

def central_difference_jacobian(y, params, mech, omega, h=1e-5):
    out = np.empty((3, 3))
    for j in range(3):
        up = np.array(y, dtype=float)
        dn = np.array(y, dtype=float)
        up[j] += h
        dn[j] -= h
        out[:, j] = (bloch_rhs(up, params, mech, omega) - bloch_rhs(dn, params, mech, omega)) / (2.0 * h)
    return out


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    cases = [
        (LORENTZ_50, Mechanism.LORENTZ),
        (DETUNING_50, Mechanism.DETUNING),
        (MediumParams(delta=-2.0, zeta_lorentz=12.0, zeta_detuning=7.0), Mechanism.JOINT),
        (FREE, Mechanism.LORENTZ),
    ]
    for params, mech in cases:
        for _ in range(6):
            y = rng.uniform(-0.5, 0.5, 3)
            omega = rng.uniform(0.0, 10.0)
            exact = jacobian(y, params, mech, omega)
            approx = central_difference_jacobian(y, params, mech, omega)
            assert np.max(np.abs(exact - approx)) <= 1e-6


def test_jacobian_free_atom_eigenvalues():
    p = MediumParams(delta=3.0, omega=0.0)
    eigs = np.linalg.eigvals(jacobian(BlochState(0.0, 0.0, 1.0), p, Mechanism.LORENTZ, 0.0))
    expected = {complex(-0.5, 3.0), complex(-0.5, -3.0), complex(-1.0, 0.0)}
    for e in eigs:
        assert min(abs(e - x) for x in expected) < 1e-12


def test_middle_branch_has_unstable_eigenvalue():
    p = replace(LORENTZ_50, omega=8.0)
    _, mid, _ = solve_inversion(p, Mechanism.LORENTZ)
    state = fixed_point_state(p, Mechanism.LORENTZ, mid)
    eigs = np.linalg.eigvals(jacobian(state, p, Mechanism.LORENTZ, 8.0))
    assert np.max(eigs.real) > 0.0


def test_stability_agreement_with_classifier():
    for om in np.linspace(0.3, 20.0, 30):
        p = replace(LORENTZ_50, omega=float(om))
        arr = solution_arrays(p, Mechanism.LORENTZ, [p.omega])
        roots = solve_inversion(p, Mechanism.LORENTZ)
        assert arr.w[0, :arr.count[0]].tolist() == roots[::-1]
        for w, stable in zip(roots[::-1], arr.stable[0].tolist()):
            state = fixed_point_state(p, Mechanism.LORENTZ, w)
            eigs = np.linalg.eigvals(jacobian(state, p, Mechanism.LORENTZ, p.omega))
            assert stable == bool(np.all(eigs.real < 0.0))


# ----------------------------------------------------------------- integration

def test_ground_state_invariant_without_drive():
    p = MediumParams(omega=0.0, zeta_lorentz=20.0)
    traj = integrate(BlochState(0.0, 0.0, 1.0), p, Mechanism.LORENTZ, 0.0, 50.0,
                     t_eval=np.linspace(0.0, 50.0, 26))
    arr = traj.state_array()
    assert np.max(np.abs(arr[:, 2] - 1.0)) <= 1e-12
    assert np.max(np.abs(arr[:, :2])) <= 1e-12


def test_perturbed_stable_branch_returns():
    p = replace(LORENTZ_50, omega=8.0)
    upper = branch_solution(p, Mechanism.LORENTZ, Branch.UPPER)
    fp = fixed_point_state(p, Mechanism.LORENTZ, upper.w)
    start = BlochState(fp.u + 1e-3, fp.v - 1e-3, fp.w + 1e-3)
    traj = integrate(start, p, Mechanism.LORENTZ, 8.0, 50.0, t_eval=[0.0, 50.0])
    assert fp_distance(traj.uvw[-1], fp) <= 1e-6


def test_perturbed_middle_branch_escapes_to_upper():
    p = replace(LORENTZ_50, omega=8.0)
    middle = branch_solution(p, Mechanism.LORENTZ, Branch.MIDDLE)
    upper = branch_solution(p, Mechanism.LORENTZ, Branch.UPPER)
    fp_mid = fixed_point_state(p, Mechanism.LORENTZ, middle.w)
    fp_up = fixed_point_state(p, Mechanism.LORENTZ, upper.w)
    start = BlochState(fp_mid.u, fp_mid.v, fp_mid.w - 1e-6)  # nudge toward upper
    traj = integrate(start, p, Mechanism.LORENTZ, 8.0, 300.0, t_eval=[0.0, 300.0])
    assert fp_distance(traj.uvw[-1], fp_mid) > 0.05
    assert fp_distance(traj.uvw[-1], fp_up) <= 1e-6


def test_relaxations_meet_a_tight_reference_at_the_default_tolerances():
    """The README relax (upper branch at omega = 8, w nudged by 1e-3) and a
    relax from the ground state at omega = 8, 1001 samples over 50/gamma,
    stay within 1e-9 of the same integration at rel_tol 1e-13 and abs_tol
    1e-15 when run at the default tolerances."""
    p = replace(LORENTZ_50, omega=8.0)
    upper = branch_solution(p, Mechanism.LORENTZ, Branch.UPPER)
    readme = BlochState(2.0 * upper.rho12.real, 2.0 * upper.rho12.imag, upper.w + 1e-3)
    t_eval = np.linspace(0.0, 50.0, 1001)
    for start in (readme, BlochState(0.0, 0.0, 1.0)):
        got = integrate(start, p, Mechanism.LORENTZ, 8.0, 50.0, t_eval=t_eval)
        ref = integrate(start, p, Mechanism.LORENTZ, 8.0, 50.0, rel_tol=1e-13, abs_tol=1e-15,
                        t_eval=t_eval)
        assert np.max(np.abs(got.uvw - ref.uvw)) <= 1e-9


def test_bloch_ball_containment():
    p = replace(LORENTZ_50, omega=8.0)
    lower = branch_solution(p, Mechanism.LORENTZ, Branch.LOWER)
    fp = fixed_point_state(p, Mechanism.LORENTZ, lower.w)
    start = BlochState(fp.u, fp.v, fp.w - 0.05)
    traj = integrate(start, p, Mechanism.LORENTZ, 8.0, 100.0,
                     t_eval=np.linspace(0.0, 100.0, 401))
    arr = traj.state_array()
    assert np.max(np.sum(arr * arr, axis=1)) <= 1.0 + 1e-9


def test_integrate_validation():
    state = BlochState(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(state, FREE, Mechanism.LORENTZ, 1.0, -1.0)
    with pytest.raises(ValueError):
        integrate(state, FREE, Mechanism.LORENTZ, 1.0, 1.0, rel_tol=1e-2)


def test_time_dependent_drive_is_sampled():
    p = MediumParams()
    traj = integrate(BlochState(0.0, 0.0, 1.0), p, Mechanism.LORENTZ,
                     Ramp(0.0, 0.1, 10.0), 10.0, t_eval=np.linspace(0.0, 10.0, 5))
    assert traj.omegas == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


# ---------------------------------------------------------- joint-fixed points

def test_joint_coupling_additivity_via_fixed_points():
    """A joint (30, 20) medium shares its inversion roots with a single
    50-coupling mechanism, and its own flow vanishes on them."""
    joint = MediumParams(delta=3.0, omega=8.0, zeta_lorentz=30.0, zeta_detuning=20.0)
    single = replace(LORENTZ_50, omega=8.0)
    roots_joint = solve_inversion(joint, Mechanism.JOINT)
    roots_single = solve_inversion(single, Mechanism.LORENTZ)
    assert roots_joint == pytest.approx(roots_single, abs=1e-12)
    for w in roots_joint:
        state = fixed_point_state(joint, Mechanism.JOINT, w)
        rhs = bloch_rhs(state, joint, Mechanism.JOINT, 8.0)
        assert max(abs(r) for r in rhs) <= 1e-10


# ---------------------------------------------------------------------- sweeps

def test_sweep_rate_validation():
    with pytest.raises(ValueError):
        sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, 1.0, 2.0, 5e-3)
    with pytest.raises(ValueError):
        sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, 1.0, 1.0, 1e-3)


@pytest.mark.parametrize("name, args", [
    ("omega_end", (1.0, math.nan)),
    ("omega_end", (1.0, math.inf)),
    ("omega_start", (math.nan, 2.0)),
    ("omega_start", (math.inf, 2.0)),
])
def test_sweep_rejects_nonfinite_endpoints(name, args):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, *args, 1e-3)


@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_integrate_rejects_a_nonfinite_constant_drive(omega):
    with pytest.raises(ValueError, match="omega must be finite"):
        integrate(BlochState(0.0, 0.0, 1.0), FREE, Mechanism.LORENTZ, omega, 1.0,
                  t_eval=[0.0, 1.0])


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_sweep_needs_two_samples(samples):
    """A sweep spaces its samples t_end / (samples - 1) apart, so fewer than
    two is a ValueError that names samples."""
    with pytest.raises(ValueError, match="samples must be at least 2"):
        sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, 13.0, 13.5, 1e-3, samples=samples)


NONFINITE_T_END = """
import json, math
from iobspectra import BlochState, MediumParams, Mechanism, integrate
errors = []
for t_end in (math.nan, math.inf):
    try:
        integrate(BlochState(0.0, 0.0, 1.0), MediumParams(delta=3.0), Mechanism.LORENTZ,
                  1.0, t_end, t_eval=[0.0, 1.0])
    except ValueError as exc:
        errors.append(str(exc))
print(json.dumps(errors))
"""


def test_integrate_rejects_nonfinite_t_end():
    """An integration to t_end = nan or inf would never return, so it runs in
    a child process under a timeout."""
    proc = python("-c", NONFINITE_T_END, timeout=60)
    assert proc.returncode == 0, proc.stderr
    errors = json.loads(proc.stdout)
    assert len(errors) == 2
    assert all(e.startswith("t_end must be positive and finite") for e in errors)


BROKEN_RHS = """
import json, sys, warnings
import numpy as np
from iobspectra import BlochState, IntegrationError, MediumParams, Mechanism, dynamics
bad, out = float(sys.argv[1]), sys.argv[2]
odeint = dynamics.odeint

def broken_odeint(rhs, *args):  # integrate's callback, broken past t = 3
    def broken(t, y):
        out = rhs(t, y)  # the real callback first keeps integrate's call count exact
        return (bad, 0.0, 0.0) if t > 3.0 else out
    return odeint(broken, *args)

dynamics.odeint = broken_odeint
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    try:
        dynamics.integrate(BlochState(0.0, 0.0, 1.0), MediumParams(delta=3.0), Mechanism.LORENTZ,
                           dynamics.Ramp(0.0, 1.0, 10.0), 10.0,
                           t_eval=np.linspace(0.0, 10.0, 11))
        result = {"error": None}
    except IntegrationError as exc:
        result = {"error": str(exc), "time": exc.time}
result["warnings"] = [w.category.__name__ for w in caught]
with open(out, "w") as f:
    json.dump(result, f)
"""


@pytest.mark.parametrize("bad, message", [
    ("inf", "integration failed at t="),           # LSODA itself stops
    ("nan", "integrator left the Bloch ball: "),   # LSODA accepts NaN steps
])
def test_lsoda_failure_is_an_integration_error(tmp_path, bad, message):
    """A right-hand side that breaks at t = 3 ends the one ODEPACK call.  The
    caller gets IntegrationError with the time reached, near t = 3, and no
    rows: no warning is emitted, and nothing reaches stdout or stderr.  It runs in a child process under a timeout, in case the
    solver does not stop."""
    out = tmp_path / "result.json"
    proc = python("-c", BROKEN_RHS, bad, str(out), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "" and proc.stderr == ""
    result = json.loads(out.read_text())
    assert result["error"].startswith(message)
    assert math.isfinite(result["time"]) and 2.0 <= result["time"] <= 4.0
    assert result["warnings"] == []


def rhs_inf_from_the_start(monkeypatch):
    """Wrap the callback ``integrate`` passes to ``dynamics.odeint`` so that
    it returns inf in du/dt at every call, after the real callback ran."""
    odeint = dynamics.odeint

    def broken_odeint(rhs, *args):
        def broken(t, y):
            rhs(t, y)  # keeps integrate's call count exact
            return (math.inf, 0.0, 0.0)
        return odeint(broken, *args)

    monkeypatch.setattr(dynamics, "odeint", broken_odeint)


def test_lsoda_failure_at_the_first_step(monkeypatch, capfd):
    """A right-hand side that is inf from the start fails before the first
    sample after 0: IntegrationError with a time in [0, t_eval[1]], no
    warning, and nothing printed by the solver."""
    rhs_inf_from_the_start(monkeypatch)
    for t_eval in ([0.0, 1.0], np.linspace(0.0, 1.0, 11)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IntegrationError) as info:
                integrate(BlochState(0.0, 0.0, 1.0), FREE, Mechanism.LORENTZ, 1.0, 1.0,
                          t_eval=t_eval)
        assert 0.0 <= info.value.time <= t_eval[1]
        assert caught == []
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("t_eval", [[0.0, 1.0], [1.0]])
def test_lsoda_failure_time_is_where_lsoda_stopped(monkeypatch, t_eval):
    """With a right-hand side that is inf from the start, odeint reports
    success with a NaN row at t = 1 but LSODA's time still at 0.  The
    failure time is where LSODA stopped, not the first bad sample, also
    when a leading 0 is put before t_eval."""
    rhs_inf_from_the_start(monkeypatch)
    with pytest.raises(IntegrationError, match="left the Bloch ball") as info:
        integrate(BlochState(0.0, 0.0, 1.0), FREE, Mechanism.LORENTZ, 1.0, 1.0,
                  t_eval=t_eval)
    assert info.value.time == 0.0


@pytest.mark.parametrize("omega", [1e150, 3e153])
def test_a_drive_that_stalls_lsoda_is_an_integration_error(omega):
    """At a constant drive this large, within OMEGA_MAX, the squared norm of
    the first derivative overflows in LSODA's initial step size, which comes
    out 0.  odeint then reports "Integration successful." with the state
    unmoved at every output time; that is an IntegrationError at the time
    LSODA reached, 0."""
    with pytest.raises(IntegrationError, match="integration failed at t=0.0") as info:
        integrate(BlochState(0.0, 0.0, 1.0), LORENTZ_50, Mechanism.LORENTZ, omega, 1.0,
                  t_eval=[0.0, 1.0])
    assert info.value.time == 0.0


@pytest.mark.parametrize("t1, rel_tol", [(1e-160, 1e-11), (1e-300, 1e-11), (5e-324, 1e-11),
                                         (1e-150, 1e-11), (1e-152, 1e-8)])
def test_a_first_time_that_underflows_lsodas_first_step_is_refused(t1, rel_tol):
    """DLSODA's initial step is 1/sqrt(1/(tol t1^2) + tol |f0|^2) for the first
    output time t1 after 0 and tol = min(max(rel_tol, 100 eps), 1e-3).  Once
    tol t1^2 falls to 1/DBL_MAX the step is 0 or NaN, and LSODA "takes no
    step" or leaves the Bloch ball; such a t1 is a ValueError that names the
    bound, before the call."""
    with pytest.raises(ValueError, match="the first output time after 0 must exceed"):
        integrate(BlochState(0.0, 0.0, 1.0), LORENTZ_50, Mechanism.LORENTZ, 8.0, 1.0,
                  rel_tol=rel_tol, t_eval=[t1, 1.0])


@pytest.mark.parametrize("rel_tol", [1e-11, 1e-8, 1e-3])
def test_short_first_times_above_the_bound_integrate(rel_tol):
    """At the bound 1/sqrt(tol DBL_MAX) the first step is refused, one part in
    1e12 above it LSODA integrates, and at 1e-100 it does so at every
    tolerance: from the ground state v = -2 omega t to first order."""
    tol = min(max(rel_tol, 100.0 * sys.float_info.epsilon), 1e-3)
    bound = 1.0 / math.sqrt(tol * sys.float_info.max)
    with pytest.raises(ValueError, match=f"must exceed {bound:.3g}"):
        integrate(BlochState(0.0, 0.0, 1.0), LORENTZ_50, Mechanism.LORENTZ, 8.0, bound,
                  rel_tol=rel_tol, t_eval=[0.0, bound])
    for t1 in (bound * (1.0 + 1e-12), 1e-100):
        traj = integrate(BlochState(0.0, 0.0, 1.0), LORENTZ_50, Mechanism.LORENTZ, 8.0, t1,
                         rel_tol=rel_tol, t_eval=[0.0, t1])
        assert traj.uvw[-1, 1] == pytest.approx(-16.0 * t1, rel=1e-9)


@pytest.mark.parametrize("t_eval", [None, [], [0.0, 2.0], [-1.0, 0.5], [0.0, 0.5, 0.5],
                                    [0.5, 0.2], [[0.0, 0.5]], [0.0, math.nan, 1.0],
                                    [0.0, 0.5, math.nan, 1.0]])
def test_lsoda_needs_increasing_t_eval_within_t_span(t_eval):
    """LSODA returns states at given times only, so it needs t_eval, strictly
    increasing within [0, t_end]."""
    with pytest.raises(ValueError, match="t_eval"):
        integrate(BlochState(0.0, 0.0, 1.0), FREE, Mechanism.LORENTZ, 1.0, 1.0,
                  t_eval=t_eval)


def test_lsoda_samples_after_the_start():
    """A t_eval that starts after t = 0 is integrated from 0 all the same:
    the states match those of a t_eval from 0, to the tolerance."""
    state0, t_eval = BlochState(0.0, 0.0, 1.0), np.linspace(0.0, 5.0, 11)
    full = integrate(state0, FREE, Mechanism.LORENTZ, 1.0, 5.0, t_eval=t_eval)
    late = integrate(state0, FREE, Mechanism.LORENTZ, 1.0, 5.0, t_eval=t_eval[3:])
    np.testing.assert_array_equal(late.times, t_eval[3:])
    np.testing.assert_allclose(late.uvw, full.uvw[3:], rtol=0.0, atol=1e-7)


@pytest.mark.filterwarnings("ignore::iobspectra.steady_state.MarginalStabilityWarning")
@pytest.mark.parametrize("start, end, jump", [
    (OMEGA_UP, OMEGA_UP + 0.3, 15.705630803086725),
    (OMEGA_DOWN, OMEGA_DOWN - 0.3, 1.3864697079849306),
    (OMEGA_UP * (1.0 - 1e-9), OMEGA_UP + 0.3, 15.702630788901638),
])
def test_sweeps_from_the_folds_start_in_the_ball(start, end, jump):
    """At a fold the Jacobian's real eigenvalue vanishes; the slow-manifold
    shift leaves that mode alone, so the start stays finite and inside the
    Bloch ball, and the jump is the one a start on the fixed point gives."""
    result = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, start, end, 1e-3)
    y0 = result.trajectory.uvw[0]
    assert y0 @ y0 <= 1.0
    assert result.jumps == [jump]


def test_sweep_from_the_pole_starts_on_the_sphere():
    """At zero drive and detuning the fixed point is the pole (0, 0, 1) and
    the first-order shift eta is tangent to the sphere, so the shifted state
    would leave the ball by |eta|^2.  It is scaled back onto the sphere,
    which moves w by -|eta|^2 / 2: the slow solution's own second-order
    shift, as the state reached by ramping from omega = -0.2 (the same flow
    with u, v reversed) shows to a tenth of |eta|^2."""
    params, rate = MediumParams(delta=0.0, zeta_lorentz=5.0), 1e-3
    result = sweep_adiabatic(params, Mechanism.LORENTZ, 0.0, 1.0, rate)
    assert result.jumps == []
    y0 = result.trajectory.uvw[0]
    assert y0 @ y0 <= 1.0 + 4.0 * float(np.finfo(float).eps)

    past = 0.2
    p_past = replace(params, omega=past)
    fp = fixed_point_state(p_past, Mechanism.LORENTZ, solve_inversion(p_past, Mechanism.LORENTZ)[0])
    slow = integrate(BlochState(-fp.u, -fp.v, fp.w), params, Mechanism.LORENTZ,
                     Ramp(-past, rate, past / rate), past / rate, rel_tol=1e-12, abs_tol=1e-14,
                     t_eval=[0.0, past / rate]).uvw[-1]
    eta_sq = y0[0] ** 2 + y0[1] ** 2
    assert eta_sq > 1e-9
    assert np.max(np.abs(y0 - slow)) <= 0.1 * eta_sq


@pytest.mark.parametrize("omega", [8.0, 1e4, 5e6, 1e8])
def test_the_slow_start_finds_the_one_real_eigenvalue_at_any_drive(omega):
    """At the least excited fixed point of delta = 3, zeta_l = 50, inside
    the window and at ever stronger drive, the slow-manifold start finds one
    real root of the characteristic cubic: the real eigenvalue of the
    Jacobian, to 1e-12.  Around omega = 5e6 (c1 about 1e14) the kernel's
    degree test read the cubic as a quadratic and added the root -5e13, so
    with two real roots the shift was skipped."""
    params = replace(LORENTZ_50, omega=omega)
    fp = fixed_point_state(params, Mechanism.LORENTZ,
                           solve_inversion(params, Mechanism.LORENTZ)[-1])
    g, d, zl = params.gamma, params.delta, params.zeta_lorentz
    real = dynamics._real_eigenvalues(g, *dynamics._hurwitz(params, omega, fp.w,
                                                            complex(fp.u, fp.v) / 2.0))
    eigs = np.linalg.eigvals(dynamics._jac(fp.u, fp.v, fp.w, omega, g, d, zl, 0.0))
    (want,) = eigs.real[eigs.imag == 0.0]
    assert real.size == 1 and abs(real[0] - want) <= 1e-12 * abs(want), (real, eigs)


def test_the_slow_starts_eigenvalues_are_the_kernels_bits():
    """The slow-manifold start takes the Jacobian's real eigenvalues from
    the kernel's float path, _scalar_roots, where it answers: over 600
    seeded lorentz, detuning and joint media (gamma 1e-3 ... 1e3, |delta| up
    to 50 gamma, zeta 1e-2 ... 3e2 gamma, omega 1e-2 ... 1e7 gamma), at every
    fixed point, its finite roots are _real_eigenvalues' bit for bit, and
    on some fixed points it hands over."""
    rng = np.random.default_rng(41)
    answered = handed = 0
    for i in range(600):
        mech = list(Mechanism)[i % 3]
        g = 10.0 ** rng.uniform(-3.0, 3.0)
        zeta = g * 10.0 ** rng.uniform(-2.0, math.log10(300.0))
        share = {Mechanism.LORENTZ: 1.0, Mechanism.DETUNING: 0.0}.get(mech, rng.uniform(0.1, 0.9))
        params = MediumParams(gamma=g, delta=g * rng.uniform(-50.0, 50.0),
                              zeta_lorentz=share * zeta, zeta_detuning=(1.0 - share) * zeta,
                              omega=g * 10.0 ** rng.uniform(-2.0, 7.0))
        for sol in steady_state.solutions_at(params, mech):
            u, v = 2.0 * sol.rho12.real, 2.0 * sol.rho12.imag  # as sweep_adiabatic's start
            c1, c0 = dynamics._hurwitz(params, params.omega, sol.w, complex(u, v) / 2.0)
            solved = steady_state._scalar_roots((1.0, 2.0 * g, c1, c0))
            if solved is None:
                handed += 1
                continue
            answered += 1
            got = [x.hex() for x in solved[0] if math.isfinite(x)]
            want = [x.hex() for x in dynamics._real_eigenvalues(g, c1, c0).tolist()]
            assert got == want, (params, mech, sol.w)
    assert answered > 0 and handed > 0, (answered, handed)


def odeint_oracle(y0, t_eval, drive, params, t_end, rel_tol, abs_tol):
    """The integration of ``integrate``, made through scipy's public
    ``odeint`` wrapper with keyword arguments and a plain callable drive."""
    from scipy.integrate import odeint

    g, d, zl, zm = params.gamma, params.delta, params.zeta_lorentz, params.zeta_detuning
    # joint keeps both couplings, so it takes every medium as it is
    return odeint(lambda t, y: dynamics.bloch_rhs(y.tolist(), params, Mechanism.JOINT, drive(t)),
                  np.array(y0), t_eval,
                  Dfun=lambda t, y: dynamics._jac(*y.tolist(), drive(t), g, d, zl, zm),
                  rtol=rel_tol, atol=abs_tol, tcrit=[t_end], mxstep=dynamics.LSODA_MAX_STEPS,
                  tfirst=True)


@pytest.mark.parametrize("params, mech, start, end, samples", [
    pytest.param(LORENTZ_50, Mechanism.LORENTZ, 13.0, 16.6, 721, id="13.0-16.6-721"),
    pytest.param(LORENTZ_50, Mechanism.LORENTZ, 2.6, 0.7, None, id="2.6-0.7-None"),
    pytest.param(DETUNING_50, Mechanism.DETUNING, 13.0, 16.6, 721, id="detuning-13.0-16.6-721"),
    pytest.param(DETUNING_50, Mechanism.DETUNING, 2.6, 0.7, None, id="detuning-2.6-0.7-None"),
    pytest.param(JOINT_50, Mechanism.JOINT, 13.0, 16.6, None, id="joint-13.0-16.6-None"),
])
def test_sweeps_equal_scipys_odeint_bit_for_bit(params, mech, start, end, samples):
    """The README up-sweep and the down-sweep 2.6 -> 0.7, of the README
    medium and of media with a detuning coupling, integrated by the direct
    ODEPACK call with the ramp evaluated inside the right-hand side, equal
    bit for bit the same integration through scipy's public odeint with the
    ramp as a plain function: a scipy whose private signature changed fails
    here, and so does an inline right-hand side that rounds differently."""
    result = sweep_adiabatic(params, mech, start, end, 1e-3, samples=samples)
    assert len(result.jumps) == 1
    traj = result.trajectory
    t_end = abs(end - start) / 1e-3
    direction = 1.0 if end > start else -1.0

    def drive(t):
        return start + direction * 1e-3 * min(t, t_end)

    times = traj.times.copy()
    ref = odeint_oracle(traj.uvw[0], times, drive, params, t_end, 1e-8, 1e-10)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_array_equal(traj.uvw, ref)
    np.testing.assert_array_equal(traj.omegas, [drive(t) for t in times])


def test_readme_relax_equals_scipys_odeint_bit_for_bit():
    """The README relax (omega = 8, upper branch perturbed by 1e-3, to t = 50
    in 1001 samples) at a constant drive, against scipy's public odeint."""
    p = replace(LORENTZ_50, omega=8.0)
    sol = branch_solution(p, Mechanism.LORENTZ, Branch.UPPER)
    y0 = (2.0 * sol.rho12.real, 2.0 * sol.rho12.imag, sol.w + 1e-3)
    t_eval = np.linspace(0.0, 50.0, 1001)
    traj = integrate(BlochState(*y0), p, Mechanism.LORENTZ, 8.0, 50.0, t_eval=t_eval)
    ref = odeint_oracle(y0, t_eval, lambda t: 8.0, p, 50.0, 1e-11, 1e-13)
    np.testing.assert_array_equal(traj.uvw, ref)
    assert (traj.omegas == 8.0).all()


def test_a_ramp_that_ends_before_the_integration_equals_scipys_odeint_bit_for_bit():
    """A ramp of the joint medium from the ground state that stops at t = 10
    of a run to t = 20, sampled on both sides of its end, against scipy's
    public odeint with the ramp as a plain function: every sweep ends where
    its ramp does, so only here do the right-hand side, the Jacobian and the
    sampled drives hold the drive at the ramp's end."""
    ramp = Ramp(8.0, 0.05, 10.0)

    def drive(t):  # the ramp's expression in integrate's callbacks
        return ramp.omega0 + ramp.slope * (t if t < ramp.t_end else ramp.t_end)

    y0 = (0.0, 0.0, 1.0)
    t_eval = np.linspace(0.0, 20.0, 401)
    assert (t_eval < ramp.t_end).any() and (t_eval > ramp.t_end).any()
    traj = integrate(BlochState(*y0), JOINT_50, Mechanism.JOINT, ramp, 20.0, t_eval=t_eval)
    ref = odeint_oracle(y0, t_eval, drive, JOINT_50, 20.0, 1e-11, 1e-13)
    np.testing.assert_array_equal(traj.uvw, ref)
    np.testing.assert_array_equal(traj.omegas, [drive(t) for t in t_eval])


def test_a_callable_drive_is_refused_before_odepack(monkeypatch):
    """A drive is a number or a Ramp: a callable omega(t) is the TypeError of
    float(drive), raised before any ODEPACK call."""

    def no_odeint(*args):
        raise AssertionError("a callable drive reached odeint")

    monkeypatch.setattr(dynamics, "odeint", no_odeint)
    with pytest.raises(TypeError, match="float"):
        integrate(BlochState(0.0, 0.0, 1.0), FREE, Mechanism.LORENTZ, lambda t: 0.1 * t, 10.0,
                  t_eval=[0.0, 10.0])


def test_lsoda_messages_are_scipys():
    """IntegrationError words odeint's failure statuses as scipy.integrate
    does: the table equals scipy's own, failures only."""
    from scipy.integrate._odepack_py import _msgs

    assert dynamics._LSODA_MESSAGES == {k: v for k, v in _msgs.items() if k < 0}


def test_readme_sweep_rhs_budget(monkeypatch):
    """The README sweep 13 -> 16.6 starts on the slow manifold, so LSODA does
    not spend its first thousand time units resolving a start-up ringing:
    at most 30 000 right-hand-side calls, with the jump unchanged.  The calls
    are counted by wrapping the callback that ``integrate`` passes to
    ``dynamics.odeint``."""
    calls = 0
    odeint = dynamics.odeint

    def counted_odeint(rhs, *args):
        def counted(t, y):
            nonlocal calls
            calls += 1
            return rhs(t, y)
        return odeint(counted, *args)

    monkeypatch.setattr(dynamics, "odeint", counted_odeint)
    result = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, 13.0, 16.6, 1e-3, samples=721)
    assert 0 < calls <= 30_000
    assert result.jumps == [15.707500000000001]


def test_nonadiabatic_warning_away_from_jumps():
    """The adiabaticity check on the README sweep 13 -> 16.6: the sweep
    itself stays on the stable manifold, its states pulled in by a factor
    0.8 stray from it, and samples within 0.3 gamma of a jump are not
    counted."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", dynamics.NonAdiabaticWarning)
        result = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, 13.0, 16.6, 1e-3, samples=721)
    traj, jumps = result.trajectory, result.jumps
    assert len(jumps) == 1

    def check(uvw, jumps):
        moved = Trajectory(times=traj.times, uvw=uvw, omegas=traj.omegas)
        dynamics._warn_if_nonadiabatic(moved, LORENTZ_50, Mechanism.LORENTZ, jumps)

    near = (np.abs(traj.omegas - jumps[0]) < 0.3 * LORENTZ_50.gamma)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error", dynamics.NonAdiabaticWarning)
        check(traj.uvw, jumps)
        check(np.where(near, 0.8 * traj.uvw, traj.uvw), jumps)
    stray = r"sweep strayed 0\.1\d+ from the stable manifold \(limit 0\.05\)"
    with pytest.warns(dynamics.NonAdiabaticWarning, match=stray):
        check(0.8 * traj.uvw, jumps)
    # counted, the samples about the jump stray too
    with pytest.warns(dynamics.NonAdiabaticWarning):
        check(traj.uvw, [])


def test_free_atom_sweep_has_no_jump():
    result = sweep_adiabatic(FREE, Mechanism.LORENTZ, 0.5, 1.5, 1e-3)
    assert result.jumps == []
    # adiabatic following up to the O(rate) lag behind the moving fixed point
    p_end = replace(FREE, omega=1.5)
    (w_end,) = solve_inversion(p_end, Mechanism.LORENTZ)
    assert result.trajectory.uvw[-1, 2] == pytest.approx(w_end, abs=5e-4)


def test_partial_loop_area_positive_iff_bistable():
    lo, hi = 14.5, 16.2
    up = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, lo, hi, 1e-3)
    down = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, hi, lo, 1e-3)
    assert len(up.jumps) == 1
    assert type(up.jumps[0]) is float
    assert abs(up.jumps[0] - OMEGA_UP_EXACT) <= 0.02 * OMEGA_UP_EXACT
    assert down.jumps == []  # the upper branch persists over this range

    w_up = np.interp(np.linspace(lo, hi, 200), up.trajectory.omegas,
                     up.trajectory.uvw[:, 2])
    om_down = down.trajectory.omegas[::-1]
    w_down = np.interp(np.linspace(lo, hi, 200), om_down,
                       down.trajectory.uvw[::-1, 2])
    area = np.trapezoid(w_up - w_down, np.linspace(lo, hi, 200))
    assert area > 0.05  # enclosed hysteresis area

    up_free = sweep_adiabatic(FREE, Mechanism.LORENTZ, lo, hi, 1e-3)
    down_free = sweep_adiabatic(FREE, Mechanism.LORENTZ, hi, lo, 1e-3)
    wf_up = np.interp(np.linspace(lo, hi, 200), up_free.trajectory.omegas,
                      up_free.trajectory.uvw[:, 2])
    omf = down_free.trajectory.omegas[::-1]
    wf_down = np.interp(np.linspace(lo, hi, 200), omf,
                        down_free.trajectory.uvw[::-1, 2])
    area_free = abs(np.trapezoid(wf_up - wf_down, np.linspace(lo, hi, 200)))
    assert area_free < 1e-4


def test_one_jump_per_branch_switch_in_a_finely_sampled_sweep():
    """Sampled every 0.1 time units, the up-jump of the benchmark medium rings
    at about 35 rad per unit time around the upper branch, so |dw| between
    samples exceeds JUMP_THRESHOLD in three separate runs (starting 1.1 and
    2.7 time units after the first).  They are one branch switch, reported
    at the largest step of the first run."""
    result = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, 15.5, 16.2, 1e-3, samples=7001)
    assert result.jumps == [pytest.approx(15.70985, abs=1e-9)]


def test_slow_passage_delay_scales_as_rate_to_two_thirds():
    """Slow passage through the upper fold (Haberman, SIAM J. Appl. Math. 37,
    1979): ramped at rate r, the lower branch jumps past the fold omega_up by
    Delta(r) = c r^(2/3) (1 + k r^(1/3) + ...).  The Airy prefactor
    c = a1 (A B)^(-1/3) comes from the normal form y' = A (omega - omega_up)
    + B y^2 along the fold's null direction, with a1 = 2.33811 the first
    zero of Ai(-x), A = l.df/domega and B = l.D2f(r, r)/2 for null vectors
    l, r of the Jacobian with l.r = 1; f is affine in omega and quadratic in
    the state, so both are exact differences.

    The finite-rate correction k r^(1/3) comes from the normal form's
    higher terms, which are not computed here; |k| <= K = 1.5 is assumed
    and checked: each delay lies within K r^(1/3) + h/Delta of c r^(2/3)
    relative, where h = 1e-4, one sample of 7001 over 0.7, bounds where the
    largest step puts a jump.  The exponent fitted between the end rates
    r1 = 1e-3 and r3 = r1/4 is then 2/3 + ln((1 + k r1^(1/3)) /
    (1 + k r3^(1/3))) / ln 4, off by at most 0.046 for |k| <= 1.5, plus
    (h/Delta1 + h/Delta3) / ln 4 from the sampling.
    """
    omega_up, w_up = fold_points()[-1]
    fold = fixed_point_state(replace(LORENTZ_50, omega=omega_up), Mechanism.LORENTZ, w_up)
    fold_state = np.array([fold.u, fold.v, fold.w])
    rates = [1e-3, 5e-4, 2.5e-4]
    h, big_k, a1 = 0.7 / 7000, 1.5, 2.338107410459767
    delays = []
    for rate in rates:
        result = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, 15.5, 16.2, rate, samples=7001)
        assert len(result.jumps) == 1
        delays.append(result.jumps[0] - omega_up)

    jac = jacobian(fold_state, LORENTZ_50, Mechanism.LORENTZ, omega_up)
    left, _, right = np.linalg.svd(jac)
    l, r = left[:, -1], right[-1]
    l = l / (l @ r)
    f_omega = (bloch_rhs(fold_state, LORENTZ_50, Mechanism.LORENTZ, 1.0)
               - bloch_rhs(fold_state, LORENTZ_50, Mechanism.LORENTZ, 0.0))
    d2f = (jacobian(fold_state + r, LORENTZ_50, Mechanism.LORENTZ, omega_up) - jac) @ r
    a, b = l @ f_omega, 0.5 * (l @ d2f)
    c = a1 * (a * b) ** (-1.0 / 3.0)
    for rate, delay in zip(rates, delays):
        assert abs(delay / (c * rate ** (2.0 / 3.0)) - 1.0) <= big_k * rate ** (1.0 / 3.0) + h / delay

    r1, r3 = rates[0], rates[-1]
    exponent = math.log(delays[0] / delays[-1]) / math.log(r1 / r3)
    bias = max(abs(math.log((1.0 + k * r1 ** (1.0 / 3.0)) / (1.0 + k * r3 ** (1.0 / 3.0))))
               for k in (-big_k, big_k)) / math.log(r1 / r3)
    sampling = (h / delays[0] + h / delays[-1]) / math.log(r1 / r3)
    assert abs(exponent - 2.0 / 3.0) <= bias + sampling


def loop_jump_samples(w):
    """Reference: walk the spike mask run by run, keeping each run's largest step."""
    dw = np.abs(np.diff(w))
    spikes = dw > JUMP_THRESHOLD
    out, i = [], 0
    while i < spikes.size:
        if spikes[i]:
            j = i
            while j + 1 < spikes.size and spikes[j + 1]:
                j += 1
            out.append(i + int(np.argmax(dw[i : j + 1])))
            i = j + 1
        else:
            i += 1
    return out


@pytest.mark.parametrize("w, expected", [
    ([0.9, 0.91, 0.92, 0.93], []),                          # no spike
    ([0.9, 0.91, 0.3, 0.31, 0.32], [1]),                    # one isolated spike
    ([0.9, 0.8, 0.5, 0.35, 0.34, 0.1, 0.09], [1, 4]),       # a run of three, then one
    ([0.2, 0.21, 0.22, 0.4, 0.9], [3]),                     # a run ending at the last sample
])
def test_jump_samples_runs(w, expected):
    w = np.array(w)
    assert _jump_samples(w, 0.0) == expected
    assert _jump_samples(w, 0.0) == loop_jump_samples(w)


def test_jump_samples_match_loop_on_random_walks():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = np.cumsum(rng.normal(0.0, 0.1, rng.integers(2, 40)))
        assert _jump_samples(w, 0.0) == loop_jump_samples(w)


@pytest.mark.parametrize("ring, expected", [(0.0, [0, 3]), (3.0, [0, 3]), (3.5, [3])])
def test_jump_samples_merge_runs_within_the_ringing(ring, expected):
    """A run starting fewer than ``ring`` samples after the start of the
    previous switch joins it, and the switch keeps its largest step."""
    w = np.array([0.9, 0.7, 0.7, 0.7, 0.2, 0.2])  # steps 0.2 at 0, 0.5 at 3
    assert _jump_samples(w, ring) == expected


def bloch_rhs_oracle(t, y, omega_of_t, gamma, delta, zeta_l, zeta_m):
    """The module docstring's equations of motion, written out afresh."""
    u, v, w = y
    om = omega_of_t(t)
    re_bar, im_bar = om + zeta_l * u / 2.0, zeta_l * v / 2.0
    delta_bar = delta - zeta_m * w
    return [
        -delta_bar * v - (gamma / 2.0) * u + 2.0 * im_bar * w,
        delta_bar * u - (gamma / 2.0) * v - 2.0 * re_bar * w,
        gamma * (1.0 - w) + 2.0 * (re_bar * v - im_bar * u),
    ]


@pytest.mark.parametrize("params, mech, direction", [
    (MediumParams(delta=2.5, zeta_lorentz=12.0), Mechanism.LORENTZ, "up"),
    (MediumParams(delta=2.45, zeta_detuning=12.2), Mechanism.DETUNING, "down"),
    (MediumParams(delta=2.55, zeta_lorentz=7.0, zeta_detuning=4.8), Mechanism.JOINT, "up"),
])
def test_sweep_matches_radau_oracle(params, mech, direction):
    """A sweep across one fold agrees with an independent Radau integration
    of the Bloch equations at the same tolerances: same jump sample, and
    u, v, w within 1e-6 away from the jump.

    It starts on the ramp's slow manifold: shifted from the fixed point y*
    by eta along the Jacobian's complex pair only, so that the flow there
    moves as the fixed point does, F(y* + eta) = dy*/dt, on that pair.
    dy*/dt is taken by central differences of y*(omega), whose error the
    difference from the estimate at twice the step bounds (three times
    over).  F is quadratic in the state, so F(y* + eta) = F(y*) + J eta +
    zs (eta_v eta_w, -eta_u eta_w, 0) exactly, and J eta has the pair
    components of dy*/dt; the rest bounds the mismatch, each component
    taken through the rows of V^-1, plus rounding at 64 eps of the largest
    term of F.  On the real mode, eta is zero up to rounding."""
    up, down = find_thresholds(params, mech)
    fold, sign = (up, 1.0) if direction == "up" else (down, -1.0)
    start, end, rate = fold - 0.15 * sign, fold + 0.15 * sign, 1e-3
    result = sweep_adiabatic(params, mech, start, end, rate)
    traj = result.trajectory
    got = traj.state_array()

    args = (lambda t: start + sign * rate * t, params.gamma, params.delta,
            params.zeta_lorentz, params.zeta_detuning)
    branch = Branch.LOWER if sign > 0.0 else Branch.UPPER

    def y_star(omega):
        p = replace(params, omega=omega)
        s = fixed_point_state(p, mech, branch_solution(p, mech, branch).w)
        return np.array([s.u, s.v, s.w])

    def y_star_dot(h):
        return sign * rate * (y_star(start + h) - y_star(start - h)) / (2.0 * h)

    fixed = y_star(start)
    eta = got[0] - fixed
    lam, vec = np.linalg.eig(jacobian(fixed, replace(params, omega=start), mech, start))
    inv = np.linalg.inv(vec)
    pair = lam.imag != 0.0
    assert np.count_nonzero(pair) == 2
    eps = float(np.finfo(float).eps)
    zs = params.zeta_lorentz + params.zeta_detuning
    h = 1e-4
    remainder = (np.max(np.abs(bloch_rhs_oracle(0.0, fixed, *args)))
                 + zs * abs(eta[2]) * max(abs(eta[0]), abs(eta[1]))
                 + np.max(np.abs(y_star_dot(h) - y_star_dot(2.0 * h)))
                 + 64.0 * eps * (params.gamma + abs(params.delta) + 2.0 * start + zs))
    mismatch = inv @ (np.array(bloch_rhs_oracle(0.0, got[0], *args)) - y_star_dot(h))
    assert np.all(np.abs(mismatch[pair]) <= np.abs(inv[pair]).sum(axis=1) * remainder)
    cond = np.abs(inv).sum(axis=1).max() * np.abs(vec).sum(axis=1).max()
    assert np.all(np.abs((inv @ eta)[~pair]) <= 8.0 * eps * cond * np.max(np.abs(fixed)))
    ref = solve_ivp(bloch_rhs_oracle, (0.0, traj.times[-1]), got[0], method="Radau",
                    t_eval=traj.times, rtol=1e-8, atol=1e-10, args=args)
    assert ref.success
    expected = ref.y.T
    dw = np.abs(np.diff(expected[:, 2]))
    spikes = np.flatnonzero(dw > JUMP_THRESHOLD)
    assert spikes.size and np.all(np.diff(spikes) == 1)  # one run of spikes
    k = int(np.argmax(dw))
    assert result.jumps == [0.5 * (traj.omegas[k] + traj.omegas[k + 1])]
    far = np.abs(traj.omegas - result.jumps[0]) >= 0.1 * params.gamma
    assert np.max(np.abs(got[far] - expected[far])) <= 1e-6
