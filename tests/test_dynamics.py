import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from iobspectra import (
    BlochState,
    Branch,
    MediumParams,
    Mechanism,
    bloch_rhs,
    branch_solution,
    classify_stability,
    find_thresholds,
    fixed_point_state,
    integrate,
    jacobian,
    solve_inversion,
    sweep_adiabatic,
    Trajectory,
)
from iobspectra.dynamics import JUMP_THRESHOLD, _jump_samples
from test_steady_state import LORENTZ_50, DETUNING_50, OMEGA_UP_EXACT, OMEGA_DOWN_EXACT

FREE = MediumParams(delta=3.0)


def fp_distance(traj_state, fp):
    return math.dist((traj_state.u, traj_state.v, traj_state.w), (fp.u, fp.v, fp.w))


# ------------------------------------------------------------------- state type

def test_bloch_state_validation():
    BlochState(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BlochState(1.0, 1.0, 1.0)  # outside the ball
    with pytest.raises(ValueError):
        BlochState(math.nan, 0.0, 0.0)


def test_trajectory_holds_one_state_array():
    """A trajectory keeps its states as one (N, 3) array, checked against the
    Bloch ball with BlochState's own error for the first bad row; ``states``
    builds BlochStates from the rows when read."""
    times, drives = np.arange(4.0), np.zeros(4)
    rows = np.array([[0.6, 0.0, 0.8], [0.0, 0.0, 1.0], [0.1, -0.2, 0.3], [0.0, 0.0, -1.0]])
    traj = Trajectory(times=times, uvw=rows, omegas=drives)
    assert traj.state_array() is traj.uvw
    assert len(traj.states) == 4
    assert list(traj.states) == [BlochState(*r) for r in rows.tolist()]
    assert traj.states[-1] == BlochState(0.0, 0.0, -1.0)
    with pytest.raises(IndexError):
        traj.states[4]
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
    for t, s in zip(traj.times, traj.states):
        coh = math.hypot(s.u, s.v)
        assert coh == pytest.approx(0.6 * math.exp(-0.5 * t), rel=1e-7, abs=1e-12)
        assert s.w == pytest.approx(1.0 - 0.2 * math.exp(-t), rel=1e-8)


def test_fully_excited_decay():
    p = MediumParams(omega=0.0)
    traj = integrate(BlochState(0.0, 0.0, -1.0), p, Mechanism.LORENTZ, 0.0, 3.0,
                     t_eval=np.linspace(0.0, 3.0, 7))
    for t, s in zip(traj.times, traj.states):
        rho22 = 0.5 * (1.0 - s.w)
        assert rho22 == pytest.approx(math.exp(-t), rel=1e-8)


def test_no_coherence_means_bare_drive():
    """With u = v = 0 the local-field correction vanishes from the flow."""
    coupled = MediumParams(delta=2.0, zeta_lorentz=40.0)
    free = MediumParams(delta=2.0)
    state = BlochState(0.0, 0.0, 0.5)
    assert bloch_rhs(state, coupled, Mechanism.LORENTZ, 3.0) == pytest.approx(
        bloch_rhs(state, free, Mechanism.LORENTZ, 3.0)
    )


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
        for w in solve_inversion(p, Mechanism.LORENTZ):
            state = fixed_point_state(p, Mechanism.LORENTZ, w)
            eigs = np.linalg.eigvals(jacobian(state, p, Mechanism.LORENTZ, p.omega))
            assert classify_stability(w, p, Mechanism.LORENTZ) == bool(np.all(eigs.real < 0.0))


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
    assert fp_distance(traj.states[-1], fp) <= 1e-6


def test_perturbed_middle_branch_escapes_to_upper():
    p = replace(LORENTZ_50, omega=8.0)
    middle = branch_solution(p, Mechanism.LORENTZ, Branch.MIDDLE)
    upper = branch_solution(p, Mechanism.LORENTZ, Branch.UPPER)
    fp_mid = fixed_point_state(p, Mechanism.LORENTZ, middle.w)
    fp_up = fixed_point_state(p, Mechanism.LORENTZ, upper.w)
    start = BlochState(fp_mid.u, fp_mid.v, fp_mid.w - 1e-6)  # nudge toward upper
    traj = integrate(start, p, Mechanism.LORENTZ, 8.0, 300.0, t_eval=[0.0, 300.0])
    assert fp_distance(traj.states[-1], fp_mid) > 0.05
    assert fp_distance(traj.states[-1], fp_up) <= 1e-6


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
    with pytest.raises(ValueError):
        integrate(state, FREE, Mechanism.LORENTZ, 1.0, 1.0, method="Euler")


def test_time_dependent_drive_is_sampled():
    p = MediumParams()
    traj = integrate(BlochState(0.0, 0.0, 1.0), p, Mechanism.LORENTZ,
                     lambda t: 0.1 * t, 10.0, t_eval=np.linspace(0.0, 10.0, 5))
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


def test_free_atom_sweep_has_no_jump():
    result = sweep_adiabatic(FREE, Mechanism.LORENTZ, 0.5, 1.5, 1e-3)
    assert result.jumps == []
    # adiabatic following up to the O(rate) lag behind the moving fixed point
    p_end = replace(FREE, omega=1.5)
    (w_end,) = solve_inversion(p_end, Mechanism.LORENTZ)
    assert result.trajectory.states[-1].w == pytest.approx(w_end, abs=5e-4)


def test_partial_loop_area_positive_iff_bistable():
    lo, hi = 14.5, 16.2
    up = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, lo, hi, 1e-3)
    down = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, hi, lo, 1e-3)
    assert len(up.jumps) == 1
    assert type(up.jumps[0]) is float
    assert abs(up.jumps[0] - OMEGA_UP_EXACT) <= 0.02 * OMEGA_UP_EXACT
    assert down.jumps == []  # the upper branch persists over this range

    w_up = np.interp(np.linspace(lo, hi, 200), up.trajectory.omegas,
                     [s.w for s in up.trajectory.states])
    om_down = down.trajectory.omegas[::-1]
    w_down = np.interp(np.linspace(lo, hi, 200), om_down,
                       [s.w for s in down.trajectory.states][::-1])
    area = np.trapezoid(w_up - w_down, np.linspace(lo, hi, 200))
    assert area > 0.05  # enclosed hysteresis area

    up_free = sweep_adiabatic(FREE, Mechanism.LORENTZ, lo, hi, 1e-3)
    down_free = sweep_adiabatic(FREE, Mechanism.LORENTZ, hi, lo, 1e-3)
    wf_up = np.interp(np.linspace(lo, hi, 200), up_free.trajectory.omegas,
                      [s.w for s in up_free.trajectory.states])
    omf = down_free.trajectory.omegas[::-1]
    wf_down = np.interp(np.linspace(lo, hi, 200), omf,
                        [s.w for s in down_free.trajectory.states][::-1])
    area_free = abs(np.trapezoid(wf_up - wf_down, np.linspace(lo, hi, 200)))
    assert area_free < 1e-4


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
    assert _jump_samples(w) == expected
    assert _jump_samples(w) == loop_jump_samples(w)


def test_jump_samples_match_loop_on_random_walks():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = np.cumsum(rng.normal(0.0, 0.1, rng.integers(2, 40)))
        assert _jump_samples(w) == loop_jump_samples(w)


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
    u, v, w within 1e-6 away from the jump."""
    up, down = find_thresholds(params, mech)
    fold, sign = (up, 1.0) if direction == "up" else (down, -1.0)
    start, end, rate = fold - 0.15 * sign, fold + 0.15 * sign, 1e-3
    result = sweep_adiabatic(params, mech, start, end, rate)
    traj = result.trajectory
    got = traj.state_array()

    args = (lambda t: start + sign * rate * t, params.gamma, params.delta,
            params.zeta_lorentz, params.zeta_detuning)
    # the sweep starts on a fixed point of the oracle's flow
    assert np.max(np.abs(bloch_rhs_oracle(0.0, got[0], *args))) <= 1e-10
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
