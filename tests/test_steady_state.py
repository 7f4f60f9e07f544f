import gc
import warnings
import weakref
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from iobspectra import (
    BlochState,
    Branch,
    BranchNotPresentError,
    MediumParams,
    Mechanism,
    branch_solution,
    coherence,
    cubic_coefficients,
    effective_params,
    find_thresholds,
    fixed_point_state,
    integrate,
    jacobian,
    rabi_relation_sq,
    scan_hysteresis,
    solution_arrays,
    solutions_at,
    solve_inversion,
    spectrum_coefficients,
    stationary_state,
    sweep_adiabatic,
    zeta_total,
)
from iobspectra import steady_state
from iobspectra.core import OMEGA_MAX, NoPhysicalRootError
from iobspectra.dynamics import _hurwitz
from iobspectra.steady_state import MarginalStabilityWarning, SolutionArrays
from media import (
    DETUNING_50,
    LORENTZ_50,
    OMEGA_DOWN_EXACT,
    OMEGA_UP_EXACT,
    extreme_media,
    fold_oracle,
    fold_points,
    liouvillian,
)

EPS = float(np.finfo(float).eps)

def normalized_residual(params: MediumParams, mech: Mechanism, w: float) -> float:
    """|c3 w^3 + c2 w^2 + c1 w + c0| with the coefficients divided by max |c_i|."""
    c = np.array(cubic_coefficients(params, mech))
    c3, c2, c1, c0 = c / np.abs(c).max()
    return abs(((c3 * w + c2) * w + c1) * w + c0)


# ---------------------------------------------------------------- coefficients

def test_cubic_coefficients_printed_values():
    p = replace(LORENTZ_50, omega=0.0)
    assert cubic_coefficients(p, Mechanism.LORENTZ) == (2500.0, -2800.0, 309.25, -9.25)


def test_cubic_coefficients_free_atom():
    p = MediumParams(omega=1.0)
    assert cubic_coefficients(p, Mechanism.LORENTZ) == (0.0, 0.0, 2.25, -0.25)


def test_cubic_coefficients_are_the_kernels_cubic():
    """cubic_coefficients returns, bit for bit, the cubic that the kernel
    solves on a drive array and on rows of media, at drives and for a medium
    whose squares by libm pow (Python's x ** 2) differ from the products: a
    seeded search finds them.  At omega = 14.774296276344876 of LORENTZ_50
    the pow square gave c1 = 745.809660922436 where the kernel's drive array
    gives 745.8096609224361."""
    x = np.random.default_rng(35).uniform(0.1, 30.0, 40_000)
    off = x[np.float_power(x, 2.0) != x * x].tolist()
    drives = np.array([14.774296276344876] + off[:8])
    media = [(LORENTZ_50, Mechanism.LORENTZ),
             (MediumParams(gamma=off[8], delta=-off[9], zeta_detuning=off[10]), Mechanism.DETUNING)]
    for params, mech in media:
        want = np.array([cubic_coefficients(replace(params, omega=omega), mech)
                         for omega in drives.tolist()]).T
        rows = steady_state._Rows.of([(params, mech)] * drives.size)
        cubic = steady_state._inversion_cubic
        for got in (cubic(params, zeta_total(params, mech), drives[:, None]),
                    cubic(rows, rows.zeta_lorentz + rows.zeta_detuning, drives[:, None])):
            for name, g, w in zip(("c3", "c2", "c1", "c0"), got, want):
                assert np.array_equal(np.broadcast_to(g, (drives.size, 1))[:, 0], w), (params, name)
    assert cubic_coefficients(replace(LORENTZ_50, omega=drives[0]), Mechanism.LORENTZ)[2] == (
        745.8096609224361)


def test_cubic_three_roots_by_sign_sampling():
    """Sign changes of the cubic on a dense grid bracket exactly three roots."""
    p = replace(LORENTZ_50, omega=8.0)
    c3, c2, c1, c0 = cubic_coefficients(p, Mechanism.LORENTZ)
    grid = np.linspace(1e-6, 1.0, 10_000)
    values = ((c3 * grid + c2) * grid + c1) * grid + c0
    crossings = np.nonzero(np.diff(np.sign(values)))[0]
    assert len(crossings) == 3
    roots = solve_inversion(p, Mechanism.LORENTZ)
    assert len(roots) == 3
    for w, i in zip(roots, crossings):
        assert grid[i] <= w <= grid[i + 1]


# ---------------------------------------------------------------- root solving

def test_zero_drive_root_is_unity():
    for zeta in (0.0, 5.0, 50.0):
        for delta in (-3.0, 0.0, 3.0):
            p = MediumParams(delta=delta, omega=0.0, zeta_lorentz=zeta)
            assert solve_inversion(p, Mechanism.LORENTZ) == [1.0]


def test_free_atom_saturation_law():
    p = MediumParams(delta=3.0, omega=2.0)
    (w,) = solve_inversion(p, Mechanism.LORENTZ)
    dd = 3.0**2 + 0.25
    assert w == pytest.approx(dd / (2.0 * 4.0 + dd), rel=1e-14)


def test_roots_match_companion_matrix_oracle():
    rng = np.random.default_rng(7)
    cases = [replace(LORENTZ_50, omega=om) for om in (1.6, 8.0, 15.6, 20.0)]
    # nearly-degenerate leading coefficient: the closed form must hand over
    # to the lower-degree path without losing the physical root
    cases += [
        MediumParams(delta=3.0, omega=2.0, zeta_lorentz=zeta)
        for zeta in (1e-6, 1e-4, 1e-2)
    ]
    for _ in range(40):
        cases.append(
            MediumParams(
                gamma=rng.uniform(0.3, 2.0),
                delta=rng.uniform(-6.0, 6.0),
                omega=rng.uniform(0.0, 25.0),
                zeta_lorentz=rng.uniform(0.0, 80.0),
            )
        )
    for p in cases:
        coeffs = cubic_coefficients(p, Mechanism.LORENTZ)
        if coeffs[0] != 0.0:
            ref = [
                r.real
                for r in np.roots(coeffs)
                if abs(r.imag) < 1e-9 and 0.0 < r.real <= 1.0 + 1e-12
            ]
        else:
            ref = [-coeffs[3] / coeffs[2]]
        got = solve_inversion(p, Mechanism.LORENTZ)
        assert len(got) == len(ref)
        for a, b in zip(got, sorted(ref)):
            assert a == pytest.approx(b, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(0.1, 10.0),
    delta=st.floats(-30.0, 30.0),
    omega=st.floats(0.0, 40.0),
    zeta=st.floats(0.0, 100.0),
)
def test_root_invariants(gamma, delta, omega, zeta):
    p = MediumParams(gamma=gamma, delta=delta, omega=omega, zeta_lorentz=zeta)
    roots = solve_inversion(p, Mechanism.LORENTZ)
    assert 1 <= len(roots) <= 3
    assert roots == sorted(roots)
    for w in roots:
        assert 0.0 < w <= 1.0
        assert normalized_residual(p, Mechanism.LORENTZ, w) <= 1e-12


def test_near_fold_roots_stay_distinct_or_merge():
    """Arbitrarily close to a fold the solver never reports near-duplicate roots."""
    for eps in (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8, -1e-6):
        p = replace(LORENTZ_50, omega=OMEGA_UP_EXACT + eps)
        roots = solve_inversion(p, Mechanism.LORENTZ)
        assert 1 <= len(roots) <= 3
        gaps = np.diff(roots)
        assert np.all(gaps >= 0.9e-8)
    # just inside the window the tangent pair is clearly resolved
    inside = solve_inversion(replace(LORENTZ_50, omega=OMEGA_UP_EXACT - 1e-5), Mechanism.LORENTZ)
    assert len(inside) == 3
    # just outside it is gone
    outside = solve_inversion(replace(LORENTZ_50, omega=OMEGA_UP_EXACT + 1e-3), Mechanism.LORENTZ)
    assert len(outside) == 1


def test_weak_coupling_gives_one_root_per_drive():
    """At delta = 10, zeta = 1e-6 the normalized cubic term is below 1e-14,
    so the roots come from the quadratic formula.  The medium is monostable:
    one root per drive and no upper branch, not a second copy of the root."""
    p = MediumParams(delta=10.0, zeta_lorentz=1e-6)
    assert find_thresholds(p, Mechanism.LORENTZ) is None
    arr = solution_arrays(p, Mechanism.LORENTZ, np.linspace(7.0, 7.1, 3))
    assert arr.count.tolist() == [1, 1, 1]
    with pytest.raises(BranchNotPresentError):
        branch_solution(p, Mechanism.LORENTZ, Branch.UPPER, omega=7.05)


@pytest.mark.parametrize("mech", [Mechanism.LORENTZ, Mechanism.DETUNING])
def test_weak_coupling_media_have_one_root_per_drive(mech):
    """Seeded media with zeta/gamma in [1e-12, 1] (log-uniform) and
    |delta|/gamma up to 1e3, many of them solved by the quadratic fallback:
    a monostable medium has exactly one root at every drive, and its
    residual on the normalized cubic is at most 1e-12.  The drives include
    a band around W = 1/2, omega^2 = (delta^2 + gamma^2/4)/2, where a far
    quadratic root polished on the cubic once walked onto the true one."""
    rng = np.random.default_rng(14)
    fallback = 0
    for _ in range(150):
        gamma = rng.uniform(0.2, 3.0)
        zeta = gamma * 10.0 ** rng.uniform(-12.0, 0.0)
        delta = gamma * rng.uniform(-1e3, 1e3)
        p = MediumParams(gamma=gamma, delta=delta,
                         zeta_lorentz=zeta if mech is Mechanism.LORENTZ else 0.0,
                         zeta_detuning=zeta if mech is Mechanism.DETUNING else 0.0)
        if find_thresholds(p, mech) is not None:
            continue
        top = 2.0 * (abs(delta) + gamma)
        half = np.sqrt(0.5 * (delta * delta + 0.25 * gamma * gamma))
        omegas = np.concatenate([np.linspace(0.0, top, 40), top * np.logspace(-6.0, 3.0, 10),
                                 half * np.linspace(0.95, 1.05, 41)])
        arr = solution_arrays(p, mech, omegas)
        assert arr.count.tolist() == [1] * omegas.size, (p, mech)
        for om, w in zip(omegas.tolist(), arr.w[:, 0].tolist()):
            at = replace(p, omega=om)
            c = np.array(cubic_coefficients(at, mech))
            fallback += abs(c[0]) < 1e-14 * np.abs(c).max()
            assert normalized_residual(at, mech, w) <= 1e-12, (p, om, w)
    assert fallback >= 1000


# --------------------------------------------------------- effective parameters

def test_effective_params_no_coupling():
    omega_eff, delta_eff = effective_params(0.7, MediumParams(delta=2.0, omega=1.5), Mechanism.LORENTZ)
    assert omega_eff == 1.5 + 0.0j
    assert delta_eff == 2.0


def test_effective_params_detuning_shift():
    p = replace(DETUNING_50, omega=1.0)
    omega_eff, delta_eff = effective_params(0.02, p, Mechanism.DETUNING)
    assert delta_eff == pytest.approx(2.0, abs=1e-15)
    assert omega_eff == 1.0 + 0.0j


def test_rabi_relation_closed_identity():
    """|omega_eff|^2 from the self-consistency division obeys the strict relation."""
    for om in np.linspace(0.2, 25.0, 40):
        p = replace(LORENTZ_50, omega=float(om))
        for w in solve_inversion(p, Mechanism.LORENTZ):
            omega_eff, _ = effective_params(w, p, Mechanism.LORENTZ)
            expected = rabi_relation_sq(w, p, Mechanism.LORENTZ)
            assert abs(omega_eff) ** 2 == pytest.approx(expected, rel=1e-10)


def test_joint_effective_params_use_shifted_detuning():
    p = MediumParams(delta=3.0, omega=2.0, zeta_lorentz=30.0, zeta_detuning=20.0)
    w = 0.05
    omega_eff, delta_eff = effective_params(w, p, Mechanism.JOINT)
    assert delta_eff == pytest.approx(3.0 - 20.0 * w, rel=1e-15)
    assert abs(omega_eff) ** 2 == pytest.approx(
        rabi_relation_sq(w, p, Mechanism.JOINT), rel=1e-12
    )


# -------------------------------------------------------------------- coherence

def test_coherence_zero_drive():
    assert coherence(1.0, 0.0 + 0.0j, 3.0, 1.0) == 0.0


def test_coherence_exact_fraction():
    # gamma=1, delta=3, omega=2, zeta=0: W = 37/69 and rho12 = (24 - 4i)/69
    w = 37.0 / 69.0
    r12 = coherence(w, 2.0 + 0.0j, 3.0, 1.0)
    assert r12 == pytest.approx((24.0 - 4.0j) / 69.0, rel=1e-14)


@pytest.mark.parametrize(
    "omega_eff,delta_eff,gamma",
    [
        (2.0 + 0.0j, 3.0, 1.0),
        (0.7 - 1.3j, -2.0, 0.8),  # complex drive, as a local-field solution has
        (13.4j, 3.0, 1.0),
        (5.0 + 0.0j, 0.0, 2.0),
    ],
)
def test_coherence_against_nullspace_oracle(omega_eff, delta_eff, gamma):
    """The closed stationary solution spans the master-equation kernel."""
    ns = null_space(liouvillian(omega_eff, delta_eff, gamma))
    assert ns.shape[1] == 1
    vec = ns[:, 0]
    vec = vec / (vec[0] + vec[3])  # unit trace
    rho = stationary_state(omega_eff, delta_eff, gamma)
    assert rho.rho12 == pytest.approx(vec[1], abs=1e-12)
    assert rho.rho22 == pytest.approx(vec[3].real, abs=1e-12)
    assert abs(vec[3].imag) < 1e-12


def test_saturation_destroys_coherence():
    rho = stationary_state(1e4 + 0.0j, 0.0, 1.0)
    assert rho.w < 1e-6
    assert abs(rho.rho12) < 1e-4


# -------------------------------------------------------------------- stability

def test_free_atom_stable():
    p = MediumParams(delta=2.0, omega=1.0)
    (w,) = solve_inversion(p, Mechanism.LORENTZ)
    arr = solution_arrays(p, Mechanism.LORENTZ, [p.omega])
    assert arr.w[0, 0] == w
    assert arr.stable[0, 0] and not arr.marginal[0, 0]


def test_three_root_stability_pattern():
    p = replace(LORENTZ_50, omega=8.0)
    lo, mid, hi = solve_inversion(p, Mechanism.LORENTZ)  # ascending w
    arr = solution_arrays(p, Mechanism.LORENTZ, [p.omega])
    assert arr.w[0].tolist() == [hi, mid, lo]               # lower, middle, upper branch
    assert arr.stable[0].tolist() == [True, False, True]
    assert not arr.marginal[0].any()


@pytest.mark.parametrize("k", [-500, -450, -360, -300, -40, -10, 10, 40, 300, 360, 450, 500])
def test_flags_do_not_depend_on_the_scale_of_gamma(k):
    """gamma is the unit of frequency: scaling gamma, delta, zeta and the
    drives by 2**k, which is exact, gives k = 0's roots, root counts and
    stability flags, the marginal ones included, bit for bit.  From
    |k| = 360 on, a stability test of degree 3 in the scale, as the
    Routh-Hurwitz one, overflows or underflows; the fold cubic has degree 2."""
    up, down = find_thresholds(LORENTZ_50, Mechanism.LORENTZ)
    drives = np.array([0.0, down, 8.0, up, 20.0])
    want = solution_arrays(LORENTZ_50, Mechanism.LORENTZ, drives)
    assert want.marginal.sum() == 2  # the double root at each fold
    s = 2.0**k
    scaled = MediumParams(gamma=s, delta=3.0 * s, zeta_lorentz=50.0 * s)
    got = solution_arrays(scaled, Mechanism.LORENTZ, drives * s)
    assert np.array_equal(got.w, want.w, equal_nan=True)
    for name in ("count", "stable", "marginal"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def scaling_media(rng, n):
    """``n`` seeded media, lorentz, detuning and joint in turn: gamma
    log-uniform in 1/4 ... 4, zeta / gamma in 1 ... 1000 and delta / gamma in
    -3 ... 12, which makes about two in three bistable."""
    media = []
    for i in range(n):
        mech = list(Mechanism)[i % 3]
        gamma = 2.0 ** rng.uniform(-2.0, 2.0)
        zeta = gamma * 10.0 ** rng.uniform(0.0, 3.0)
        share = {Mechanism.LORENTZ: 1.0, Mechanism.DETUNING: 0.0}.get(mech, rng.uniform(0.1, 0.9))
        media.append((MediumParams(gamma=gamma, delta=gamma * rng.uniform(-3.0, 12.0),
                                   zeta_lorentz=share * zeta, zeta_detuning=(1.0 - share) * zeta),
                      mech))
    return media


def first_unequal_row(a, b):
    """Index of the first row where arrays ``a`` and ``b`` differ, NaN equal to NaN."""
    same = (a == b) | ((a != a) & (b != b))
    return int(np.flatnonzero(~same.reshape(len(a), -1).all(axis=1))[0])


def test_power_of_two_scaling_as_rows_of_one_call():
    """Media scaled by 2**k as the rows of one kernel call: roots, root
    counts, stability flags (the marginal double roots at the folds of
    LORENTZ_50 included), coherences and residuals stay bit for bit, and the
    drives, effective drives and detunings and both folds scale by exactly
    2**k.  Five lorentz media take every k = -300 ... 300; 240 seeded
    lorentz, detuning and joint media take every 7th k, from an offset that
    moves with the medium.  A bistable medium is driven at 0, at both folds,
    midway and at twice the upper fold, a monostable one at 0, 1/2, 2, 8
    and 30 gamma."""
    media = [(params, Mechanism.LORENTZ, np.arange(-300, 301)) for params in
             [LORENTZ_50] + [MediumParams(gamma=g, delta=d, zeta_lorentz=z) for g, d, z in
                             [(0.7, -2.0, 40.0), (0.3, 0.5, 5.0), (1.3, -0.4, 900.0),
                              (0.25, 12.0, 60.0)]]]
    media += [(params, mech, np.arange(-300 + i % 7, 301, 7))
              for i, (params, mech) in enumerate(scaling_media(np.random.default_rng(35), 240))]
    cases, want, scale, want_folds = [], [], [], []
    for params, mech, ks in media:
        folds = find_thresholds(params, mech)
        if folds is None:
            drives, folds = params.gamma * np.array([0.0, 0.5, 2.0, 8.0, 30.0]), (np.nan, np.nan)
        else:
            up, down = folds
            drives = np.array([0.0, down, 0.5 * (up + down), up, 2.0 * up])
        s = np.repeat(np.ldexp(1.0, ks), drives.size)
        fields = steady_state._Rows._fields  # gamma, delta and both couplings
        cases += [(replace(params, **{f: x * getattr(params, f) for f in fields}), mech, x * omega)
                  for x, omega in zip(s.tolist(), np.tile(drives, ks.size).tolist())]
        want += [solution_arrays(params, mech, drives)] * ks.size
        scale.append(s)
        want_folds.append(s * np.array(folds)[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalStabilityWarning)
        got, folds = solve_rows(cases)
    s = np.concatenate(scale)
    for name in got._fields:
        tiled = np.concatenate([getattr(one, name) for one in want])
        if name in ("omega", "omega_eff", "delta_eff"):  # frequencies
            tiled = (s if tiled.ndim == 1 else s[:, None]) * tiled
        assert np.array_equal(getattr(got, name), tiled, equal_nan=name != "branch"), (
            name, cases[first_unequal_row(getattr(got, name), tiled)])
    want_folds = np.concatenate(want_folds, axis=1)
    assert np.array_equal(folds, want_folds, equal_nan=True), (
        cases[first_unequal_row(folds.T, want_folds.T)])


@pytest.mark.parametrize("params, mech", [(LORENTZ_50, Mechanism.LORENTZ),
                                          (DETUNING_50, Mechanism.DETUNING)])
def test_marginal_stability_warning_at_exact_folds(params, mech):
    """At each exact fold root the Jacobian is singular, so the solutions at
    the fold drive warn and the kernel's one marginal root is the oracle's
    fold root; at the drives omega(W_f +- 1e-3) of the explicit inverse, off
    the fold, no root is marginal."""
    for omega, w in fold_points():
        at = replace(params, omega=float(omega))
        with pytest.warns(MarginalStabilityWarning):
            solutions_at(at, mech)
        arr = solution_arrays(params, mech, [float(omega)])
        assert arr.marginal.sum() == 1 and abs(arr.w[arr.marginal].item() - w) <= 1e-12
        off = [float(exact_omega(1.0, 3.0, 50.0, float(w) + shift)) for shift in (-1e-3, 1e-3)]
        assert not solution_arrays(params, mech, off).marginal.any()


def test_hurwitz_coefficients_without_eigenvalues():
    """The Routh-Hurwitz coefficients (c1, c0) checked by two routes that
    need no eigenvalues.  With zero coupling the fixed point's characteristic
    cubic l^3 + 2 gamma l^2 + c1 l + c0 is the Hurwitz polynomial h whose
    |h(i nu)|^2 is the spectral denominator, so b4 = 4 gamma^2 - 2 c1,
    b2 = c1^2 - 4 gamma c0 and b0 = c0^2.  With coupling, c1 is the sum of
    the Jacobian's principal 2x2 minors and c0 = -det J; each is compared on
    the scale M^2 resp. M^3 of the largest Jacobian entry M."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        gamma, delta, omega = rng.uniform(0.2, 3.0), rng.uniform(-20.0, 20.0), rng.uniform(0, 30)
        p = MediumParams(gamma=gamma, delta=delta, omega=omega)
        (w,) = solve_inversion(p, Mechanism.LORENTZ)
        c1, c0 = _hurwitz(p, omega, w, coherence(w, complex(omega), delta, gamma))
        c = spectrum_coefficients(omega * omega, delta, gamma)
        assert abs(c.b4 - (4.0 * gamma * gamma - 2.0 * c1)) <= 1e-14 * c1
        assert abs(c.b2 - (c1 * c1 - 4.0 * gamma * c0)) <= 1e-14 * c1 * c1
        assert abs(c.b0 - c0 * c0) <= 1e-14 * c0 * c0

    for mech in Mechanism:
        share = {Mechanism.LORENTZ: 1.0, Mechanism.DETUNING: 0.0, Mechanism.JOINT: 0.4}[mech]
        for _ in range(100):
            gamma, delta = rng.uniform(0.2, 3.0), rng.uniform(-20.0, 20.0)
            zeta = rng.uniform(0.1, 1000.0)
            p = MediumParams(gamma=gamma, delta=delta, omega=rng.uniform(0.0, 2.0 * zeta),
                             zeta_lorentz=share * zeta, zeta_detuning=(1.0 - share) * zeta)
            for w in solve_inversion(p, mech):
                omega_eff, delta_eff = effective_params(w, p, mech)
                c1, c0 = _hurwitz(p, p.omega, w, coherence(w, omega_eff, delta_eff, gamma))
                j = jacobian(fixed_point_state(p, mech, w), p, mech, p.omega)
                scale = np.abs(j).max()
                minors = sum(np.linalg.det(j[np.ix_(k, k)]) for k in ([0, 1], [0, 2], [1, 2]))
                assert abs(c1 - minors) <= 1e-13 * scale**2
                assert abs(c0 + np.linalg.det(j)) <= 1e-13 * scale**3


class Exact(Fraction):
    """A Fraction that takes a float operand exactly, where Fraction and
    float give a float, so the package's float literals (2.0, 0.25, 0.5)
    keep its formulas rational."""


for _name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
    setattr(Exact, f"__{_name}__", lambda self, other, _op=getattr(Fraction, f"__{_name}__"):
            Exact(_op(self, Fraction(other))))


def test_stability_is_the_sign_of_the_fold_cubic_in_exact_rationals():
    """The proof in _inversion_roots that the fold piece is the stability,
    in exact rationals.  With y = delta - zeta W and
    Q = y^2 + gamma^2/4, a drive omega and W = Q / (Q + 2 omega^2) satisfy
    (1 - W) Q = 2 omega^2 W, so u = 2 y omega W / Q, v = -gamma omega W / Q
    and W are a fixed point of the Bloch flow (checked on its three
    equations).  There _hurwitz's coefficients obey c0 = gamma C(W) / W and
    2 gamma c1 - c0 = c0 + gamma (2 (1 - W) y^2 + (3 W + 1) gamma^2 / 2) / W,
    with C the fold cubic of _fold_cubic, which also equals
    y^2 + gamma^2/4 + 2 zeta W (1 - W) y."""
    rng = np.random.default_rng(15)

    def draw(lo, hi):
        return Exact(int(rng.integers(lo * 64, hi * 64)), 64)

    for _ in range(300):
        gamma, y, omega = draw(1, 300), draw(-3000, 3000), draw(0, 3000)
        zl, zm = draw(0, 3000), draw(0, 3000)
        zeta, big_q = zl + zm, y * y + gamma * gamma / 4
        w = big_q / (big_q + 2 * omega * omega)
        delta = y + zeta * w
        u, v = 2 * y * omega * w / big_q, -gamma * omega * w / big_q
        drive_re, drive_im, detuning = omega + zl * u / 2, zl * v / 2, delta - zm * w
        assert -detuning * v - gamma * u / 2 + 2 * drive_im * w == 0
        assert detuning * u - gamma * v / 2 - 2 * drive_re * w == 0
        assert gamma * (1 - w) + 2 * (drive_re * v - drive_im * u) == 0
        medium = SimpleNamespace(gamma=gamma, delta=delta, zeta_lorentz=zl, zeta_detuning=zm)
        c1, c0 = _hurwitz(medium, omega, w, SimpleNamespace(real=u / 2, imag=v / 2))
        assert isinstance(c1, Fraction) and isinstance(c0, Fraction)
        c3f, c2f, c1f, c0f = steady_state._fold_cubic(medium, zeta)
        fold = ((c3f * w + c2f) * w + c1f) * w + c0f
        assert fold == y * y + gamma * gamma / 4 + 2 * zeta * w * (1 - w) * y
        assert c0 == gamma * fold / w
        assert 2 * gamma * c1 - c0 == c0 + gamma * (2 * (1 - w) * y * y
                                                    + (3 * w + 1) * gamma * gamma / 2) / w


# ------------------------------------------------------------------- thresholds

def test_free_atom_has_no_thresholds():
    assert find_thresholds(MediumParams(delta=3.0), Mechanism.LORENTZ) is None


def test_thresholds_match_fold_oracle():
    up_ref, down_ref = fold_oracle()
    assert up_ref == pytest.approx(OMEGA_UP_EXACT, abs=1e-9)
    assert down_ref == pytest.approx(OMEGA_DOWN_EXACT, abs=1e-9)
    result = find_thresholds(LORENTZ_50, Mechanism.LORENTZ)
    assert result is not None
    omega_up, omega_down = result
    assert omega_up == pytest.approx(up_ref, abs=2e-6)
    assert omega_down == pytest.approx(down_ref, abs=2e-6)
    assert omega_down < omega_up
    assert type(omega_up) is float and type(omega_down) is float


def test_thresholds_resolve_a_window_narrower_than_any_grid():
    """Just above the cusp the bistable window of delta=3, zeta=4.0744 is
    0.0036 gamma wide; the folds must still be found, and the lone root
    beyond the upper fold continues the upper branch."""
    medium = MediumParams(delta=3.0, zeta_lorentz=4.0744)
    up_ref, down_ref = fold_oracle(1.0, 3.0, 4.0744)
    assert up_ref == pytest.approx(0.2025676, abs=1e-7)
    assert down_ref == pytest.approx(0.1989691, abs=1e-7)
    result = find_thresholds(medium, Mechanism.LORENTZ)
    assert result is not None
    assert result[0] == pytest.approx(up_ref, abs=1e-9)
    assert result[1] == pytest.approx(down_ref, abs=1e-9)
    sol = branch_solution(medium, Mechanism.LORENTZ, Branch.UPPER, omega=0.2036)
    assert sol.branch is Branch.UPPER


def exact_folds(gamma: float, delta: float, zeta: float) -> list:
    """(omega, bound) at each fold, descending in omega, of the doubles
    given taken as exact rationals: the fold cubic's roots W in (0, 1),
    found at 60 digits, mapped through omega^2(W); empty for a monostable
    medium.  ``bound`` is how many eps * omega find_thresholds may miss by.

    The kernel's drive is omega(w) = sqrt((1 - w) q / (2 w)) at its fold
    root w, q = y^2 + gamma^2/4, y = delta - zeta w.  Rounding: y is within
    eps (zeta W + |y|), and the fold cubic C(W) = Q - 2 zeta W (1 - W) (-y)
    = 0 makes 2 |y| zeta W = Q / (1 - W), so q is within
    eps (1 / (1 - W) + 5) of Q, relatively; 1 - w, the product, the
    quotient and the square root add 3 eps to omega^2 and eps / 2 to omega,
    so omega is within (1 / (1 - W) + 9) / 2 eps.  The root: d omega^2 / dW
    = -C(W) / (2 W^2) vanishes at a fold, so a root error dW moves omega
    only by |C'(W)| dW^2 / (8 W^2 omega^2), relatively.  The kernel's root
    makes C within E = 8 eps sum |c_i| W^i of zero (Horner's rounding and
    the coefficients'), so dW is at most E / |C'| at a simple root and
    sqrt(2 E / |C''|) at a near-double one, whichever is less; either way
    |C'| dW <= E, and omega moves by at most E dW / (8 W^2 omega^2)."""
    with mpmath.workdps(60):
        g, d, z = (mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator
                   for x in (gamma, delta, zeta))
        c = [2 * z * z, -z * (z + 2 * d), 0, d * d + g * g / 4]
        roots = [r.real for r in mpmath.polyroots(c, maxsteps=200, extraprec=400)
                 if abs(r.imag) < mpmath.mpf(10) ** -40 and 0 < r.real < 1]
        folds = []
        for w in roots if len(roots) == 2 else []:
            omega = mpmath.sqrt((1 - w) * ((d - z * w) ** 2 + g * g / 4) / (2 * w))
            e = 8 * EPS * sum(abs(ci) * w ** (3 - i) for i, ci in enumerate(c))
            slope, curvature = (3 * c[0] * w + 2 * c[1]) * w, 6 * c[0] * w + 2 * c[1]
            dw = min(e / abs(slope), mpmath.sqrt(2 * e / abs(curvature)))
            bound = (1 / (1 - w) + 9) / 2 + e * dw / (8 * w * w * omega * omega * EPS)
            folds.append((omega, float(bound)))
        return sorted(folds, reverse=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(medium=extreme_media().filter(lambda m: m[1] is not Mechanism.JOINT))
def test_thresholds_against_the_exact_folds(medium):
    """find_thresholds, over lorentz and detuning media and near-cusp
    windows down to 1e-5 gamma, is None exactly where the medium has no
    fold pair, and finds each fold drive within the bound that
    :func:`exact_folds` derives."""
    params, mech, gamma, delta, zeta = medium
    found, exact = find_thresholds(params, mech), exact_folds(gamma, delta, zeta)
    assert len(found or ()) == len(exact), medium
    with mpmath.workdps(60):
        for got, (omega, bound) in zip(found or (), exact):
            assert abs(got - omega) <= bound * EPS * omega, (medium, got, omega, bound)


def test_thresholds_range_warning():
    """A scan's thresholds belong to the medium: over a grid below the
    window, across either fold, inside it, above it or around it they are
    find_thresholds' values bit for bit, not clipped to the grid, and no
    grid warns."""
    for params, mech in [(LORENTZ_50, Mechanism.LORENTZ), (DETUNING_50, Mechanism.DETUNING)]:
        folds = find_thresholds(params, mech)
        for lo, hi, n in [(0.1, 1.0, 9), (1.0, 2.0, 9), (2.0, 10.0, 5), (10.0, 17.0, 9),
                          (17.0, 25.0, 5), (0.0, 25.0, 9)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scan = scan_hysteresis(params, mech, np.linspace(lo, hi, n))
            assert (scan.omega_up, scan.omega_down) == folds, (params, lo, hi)


# ------------------------------------------------------------------------ scans

def test_scan_free_atom_single_stable_branch():
    p = MediumParams(delta=3.0)
    scan = scan_hysteresis(p, Mechanism.LORENTZ, np.linspace(0.0, 10.0, 50))
    assert scan.omega_up is None and scan.omega_down is None
    rho22_prev = -1.0
    for point in scan.points:
        (sol,) = point.solutions
        assert sol.branch is Branch.LOWER
        assert sol.stable
        assert sol.rho22 >= rho22_prev  # saturation curve rises monotonically
        rho22_prev = sol.rho22


def test_scan_bistable_structure():
    grid = np.linspace(0.0, 25.0, 401)
    scan = scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, grid)
    assert scan.omega_down == pytest.approx(OMEGA_DOWN_EXACT, abs=2e-6)
    assert scan.omega_up == pytest.approx(OMEGA_UP_EXACT, abs=2e-6)
    for point in scan.points:
        inside = scan.omega_down < point.omega < scan.omega_up
        away = min(abs(point.omega - scan.omega_down), abs(point.omega - scan.omega_up))
        if away < 1e-3:
            continue
        assert len(point.solutions) == (3 if inside else 1)
        labels = [s.branch for s in point.solutions]
        if inside:
            assert labels == [Branch.LOWER, Branch.MIDDLE, Branch.UPPER]
            stabilities = [s.stable for s in point.solutions]
            assert stabilities == [True, False, True]
        rho22s = [s.rho22 for s in point.solutions]
        assert rho22s == sorted(rho22s)


def test_scan_single_root_continuity_above_window():
    grid = np.linspace(14.0, 20.0, 61)
    scan = scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, grid)
    tail = [pt for pt in scan.points if pt.omega > OMEGA_UP_EXACT + 0.05]
    assert tail
    for point in tail:
        (sol,) = point.solutions
        assert sol.branch is Branch.UPPER


def test_scan_labels_follow_the_folds_whatever_the_range():
    """A drive range that starts above the window holds only the upper
    branch, as branch_solution at the same drives says."""
    grid = np.linspace(17.0, 25.0, 3)
    scan = scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, grid)
    for point in scan.points:
        (sol,) = point.solutions
        assert sol.branch is Branch.UPPER
        upper = branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.UPPER, omega=point.omega)
        assert sol.w == upper.w


def test_scan_monotone_stable_branches():
    grid = np.linspace(0.05, 25.0, 300)
    scan = scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, grid)
    last = {Branch.LOWER: -1.0, Branch.UPPER: -1.0}
    for point in scan.points:
        for sol in point.solutions:
            if sol.branch in last:
                assert sol.rho22 >= last[sol.branch] - 1e-12
                last[sol.branch] = sol.rho22


def test_scan_points_are_a_view_of_the_solution_arrays():
    """``points`` builds row i of the scan's arrays when read: the sequence
    protocol holds, each record equals the array values exactly, the view is
    read-only, and a scan stays replaceable by a plain list of points."""
    grid = np.linspace(0.0, 25.0, 201)
    scan = scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, grid)
    arr = solution_arrays(LORENTZ_50, Mechanism.LORENTZ, grid)
    view = scan.points
    assert len(view) == grid.size
    assert view[-1] == view[grid.size - 1] and view[-grid.size] == view[0]
    for bad in (grid.size, -grid.size - 1):
        with pytest.raises(IndexError):
            view[bad]
    with pytest.raises(TypeError):
        view[0] = view[1]
    points = list(view)
    assert [pt for pt in view] == points
    assert [pt.omega for pt in points] == grid.tolist()
    labels = {3: ["lower", "middle", "upper"], 2: ["lower", "upper"]}
    for i, point in enumerate(points):
        n = arr.count[i]
        sols = point.solutions
        assert len(sols) == n
        for k, s in enumerate(sols):
            assert s.w == arr.w[i, k] and s.rho22 == 0.5 * (1.0 - arr.w[i, k])
            assert s.rho12 == arr.rho12[i, k] and s.omega_eff == arr.omega_eff[i, k]
            assert s.delta_eff == arr.delta_eff[i, k] and s.residual == arr.residual[i, k]
            assert s.stable == arr.stable[i, k]
            assert all(type(x) is t for x, t in ((s.w, float), (s.rho12, complex),
                                                 (s.stable, bool), (s.residual, float)))
        single = ["upper" if point.omega >= OMEGA_UP_EXACT else "lower"]
        assert [s.branch.value for s in sols] == labels.get(n, single)
    k = 100
    points[k] = points[k]._replace(solutions=[replace(s, w=s.w + 1e-5) for s in points[k].solutions])
    replaced = replace(scan, points=points)
    assert replaced.points is points and replaced.omega_up == scan.omega_up
    assert replaced.points[k] != scan.points[k] and replaced.points[0] == scan.points[0]


def test_scan_arrays_are_freed_without_the_cycle_collector():
    """No reference cycle keeps a dropped scan's arrays alive until the cycle
    collector runs: a view holding a method of itself would."""
    gc.disable()
    try:
        scan = scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, np.linspace(0.0, 25.0, 50))
        list(scan.points)
        arrays = weakref.ref(scan.points.arrays.w)
        del scan
        assert arrays() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("params, mech", [(LORENTZ_50, Mechanism.LORENTZ),
                                          (DETUNING_50, Mechanism.DETUNING)])
def test_scan_warns_at_a_fold_during_the_call(params, mech):
    """The marginal root at an exact fold drive warns inside scan_hysteresis,
    attributed to its caller; reading ``points`` later warns no more."""
    grid = [float(omega) for omega, _ in fold_points()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan = scan_hysteresis(params, mech, grid)
    marginal = [w for w in caught if w.category is MarginalStabilityWarning]
    assert marginal
    assert all(w.filename == __file__ for w in marginal)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = list(scan.points)
    assert len(points) == 2


@pytest.mark.parametrize("params, mech", [(LORENTZ_50, Mechanism.LORENTZ),
                                          (DETUNING_50, Mechanism.DETUNING)])
def test_exact_folds_give_one_marginal_double_root(params, mech):
    """At both exact fold drives the coalescing pair is one double root:
    two roots, exactly one of them marginal, and one MarginalStabilityWarning
    per fold.  The double root is the fold W of the resultant cubic, a simple
    root of the cubic's derivative, so rounding moves it by a few eps over
    the curvature (about 1 for the normalized cubic); 1e-12 leaves room for
    the companion-matrix fold drives."""
    folds = fold_points()
    arr = solution_arrays(params, mech, [float(omega) for omega, _ in folds])
    assert arr.count.tolist() == [2, 2]
    assert arr.marginal.sum(axis=1).tolist() == [1, 1]
    assert np.all(np.abs(arr.w[arr.marginal] - [w for _, w in folds]) <= 1e-12)
    assert not arr.stable[arr.marginal].any()
    for omega, _ in folds:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solutions_at(replace(params, omega=float(omega)), mech)
        assert [w.category for w in caught] == [MarginalStabilityWarning]


@pytest.mark.parametrize("mech", list(Mechanism))
def test_an_underflowed_c0_leaves_the_middle_root_unstable(mech):
    """Where delta^2 + gamma^2/4 underflows (c0 = 0), W = 0 is a root: the
    upper branch's, outside (0, 1].  Two roots remain, the lower one and the
    middle one, and their stable flags are the sign of the fold cubic C(W) in
    exact arithmetic, True and False; neither is marginal."""
    share = {Mechanism.LORENTZ: 1.0, Mechanism.DETUNING: 0.0}.get(mech, 0.25)
    for zeta in (1e20, 1e5, 1.0):
        for delta in (-1e-165, 0.0):
            params = MediumParams(gamma=1e-300, delta=delta, zeta_lorentz=share * zeta,
                                  zeta_detuning=(1.0 - share) * zeta)
            with np.errstate(divide="ignore", invalid="ignore"):  # Q = 0 too (ROADMAP item 2)
                arr = solution_arrays(params, mech, [1e-150, 1e-40, 1e-10, 0.1 * zeta])
            assert arr.count.tolist() == [2] * 4 and not arr.marginal.any()
            g, d, z = Fraction(1e-300), Fraction(delta), Fraction(zeta_total(params, mech))
            for w, stable in zip(arr.w[:, :2].ravel().tolist(), arr.stable[:, :2].ravel()):
                w = Fraction(w)
                fold = 2 * z * z * w**3 - z * (z + 2 * d) * w**2 + d * d + g * g / 4
                assert stable == (fold > 0), (zeta, delta, float(w))
            assert arr.stable[:, :2].tolist() == [[True, False]] * 4


def record_bits(sol) -> tuple:
    """A solution record with every float field as its bit pattern."""
    floats = (sol.w, sol.rho22, sol.rho12.real, sol.rho12.imag, sol.omega_eff.real,
              sol.omega_eff.imag, sol.delta_eff, sol.residual)
    return tuple(float(x).hex() for x in floats) + (sol.branch, sol.stable)


@pytest.mark.parametrize("params, mech", [
    (LORENTZ_50, Mechanism.LORENTZ),
    (DETUNING_50, Mechanism.DETUNING),
    (MediumParams(delta=3.0, zeta_lorentz=20.0, zeta_detuning=30.0), Mechanism.JOINT),
])
def test_single_drive_results_equal_their_batch_row(params, mech):
    """One drive gives bit for bit its row of a whole-grid call.  The kernel
    evaluates only the cubic-formula form that its rows need, and only the
    branch of Smith's division that its roots need, so a lone drive takes
    other code paths than a grid that mixes one- and three-root drives; the
    grid holds zero drive, both folds (the program's and the resultant's),
    and drives whose root W = 0.06, 0.065, 0.07 lies where |Re f| < |Im f|
    for the local-field factor f of the lorentz and joint media."""
    zeta, delta = zeta_total(params, mech), params.delta
    band = [np.sqrt((1.0 - w) * ((delta - zeta * w) ** 2 + 0.25) / (2.0 * w))
            for w in (0.06, 0.065, 0.07)]
    folds = list(find_thresholds(params, mech)) + [omega for omega, _ in fold_points()]
    grid = np.unique(np.concatenate([[0.0], np.linspace(0.5, 25.0, 30), band, folds]))
    whole = solution_arrays(params, mech, grid)
    assert set(whole.count.tolist()) >= {1, 2, 3}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalStabilityWarning)
        points = scan_hysteresis(params, mech, grid).points
        for i, omega in enumerate(grid.tolist()):
            one = solution_arrays(params, mech, [omega])
            for name in one._fields:
                assert np.array_equal(getattr(one, name)[0], getattr(whole, name)[i],
                                      equal_nan=name != "branch"), (name, omega)
            expected = {sol.branch: record_bits(sol) for sol in points[i].solutions}
            for branch in Branch:
                if branch in expected:
                    sol = branch_solution(params, mech, branch, omega=omega)
                    assert record_bits(sol) == expected[branch], (branch, omega)
                else:
                    with pytest.raises(BranchNotPresentError):
                        branch_solution(params, mech, branch, omega=omega)


@pytest.mark.parametrize("params, mech", [
    (LORENTZ_50, Mechanism.LORENTZ),
    (DETUNING_50, Mechanism.DETUNING),
    (MediumParams(delta=3.0, zeta_lorentz=20.0, zeta_detuning=30.0), Mechanism.JOINT),
    (MediumParams(delta=3.0), Mechanism.LORENTZ),
])
def test_rows_with_fewer_roots_are_nan_padded(params, mech):
    """Every (M, 3) float column of the solution arrays is NaN, in both parts
    where it is complex, past a row's root count and finite before it, and
    stable/marginal are False there, with or without a local-field coupling.
    A row's roots strictly decrease in W, and solve_inversion at its drive
    gives the same roots in ascending order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalStabilityWarning)
        arr = solution_arrays(params, mech, np.linspace(0.0, 25.0, 51))
    absent = np.arange(3) >= arr.count[:, None]
    assert absent.any() and not absent.all()
    for name in arr._fields:
        col = getattr(arr, name)
        if col.ndim == 2 and col.dtype.kind in "fc":
            for part in (col.real, col.imag) if col.dtype.kind == "c" else (col,):
                assert np.isnan(part[absent]).all(), name
                assert np.isfinite(part[~absent]).all(), name
    assert not (arr.stable[absent].any() or arr.marginal[absent].any())
    for omega, count, w in zip(arr.omega.tolist(), arr.count.tolist(), arr.w):
        roots = w[:count].tolist()
        assert all(hi > lo for hi, lo in zip(roots, roots[1:])), (omega, roots)
        assert solve_inversion(replace(params, omega=omega), mech) == roots[::-1], omega


def test_each_cubic_solves_alone_as_in_a_batch():
    """The closed-form kernel gives each cubic the same roots, bit for bit,
    whether it is solved alone or as one column of a batch.  Alone, a cubic
    takes only the form it needs (Cardano's, or the trigonometric one); the
    batch mixes one-root and three-root inversion cubics with the fold
    cubic, a double root (x - 1)^2 (x + 2), the cubic x^3 + 1e-200 whose
    discriminant underflows to 0 with p = 0 (the triple-root branch), a
    vanishing cubic term (the quadratic fallback) and random cubics."""
    rng = np.random.default_rng(12)
    zeta = 50.0
    columns = [steady_state._fold_cubic(LORENTZ_50, zeta),
               (1.0, 0.0, -3.0, 2.0), (1.0, 0.0, 0.0, 1e-200), (1e-16, 1.0, -3.0, 2.0)]
    columns += [steady_state._inversion_cubic(LORENTZ_50, zeta, omega)
                for omega in (0.0, 1.0, OMEGA_DOWN_EXACT, 8.0, 15.6, OMEGA_UP_EXACT, 20.0)]
    columns += [tuple(rng.normal(size=4)) for _ in range(20)]
    coeffs = np.array(columns, dtype=float).T
    roots, c = steady_state._real_cubic_roots(coeffs)
    for j in range(coeffs.shape[1]):
        alone, c_alone = steady_state._real_cubic_roots(coeffs[:, j:j + 1])
        assert np.array_equal(alone[0], roots[j], equal_nan=True), columns[j]
        assert np.array_equal(c_alone[:, 0], c[:, j])


def test_scan_keeps_going_where_no_root_is_found(monkeypatch):
    """Drives without a physical root keep an empty solution set, and the
    scan warns "solver failed" once, attributed to the caller, with their
    count and the first of them; solutions_at raises there instead, once
    the one-drive float solve hands its drive to the patched kernel."""
    solve = steady_state._inversion_roots

    def lose_every_other_drive(params, zeta, omega):
        w, count, *rest = solve(params, zeta, omega)
        w[::2], count[::2] = np.nan, 0
        return w, count, *rest

    monkeypatch.setattr(steady_state, "_inversion_roots", lose_every_other_drive)
    grid = [0.5, 8.0, 12.0, 20.0, 22.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan = scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, grid)
    [warned] = caught
    assert warned.category is UserWarning and warned.filename == __file__
    coefficients = cubic_coefficients(replace(LORENTZ_50, omega=0.5), Mechanism.LORENTZ)
    assert str(warned.message) == ("solver failed at 3 of 5 drives, the first at omega=0.5: "
                                   f"no inversion root in (0, 1] for coefficients {coefficients}")
    assert [len(pt.solutions) for pt in scan.points] == [0, 3, 0, 1, 0]
    monkeypatch.setattr(steady_state, "_one_drive", lambda *args: None)
    with pytest.raises(NoPhysicalRootError):
        solutions_at(replace(LORENTZ_50, omega=0.5), Mechanism.LORENTZ)


def test_a_rootless_scan_warns_once():
    """At gamma = 1e-300 the cubic's coefficients underflow and none of 2000
    drives has a root: the scan warns once, not once per drive."""
    grid = np.linspace(0.0, 1.0, 2000)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan = scan_hysteresis(MediumParams(gamma=1e-300), Mechanism.LORENTZ, grid)
    assert [str(w.message).split(":")[0] for w in caught] == [
        "solver failed at 2000 of 2000 drives, the first at omega=0.0"]
    assert not scan.points.arrays.count.any()


def test_solve_inversion_raises_where_no_root_is_found():
    """At gamma = 1e-300 the constant term gamma^2/4 underflows, so W = 0 is
    the cubic's only root and none lies in (0, 1]; the error names the
    coefficients as Python floats."""
    params = MediumParams(gamma=1e-300, omega=0.5)
    with pytest.raises(NoPhysicalRootError) as info:
        solve_inversion(params, Mechanism.LORENTZ)
    assert str(info.value) == "no inversion root in (0, 1] for coefficients (0.0, -0.0, 0.5, -0.0)"


def test_mechanism_equivalence_of_excitation():
    """Equal couplings give identical root sets for either single mechanism."""
    grid = np.linspace(0.0, 25.0, 100)
    for om in grid:
        lor = solve_inversion(replace(LORENTZ_50, omega=float(om)), Mechanism.LORENTZ)
        det = solve_inversion(replace(DETUNING_50, omega=float(om)), Mechanism.DETUNING)
        assert len(lor) == len(det)
        for a, b in zip(lor, det):
            assert abs(a - b) <= 1e-12


def companion_roots(gamma: float, delta: float, zeta: float, omega: float) -> np.ndarray:
    """Physical roots W in (0, 1] of the inversion cubic, descending (the
    branch order), from the companion matrix of the expanded
    (1 - W)((delta - zeta W)^2 + gamma^2/4) - 2 omega^2 W."""
    g = 0.25 * gamma * gamma
    coeffs = [zeta * zeta, -zeta * (zeta + 2.0 * delta),
              2.0 * omega * omega + delta * (delta + 2.0 * zeta) + g, -(delta * delta + g)]
    roots = np.roots(coeffs)
    real = roots.real[np.abs(roots.imag) <= 1e-7]
    return np.sort(np.minimum(real[(real > 0.0) & (real <= 1.0 + 1e-9)], 1.0))[::-1]


@settings(max_examples=150, deadline=None)
@given(medium=extreme_media(), start=st.floats(1.05, 1.5))
def test_scan_matches_exact_algebra_over_extreme_media(medium, start):
    """Roots against the companion matrix, thresholds against the fold
    cubic, labels against the exact folds, every effective drive finite and
    on the closed Rabi relation (the local-field feedback never vanishes),
    every coherence on the identity |rho12|^2 = w rho22 (which makes the
    sum-rule ratio exactly pi), every stability flag equal to the sign test
    on the Jacobian's eigenvalues, and, away from the folds, only the
    middle branch unstable (a conjecture the eigenvalues must keep).

    The identity's defect is exactly w P(w) / (2 Q), with P the inversion
    cubic and Q = (delta - zeta w)^2 + gamma^2/4 its Rabi-relation
    denominator.  Rounding w alone leaves |P(w)| up to about
    eps sum|c_i|, so the bound is 8 eps w sum|c_i| / (2 Q); over 3000
    examples the defect reached 1.05 times eps w sum|c_i| / (2 Q), and
    1.8e-11 absolute at gamma = 0.2, so no fixed absolute bound fits.  Roots whose smallest
    |Re lambda| is below 1e-7 gamma are left out of the eigenvalue check:
    that eigenvalue vanishes at a fold, and next to one the rounding of the
    root (a near-double root, so its error grows like the square root of
    machine precision) and of the eigenvalues decides its sign, so neither
    side is an oracle there."""
    params, mech, gamma, delta, zeta = medium
    exact = fold_oracle(gamma, delta, zeta)
    found = find_thresholds(params, mech)
    if exact is None:
        assert found is None
        top = 2.0 * (zeta + abs(delta) + gamma)
        grid = np.linspace(0.0, top, 60)
    else:
        assert found is not None and all(type(x) is float for x in found)
        assert found[0] == pytest.approx(exact[0], rel=1e-9, abs=1e-9)
        assert found[1] == pytest.approx(exact[1], rel=1e-9, abs=1e-9)
        up, down = exact
        grid = np.unique(np.concatenate(
            [np.linspace(0.0, 1.5 * up, 60), np.linspace(down, up, 9)]))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scan = scan_hysteresis(params, mech, grid)
        above = None
        if exact is not None:
            above = scan_hysteresis(params, mech, np.linspace(start * up, 2.0 * start * up, 20))
            assert (above.omega_up, above.omega_down) == found

    for point in [*scan.points, *([] if above is None else above.points)]:
        at = replace(params, omega=point.omega)
        for s in point.solutions:
            assert np.isfinite(s.omega_eff)
            expected = rabi_relation_sq(s.w, at, mech)
            assert abs(abs(s.omega_eff) ** 2 - expected) <= 1e-12 * expected
            q = (delta - zeta * s.w) ** 2 + 0.25 * gamma**2
            ulp_scale = s.w * sum(map(abs, cubic_coefficients(at, mech))) / (2.0 * q)
            assert abs(abs(s.rho12) ** 2 - s.w * s.rho22) <= 8.0 * EPS * ulp_scale
            re = np.linalg.eigvals(jacobian(fixed_point_state(at, mech, s.w), at, mech,
                                            point.omega)).real
            if np.abs(re).min() >= 1e-7 * gamma:
                assert s.stable == bool(np.all(re < 0.0)), (point.omega, s.w)
        if exact is not None and min(abs(point.omega - up), abs(point.omega - down)) <= 1e-6 * gamma:
            continue
        ref = companion_roots(gamma, delta, zeta, point.omega)
        ws = [s.w for s in point.solutions]
        assert len(ws) == len(ref), point.omega
        assert np.max(np.abs(np.array(ws) - ref)) <= 1e-7
        labels = [s.branch for s in point.solutions]
        if len(ws) == 3:
            assert labels == [Branch.LOWER, Branch.MIDDLE, Branch.UPPER]
        else:
            upper = exact is not None and point.omega > up
            assert labels == [Branch.UPPER if upper else Branch.LOWER]
        assert [s.stable for s in point.solutions] == [b is not Branch.MIDDLE for b in labels]


@settings(max_examples=150, deadline=None)
@given(medium=extreme_media())
def test_coefficients_follow_the_w_route_over_extreme_media(medium):
    """At every steady state of every mechanism the saturation law gives
    |omega_eff|^2 = (1 - W) D / (2W) with D = delta_eff^2 + gamma^2/4, so
    the spectrum coefficients depend on (W, D, gamma) alone: a = D/W,
    a0 = (1 - W) D/W + gamma^2 and nu_p^2 = D (2 - W)/W - gamma^2.  This
    route checks the effective parameters without going through omega_eff.

    With |omega_eff|^2 = omega^2 D / Q from the Rabi relation, the defect
    |omega_eff|^2 - (1 - W) D/(2W) is exactly D P(W) / (2 W Q), with P the
    inversion cubic and Q = (delta - zeta W)^2 + gamma^2/4.  As for the
    identity |rho12|^2 = w rho22, rounding W leaves |P(W)| up to about
    eps sum|c_i|, and the two sides round by a few eps of terms no larger
    than D sum|c_i| / (2 W Q); so the bound is 8 eps D sum|c_i| / (2 W Q).
    Over 3 800 random media the defect reached 2.0 times
    eps D sum|c_i| / (2 W Q).  a, a0 and nu_p^2 move by 2, 2 and 4 times
    the defect, plus 4 eps of the terms on both sides; over those media
    they reached a quarter of that bound.  The drives run past the window
    to 1e60, where W is about D / (2 omega^2)."""
    params, mech, gamma, delta, zeta = medium
    exact = fold_oracle(gamma, delta, zeta)
    top = 2.0 * (zeta + abs(delta) + gamma) if exact is None else 1.5 * exact[0]
    grid = np.concatenate([np.linspace(0.0, top, 60), np.geomspace(2.0 * top, 1e60, 8)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arr = solution_arrays(params, mech, grid)
    found = np.isfinite(arr.w)
    assert found.sum(axis=1).tolist() == arr.count.tolist()
    w, d, z = arr.w[found], arr.delta_eff[found], arr.omega_eff[found]
    omega = np.broadcast_to(arr.omega[:, None], arr.w.shape)[found]
    g2 = gamma * gamma
    big_d = d * d + 0.25 * g2
    q = (delta - zeta * w) ** 2 + 0.25 * g2
    c3, c2, c1, c0 = steady_state._inversion_cubic(params, zeta, omega)
    defect_bound = 8.0 * EPS * big_d * (abs(c3) + abs(c2) + np.abs(c1) + abs(c0)) / (2.0 * w * q)

    o2 = z.real**2 + z.imag**2
    assert np.all(np.abs(o2 - (1.0 - w) * big_d / (2.0 * w)) <= defect_bound)
    with np.errstate(over="ignore"):  # b2 and b0, not checked here, overflow at large drives
        c = spectrum_coefficients(o2, d, gamma)
    a0_route = (1.0 - w) * big_d / w + g2
    nu_route = big_d * (2.0 - w) / w - g2
    for got, route, k, terms in [
        (c.a, big_d / w, 2.0, c.a + big_d / w),
        (c.a0, a0_route, 2.0, c.a0 + a0_route),
        (c.nu_p_sq, nu_route, 4.0, 4.0 * o2 + d * d + 0.75 * g2 + big_d * (2.0 - w) / w + g2),
    ]:
        assert np.all(np.abs(got - route) <= k * defect_bound + 4.0 * EPS * terms)


def solve_rows(cases):
    """(SolutionArrays, folds) of one kernel call over ``cases`` of
    (params, mech, omega), one row each; folds is (2, K), NaN where a medium
    is monostable."""
    rows = steady_state._Rows.of([(params, mech) for params, mech, _ in cases])
    drives = np.array([omega for *_, omega in cases])
    return steady_state._solve(rows, rows.zeta_lorentz + rows.zeta_detuning, drives)


def assert_row_equals_call(arr, folds, i, params, mech, omega):
    """Row i of a rows call is bit for bit the one-medium calls at ``omega``."""
    one = solution_arrays(params, mech, [omega])
    for name in one._fields:
        assert np.array_equal(getattr(one, name)[0], getattr(arr, name)[i],
                              equal_nan=name != "branch"), (name, params, omega)
    alone = find_thresholds(params, mech)
    assert np.array_equal(folds[:, i], [np.nan] * 2 if alone is None else alone,
                          equal_nan=True), (params, alone)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(draws=st.lists(st.tuples(extreme_media(), st.floats(0.0, 1.5)), min_size=1, max_size=4))
def test_rows_of_media_equal_their_one_medium_calls(draws):
    """Media solved as rows of one kernel call, each at a drive inside or
    beyond its window and, for a bistable medium, at both of its folds, give
    every field of their own solution_arrays call and the folds of their own
    find_thresholds call, bit for bit."""
    cases = []
    for (params, mech, gamma, delta, zeta), x in draws:
        folds = find_thresholds(params, mech)
        top = 2.0 * (zeta + abs(delta) + gamma) if folds is None else folds[0]
        cases += [(params, mech, omega) for omega in [x * top, *(folds or ())]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalStabilityWarning)
        arr, folds = solve_rows(cases)
        for i, case in enumerate(cases):
            assert_row_equals_call(arr, folds, i, *case)


def test_random_media_as_rows_round_as_their_one_medium_calls():
    """3000 media drawn with full mantissas, lorentz or detuning, each at one
    drive up to 1.5 times its upper fold, as the rows of one call give their
    one-medium calls bit for bit.  Most squares of such values round alike
    either way, so the strategy's draws do not show it: the medium's squares
    taken as numpy's array ** 2 instead of libm pow move 2 of these rows."""
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(3000):
        gamma, delta, zeta = rng.uniform(0.2, 3.0), rng.uniform(-20.0, 20.0), rng.uniform(0.1, 1000.0)
        mech = (Mechanism.LORENTZ, Mechanism.DETUNING)[rng.integers(2)]
        coupling = "zeta_lorentz" if mech is Mechanism.LORENTZ else "zeta_detuning"
        params = MediumParams(gamma=gamma, delta=delta, **{coupling: zeta})
        folds = find_thresholds(params, mech)
        top = 2.0 * (zeta + abs(delta) + gamma) if folds is None else folds[0]
        cases.append((params, mech, rng.uniform(0.0, 1.5) * top))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalStabilityWarning)
        arr, folds = solve_rows(cases)
        for i, case in enumerate(cases):
            assert_row_equals_call(arr, folds, i, *case)


def test_readme_peaks_media_as_rows_equal_their_scans():
    """The lorentz and detuning media of the README ``peaks`` command, over
    its grid, solved as the rows of one call: each row's roots, folds and
    branch names are those of its medium's own call."""
    grid = np.linspace(0.05, 25.0, 500)
    media = [(LORENTZ_50, Mechanism.LORENTZ), (DETUNING_50, Mechanism.DETUNING)]
    cases = [(params, mech, omega) for params, mech in media for omega in grid.tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalStabilityWarning)
        arr, folds = solve_rows(cases)
        for i, case in enumerate(cases):
            assert_row_equals_call(arr, folds, i, *case)
        for j, (params, mech) in enumerate(media):
            scan = scan_hysteresis(params, mech, grid)
            assert np.array_equal(arr.branch[j * grid.size:(j + 1) * grid.size],
                                  scan.points.arrays.branch)


@pytest.mark.parametrize("params, mech", [(LORENTZ_50, Mechanism.LORENTZ),
                                          (DETUNING_50, Mechanism.DETUNING)])
def test_solution_arrays_name_their_roots(params, mech):
    """The arrays' last field names each root: below, inside and above the
    window and at both folds, each row's names are those of the scan's
    records at that drive, and "" past the last root."""
    assert SolutionArrays._fields[-1] == "branch"
    up, down = find_thresholds(params, mech)
    grid = np.array([0.5 * down, down, 0.5 * (down + up), up, 2.0 * up])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalStabilityWarning)
        arr = solution_arrays(params, mech, grid)
        points = scan_hysteresis(params, mech, grid).points
    assert arr.count.tolist() == [1, 2, 3, 2, 1]
    for i, point in enumerate(points):
        names = [sol.branch.value for sol in point.solutions]
        assert arr.branch[i].tolist() == names + [""] * (3 - len(names)), point.omega
    assert arr.branch[[0, 2, 4]].tolist() == [["lower", "", ""], ["lower", "middle", "upper"],
                                              ["upper", "", ""]]


def test_scan_rejects_bad_grids():
    with pytest.raises(ValueError):
        scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, [1.0, 0.5])
    with pytest.raises(ValueError):
        scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, [-1.0, 0.5])
    with pytest.raises(ValueError):
        scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, [])



# Each entry point that takes a drive, called with the one drive omega
DRIVE_ENTRIES = [
    lambda om: MediumParams(delta=3.0, zeta_lorentz=50.0, omega=om),
    lambda om: branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.UPPER, omega=om),
    lambda om: solution_arrays(LORENTZ_50, Mechanism.LORENTZ, [1.0, om]),
    lambda om: scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, sorted([2.0, om])),
    lambda om: sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, om, 2.0, 1e-3),
    lambda om: integrate(BlochState(0.0, 0.0, 1.0), LORENTZ_50, Mechanism.LORENTZ, om, 1.0,
                         t_eval=[0.0, 1.0]),
]


@pytest.mark.parametrize("omega", [1e160, 1e200, -1.0, -1e200])
def test_drives_whose_square_overflows_are_rejected(omega):
    """omega**2 overflows past about 1.3e154 (OverflowError on a Python
    float, inf coefficients on an array), and a drive is nonnegative.  Every
    entry that takes a drive rejects a drive too large or negative with a
    ValueError that names it (omega, or a sweep's omega_start), before any
    solve or warning."""
    rule = "must be nonnegative" if omega < 0.0 else "must be at most"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in DRIVE_ENTRIES:
            with pytest.raises(ValueError, match=f"^omega(_start)? {rule}"):
                entry(omega)


@pytest.mark.parametrize("entry, omegas", [
    (solution_arrays, [1.0, np.nan]),
    (solution_arrays, [np.nan, 1.0]),
    (solution_arrays, [1.0, np.inf]),
    (solution_arrays, [-np.inf, 1.0]),
    (scan_hysteresis, [0.0, np.nan, 2.0]),
    (scan_hysteresis, [0.0, 2.0, np.inf]),
    (solution_arrays, [1.0, -1.0]),
    (solution_arrays, [-1e200]),
    (scan_hysteresis, [-1.0, 2.0]),
    (scan_hysteresis, [-1e200, 0.0, 2.0]),
])
def test_nonfinite_drives_are_rejected_before_any_solve(entry, omegas):
    """A NaN, infinite or negative drive in an array entry point is a
    ValueError that names omega, raised before any solve or warning: no root
    count of 0 for it, and no warning from a scan."""
    rule = "must be finite" if not np.isfinite(omegas).all() else "must be nonnegative"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^omega {rule}"):
            entry(LORENTZ_50, Mechanism.LORENTZ, omegas)


def test_largest_drive_solves_without_overflow():
    """At the largest accepted drive the scan finds the lone saturated upper
    root, with no overflow on the way: the kernel's largest product is the
    inversion cubic's 2 omega^2, and the cap leaves a factor 8 to spare."""
    params = replace(LORENTZ_50, omega=OMEGA_MAX)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scan = scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, [0.0, OMEGA_MAX])
        (sol,) = solutions_at(params, Mechanism.LORENTZ)
    (top,) = scan.points[-1].solutions
    assert top.branch is Branch.UPPER and top.stable
    assert 0.0 < sol.w == top.w < 1e-300


# -------------------------------------------------------------- branch selection

def test_branch_existence_windows():
    # below the lower fold only the lower branch exists
    with pytest.raises(BranchNotPresentError):
        branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.UPPER, omega=0.5)
    with pytest.raises(BranchNotPresentError):
        branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.MIDDLE, omega=0.5)
    sol = branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.LOWER, omega=0.5)
    assert sol.w > 0.99

    # above the upper fold the surviving root continues the upper branch
    sol = branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.UPPER, omega=20.0)
    assert sol.rho22 > 0.45
    with pytest.raises(BranchNotPresentError):
        branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.LOWER, omega=20.0)

    # all three inside the window
    for branch in Branch:
        assert branch_solution(LORENTZ_50, Mechanism.LORENTZ, branch, omega=8.0).branch is branch


@pytest.mark.parametrize("params, mech", [(LORENTZ_50, Mechanism.LORENTZ),
                                          (DETUNING_50, Mechanism.DETUNING)])
def test_branch_solution_warns_at_its_caller(params, mech):
    """At the lower fold the merged middle/upper root is marginal, so asking
    for the lower branch there warns, attributed to the caller of
    branch_solution, as solutions_at and scan_hysteresis attribute theirs."""
    omega_down = find_thresholds(params, mech)[1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = branch_solution(params, mech, Branch.LOWER, omega=omega_down)
    assert sol.branch is Branch.LOWER
    marginal = [w for w in caught if w.category is MarginalStabilityWarning]
    assert marginal
    assert [w.filename for w in marginal] == [__file__] * len(marginal)


def test_solution_record_invariants():
    for om in (0.5, 8.0, 20.0):
        for sol in solutions_at(replace(LORENTZ_50, omega=om), Mechanism.LORENTZ):
            assert 0.0 < sol.w <= 1.0
            assert sol.rho22 == 0.5 * (1.0 - sol.w)
            assert 0.0 <= sol.rho22 < 0.5
            assert sol.residual <= 1e-10
            # coherence consistent with the effective parameters
            expected = coherence(sol.w, sol.omega_eff, sol.delta_eff, 1.0)
            assert sol.rho12 == pytest.approx(expected, rel=1e-12)


# ------------------------------------ the fold cubic: counts, brackets, stability

def exact_fold_ws(gamma: float, delta: float, zeta: float) -> list:
    """The fold cubic's roots in (0, 1), ascending, in 50-digit mpmath: two
    for a bistable medium, none for a monostable one."""
    with mpmath.workdps(50):
        d, z, g = mpmath.mpf(delta), mpmath.mpf(zeta), mpmath.mpf(gamma)
        roots = mpmath.polyroots([2 * z * z, -z * (z + 2 * d), 0, d * d + g * g / 4],
                                 maxsteps=200, extraprec=200)
        return sorted(r.real for r in roots if abs(r.imag) < 1e-40 and 0 < r.real < 1)


def exact_omega(gamma: float, delta: float, zeta: float, w) -> mpmath.mpf:
    """omega(W), omega^2(W) = (1 - W)((delta - zeta W)^2 + gamma^2/4) / (2W),
    in 50-digit mpmath."""
    with mpmath.workdps(50):
        w = mpmath.mpf(w)
        y = mpmath.mpf(delta) - mpmath.mpf(zeta) * w
        return mpmath.sqrt((1 - w) * (y * y + mpmath.mpf(gamma) ** 2 / 4) / (2 * w))


def exact_inversion_roots(gamma: float, delta: float, zeta: float, omega: float) -> list:
    """Real roots of the inversion cubic of the doubles given, descending,
    in 50-digit mpmath."""
    with mpmath.workdps(50):
        d, z, g, o = (mpmath.mpf(x) for x in (delta, zeta, gamma, omega))
        c = [z * z, -z * (z + 2 * d), 2 * o * o + d * (d + 2 * z) + g * g / 4, -(d * d + g * g / 4)]
        roots = mpmath.polyroots(c, maxsteps=200, extraprec=200)
        return sorted((r.real for r in roots if abs(r.imag) < 1e-30), reverse=True)


def root_error_bound(gamma: float, delta: float, zeta: float, omega: float, w) -> float:
    """How far the kernel's root may lie from the exact root W of the
    inversion cubic p at drive omega: a shift bound from E = 16 eps N(W),
    plus one ulp of W.

    N(W) = sum T_i W^i sums the magnitudes of the terms that build each
    coefficient: T3 = zeta^2, T2 = zeta (zeta + 2|delta|),
    T1 = 2 omega^2 + |delta| (|delta| + 2 zeta) + gamma^2/4 and
    T0 = delta^2 + gamma^2/4.  Each coefficient is at most three roundings
    and one normalization from its exact value, 4 eps T_i; a drive rounded
    from omega(W) moves p(W) by at most eps T1 W; and the kernel returns a
    w where the computed cubic is within 8 eps sum |c_i| w^i of zero (or
    brackets its sign change between adjacent doubles).  So p(w) - p(W) is
    at most 13 eps N, and 16 leaves room for higher-order terms.  To first
    order the shift is E / |p'(W)|, that is 16 eps W kappa with the root's
    condition number kappa = N / (W |p'(W)|).  Near a fold p' vanishes, and
    to second order the shift is the smaller root of
    |p''| D^2 / 2 - |p'| D + E, 2 E / (|p'| + sqrt(p'^2 - 2 |p''| E)).
    Where that has no root, the drive is within rounding of the fold and
    the kernel reports the fold's double root, at most sqrt(E / |p''|) from
    W; the bound is then 2 E / |p'|, which is at least sqrt(2 E / |p''|)."""
    w = float(w)
    d, z = abs(delta), zeta
    terms = (z * z * w + z * (z + 2.0 * d)) * w * w
    terms += (2.0 * omega * omega + d * (d + 2.0 * z) + 0.25 * gamma * gamma) * w
    terms += delta * delta + 0.25 * gamma * gamma
    slope = (3.0 * z * z * w - 2.0 * z * (z + 2.0 * delta)) * w
    slope = abs(slope + 2.0 * omega * omega + delta * (delta + 2.0 * z) + 0.25 * gamma * gamma)
    bend = abs(6.0 * z * z * w - 2.0 * z * (z + 2.0 * delta))
    e = 16.0 * EPS * terms
    root = np.sqrt(max(slope * slope - 2.0 * bend * e, 0.0))
    return 2.0 * e / (slope + root) + float(np.spacing(w))


# Drives inside the window where the merged double roots once lost a root
# (delta, zeta_l, zeta_m, omega, mechanism): gamma = 1 and zeta / max(delta,
# gamma) from 1e3 to 1e7, lorentz, detuning and joint.  The first is the
# lone root of a drive that has three: 0.99999998473991915,
# 8.1357003017745858e-7 and 8.1193610949196985e-7.
LOST_ROOTS = [
    (3.623331949513468, 4500345.682595955, 0.0, 393.10533676854124, "lorentz"),
    (17.23810630699099, 0.0, 39792.824662687424, 16.981374121113706, "detuning"),
    (0.5887525517995864, 3457.4720954745535, 0.0, 25.196751635346732, "lorentz"),
    (6.035853428345894, 0.0, 515687.8016448166, 103.25385849417623, "detuning"),
    (0.4036766106902177, 6246.399885964533, 38611.22716350613, 103.52817690535461, "joint"),
    (1.234175776212978, 17879.375342489653, 0.0, 41.73684899559199, "lorentz"),
    (0.18016665103274915, 0.0, 208876.98644176364, 270.8855286603027, "detuning"),
    (0.1399558164682298, 142457.20049803428, 537907.2797223936, 507.97297099063553, "joint"),
    (0.21475521772923556, 511661.06624871225, 0.0, 410.54742524871017, "lorentz"),
    (0.18740099473067168, 0.0, 2604383.3560128924, 950.0455775094897, "detuning"),
    (0.7008106963483244, 666066.2461708847, 745738.6233677724, 475.3988023239604, "joint"),
    (0.13229707266736418, 7369399.549771059, 0.0, 1684.2064908345346, "lorentz"),
]


def strongly_coupled(rng, n):
    """``n`` seeded media with gamma = 1, delta log-uniform in 1e-2 ... 1e3
    and zeta / max(delta, gamma) log-uniform in 1e2 ... 1e7, lorentz,
    detuning and joint in turn."""
    media = []
    for i in range(n):
        mech = list(Mechanism)[i % 3]
        delta = 10.0 ** rng.uniform(-2.0, 3.0)
        zeta = max(delta, 1.0) * 10.0 ** rng.uniform(2.0, 7.0)
        share = {Mechanism.LORENTZ: 1.0, Mechanism.DETUNING: 0.0}.get(mech, rng.uniform(0.1, 0.9))
        media.append((MediumParams(delta=delta, zeta_lorentz=share * zeta,
                                   zeta_detuning=zeta - share * zeta), mech))
    return media


def test_strongly_coupled_window_drives_have_three_roots():
    """Drives strictly inside the window of strongly coupled media have three
    roots, one in each piece (W_f2, 1], (W_f1, W_f2] and (0, W_f1] of the
    exact fold inversions, each within root_error_bound (16 kappa ulps and
    one) of the exact root.  The drives are those of LOST_ROOTS, and
    omega(W), correctly rounded, at W in the middle piece 1e-8 ... 0.5 of
    its width above W_f1 for 24 seeded media; the middle and upper roots
    form a pair there that the closed form and its polish can land on one
    double."""
    cases = [(MediumParams(delta=d, zeta_lorentz=zl, zeta_detuning=zm), Mechanism(mech), [omega])
             for d, zl, zm, omega, mech in LOST_ROOTS]
    for params, mech in strongly_coupled(np.random.default_rng(14), 24):
        zeta = zeta_total(params, mech)
        f1, f2 = exact_fold_ws(1.0, params.delta, zeta)
        cases.append((params, mech, [
            float(exact_omega(1.0, params.delta, zeta, f1 + t * (f2 - f1)))
            for t in (1e-8, 1e-6, 1e-4, 1e-2, 0.5)]))
    for params, mech, drives in cases:
        zeta = zeta_total(params, mech)
        f1, f2 = exact_fold_ws(1.0, params.delta, zeta)
        arr = solution_arrays(params, mech, drives)
        for omega, count, w in zip(drives, arr.count.tolist(), arr.w.tolist()):
            assert count == 3, (params, mech, omega)
            assert w[0] > f2 >= w[1] > f1 >= w[2], (params, mech, omega)
            for got, exact in zip(w, exact_inversion_roots(1.0, params.delta, zeta, omega)):
                bound = root_error_bound(1.0, params.delta, zeta, omega, exact)
                assert abs(got - exact) <= bound, (params, mech, omega, got, exact)


@st.composite
def round_trip_media(draw):
    """(params, mech, gamma, delta, zeta) from extreme_media, or a strongly
    coupled medium as in strongly_coupled."""
    if draw(st.booleans()):
        return draw(extreme_media())
    [(params, mech)] = strongly_coupled(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 1)
    return params, mech, params.gamma, params.delta, zeta_total(params, mech)


def round_trip_ws(rng, folds) -> np.ndarray:
    """Inversions to map to drives: uniform and log-uniform in (0, 1], and
    for a bistable medium on both sides of each fold inversion, 1e-6 ... 0.1
    of the way to the next end of its piece."""
    ws = [rng.uniform(0.0, 1.0, 8), 10.0 ** rng.uniform(-9.0, 0.0, 8)]
    if folds:
        f1, f2 = (float(f) for f in folds)
        t = 10.0 ** rng.uniform(-6.0, -1.0, (4, 3))
        ws += [f1 * (1.0 - t[0]), f1 + (f2 - f1) * t[1], f2 - (f2 - f1) * t[2],
               f2 + (1.0 - f2) * t[3]]
    ws = np.concatenate(ws)
    return ws[(ws > 0.0) & (ws <= 1.0)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(medium=round_trip_media(), seed=st.integers(0, 2**32 - 1))
def test_round_trip_through_the_explicit_inverse(medium, seed):
    """W -> omega(W) -> kernel.  The drive is omega(W) correctly rounded,
    and the kernel at that drive has a root within root_error_bound of W,
    16 eps W kappa and one ulp with kappa = N / (W |p'(W)|) derived there;
    3 roots strictly inside the exact window and 1 outside it; and that
    root's stable flag is the sign of the fold cubic C(W), in exact
    arithmetic.  Then a scan over the same drives and both folds labels and
    flags alike: lower and upper stable, middle unstable, none marginal,
    and at a fold one marginal, not stable, double root beside a stable
    root; a lone root is upper above the exact window and lower below it."""
    params, mech, gamma, delta, zeta = medium
    folds = exact_fold_ws(gamma, delta, zeta)
    ws = round_trip_ws(np.random.default_rng(seed), folds)
    drives = np.array([float(exact_omega(gamma, delta, zeta, w)) for w in ws])
    window = [exact_omega(gamma, delta, zeta, f) for f in folds]
    arr = solution_arrays(params, mech, drives)
    for w, omega, roots, count, stable, marginal in zip(ws, drives, arr.w, arr.count,
                                                        arr.stable, arr.marginal):
        k = np.nanargmin(np.abs(roots - w))
        assert abs(roots[k] - w) <= root_error_bound(gamma, delta, zeta, omega, w), (w, omega)
        if marginal.any():  # within rounding of a fold: its double root and one more
            assert count == 2 and marginal[k], (w, omega)
            continue
        inside = bool(folds) and window[0] < omega < window[1]
        assert count == (3 if inside else 1), (w, omega)
        with mpmath.workdps(50):
            w_exact, d, z = mpmath.mpf(w), mpmath.mpf(delta), mpmath.mpf(zeta)
            c = (2 * z * z * w_exact - z * (z + 2 * d)) * w_exact**2 + d * d + mpmath.mpf(gamma)**2 / 4
        assert stable[k] == (c > 0), (w, omega)

    grid = np.unique(np.concatenate([drives, find_thresholds(params, mech) or []]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalStabilityWarning)
        scan = scan_hysteresis(params, mech, grid)
    a = scan.points.arrays
    for omega, count, stable, marginal, name in zip(a.omega, a.count, a.stable, a.marginal,
                                                     a.branch):
        if count == 2:
            assert marginal.sum() == 1 and stable[~marginal & (name != "")].all(), name
            assert not stable[marginal].any(), omega
        else:
            assert not marginal.any() and (stable == ((name != "middle") & (name != ""))).all()
        if count == 1:  # above the exact window the upper branch survives
            assert name[0] == ("upper" if folds and omega > window[1] else "lower"), omega


def one_drive_records(params, mech, omega):
    """{branch: record_bits} of solutions_at and of branch_solution at
    ``omega``, or NoPhysicalRootError's type for solutions_at; the marginal
    warnings at folds are silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MarginalStabilityWarning)
        try:
            at = {sol.branch: record_bits(sol) for sol in solutions_at(
                replace(params, omega=omega), mech)}
        except NoPhysicalRootError:
            at = NoPhysicalRootError
        one = {}
        for branch in Branch:
            try:
                one[branch] = record_bits(branch_solution(params, mech, branch, omega=omega))
            except BranchNotPresentError:
                pass
    return at, one


@settings(max_examples=25, deadline=None, derandomize=True)
@given(medium=round_trip_media(), ts=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=3,
                                               max_size=3))
def test_one_drive_gives_the_scans_bits(medium, ts):
    """solutions_at and branch_solution, which solve one drive in Python
    floats away from the folds, give the bits of the one-drive scan's
    records, or its missing branch, at zero drive, at omega(W) of W on each
    fold piece (anywhere in (0, 1) for a monostable medium), and at each
    fold drive and the two doubles beside it, where the kernel decides."""
    params, mech, gamma, delta, zeta = medium
    folds = exact_fold_ws(gamma, delta, zeta)
    ends = [0.0] + [float(f) for f in folds] + [1.0]
    ws = [lo + t * (hi - lo) for t, lo, hi in zip(ts, ends, ends[1:])]
    drives = [0.0] + [float(exact_omega(gamma, delta, zeta, w)) for w in ws]
    for omega in find_thresholds(params, mech) or []:
        drives += [np.nextafter(omega, 0.0), omega, np.nextafter(omega, np.inf)]
    for omega in map(float, drives):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scan = scan_hysteresis(params, mech, [omega]).points[0].solutions
        expected = {sol.branch: record_bits(sol) for sol in scan}
        assert one_drive_records(params, mech, omega) == (
            expected or NoPhysicalRootError, expected), (params, mech, omega)


class KernelCalled(Exception):
    """Raised by a patched kernel entry."""


@pytest.mark.parametrize("params, mech", [
    (LORENTZ_50, Mechanism.LORENTZ),
    (DETUNING_50, Mechanism.DETUNING),
    (MediumParams(delta=3.0, zeta_lorentz=20.0, zeta_detuning=30.0), Mechanism.JOINT),
])
def test_one_drive_leaves_the_kernel_only_at_the_folds(monkeypatch, params, mech):
    """With the array kernel patched to raise, find_thresholds and
    branch_solution still answer at the drives of the benchmark's spectra:
    15-85 % across the window on every branch, 1.05-1.4 times the upper fold
    on the upper branch and 0.3-0.9 times the lower fold on the lower one.
    At each exact fold the call reaches the kernel."""
    def kernel_called(*args):
        raise KernelCalled

    monkeypatch.setattr(steady_state, "_solve", kernel_called)
    monkeypatch.setattr(steady_state, "_real_cubic_roots", kernel_called)
    up, down = find_thresholds(params, mech)
    cases = [(down + t * (up - down), branch)
             for t in np.linspace(0.15, 0.85, 8) for branch in Branch]
    cases += [(up * k, Branch.UPPER) for k in np.linspace(1.05, 1.4, 8)]
    cases += [(down * k, Branch.LOWER) for k in np.linspace(0.3, 0.9, 8)]
    for omega, branch in cases:
        assert branch_solution(params, mech, branch, omega=omega).branch is branch, omega
    for omega in (up, down):
        with pytest.raises(KernelCalled):
            branch_solution(params, mech, Branch.LOWER, omega=omega)


def exact_root_counts(params, mech, omega: np.ndarray) -> list:
    """Roots in [0, 1 + 1e-9] of the kernel's normalized inversion cubic at
    each drive of ``omega``, counted exactly: its double coefficients taken
    as rationals, counted by sympy's Sturm sequence (a double root once).
    The kernel takes a root up to the double 1 + 1e-9 as W = 1: at zero
    drive W = 1 is the root, and the rounded coefficients move it above 1."""
    cubic = steady_state._inversion_cubic(params, zeta_total(params, mech), omega)
    c = steady_state._normalized(np.array([np.broadcast_to(x, omega.shape) for x in cubic]))
    x, top = sympy.Symbol("x"), rational(1.0 + 1e-9)
    return [sympy.Poly(list(map(rational, col)), x).count_roots(0, top) for col in c.T.tolist()]


def rational(value: float) -> sympy.Rational:
    """The double ``value`` as an exact sympy rational."""
    return sympy.Rational(*Fraction(value).as_integer_ratio())


@settings(max_examples=90, deadline=None, derandomize=True)
@given(delta=st.floats(-30.0, 30.0), u=st.floats(0.0, 7.0), mech=st.sampled_from(
    [Mechanism.LORENTZ, Mechanism.DETUNING]), exponents=st.lists(st.floats(-9.0, 0.0),
                                                                 min_size=4, max_size=8))
def test_root_counts_are_exact(delta, u, mech, exponents):
    """At every drive without a marginal root the kernel's root count is the
    exact count of its own cubic's roots in [0, 1].  The media have gamma = 1
    and zeta = 10**u; the drives are omega(W) of the explicit inverse at
    W = 10**e and, for a bistable medium, each fold drive and its two
    neighbouring doubles, omega_up (1 + 1e-9) and omega_down (1 - 1e-9).
    A drive with a marginal root lies within rounding of a fold, where the
    kernel names the double root and an exact count may see two or none."""
    zeta = 10.0**u
    params = MediumParams(delta=delta, **{f"zeta_{mech.value}": zeta})
    ws = 10.0 ** np.array(exponents)
    drives = np.sqrt((1.0 - ws) * ((delta - zeta * ws) ** 2 + 0.25) / (2.0 * ws))
    folds = find_thresholds(params, mech)
    if folds is not None:
        up, down = folds
        drives = np.concatenate([drives, [up * (1.0 + 1e-9), down * (1.0 - 1e-9)],
                                 *([np.nextafter(f, 0.0), f, np.nextafter(f, np.inf)]
                                   for f in folds)])
    arr = solution_arrays(params, mech, drives)
    clear = ~arr.marginal.any(axis=1)
    exact = exact_root_counts(params, mech, drives[clear])
    assert arr.count[clear].tolist() == exact, (params, mech, drives[clear])
