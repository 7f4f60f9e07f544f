import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from iobspectra import (
    Branch,
    BranchNotPresentError,
    MediumParams,
    Mechanism,
    branch_solution,
    default_nu_grid,
    find_thresholds,
    free_atom_saturation_max,
    incoherent_spectrum,
    oracle_spectrum,
    peak_positions,
    solution_arrays,
    spectrum_coefficients,
    spectrum_for_solution,
    stationary_state,
    sum_rule_ratio,
)
from iobspectra.spectrum import correlation_matrix
from media import LORENTZ_50, DETUNING_50, OMEGA_UP_EXACT, OMEGA_DOWN_EXACT, liouvillian


def rel_dev(a, b):
    return np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))


# ----------------------------------------------------------------- coefficients

def test_coefficients_dark_atom():
    c = spectrum_coefficients(0.0, 0.0, 1.0)
    assert (c.a, c.a0, c.b4, c.b2, c.b0) == (0.25, 1.0, 1.5, 0.5625, 0.0625)
    assert c.nu_p_sq == -0.75
    assert c.b2 == c.nu_p_sq**2  # no drive: quartic term alone


def test_coefficients_strong_drive():
    c = spectrum_coefficients(25.0, 0.0, 1.0)
    assert c.nu_p_sq == 99.25
    assert c.b4 == -198.5
    assert c.b0 == 50.25**2


def test_b2_quartic_term_by_symbolic_expansion():
    """Expanding the factorized denominator fixes the quartic drive term of b2."""
    nu, o2, d, g = sympy.symbols("nu o2 d g", positive=True)
    nup2 = 4 * o2 + d**2 - sympy.Rational(3, 4) * g**2
    gamma6 = g**2 * (2 * o2 + d**2 + g**2 / 4) ** 2
    factored = nu**2 * (nu**2 - nup2) ** 2 + 8 * g**2 * o2 * nu**2 + gamma6
    poly = sympy.Poly(sympy.expand(factored), nu)
    b2_sym = poly.coeff_monomial(nu**2)
    b2_printed = (
        16 * o2**2
        + 2 * o2 * (4 * d**2 + g**2)
        + d**4
        - sympy.Rational(3, 2) * g**2 * d**2
        + sympy.Rational(9, 16) * g**4
    )
    assert sympy.simplify(b2_sym - b2_printed) == 0
    # the same expansion pins b4 and b0
    assert sympy.simplify(poly.coeff_monomial(nu**4) - (-8 * o2 - 2 * d**2 + sympy.Rational(3, 2) * g**2)) == 0
    assert sympy.simplify(poly.coeff_monomial(1) - g**2 * (2 * o2 + d**2 + g**2 / 4) ** 2) == 0


@settings(max_examples=300, deadline=None)
@given(
    o2=st.floats(0.0, 400.0),
    d=st.floats(-20.0, 20.0),
    g=st.floats(0.1, 5.0),
)
def test_factorization_identity(o2, d, g):
    c = spectrum_coefficients(o2, d, g)
    scale = g * g + d * d + 2.0 * o2
    assert abs(c.b4 + 2.0 * c.nu_p_sq) <= 1e-12 * scale
    assert abs(c.b2 - (c.nu_p_sq**2 + 8.0 * g * g * o2)) <= 1e-12 * scale * scale


@given(o2=st.floats(0.0, 50.0), d=st.floats(-10.0, 10.0), g=st.floats(0.1, 3.0))
def test_denominator_positive(o2, d, g):
    c = spectrum_coefficients(o2, d, g)
    nu = np.linspace(-4.0 * math.sqrt(abs(c.nu_p_sq)) - 10.0 * g, 0.0, 500)
    nu2 = nu * nu
    den = ((nu2 + c.b4) * nu2 + c.b2) * nu2 + c.b0
    assert np.all(den > 0.0)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        spectrum_coefficients(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        spectrum_coefficients(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        spectrum_coefficients(np.array([1.0, -1e-300, 4.0]), np.zeros(3), 1.0)
    for bad in (0.0, -1e-300, -2.0):
        with pytest.raises(ValueError, match="gamma must be positive"):
            spectrum_coefficients(np.ones(3), np.zeros(3), np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize("kind", [float, np.float64, np.array, lambda x: np.array([1.0, x])])
def test_negative_omega_eff_sq_is_refused_and_nan_passes(kind):
    """A negative |omega_eff|^2 is refused with its value named, as a Python
    float, a numpy scalar, a 0-d array or an array; NaN and -0.0 pass."""
    for bad in (-1.0, -5e-324):
        value = kind(bad)
        with pytest.raises(ValueError) as info:
            spectrum_coefficients(value, 0.0, 1.0)
        assert str(info.value) == f"omega_eff_sq must be nonnegative, got {value}"
    for fine in (math.nan, -0.0):
        assert spectrum_coefficients(kind(fine), 0.0, kind(1.0)).a0 is not None
    with pytest.raises(ValueError, match="gamma must be positive"):
        spectrum_coefficients(1.0, 0.0, kind(-0.0))


def test_coefficients_elementwise_on_arrays():
    """Array arguments give, field by field, the scalar call's bits; the
    draws include negative nu_p_sq (weak drive, small detuning)."""
    rng = np.random.default_rng(12)
    o2 = rng.uniform(0.0, 50.0, 200) ** 2 * rng.uniform(0.0, 1.0, 200) ** 8
    d = rng.uniform(-20.0, 20.0, 200) * rng.uniform(0.0, 1.0, 200) ** 4
    g = 1.7
    arrays = spectrum_coefficients(o2, d, g)
    assert (arrays.nu_p_sq < 0.0).any() and (arrays.nu_p_sq > 0.0).any()
    for i in range(len(o2)):
        scalar = spectrum_coefficients(float(o2[i]), float(d[i]), g)
        for name in ("a", "a0", "b4", "b2", "b0", "nu_p_sq"):
            assert getattr(arrays, name)[i] == getattr(scalar, name)


def test_coefficients_elementwise_in_gamma():
    """An array gamma gives, element by element, the scalar call's bits."""
    rng = np.random.default_rng(13)
    o2, d, g = rng.uniform(0.0, 50.0, 100), rng.uniform(-10.0, 10.0, 100), rng.uniform(0.3, 3.0, 100)
    arrays = spectrum_coefficients(o2, d, g)
    for i in range(len(g)):
        scalar = spectrum_coefficients(float(o2[i]), float(d[i]), float(g[i]))
        for name in ("a", "a0", "b4", "b2", "b0", "nu_p_sq"):
            assert getattr(arrays, name)[i] == getattr(scalar, name)


# ---------------------------------------------------------------------- density

def test_center_height_closed_form():
    c = spectrum_coefficients(4.0, 1.5, 1.0)
    rho22 = 0.3
    expected = 2.0 * rho22**2 * c.a0 / (1.0 * c.a)  # b0 = gamma^2 a^2 cancels
    assert incoherent_spectrum(0.0, c, rho22, 1.0) == pytest.approx(expected, rel=1e-14)


def test_no_excitation_no_emission():
    c = spectrum_coefficients(4.0, 0.0, 1.0)
    nu = np.linspace(-10, 10, 101)
    assert np.all(incoherent_spectrum(nu, c, 0.0, 1.0) == 0.0)


def test_density_even_and_positive():
    c = spectrum_coefficients(25.0, 3.0, 1.0)
    nu = np.linspace(0.0, 40.0, 500)
    plus = incoherent_spectrum(nu, c, 0.4, 1.0)
    minus = incoherent_spectrum(-nu, c, 0.4, 1.0)
    assert np.all(plus > 0.0)
    assert np.max(np.abs(plus - minus)) <= 1e-12 * np.max(plus)


def test_density_vanishes_where_the_denominator_overflows():
    """Past |nu| ~ 1e51 the sextic denominator overflows to inf and the
    density is 0, also where nu^2 overflows too (|nu| > 1.3e154) and the
    numerator with it; no overflow warning escapes."""
    c = spectrum_coefficients(25.0, 1.0, 1.0)
    nu = np.array([-1e200, -1e100, 0.0, 1e60, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert incoherent_spectrum(1e200, c, 0.3, 1.0) == 0.0
        out = incoherent_spectrum(nu, c, 0.3, 1.0)
    assert out.tolist() == [0.0, 0.0, incoherent_spectrum(0.0, c, 0.3, 1.0), 0.0, 0.0]


def test_rho22_validation():
    """rho22 lies in [0, 1/2]; 1/2 is the saturation limit, which a steady
    state reaches in rounding at very strong drive."""
    c = spectrum_coefficients(1.0, 0.0, 1.0)
    for bad in (np.nextafter(0.5, 1.0), -0.1, math.nan):
        with pytest.raises(ValueError):
            incoherent_spectrum(0.0, c, bad, 1.0)
    assert incoherent_spectrum(0.0, c, 0.5, 1.0) > 0.0


# ----------------------------------------------------------------------- oracle

def draw_effective(rng):
    g = rng.uniform(0.5, 2.0)
    d = rng.uniform(-8.0, 8.0) * g
    ob = rng.uniform(0.5, 15.0) * g * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return ob, d, g


def test_closed_form_matches_oracle_randomized():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        ob, d, g = draw_effective(rng)
        rho = stationary_state(ob, d, g)
        c = spectrum_coefficients(abs(ob) ** 2, d, g)
        nu = default_nu_grid(c.nu_p_sq, g, points=401)
        closed = incoherent_spectrum(nu, c, rho.rho22, g)
        oracle = oracle_spectrum(nu, ob, d, g, rho)
        worst = max(worst, float(rel_dev(closed, oracle).max()))
    assert worst <= 1e-10


def test_closed_form_matches_oracle_resonant_free_atom():
    """Resonant isolated atom at |omega| = 5: pointwise oracle agreement."""
    ob, d, g = 5.0 + 0.0j, 0.0, 1.0
    rho = stationary_state(ob, d, g)
    c = spectrum_coefficients(25.0, 0.0, 1.0)
    nu = np.linspace(-30.0, 30.0, 401)
    closed = incoherent_spectrum(nu, c, rho.rho22, g)
    oracle = oracle_spectrum(nu, ob, d, g, rho)
    assert float(rel_dev(closed, oracle).max()) <= 1e-10


def test_oracle_matches_printed_solution():
    """g12 = -2 rho22^2 (nu^2 - g^2 - 2|o|^2 - 2 i g nu) / det M, and
    |det M|^2 is exactly the sextic denominator."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        ob, d, g = draw_effective(rng)
        rho = stationary_state(ob, d, g)
        c = spectrum_coefficients(abs(ob) ** 2, d, g)
        for nu in rng.uniform(-30.0, 30.0, 4):
            m = correlation_matrix(nu, ob, d, g)
            q = np.array(
                [rho.rho21 * rho.rho22, rho.rho22 - rho.rho12 * rho.rho21, -rho.rho21**2]
            )
            g12 = np.linalg.solve(m, q)[1]
            det = np.linalg.det(m)
            printed = -2.0 * rho.rho22**2 * (nu * nu - g * g - 2.0 * abs(ob) ** 2 - 2j * g * nu) / det
            assert abs(g12 - printed) <= 1e-9 * abs(g12)
            den = ((nu * nu + c.b4) * nu * nu + c.b2) * nu * nu + c.b0
            assert abs(abs(det) ** 2 - den) <= 1e-9 * den


def test_oracle_matches_quantum_regression_resolvent():
    """Independent 4x4 route: the Fourier-Laplace transform of the two-time
    correlator via the master-equation generator reproduces Re g12, and its
    trace component vanishes identically (g11 + g22 = 0)."""
    rng = np.random.default_rng(11)
    for _ in range(15):
        ob, d, g = draw_effective(rng)
        rho = stationary_state(ob, d, g)
        x0 = np.array(
            [
                rho.rho21 * rho.rho22,
                rho.rho22 - rho.rho21 * rho.rho12,
                -rho.rho21**2,
                -rho.rho21 * rho.rho22,
            ]
        )
        for nu in rng.uniform(-25.0, 25.0, 4):
            resolvent = -np.linalg.solve(liouvillian(ob, d, g) + 1j * nu * np.eye(4), x0)
            assert abs(resolvent[0] + resolvent[3]) <= 1e-12 * max(1e-30, abs(resolvent[0]))
            s_qrt = resolvent[1].real
            s_direct = oracle_spectrum(nu, ob, d, g, rho)
            assert abs(s_qrt - s_direct) <= 1e-9 * max(abs(s_qrt), abs(s_direct))


def test_block_elimination_matches_dense_solve():
    """The oracle's block elimination against a dense LU solve of the stacked
    correlation matrix, pointwise, over 1000 media with gamma in 1e-3..1e3 and
    |omega_eff|/gamma, |delta_eff|/gamma each in 1e-3..1e3, on the default grid
    plus nu = +-delta_eff (where a pivot m11 or m22 is as small as gamma/2) and
    nu = 1e6 gamma.

    Bound, relative to max_k |g_k| at that nu: the elimination is LU with the
    fixed pivots m11, m22, so the entries m01 m10 / m11 and m02 m20 / m22 of
    the Schur complement can exceed |M| by the growth factor
    2|omega_eff|^2 / (gamma/2) / (2|omega_eff|) = 2|omega_eff| / gamma <= 2e3.
    About twenty roundings of u = 1.1e-16 each, amplified by that growth, give
    20 * 1.1e-16 * 2e3 = 4.4e-12; the dense solve with partial pivoting (growth
    <= 4) adds a few u times cond(M) <= 6e3.  Hence 1e-11.  These draws give
    7.5e-13; over other seeds the worst seen is 1.2e-12, always at
    nu = +-delta_eff with cond(M) < 10, where the growth bound is reached.
    """
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1000):
        g = 10.0 ** rng.uniform(-3.0, 3.0)
        ob = g * 10.0 ** rng.uniform(-3.0, 3.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        d = g * 10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([-1.0, 1.0])
        rho = stationary_state(ob, d, g)
        c = spectrum_coefficients(abs(ob) ** 2, d, g)
        nu = np.concatenate([default_nu_grid(c.nu_p_sq, g), [d, -d, 1e6 * g]])
        m = correlation_matrix(nu, ob, d, g)
        assert np.all(m[..., 1, 2] == 0.0) and np.all(m[..., 2, 1] == 0.0)
        q = np.array([rho.rho21 * rho.rho22, rho.rho22 - rho.rho12 * rho.rho21, -rho.rho21**2])
        dense = np.linalg.solve(m, np.broadcast_to(q, (nu.size, 3))[..., np.newaxis])[..., 0]
        dev = np.abs(oracle_spectrum(nu, ob, d, g, rho) - dense[:, 1].real)
        worst = max(worst, float((dev / np.abs(dense).max(axis=1)).max()))
    assert worst <= 1e-11


def _exact_solve(m, q):
    """x[1] of m x = q and |det m| for one 3x3 complex system, by Gaussian
    elimination with partial pivoting in mpmath at its working precision;
    the float entries convert exactly."""
    a = [[mpmath.mpc(complex(v)) for v in row] + [mpmath.mpc(complex(b))] for row, b in zip(m, q)]
    det = mpmath.mpf(1)
    for k in range(3):
        p = max(range(k, 3), key=lambda i: abs(a[i][k]))
        a[k], a[p] = a[p], a[k]
        det *= abs(a[k][k])
        for i in range(k + 1, 3):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    x2 = a[2][3] / a[2][2]
    return (a[1][3] - a[1][2] * x2) / a[1][1], det


def test_oracle_against_an_exact_solve():
    """The oracle against the same 3x3 system, from the same rounded
    entries of correlation_matrix and the same rounded source q, solved in
    mpmath at 40 digits.  20 media per decade of |omega_eff|/gamma in
    [1, 10), [1e2, 1e3), [1e4, 1e5) and [1e6, 1e7), with gamma in 0.1..10
    and |delta_eff| <= |omega_eff|; 40 offsets per medium: 20 within 3 gamma
    of +-nu_p, 4 within 3 gamma of +-delta_eff (where m11 or m22 is as small
    as gamma/2) and 16 across the default grid's span +-(2 nu_p + 10 gamma).

    Bound, to first order in u = eps/2.  A complex product rounds to within
    sqrt(5) u of its value and a sum to within u.  det M is three terms of
    two products each, less two subtractions, so it errs by at most
    (2 sqrt(5) + 2) u S_D, S_D = |m00 m11 m22| + |m01 m10 m22| + |m02 m20 m11|;
    det M1 = m22 (q1 m00 - q0 m10) + m02 (m10 q2 - q1 m20) likewise by
    (2 sqrt(5) + 2) u S_N, S_N = |m22| (|q1 m00| + |q0 m10|)
    + |m02| (|m10 q2| + |q1 m20|).  numpy's complex division is Smith's
    algorithm: a ratio r, the reciprocal of the divisor's larger part plus
    r times its smaller one, and per component a product, a sum and the
    product by that reciprocal; each component errs by at most about
    (2 + 6 sqrt(2)) u |g12| = 10.5 u |g12|.  As |Re z| <= |z|, the error of
    S = Re g12 is at most

        u |g12| (6.5 S_N / |det M1| + 6.5 S_D / |det M| + 10.5) <= 5.25 eps kappa |S|,
        kappa = (S_N / |det M1| + S_D / |det M| + 1) |g12| / |S|,

    and the test asserts 6 eps kappa, kappa taken from the exact solution
    (|det M1| = |g12| |det M|).  kappa is the conditioning of S under these
    formulas.  Over these draws, for |omega_eff|/gamma >= 100, it is
    2.6-3.0 (1 + |omega_eff|/gamma) near the side peaks, where
    S_D / |det M| ~ |omega_eff|/gamma, and up to 78 (1 + |omega_eff|/gamma)
    elsewhere on the grid's span, where the density is a small share of
    |g12|; in the first decade the nu^-4 tail 10 gamma past the side peaks
    takes it to 1300 (1 + |omega_eff|/gamma).  The worst error seen is
    0.79 eps kappa, and by decade 5.1e-14, 2.6e-13, 2.7e-11 and 2.9e-9.
    A route through g11 first, g12 = (q1 - m10 g11) / m11, amplifies the
    error of g11 by |m10| / |m11| <= 4 |omega_eff|/gamma near nu = delta_eff;
    on these draws its error there reaches 6e6 eps kappa, a relative error
    of 4.7e-2 in the last decade.
    """
    eps = np.finfo(float).eps
    rng = np.random.default_rng(34)
    with mpmath.workdps(40):
        for decade in np.repeat([0, 2, 4, 6], 20):
            g = 10.0 ** rng.uniform(-1.0, 1.0)
            ob = g * 10.0 ** (decade + rng.uniform(0.0, 1.0))
            ob *= np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            d = abs(ob) * rng.uniform(-1.0, 1.0)
            rho = stationary_state(ob, d, g)
            nu_p = math.sqrt(spectrum_coefficients(abs(ob) ** 2, d, g).nu_p_sq)
            half = 2.0 * nu_p + 10.0 * g
            sign = rng.choice([-1.0, 1.0], 24)
            nu = np.concatenate([sign[:20] * nu_p + g * rng.uniform(-3.0, 3.0, 20),
                                 sign[20:] * d + g * rng.uniform(-3.0, 3.0, 4),
                                 rng.uniform(-half, half, 16)])
            got = oracle_spectrum(nu, ob, d, g, rho)
            m = correlation_matrix(nu, ob, d, g)
            q = (rho.rho21 * rho.rho22, rho.rho22 - rho.rho12 * rho.rho21, -(rho.rho21 * rho.rho21))
            (a00, a01, a02), (a10, a11, _), (a20, _, a22) = np.abs(m).transpose(1, 2, 0)
            b0, b1, b2 = np.abs(q)
            s_d = a00 * a11 * a22 + a01 * a10 * a22 + a02 * a20 * a11
            s_n = a22 * (b1 * a00 + b0 * a10) + a02 * (a10 * b2 + b1 * a20)
            for k in range(nu.size):
                g12, det = _exact_solve(m[k], q)
                s, g_abs, det = abs(float(g12.real)), float(abs(g12)), float(det)
                kappa = (s_n[k] / det + g_abs * s_d[k] / det + g_abs) / s
                err = float(abs(g12.real - got[k])) / s
                assert err <= 6.0 * eps * kappa, (decade, ob, d, g, nu[k], err / (eps * kappa))


def test_oracle_tail_decay():
    ob, d, g = 5.0 + 0.0j, 0.0, 1.0
    rho = stationary_state(ob, d, g)
    s1 = oracle_spectrum(200.0, ob, d, g, rho)
    s2 = oracle_spectrum(400.0, ob, d, g, rho)
    assert s1 / s2 == pytest.approx(16.0, rel=0.05)  # 1/nu^4 falloff



def test_oracle_vanishes_where_the_determinant_overflows():
    """det M grows as nu^3 and overflows past |nu| ~ 5.6e102; the oracle is 0
    there, with no overflow or invalid-value warning, as the closed form is
    0 once its sextic overflows.  Over the whole far tail the two routes
    agree to 1e-12 of the peak.  At 1e100, where the closed form's
    denominator has already overflowed, the density is about 2.4e-399, 0 in
    doubles, and the oracle's value is rounding noise of either sign: the
    same rounded system solved in mpmath gives -1.4e-217 (stable from 80 to
    400 digits), so the test bounds the value and does not test its sign."""
    ob, d, g = 5.0 + 0.0j, 1.0, 1.0
    rho = stationary_state(ob, d, g)
    c = spectrum_coefficients(abs(ob) ** 2, d, g)
    nu = np.array([1e100, 1e103, 1e110, 1e140, 1e160, 1e200, -1e200, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracle_spectrum(1e200, ob, d, g, rho) == 0.0
        got = oracle_spectrum(nu, ob, d, g, rho)
        closed = incoherent_spectrum(nu, c, rho.rho22, g)
    assert abs(got[0]) < 1e-200
    assert got[1:].tolist() == [0.0] * (nu.size - 1)
    peak = incoherent_spectrum(0.0, c, rho.rho22, g)
    assert np.abs(got - closed).max() <= 1e-12 * peak

def test_oracle_and_closed_form_agree_at_nan_and_infinite_offsets():
    """At a NaN offset both routes give NaN; at an infinite one both give 0,
    the limit of the nu^-4 tail.  Only an overflowed determinant at a number
    maps to 0 in the oracle."""
    ob, d, g = 2.0 + 1.0j, 1.0, 1.0
    rho = stationary_state(ob, d, g)
    c = spectrum_coefficients(abs(ob) ** 2, d, g)
    nu = np.array([np.nan, np.inf, -np.inf, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = oracle_spectrum(nu, ob, d, g, rho)
        closed = incoherent_spectrum(nu, c, rho.rho22, g)
    assert np.isnan(got[0]) and np.isnan(closed[0])
    assert got[1:3].tolist() == closed[1:3].tolist() == [0.0, 0.0]
    assert abs(got[3] - closed[3]) <= 1e-12 * closed[3]


def test_oracle_is_pointwise_across_any_split_of_the_grid():
    """The oracle of a 10 001-point grid equals, bit for bit, the concatenation
    of its calls on pieces of the grid: on pieces of 4096 points, and on
    pieces of 1 and of 3 points."""
    ob, d, g = 3.0 - 2.0j, 1.5, 1.0
    rho = stationary_state(ob, d, g)
    nu = np.linspace(-40.0, 40.0, 10_001)
    whole = oracle_spectrum(nu, ob, d, g, rho)
    for size in (4096, 1, 3):
        pieces = [oracle_spectrum(nu[i:i + size], ob, d, g, rho)
                  for i in range(0, nu.size, size)]
        assert np.concatenate(pieces).tobytes() == whole.tobytes(), size


def test_correlation_matrix_never_singular():
    ob, d, g = 2.0 + 1.0j, -3.0, 1.0
    rho = stationary_state(ob, d, g)
    nu = np.linspace(-50, 50, 1001)
    out = oracle_spectrum(nu, ob, d, g, rho)
    assert np.all(np.isfinite(out))


def test_determinant_is_the_bloch_characteristic_cubic():
    """det M = h(i nu) for Torrey's cubic h(s) = s^3 + 2 gamma s^2
    + (4 |omega_eff|^2 + delta_eff^2 + 5 gamma^2/4) s + gamma a with
    a = 2 |omega_eff|^2 + delta_eff^2 + gamma^2/4, the characteristic
    polynomial of the frozen Bloch matrix: the oracle's non-singularity
    (|det M|^2 is the closed-form denominator) rests on it.  The 300 seeded
    media spread gamma, |omega_eff|/gamma and |delta_eff|/gamma over two
    decades each.

    Bound: np.linalg.det multiplies the pivots of a partial-pivoting LU,
    whose backward error for n = 3 is at most about 3 * 4 * 2 sqrt(2) u |M|
    per entry (three multiply-adds, growth factor <= 2^(n-1) = 4, complex
    rounding, u = eps/2), about 17 eps |M|.  Over the structural zeros every
    cofactor product is one of the three expansion terms, so det moves by
    at most 3 * 17 eps S, S = |m00 m11 m22| + |m01 m10 m22| + |m02 m20 m11|;
    Horner's rule for h(i nu) errs by at most about 6 eps T, T the sum of
    the magnitudes of h's terms.  64 eps (S + T) bounds both (the largest
    deviation seen is about 6 eps (S + T)).
    """
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20)
    for _ in range(300):
        g = 10.0 ** rng.uniform(-1.0, 1.0)
        ob = g * 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        d = g * 10.0 ** rng.uniform(-1.0, 1.0) * rng.choice([-1.0, 1.0])
        o2, d2 = abs(ob) ** 2, d * d
        c = spectrum_coefficients(o2, d, g)
        nu = default_nu_grid(c.nu_p_sq, g, points=201)
        m = correlation_matrix(nu, ob, d, g)
        s = 1j * nu
        a, k = 2.0 * o2 + d2 + 0.25 * g * g, 4.0 * o2 + d2 + 1.25 * g * g
        h = ((s + 2.0 * g) * s + k) * s + g * a
        terms = np.abs(m[:, 0, 0] * m[:, 1, 1] * m[:, 2, 2]) + np.abs(
            m[:, 0, 1] * m[:, 1, 0] * m[:, 2, 2]) + np.abs(m[:, 0, 2] * m[:, 2, 0] * m[:, 1, 1])
        h_terms = np.abs(nu) ** 3 + 2.0 * g * nu * nu + k * np.abs(nu) + g * a
        assert np.all(np.abs(np.linalg.det(m) - h) <= 64.0 * eps * (terms + h_terms))


def test_oracle_is_scale_invariant():
    """Rescaling every frequency by s leaves s * S(nu) unchanged; |det M|
    scales as s^3 (min 4.5e2 at s = 1, 4.5e-16 at s = 1e-6)."""

    def scaled_density(s):
        medium = MediumParams(gamma=s, delta=3.0 * s, zeta_lorentz=50.0 * s)
        sol = branch_solution(medium, Mechanism.LORENTZ, Branch.UPPER, omega=10.0 * s)
        rho = stationary_state(sol.omega_eff, sol.delta_eff, s)
        nu = np.linspace(-60.0 * s, 60.0 * s, 2001)
        return s * oracle_spectrum(nu, sol.omega_eff, sol.delta_eff, s, rho)

    reference = scaled_density(1.0)
    for s in (1e-5, 1e-6):
        assert float(rel_dev(scaled_density(s), reference).max()) <= 1e-12


# ------------------------------------------------------------------------ peaks

def test_peak_positions_strong_drive():
    c = spectrum_coefficients(25.0, 0.0, 1.0)
    assert peak_positions(c) == pytest.approx([-math.sqrt(99.25), 0.0, math.sqrt(99.25)])


def test_peak_positions_weak_drive_center_only():
    c = spectrum_coefficients(0.01, 0.1, 1.0)  # 4 o2 + d^2 < 0.75 g^2
    assert peak_positions(c) == [0.0]


def test_sampled_argmax_hits_peaks():
    for o2, d in ((25.0, 0.0), (100.0, 5.0), (49.0, -3.0)):
        c = spectrum_coefficients(o2, d, 1.0)
        nu_p = math.sqrt(c.nu_p_sq)
        assert nu_p >= 5.0
        nu = default_nu_grid(c.nu_p_sq, 1.0, points=4001)
        s = incoherent_spectrum(nu, c, 0.45, 1.0)
        step = nu[1] - nu[0]
        window = (nu > 0.6 * nu_p) & (nu < 1.6 * nu_p)
        found = nu[window][np.argmax(s[window])]
        assert abs(found - nu_p) <= step


# ------------------------------------------- branch spectra at the marked points

def point_solutions(omega):
    lor = branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.LOWER, omega=omega)
    det = branch_solution(DETUNING_50, Mechanism.DETUNING, Branch.LOWER, omega=omega)
    return lor, det


def nu_p_of(sol, gamma=1.0):
    c = spectrum_coefficients(abs(sol.omega_eff) ** 2, sol.delta_eff, gamma)
    return math.sqrt(c.nu_p_sq) if c.nu_p_sq > 0 else 0.0


def free_nu_p(omega):
    c = spectrum_coefficients(omega**2, 3.0, 1.0)
    return math.sqrt(c.nu_p_sq)


def test_point1_splitting_contrast():
    """Lower branch at the upper fold: the detuning mechanism widens the
    triplet far beyond the local-field one (exact ratio 8.29, the shifted
    resonance sits 24.7 gamma away while the effective drive collapses)."""
    lor, det = point_solutions(OMEGA_UP_EXACT)
    nu_lor, nu_det = nu_p_of(lor), nu_p_of(det)
    free = free_nu_p(OMEGA_UP_EXACT)
    assert nu_lor == pytest.approx(4.81095, abs=2e-3)
    assert nu_det == pytest.approx(39.89967, abs=2e-2)
    assert nu_det / nu_lor == pytest.approx(8.2935, abs=5e-3)
    assert nu_det / nu_lor > 5.0
    assert nu_lor < free < nu_det  # narrowing vs widening at low excitation


def test_point2_detuning_recovers_classic_triplet():
    det = branch_solution(DETUNING_50, Mechanism.DETUNING, Branch.UPPER, omega=OMEGA_UP_EXACT - 1e-4)
    nu_det = nu_p_of(det)
    free = free_nu_p(OMEGA_UP_EXACT)
    assert abs(det.w) < 0.02  # nearly saturated: delta_eff ~ delta
    assert nu_det == pytest.approx(free, rel=0.01)


def test_point3_crossover_swaps_mechanisms():
    """Upper branch at drive 1.6, just above the exact lower fold 1.394: the
    detuning triplet narrows below the free-atom one while the local-field
    drive is resonantly enhanced and widens its triplet (high-excitation
    splitting increase)."""
    omega = 1.6
    lor = branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.UPPER, omega=omega)
    det = branch_solution(DETUNING_50, Mechanism.DETUNING, Branch.UPPER, omega=omega)
    free = free_nu_p(omega)
    assert nu_p_of(det) < free        # narrower than the free triplet
    assert nu_p_of(lor) > free        # resonant local-field enhancement
    assert abs(lor.omega_eff) > 5.0 * omega


def _mechanism_pair(delta, zeta, grid):
    """Every root over ``grid`` for the lorentz and the detuning medium of
    equal coupling zeta, gamma = 1: the two share the inversion cubic."""
    lor = solution_arrays(MediumParams(delta=delta, zeta_lorentz=zeta), Mechanism.LORENTZ, grid)
    det = solution_arrays(MediumParams(delta=delta, zeta_detuning=zeta), Mechanism.DETUNING, grid)
    assert np.array_equal(lor.w, det.w, equal_nan=True)
    return lor, det


def test_mechanism_discriminant():
    """At equal coupling the side-peak offsets of the two mechanisms differ by

        nu_p^2(lorentz) - nu_p^2(detuning) = zeta W (2 delta - zeta W) (2 - W) / W:

    at every steady state nu_p^2 = D (2 - W)/W - gamma^2 with
    D = delta_eff^2 + gamma^2/4, and D is delta^2 + gamma^2/4 for the local
    field but (delta - zeta W)^2 + gamma^2/4 for the shifted resonance.  The
    sign says which triplet is wider; the spectra cannot tell the
    mechanisms apart where zeta W = 2 delta.

    Bound, per root: computing each nu_p^2 from the program's effective
    parameters errs by at most 32 eps N (N = 4 |omega_eff|^2 + delta_eff^2
    + 3/4, the magnitude of its terms), the right side by 8 eps of its
    magnitude, and the identity itself needs an exact root: at a root where
    the inversion cubic is eps_c (its residual times its normalization, plus
    the 32 eps of evaluating it) the difference moves by
    2 eps_c zeta W |2 delta - zeta W| / (W D_detuning).  The largest
    deviation seen is 3 % of this bound.
    """
    eps = np.finfo(float).eps
    rng = np.random.default_rng(8)
    media = [(3.0, 50.0)] + [(rng.uniform(-5.0, 5.0), rng.uniform(1.0, 80.0)) for _ in range(40)]
    for delta, zeta in media:
        grid = np.linspace(0.0, 1.5 * zeta + 5.0, 200)
        lor, det = _mechanism_pair(delta, zeta, grid)
        found = lor.w == lor.w
        w, omega = lor.w[found], np.broadcast_to(grid[:, None], lor.w.shape)[found]
        sizes, nu_p_sq = [], []
        for arr in (lor, det):
            o2, d = np.abs(arr.omega_eff[found]) ** 2, arr.delta_eff[found]
            nu_p_sq.append(spectrum_coefficients(o2, d, 1.0).nu_p_sq)
            sizes.append(4.0 * o2 + d * d + 0.75)
        expected = zeta * w * (2.0 * delta - zeta * w) * (2.0 - w) / w
        shift = zeta * w * (2.0 * abs(delta) + zeta * w)
        scale = np.maximum.reduce([np.full_like(w, zeta * zeta), np.full_like(w, abs(zeta * (zeta + 2.0 * delta))),
                                   2.0 * omega**2 + delta * (delta + 2.0 * zeta) + 0.25,
                                   np.full_like(w, delta * delta + 0.25)])
        eps_c = (lor.residual[found] + 32.0 * eps) * scale
        bound = (32.0 * eps * (sizes[0] + sizes[1]) + 8.0 * eps * shift * (2.0 - w) / w
                 + 2.0 * eps_c * shift / (w * ((delta - zeta * w) ** 2 + 0.25)))
        assert np.all(np.abs(nu_p_sq[0] - nu_p_sq[1] - expected) <= bound), (delta, zeta)


def test_mechanisms_coincide_where_zeta_w_is_twice_delta():
    """On the locus zeta W = 2 delta both mechanisms see the same
    D = delta_eff^2 + gamma^2/4 and so emit the same spectrum.  For the
    benchmark medium that is the middle root W = 0.12 at drive
    omega^2 = (1 - W)(delta^2 + 1/4)/(2 W), omega = 5.82380.

    Bound: |omega_eff|^2 and delta_eff^2 of the two mechanisms differ
    relatively by at most r = dD / D + 32 eps, dD = zeta W |2 delta - zeta W|
    at the computed root (the lorentz |omega_eff|^2 is omega^2 D_lorentz /
    D_detuning); every spectral coefficient is a polynomial of degree at
    most 2 in them, so it moves by at most (2 r + 8 eps) times the sum of
    its terms' magnitudes.  The density adds the same relative change of a
    and of its numerator, and its denominator's change over the
    denominator, with 8 eps of Horner rounding per term magnitude for each
    of the two evaluations.
    """
    eps = np.finfo(float).eps
    delta, zeta = 3.0, 50.0
    w0 = 2.0 * delta / zeta
    omega = math.sqrt((1.0 - w0) * (delta * delta + 0.25) / (2.0 * w0))
    assert omega == pytest.approx(5.82380, abs=1e-5)
    lor, det = (branch_solution(medium, mech, Branch.MIDDLE, omega=omega)
                for medium, mech in ((LORENTZ_50, Mechanism.LORENTZ),
                                     (DETUNING_50, Mechanism.DETUNING)))
    assert lor.w == det.w == pytest.approx(w0, rel=1e-14)
    o2, d2 = abs(det.omega_eff) ** 2, det.delta_eff**2
    r = zeta * det.w * abs(2.0 * delta - zeta * det.w) / min(o2, d2) + 32.0 * eps
    rc = 2.0 * r + 8.0 * eps
    nu = np.linspace(-40.0, 40.0, 2001)
    spec_lor, spec_det = (spectrum_for_solution(sol, 1.0, nu) for sol in (lor, det))
    cl, cd = spec_lor.coefficients, spec_det.coefficients
    sizes = {"a": 2.0 * o2 + d2 + 0.25, "a0": 2.0 * o2 + 1.0, "b4": 8.0 * o2 + 2.0 * d2 + 1.5,
             "b2": 16.0 * o2 * o2 + 2.0 * o2 * (4.0 * d2 + 1.0) + d2 * d2 + 1.5 * d2 + 0.5625,
             "b0": cd.b0, "nu_p_sq": 4.0 * o2 + d2 + 0.75}
    for name, size in sizes.items():
        assert abs(getattr(cl, name) - getattr(cd, name)) <= rc * size, name
    assert cd.nu_p_sq == pytest.approx(143.91667, abs=1e-5)
    assert spec_lor.elastic_weight == pytest.approx(spec_det.elastic_weight, rel=rc)
    nu2 = nu * nu
    horner = ((nu2 + abs(cd.b4)) * nu2 + sizes["b2"]) * nu2 + cd.b0
    den = ((nu2 + cd.b4) * nu2 + cd.b2) * nu2 + cd.b0
    rel = 2.0 * rc + rc * horner / den + 16.0 * eps * horner / den + 8.0 * eps
    assert np.all(np.abs(spec_lor.incoherent - spec_det.incoherent) <= rel * spec_det.incoherent)


def test_spectrum_for_branch_pipeline():
    """A branch's spectrum: branch_solution, then spectrum_for_solution."""
    sol = branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.UPPER, omega=1.6)
    res = spectrum_for_solution(sol, LORENTZ_50.gamma)
    assert res.elastic_weight == pytest.approx(abs(sol.rho12) ** 2, rel=1e-12)
    assert len(res.peaks) == 3
    assert res.nu_grid.shape == res.incoherent.shape
    assert np.all(res.incoherent >= 0.0)
    # elastic weight equals w * rho22 at any consistent steady state
    assert res.elastic_weight == pytest.approx(sol.w * sol.rho22, rel=1e-10)


def test_spectrum_for_branch_missing_branch():
    """Outside the branch's existence window the pipeline stops at its first step."""
    with pytest.raises(BranchNotPresentError):
        branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.UPPER, omega=0.5)


# --------------------------------------------------------------------- sum rule

def test_sum_rule_constant_and_value():
    """The spectral integral over (rho22 - |rho12|^2) is parameter independent;
    high-accuracy quadrature pins it to pi."""
    ratios = []
    cases = [
        (MediumParams(omega=1.0), Mechanism.LORENTZ, Branch.LOWER),
        (MediumParams(delta=3.0, omega=5.0), Mechanism.LORENTZ, Branch.LOWER),
        (replace(LORENTZ_50, omega=OMEGA_UP_EXACT + 0.1), Mechanism.LORENTZ, Branch.UPPER),
        (replace(DETUNING_50, omega=1.6), Mechanism.DETUNING, Branch.UPPER),
    ]
    from iobspectra import spectrum_for_solution

    for params, mech, branch in cases:
        sol = branch_solution(params, mech, branch)
        res = spectrum_for_solution(sol, params.gamma)
        ratios.append(sum_rule_ratio(res, sol.rho22, sol.rho12))
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-6)
    assert ratios[0] == pytest.approx(math.pi, abs=1e-8)
    for r in ratios:
        assert abs(r - math.pi) / math.pi <= 1e-10


def test_sum_rule_is_pi_on_random_media_down_to_weak_drive():
    """sum_rule_ratio is pi to 1e-10 on 300 seeded random effective media:
    gamma in 0.1..10 and |omega_eff|/gamma in 0.1..30 (both log-uniform),
    |delta_eff|/gamma up to 10.  At weak drive and large detuning rho22 is
    about 1e-4 and rho22 - |rho12|^2 = 2 rho22^2 the difference of two
    nearly equal numbers, so a ratio over that difference loses about
    eps / (2 rho22^2) of accuracy there.

    Each state also meets |rho12|^2 = w rho22, the identity behind
    rho22 - |rho12|^2 = 2 rho22^2, within the rounding bound of the
    steady-state property test, 8 eps w sum|c_i| / (2 Q).  For the free atom
    at the effective drive the inversion cubic is (2 |omega_eff|^2 + D) w - D
    with D = delta_eff^2 + gamma^2/4, and Q = D."""
    rng = np.random.default_rng(2010)
    eps = float(np.finfo(float).eps)
    for _ in range(300):
        g = 10.0 ** rng.uniform(-1.0, 1.0)
        ob = (g * 10.0 ** rng.uniform(-1.0, math.log10(30.0))
              * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        d = g * rng.uniform(-10.0, 10.0)
        rho = stationary_state(ob, d, g)
        c = spectrum_coefficients(abs(ob) ** 2, d, g)
        ratio = sum_rule_ratio(_spectrum_stub(c), rho.rho22, rho.rho12)
        assert abs(ratio - math.pi) <= 1e-10 * math.pi, (g, ob, d)
        dd = d * d + 0.25 * g * g
        bound = 8.0 * eps * rho.w * (2.0 * abs(ob) ** 2 + 2.0 * dd) / (2.0 * dd)
        assert abs(abs(rho.rho12) ** 2 - rho.w * rho.rho22) <= bound


def test_sum_rule_accepts_weak_drive_states():
    """2000 seeded stationary states at |omega_eff|/gamma 1e-4..1e-2 and
    |delta_eff|/gamma 10..100 (log-uniform), where rho22 is 1e-12..1e-4.
    There rho22 - |rho12|^2 = 2 rho22^2 is far below the absolute rounding
    of rho22 = (1 - w)/2, which is that of w, about eps/2; so the
    computed difference may come out a fraction of eps below zero.  Every
    state is consistent, so none is rejected, and each ratio is pi to
    1e-10."""
    rng = np.random.default_rng(2017)
    for _ in range(2000):
        g = 10.0 ** rng.uniform(-1.0, 1.0)
        ob = g * 10.0 ** rng.uniform(-4.0, -2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        d = g * 10.0 ** rng.uniform(1.0, 2.0) * rng.choice([-1.0, 1.0])
        rho = stationary_state(ob, d, g)
        c = spectrum_coefficients(abs(ob) ** 2, d, g)
        ratio = sum_rule_ratio(_spectrum_stub(c), rho.rho22, rho.rho12)
        assert abs(ratio - math.pi) <= 1e-10 * math.pi, (g, ob, d)


def test_sum_rule_holds_for_joint_mechanism():
    from iobspectra import spectrum_for_solution

    joint = MediumParams(delta=3.0, zeta_lorentz=30.0, zeta_detuning=20.0)
    sol = branch_solution(joint, Mechanism.JOINT, Branch.UPPER, omega=2.0)
    res = spectrum_for_solution(sol, joint.gamma)
    assert sum_rule_ratio(res, sol.rho22, sol.rho12) == pytest.approx(math.pi, abs=1e-8)


def full_line_ratio(c, rho22):
    """The sum-rule ratio by quad over the whole line: [-cut, cut] with
    breaks at -nu_p, 0, nu_p, then both tails, over 2 rho22^2.  Returns the
    ratio, the integral I over [-cut, cut] and the integral T over one
    tail."""
    from scipy.integrate import quad

    gamma = math.sqrt(c.b0) / c.a
    nu_p = math.sqrt(c.nu_p_sq) if c.nu_p_sq > 0.0 else 0.0
    cut = 2.0 * nu_p + 20.0 * gamma

    def density(nu):
        nu2 = nu * nu
        den = ((nu2 + c.b4) * nu2 + c.b2) * nu2 + c.b0
        return 2.0 * rho22 * rho22 * gamma * c.a * (nu2 + c.a0) / den

    mid, _ = quad(density, -cut, cut, points=[-nu_p, 0.0, nu_p] if nu_p > 0.0 else [0.0],
                  limit=500, epsabs=1e-13, epsrel=1e-12)
    tail, _ = quad(density, cut, np.inf, limit=200, epsabs=1e-14)
    left, _ = quad(density, -np.inf, -cut, limit=200, epsabs=1e-14)
    return (mid + tail + left) / (2.0 * rho22 * rho22), mid, tail


def gauss_legendre_bound(c, r=2.0, samples=256):
    """Error bound of sum_rule_ratio's Gauss-Legendre rule for the
    coefficients ``c``, in units of the ratio: per panel of half width h
    (in theta), (64/15) M r^(2 - 2n) / (r^2 - 1) h for the n-point rule
    (Trefethen, SIAM Rev. 50, 67, 2008, Thm 4.5), with M the largest modulus
    of the ratio's integrand on the panel's Bernstein ellipse r, taken over
    ``samples`` points of it.
    The integrand is analytic inside the ellipse: every pole of the density
    lies outside rho = 2.26 of every panel (see sum_rule_ratio)."""
    from iobspectra.spectrum import _GAUSS_NODES, _sum_rule_panels

    gamma = math.sqrt(c.b0) / c.a
    edges, half = _sum_rule_panels(math.sqrt(c.nu_p_sq) / gamma if c.nu_p_sq > 0.0 else 0.0)
    phi = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    ellipse = 0.5 * (r * np.exp(1j * phi) + np.exp(-1j * phi) / r)
    tau = np.tan(half[:, None] * (1.0 + ellipse))
    nu = gamma * (edges[:, None] + tau) / (1.0 - edges[:, None] * tau)
    nu2 = nu * nu
    den = ((nu2 + c.b4) * nu2 + c.b2) * nu2 + c.b0
    big_m = np.abs(2.0 * c.a * (nu2 + c.a0) * (nu2 + gamma * gamma) / den).max(axis=1)
    return 64.0 / 15.0 * float((big_m * half).sum()) * r ** (2 - 2 * _GAUSS_NODES) / (r * r - 1.0)


def test_density_poles_lie_where_the_sum_rule_derivation_puts_them():
    """The poles of the density, roots of its sextic on 300 media (gamma in
    1e-2..1e2, |omega_eff|/gamma in 1e-2..1e3, |delta_eff|/gamma in
    1e-2..1e2), lie where sum_rule_ratio's derivation puts them: at
    gamma/2 <= |Im nu| <= gamma, within gamma/4 of 0 or +-s with
    s^2 = 4 |omega_eff|^2 + delta_eff^2, and, in theta, outside the
    Bernstein ellipse rho = 2.265 of every panel, which gauss_legendre_bound
    needs at r = 2.  The 1e-6 slack is for the roots' own error: np.roots
    has relative error near sqrt(eps) at the double roots of weak drive."""
    from iobspectra.spectrum import _sum_rule_panels

    rng = np.random.default_rng(5)
    for _ in range(300):
        g = 10.0 ** rng.uniform(-2.0, 2.0)
        o = g * 10.0 ** rng.uniform(-2.0, 3.0)
        d = g * 10.0 ** rng.uniform(-2.0, 2.0) * rng.choice([-1.0, 1.0])
        c = spectrum_coefficients(o * o, d, g)
        x = np.roots([1.0, c.b4, c.b2, c.b0]).astype(complex)
        poles = np.concatenate([np.sqrt(x), -np.sqrt(x)]) / g
        im = np.abs(poles.imag)
        assert np.all((im >= 0.5 - 1e-6) & (im <= 1.0 + 1e-6))
        s = math.sqrt(4.0 * o * o + d * d) / g
        centre = np.abs(np.abs(poles.real)[:, None] - np.array([0.0, s])).min(axis=1)
        assert np.all(np.hypot(centre, im - 0.75) <= 0.25 + 1e-6)
        edges, half = _sum_rule_panels(math.sqrt(c.nu_p_sq) / g if c.nu_p_sq > 0.0 else 0.0)
        t = np.arctan((poles - edges[:, None]) / (1.0 + edges[:, None] * poles))
        t = np.concatenate([t - np.pi, t, t + np.pi], axis=1)
        z = t / half[:, None] - 1.0
        root = np.sqrt(z * z - 1.0)
        rho = np.maximum(np.abs(z + root), np.abs(z - root))
        assert rho.min() >= 2.265, (g, o, d)


def test_sum_rule_half_line_matches_full_line_quadrature():
    """sum_rule_ratio, a Gauss-Legendre rule in theta over the half line,
    against a test-side quad of the same density over the whole line, on
    200 media with gamma in 1e-2..1e2 and |omega_eff|/gamma,
    |delta_eff|/gamma each in 1e-2..1e2.

    Bound: quad returns once its error estimate on a piece is below
    max(epsabs, epsrel |piece|), and for integrands this smooth the
    Gauss-Kronrod estimate bounds the true error.  With I the integral over
    [-cut, cut] and T one tail (epsrel of a tail is quad's default 1.49e-8),
    the full-line integral is within 1e-13 + 1e-12 I + 2 (1e-14 + 1.49e-8 T)
    of the exact one, and so its ratio within that over 2 rho22^2.  The
    Gauss-Legendre ratio is within :func:`gauss_legendre_bound` of the exact
    one.  The division by 2 rho22^2 adds a rounding of eps |ratio|.
    """
    rng = np.random.default_rng(77)
    eps = float(np.finfo(float).eps)
    for _ in range(200):
        g = 10.0 ** rng.uniform(-2.0, 2.0)
        ob = g * 10.0 ** rng.uniform(-2.0, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        d = g * 10.0 ** rng.uniform(-2.0, 2.0) * rng.choice([-1.0, 1.0])
        rho = stationary_state(ob, d, g)
        c = spectrum_coefficients(abs(ob) ** 2, d, g)
        ratio = sum_rule_ratio(_spectrum_stub(c), rho.rho22, rho.rho12)
        full, mid, tail = full_line_ratio(c, rho.rho22)
        quad_err = 1e-13 + 1e-12 * mid + 2.0 * (1e-14 + 1.49e-8 * tail)
        bound = (quad_err / (2.0 * rho.rho22 * rho.rho22) + gauss_legendre_bound(c)
                 + eps * abs(full))
        assert abs(ratio - full) <= bound


def _spectrum_stub(c):
    from iobspectra import SpectrumResult

    return SpectrumResult(nu_grid=np.zeros(1), incoherent=np.zeros(1), elastic_weight=0.0,
                          peaks=peak_positions(c), coefficients=c)


def test_sum_rule_sees_the_b2_typo():
    """The quadrature integrates the coefficients it is given: built from
    verify's b2-typo coefficients (16 |omega|^2 in place of 16 |omega|^4),
    the ratio at |omega_eff| = gamma/2 on resonance leaves pi by about 30 %
    (the corrupted denominator stays positive there, since |omega|^2 < 1
    makes b2 larger)."""
    from iobspectra.verify import _coefficients_maybe_injected

    ob, d, g = 0.5 + 0.0j, 0.0, 1.0
    rho = stationary_state(ob, d, g)
    good = _spectrum_stub(_coefficients_maybe_injected(abs(ob) ** 2, d, g, False))
    bad = _spectrum_stub(_coefficients_maybe_injected(abs(ob) ** 2, d, g, True))
    assert abs(sum_rule_ratio(good, rho.rho22, rho.rho12) - math.pi) / math.pi <= 1e-10
    assert abs(sum_rule_ratio(bad, rho.rho22, rho.rho12) - math.pi) / math.pi > 0.1


def test_verify_sum_rule_cases_raise_no_runtime_warning():
    """The verify sum-rule cases integrate cleanly: no RuntimeWarning
    (overflow, invalid value, division by zero) when warnings are errors,
    on seeds 0 and 7."""
    from iobspectra.verify import check_sum_rule

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert check_sum_rule(0).passed
        assert check_sum_rule(7).passed


def test_sum_rule_rejects_inconsistent_state():
    sol = branch_solution(MediumParams(omega=1.0), Mechanism.LORENTZ, Branch.LOWER)
    res = spectrum_for_solution(sol, 1.0)
    with pytest.raises(ValueError):
        sum_rule_ratio(res, 0.1, complex(math.sqrt(0.2)))


# ----------------------------------------------------------------- Mollow limit

def test_mollow_triplet_limit():
    p = MediumParams(omega=20.0)
    sol = branch_solution(p, Mechanism.LORENTZ, Branch.LOWER)
    c = spectrum_coefficients(abs(sol.omega_eff) ** 2, sol.delta_eff, 1.0)
    nu = default_nu_grid(c.nu_p_sq, 1.0, points=4001)
    s = incoherent_spectrum(nu, c, sol.rho22, 1.0)
    step = nu[1] - nu[0]
    nu_p = math.sqrt(4.0 * 400.0 - 0.75)

    center = s[np.argmin(np.abs(nu))]
    side_window = (nu > 0.5 * nu_p) & (nu < 1.5 * nu_p)
    side = np.max(s[side_window])
    found = nu[side_window][np.argmax(s[side_window])]
    assert abs(found - nu_p) <= step
    assert center / side == pytest.approx(3.0, rel=0.05)
    # evenness of the sampled triplet
    assert s[np.argmin(np.abs(nu + nu_p))] == pytest.approx(side, rel=1e-3)


def test_free_atom_saturation_reference():
    assert free_atom_saturation_max(1.0) == 0.5
    assert free_atom_saturation_max(2.0) == 0.25
    # the strong-drive center height approaches it from below
    for omega in (50.0, 200.0):
        sol = branch_solution(MediumParams(omega=omega), Mechanism.LORENTZ, Branch.LOWER)
        c = spectrum_coefficients(omega**2, 0.0, 1.0)
        assert incoherent_spectrum(0.0, c, sol.rho22, 1.0) == pytest.approx(0.5, rel=1e-3)


# --------------------------------------------------------------- default grid

def test_default_nu_grid_shape():
    grid = default_nu_grid(99.25, 1.0)
    assert grid.size == 2001
    assert grid[0] == -grid[-1]
    assert grid[0] == pytest.approx(-(2.0 * math.sqrt(99.25) + 10.0))
    # no satellites: pure 10-gamma window
    grid = default_nu_grid(-1.0, 2.0, points=11)
    assert grid[-1] == pytest.approx(20.0)
