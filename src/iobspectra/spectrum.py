"""Resonance-fluorescence emission spectra of the driven medium.

The emitted power splits into an elastic delta line at the laser frequency
with weight |rho12|^2 and an incoherent part whose density, as a function of
the offset nu from the laser frequency, has the closed rational form

    S(nu) = 2 rho22^2 gamma a (nu^2 + a0) / (nu^6 + b4 nu^4 + b2 nu^2 + b0),

with all coefficients evaluated at the effective drive strength and
detuning of the chosen mechanism.  The sextic denominator factorizes as

    nu^2 (nu^2 - nu_p^2)^2 + 8 gamma^2 |omega_eff|^2 nu^2 + b0,

with b0 = gamma^2 a^2 > 0, which pins the side peaks to nu = +-nu_p exactly
and proves positivity.
An independent route to the same density solves a complex 3x3 linear
system for the atom-field correlation function, by Cramer's rule for the
one component it needs over the matrix's two structural zeros: two
determinants and one complex division per offset.  Both routes are
implemented and cross-checked against each other.  A second check
integrates the density of given coefficients by a fixed Gauss-Legendre rule
over the half line (the density is even in nu): the integral over the
inelastic share rho22 - |rho12|^2 = 2 rho22^2 is exactly pi.

Spectra are reported in a common arbitrary unit (coupling and photon-energy
prefactors dropped), so shapes and ratios are meaningful but absolute
radiometric scales are not.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .steady_state import StationaryState, SteadyStateSolution, _horner


@dataclass(frozen=True)
class SpectrumCoefficients:
    """Numerator/denominator polynomial coefficients of the incoherent density.

    a, a0    : numerator scale and offset
    b4,b2,b0 : even-power denominator coefficients; b0 = gamma^2 a^2 is the
               denominator floor
    nu_p_sq  : 4 |omega_eff|^2 + delta_eff^2 - (3/4) gamma^2; side peaks exist
               at +-sqrt(nu_p_sq) when positive
    """

    a: float
    a0: float
    b4: float
    b2: float
    b0: float
    nu_p_sq: float


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Sampled incoherent spectrum with its delta-line weight and peak set."""

    nu_grid: np.ndarray
    incoherent: np.ndarray
    elastic_weight: float
    peaks: list[float]
    coefficients: SpectrumCoefficients


def _any(mask) -> bool:
    """np.any of a comparison, without np.any's dispatch for a scalar's bool."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def spectrum_coefficients(
    omega_eff_sq: float, delta_eff: float, gamma: float
) -> SpectrumCoefficients:
    """Polynomial coefficients of the incoherent density.

    a  = 2 |omega_eff|^2 + delta_eff^2 + gamma^2/4
    a0 = 2 |omega_eff|^2 + gamma^2
    b4 = -8 |omega_eff|^2 - 2 delta_eff^2 + (3/2) gamma^2
    b2 = 16 |omega_eff|^4 + 2 |omega_eff|^2 (4 delta_eff^2 + gamma^2)
         + delta_eff^4 - (3/2) gamma^2 delta_eff^2 + (9/16) gamma^4
    b0 = gamma^2 a^2

    Works elementwise: arrays of |omega_eff|^2, delta_eff and gamma give
    arrays in every field, each bit for bit the scalar call's.

    The leading quartic term of b2 is fixed by the peak-root factorization
    b2 = nu_p_sq^2 + 8 gamma^2 |omega_eff|^2 (a quadratic term there would
    break it); the identity is enforced to 1e-12 relative by the test suite
    and the verify command.
    """
    if _any(omega_eff_sq < 0.0):  # NaN passes
        raise ValueError(f"omega_eff_sq must be nonnegative, got {omega_eff_sq}")
    if _any(gamma <= 0.0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    o2 = omega_eff_sq
    d2 = delta_eff * delta_eff
    g2 = gamma * gamma
    a = 2.0 * o2 + d2 + 0.25 * g2
    a0 = 2.0 * o2 + g2
    b4 = -8.0 * o2 - 2.0 * d2 + 1.5 * g2
    b2 = 16.0 * o2 * o2 + 2.0 * o2 * (4.0 * d2 + g2) + d2 * d2 - 1.5 * g2 * d2 + 0.5625 * g2 * g2
    return SpectrumCoefficients(
        a=a, a0=a0, b4=b4, b2=b2, b0=g2 * a * a,
        nu_p_sq=4.0 * o2 + d2 - 0.75 * g2,
    )


def incoherent_spectrum(nu, coeffs: SpectrumCoefficients, rho22: float, gamma: float):
    """Incoherent emission density S(nu); accepts a scalar or an array of nu.

    The denominator is strictly positive for all real nu (sum of
    nonnegative terms plus b0 > 0), so the density is finite and
    nonnegative everywhere.  Where the denominator overflows (|nu| beyond
    about 1e51) the density is 0, as its nu^-4 tail gives.

    rho22 lies in [0, 1/2]: 1/2 is the saturation limit W -> 0, which a
    steady state's rho22 = (1 - W)/2 reaches in rounding once W < 1.1e-16.
    """
    if not 0.0 <= rho22 <= 0.5:
        raise ValueError(f"rho22 must lie in [0, 1/2], got {rho22}")
    nu_arr = np.asarray(nu, dtype=float)
    # in place: a temporary of a long grid can be page-faulted afresh on every call
    with np.errstate(over="ignore", invalid="ignore"):
        nu2 = np.multiply(nu_arr, nu_arr, out=np.empty_like(nu_arr))
        den = _horner((1.0, coeffs.b4, coeffs.b2, coeffs.b0), nu2)
        out = np.add(nu2, coeffs.a0, out=nu2)
        np.multiply(2.0 * rho22 * rho22 * gamma * coeffs.a, out, out=out)
        out /= den
        # once nu^2 overflows too, the numerator is inf and inf / inf is NaN;
        # one sum flags an overflow anywhere, and the mask is built only then
        if not np.isfinite(den.sum()):
            out[np.isinf(den)] = 0.0
    return float(out) if np.isscalar(nu) or nu_arr.ndim == 0 else out


def _correlation_entries(nu: np.ndarray, omega_eff: complex, delta_eff: float, gamma: float):
    """The seven nonzero entries (m00, m01, m02, m10, m11, m20, m22) of the
    3x3 correlation matrix; m12 = m21 = 0 by structure.  The diagonal
    entries i nu + gamma, i (nu - delta_eff) + gamma/2 and
    i (nu + delta_eff) + gamma/2 are new arrays of the shape of ``nu``,
    written part by part with no complex temporaries; the off-diagonal ones
    are scalars.
    """
    ob = complex(omega_eff)
    m00, m11, m22 = (np.empty(nu.shape, dtype=complex) for _ in range(3))
    m00.real, m11.real, m22.real = gamma, 0.5 * gamma, 0.5 * gamma
    # adding 0.0 turns -0.0 into 0.0, as the complex product i * nu does
    nu_im = np.add(nu, 0.0, out=m00.imag)
    np.subtract(nu_im, delta_eff, out=m11.imag)
    np.add(nu_im, delta_eff, out=m22.imag)
    return m00, 1j * ob.conjugate(), -1j * ob, 2j * ob, m11, -2j * ob.conjugate(), m22


def correlation_matrix(nu, omega_eff: complex, delta_eff: float, gamma: float) -> np.ndarray:
    """The 3x3 system matrix for the stationary atom-field correlation components
    (g11, g12, g21); the fourth component is eliminated by the traceless property
    g22 = -g11.  For an array ``nu``, a stack of shape nu.shape + (3, 3).

    M is never singular for gamma > 0: |det M|^2 equals the sextic
    denominator of :func:`incoherent_spectrum`, which is at least
    b0 = gamma^2 a^2 > 0.
    """
    nu = np.asarray(nu, dtype=float)
    m00, m01, m02, m10, m11, m20, m22 = _correlation_entries(nu, omega_eff, delta_eff, gamma)
    m = np.zeros(nu.shape + (3, 3), dtype=complex)
    m[..., 0, 0] = m00
    m[..., 0, 1] = m01
    m[..., 0, 2] = m02
    m[..., 1, 0] = m10
    m[..., 1, 1] = m11
    m[..., 2, 0] = m20
    m[..., 2, 2] = m22
    return m


def oracle_spectrum(nu, omega_eff: complex, delta_eff: float, gamma: float, rho: StationaryState):
    """Incoherent density via the independent complex 3x3 linear system.

    With the entries of :func:`correlation_matrix` and the source vector
    q = s - rho21 * rho_A, s = (rho21, rho22, 0) and
    rho_A = (rho11, rho12, rho21) (unit atom-field coupling), solves
    M g = q and returns Re g12, which is normalized identically to
    :func:`incoherent_spectrum`.

    M is solved over its structural zeros m12 = m21 = 0 by Cramer's rule for
    g12 alone, g12 = det M1 / det M with M1 the matrix M whose column 1 is q:

        det M  = m00 m11 m22 - m01 m10 m22 - m02 m20 m11,
        det M1 = m22 (q1 m00 - q0 m10) + m02 (m10 q2 - q1 m20),

    one complex division per nu (m01, m02, m10, m20 and q do not depend on
    nu, so the last term of det M1 is one scalar).  The divisor is nonzero
    for gamma > 0: |det M|^2 equals the sextic denominator of
    :func:`incoherent_spectrum`, which is at least b0 = gamma^2 a^2 > 0.

    Over the default grid the relative error stays within 6 eps times the
    conditioning of these formulas, which is a few (1 + |omega_eff| / gamma)
    near the side peaks; a test derives that bound and checks it against an
    exact solve.  In the tail Re g12 ~ nu^-4 is a vanishing share of
    |g12| ~ nu^-1, and the relative error grows about as eps (nu / gamma)^2:
    at |omega_eff| = 5 gamma it is 3e-4 at 1e7 gamma and 1 near 1e9 gamma,
    past which the value is rounding noise of either sign (bound it there,
    never test its sign).  det M grows as nu^3 and overflows past
    |nu| ~ 5.6e102; the density is 0 there, as its nu^-4 tail gives, and no
    warning is raised.  At a NaN offset the density is NaN, as in
    :func:`incoherent_spectrum`.
    """
    nus = np.asarray(nu, dtype=float)
    flat = nus.reshape(-1)
    q0, q1, q2 = (rho.rho21 * rho.rho22, rho.rho22 - rho.rho12 * rho.rho21,
                  -(rho.rho21 * rho.rho21))
    # In place to spare temporaries, but no product writes over one of its
    # operands: numpy rounds such a product of one element in another inner
    # loop, so a one-point grid would differ from the same point in a longer one.
    with np.errstate(over="ignore", invalid="ignore"):
        m00, m01, m02, m10, m11, m20, m22 = _correlation_entries(flat, omega_eff, delta_eff, gamma)
        prod = m11 * m22
        det = m00 * prod
        det -= np.multiply(m01 * m10, m22, out=prod)
        det -= np.multiply(m02 * m20, m11, out=prod)
        inner = np.multiply(q1, m00, out=m11)
        inner -= q0 * m10
        num = np.multiply(m22, inner, out=prod)
        num += m02 * (m10 * q2 - q1 * m20)
        out = np.divide(num, det, out=m00).real
        # one sum flags an overflow (or a NaN offset) anywhere; the mask is
        # built only then, and leaves the NaN of a NaN offset
        if not np.isfinite(det.sum()):
            out = np.where(np.isfinite(det) | np.isnan(flat), out, 0.0)
    out = out.reshape(nus.shape)
    return float(out) if np.isscalar(nu) or nus.ndim == 0 else out


def peak_positions(coeffs: SpectrumCoefficients) -> list[float]:
    """Spectral peak offsets: [-nu_p, 0, +nu_p] when nu_p_sq > 0, else [0]."""
    if coeffs.nu_p_sq > 0.0:
        nu_p = math.sqrt(coeffs.nu_p_sq)
        return [-nu_p, 0.0, nu_p]
    return [0.0]


def default_nu_grid(nu_p_sq_max: float, gamma: float, points: int = 2001) -> np.ndarray:
    """Symmetric sampling grid spanning +-(2 nu_p + 10 gamma)."""
    half = 2.0 * math.sqrt(max(nu_p_sq_max, 0.0)) + 10.0 * gamma
    return np.linspace(-half, half, points)


def spectrum_for_solution(
    sol: SteadyStateSolution,
    gamma: float,
    nu_grid=None,
) -> SpectrumResult:
    """Assemble the spectrum for an already-computed steady-state solution."""
    coeffs = spectrum_coefficients(abs(sol.omega_eff) ** 2, sol.delta_eff, gamma)
    if nu_grid is None:
        nu_grid = default_nu_grid(coeffs.nu_p_sq, gamma)
    nu_grid = np.asarray(nu_grid, dtype=float)
    return SpectrumResult(
        nu_grid=nu_grid,
        incoherent=incoherent_spectrum(nu_grid, coeffs, sol.rho22, gamma),
        elastic_weight=abs(sol.rho12) ** 2,
        peaks=peak_positions(coeffs),
        coefficients=coeffs,
    )


def free_atom_saturation_max(gamma: float) -> float:
    """Peak incoherent density of an isolated atom in the saturation limit.

    For zeta = 0 and omega -> infinity, rho22 -> 1/2 and the central height
    2 rho22^2 a0 / (gamma a) -> 1 / (2 gamma): the reference unit used to
    normalize plotted spectra.
    """
    return 0.5 / gamma


# Gauss-Legendre nodes per panel of sum_rule_ratio; see there for the bound
_GAUSS_NODES = 28


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """sum_rule_ratio's rule: its nodes shifted from [-1, 1] to [0, 2], and
    its weights.  Built on first use: numpy.polynomial takes about 4 ms to
    import."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(_GAUSS_NODES)
    return 1.0 + x, w


def _sum_rule_panels(nu_p: float) -> tuple[np.ndarray, np.ndarray]:
    """The panels of :func:`sum_rule_ratio` for the side-peak offset
    ``nu_p`` over gamma (0 without side peaks): each panel's lower edge in
    units of gamma, from 0 up, and its half width in theta.  The last panel
    runs to infinity."""
    if nu_p <= 1.0:  # the side peaks merge with the central one
        nu_p = 0.0
    top = 2.0 * max(nu_p, 1.0)
    steps = np.ldexp(1.0, np.arange(-1, math.frexp(top)[1] + 1))  # 1/2, 1, 2, ... >= top
    upper = nu_p + steps[:steps.searchsorted(top) + 1]
    if nu_p == 0.0:
        edges = np.concatenate(([0.0], upper))
    else:
        lower = steps[steps < 0.5 * nu_p]
        edges = np.concatenate(([0.0], lower, [0.5 * nu_p], nu_p - lower[::-1], upper))
    # arctan(ub) - arctan(ua) without the cancellation of two angles near
    # pi/2; the last panel ends at pi/2
    widths = np.append(np.diff(edges) / (1.0 + edges[:-1] * edges[1:]), 1.0 / edges[-1])
    return edges, 0.5 * np.arctan(widths)


def sum_rule_ratio(result: SpectrumResult, rho22: float, rho12: complex) -> float:
    """Integral of the incoherent density over the line, divided by 2 rho22^2.

    At a steady state |rho12|^2 = W rho22 with W = 1 - 2 rho22, so the
    inelastic share of emission rho22 - |rho12|^2 equals 2 rho22^2, and for
    consistent coefficients the ratio is exactly pi (the density is
    2 rho22^2 gamma a N / P with P the sextic, and the Hurwitz integral
    table, James, Nichols & Phillips 1947, gives the integral of N / P as
    pi / (gamma a)).  Divided by the difference, the ratio would lose
    eps / (2 rho22^2) at weak drive, where rho22 - |rho12|^2 cancels.  The factor 2 rho22^2
    cancels instead, so the ratio integrates gamma a N / P of the
    coefficients ``result.coefficients`` alone, with gamma = sqrt(b0) / a.
    The state enters only through a check: ValueError when
    rho22 - |rho12|^2 < -4 eps, an inconsistent steady state.  The slack is
    the rounding of rho22 = (1 - W)/2.  A W near 1 carries up to about eps
    of absolute rounding, while 1 - W and the halving are exact for
    W >= 1/2; so at weak drive, where 2 rho22^2 falls below eps, a
    consistent state's difference may come out up to about eps/2 below 0.

    The density is even, so the integral is twice the one over [0, inf), in
    theta with nu = gamma tan theta, d nu = (gamma^2 + nu^2) / gamma d theta.
    That maps the half line onto [0, pi/2], where the nu^-4 tail becomes a
    function analytic at pi/2.

    Poles.  The sextic P is |det(i nu - B)|^2 for the Bloch matrix
    B = -G + K of the effective drive, G = diag(gamma/2, gamma/2, gamma)
    and K real antisymmetric with eigenvalues 0, +-i s,
    s^2 = 4 |omega_eff|^2 + delta_eff^2 = nu_p^2 + 3 gamma^2 / 4.  An
    eigenvector x gives Re lambda = -x* G x in [-gamma, -gamma/2], and by
    Bauer-Fike (K is normal) each lambda lies within
    ||G - (3 gamma/4) I|| = gamma/4 of -3 gamma/4 + {0, +-i s}.  So every
    pole of the density has gamma/2 <= |Im nu| <= gamma and lies within
    gamma/4 of 0 or +-s, which is within 0.87 gamma of +-nu_p.

    Panels grade geometrically from both peaks: edges at gamma 2^j for
    j >= -1 below nu_p / 2, at nu_p / 2, at nu_p -+ gamma 2^j above it, up
    to nu_p + gamma 2^J with 2^J the first power >= 2 max(nu_p / gamma, 1),
    then one panel to infinity.  For nu_p <= gamma the peaks merge and the
    edges are 0, gamma/2, gamma and 2 gamma.  In theta, every panel's
    Bernstein ellipse (foci at its ends) through the nearest possible pole
    has rho >= 2.265, for nu_p / gamma from 0 to 1e12.  The tightest is the
    panel of width gamma across a side peak near nu_p = 1.2 gamma; in nu a
    pole gamma/2 above the middle of such a panel gives 1 + sqrt 2.

    Error bound.  The n-point Gauss-Legendre rule (exact to degree
    2n - 1) errs on a panel of half width h by at most
    (64/15) M r^(2 - 2n) / (r^2 - 1) h for any r < rho, with M the largest
    modulus of the integrand on the ellipse r (Trefethen, SIAM Rev. 50, 67,
    2008, Thm 4.5).  At r = 2 and n = 28 that is 7.9e-17 M h.  Over the
    panels M h sums to at most 1.66 pi for gamma in 1e-2..1e2,
    |omega_eff| / gamma in 1e-2..1e3 and |delta_eff| / gamma in 1e-2..1e2,
    so the truncation stays below 1.4e-16 relative, under one rounding.
    The rounding of the sextic dominates: near the side peaks its terms
    cancel by about (nu_p / gamma)^2.
    """
    inelastic = rho22 - abs(rho12) ** 2
    if not inelastic >= -4.0 * sys.float_info.epsilon:
        raise ValueError(
            f"rho22 - |rho12|^2 = {inelastic} is below -4 eps; inconsistent steady state"
        )
    c = result.coefficients
    gamma = math.sqrt(c.b0) / c.a  # b0 = gamma^2 a^2
    edges, half = _sum_rule_panels(math.sqrt(c.nu_p_sq) / gamma if c.nu_p_sq > 0.0 else 0.0)
    ua, half = edges[:, None], half[:, None]
    x, w = _gauss_legendre()
    # nu = gamma tan(theta_a + t) from tan t, for nodes t on [0, width]
    tau = np.tan(half * x)
    nu = gamma * (ua + tau) / (1.0 - ua * tau)
    nu2 = np.multiply(nu, nu, out=nu)
    den = _horner((1.0, c.b4, c.b2, c.b0), nu2)
    f = (nu2 + c.a0) * (nu2 + gamma * gamma)
    f /= den
    f *= half
    return 2.0 * c.a * float((f @ w).sum())
