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
system for the atom-field correlation function; both are implemented and
cross-checked against each other.

Spectra are reported in a common arbitrary unit (coupling and photon-energy
prefactors dropped), so shapes and ratios are meaningful but absolute
radiometric scales are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Branch, MediumParams, Mechanism
from . import steady_state
from .steady_state import StationaryState


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

    The leading quartic term of b2 is fixed by the peak-root factorization
    b2 = nu_p_sq^2 + 8 gamma^2 |omega_eff|^2 (a quadratic term there would
    break it); the identity is enforced to 1e-12 relative by the test suite
    and the verify command.
    """
    if omega_eff_sq < 0.0:
        raise ValueError(f"omega_eff_sq must be nonnegative, got {omega_eff_sq}")
    if gamma <= 0.0:
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
    nonnegative everywhere.
    """
    if not 0.0 <= rho22 < 0.5:
        raise ValueError(f"rho22 must lie in [0, 1/2), got {rho22}")
    nu_arr = np.asarray(nu, dtype=float)
    nu2 = nu_arr * nu_arr
    den = ((nu2 + coeffs.b4) * nu2 + coeffs.b2) * nu2 + coeffs.b0
    out = 2.0 * rho22 * rho22 * gamma * coeffs.a * (nu2 + coeffs.a0) / den
    return float(out) if np.isscalar(nu) or nu_arr.ndim == 0 else out


def correlation_matrix(nu, omega_eff: complex, delta_eff: float, gamma: float) -> np.ndarray:
    """The 3x3 system matrix for the stationary atom-field correlation components
    (g11, g12, g21); the fourth component is eliminated by the traceless property
    g22 = -g11.  For an array ``nu``, a stack of shape nu.shape + (3, 3).

    M is never singular for gamma > 0: |det M|^2 equals the sextic
    denominator of :func:`incoherent_spectrum`, which is at least
    b0 = gamma^2 a^2 > 0.
    """
    nu = np.asarray(nu, dtype=float)
    ob = complex(omega_eff)
    m = np.zeros(nu.shape + (3, 3), dtype=complex)
    m[..., 0, 0] = 1j * nu + gamma
    m[..., 0, 1] = 1j * ob.conjugate()
    m[..., 0, 2] = -1j * ob
    m[..., 1, 0] = 2j * ob
    m[..., 1, 1] = 1j * (nu - delta_eff) + 0.5 * gamma
    m[..., 2, 0] = -2j * ob.conjugate()
    m[..., 2, 2] = 1j * (nu + delta_eff) + 0.5 * gamma
    return m


def oracle_spectrum(nu, omega_eff: complex, delta_eff: float, gamma: float, rho: StationaryState):
    """Incoherent density via the independent complex 3x3 linear solve.

    Builds M(nu) from :func:`correlation_matrix` and the source vector
    q = s - rho21 * rho_A with s = (rho21, rho22, 0) and
    rho_A = (rho11, rho12, rho21) (unit atom-field coupling), solves
    M g = q, and returns Re g12, which is normalized identically to
    :func:`incoherent_spectrum`.
    """
    nus = np.atleast_1d(np.asarray(nu, dtype=float))
    n = nus.size
    m = correlation_matrix(nus, omega_eff, delta_eff, gamma)
    q = np.array(
        [
            rho.rho21 * rho.rho22,
            rho.rho22 - rho.rho12 * rho.rho21,
            -(rho.rho21 * rho.rho21),
        ],
        dtype=complex,
    )
    sol = np.linalg.solve(m, np.broadcast_to(q, (n, 3))[..., np.newaxis])
    out = sol[:, 1, 0].real
    return float(out[0]) if np.isscalar(nu) or np.asarray(nu).ndim == 0 else out


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
    sol: steady_state.SteadyStateSolution,
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


def spectrum_for_branch(
    params: MediumParams,
    mech: Mechanism,
    branch: Branch,
    omega: float,
    nu_grid=None,
) -> SpectrumResult:
    """Full pipeline: solve the cubic at ``omega``, pick the branch, compute
    effective parameters and coherence, and sample the incoherent density.

    Raises BranchNotPresentError outside the branch's existence window.
    """
    sol = steady_state.branch_solution(params, mech, branch, omega=omega)
    return spectrum_for_solution(sol, params.gamma, nu_grid)


def free_atom_saturation_max(gamma: float) -> float:
    """Peak incoherent density of an isolated atom in the saturation limit.

    For zeta = 0 and omega -> infinity, rho22 -> 1/2 and the central height
    2 rho22^2 a0 / (gamma a) -> 1 / (2 gamma): the reference unit used to
    normalize plotted spectra.
    """
    return 0.5 / gamma


def sum_rule_ratio(result: SpectrumResult, rho22: float, rho12: complex) -> float:
    """Integral of the incoherent density over the inelastic share of emission.

    Returns  integral S(nu) d nu / (rho22 - |rho12|^2), evaluated by adaptive
    quadrature with the tails (falling as nu^-4) integrated to infinity.
    For any consistent steady state the ratio is exactly pi, making it a
    sharp cross-parameter consistency probe.
    """
    from scipy.integrate import quad

    denom = rho22 - abs(rho12) ** 2
    if denom <= 0.0:
        raise ValueError(
            f"rho22 - |rho12|^2 = {denom} is not positive; inconsistent steady state"
        )
    c = result.coefficients
    gamma = math.sqrt(c.b0) / c.a  # b0 = gamma^2 a^2

    def density(nu: float) -> float:
        nu2 = nu * nu
        den = ((nu2 + c.b4) * nu2 + c.b2) * nu2 + c.b0
        return 2.0 * rho22 * rho22 * gamma * c.a * (nu2 + c.a0) / den

    nu_p = math.sqrt(c.nu_p_sq) if c.nu_p_sq > 0.0 else 0.0
    cut = 2.0 * nu_p + 20.0 * gamma
    interior_points = [-nu_p, 0.0, nu_p] if nu_p > 0.0 else [0.0]
    total, _ = quad(
        density, -cut, cut, points=interior_points, limit=500, epsabs=1e-13, epsrel=1e-12
    )
    for piece in (quad(density, cut, np.inf, limit=200, epsabs=1e-14),
                  quad(density, -np.inf, -cut, limit=200, epsabs=1e-14)):
        total += piece[0]
    return total / denom
