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
system for the atom-field correlation function, over the matrix's two
structural zeros with one determinant; both are implemented and
cross-checked against each other.  A second check integrates the density
of given coefficients by adaptive quadrature over the half line (the
density is even in nu): the integral over rho22 - |rho12|^2 is exactly pi.

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

    Works elementwise: arrays of |omega_eff|^2 and delta_eff (with a scalar
    gamma) give arrays in every field, each bit for bit the scalar call's.

    The leading quartic term of b2 is fixed by the peak-root factorization
    b2 = nu_p_sq^2 + 8 gamma^2 |omega_eff|^2 (a quadratic term there would
    break it); the identity is enforced to 1e-12 relative by the test suite
    and the verify command.
    """
    if np.any(omega_eff_sq < 0.0):
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
    nonnegative everywhere.  Where the denominator overflows (|nu| beyond
    about 1e51) the density is 0, as its nu^-4 tail gives.
    """
    if not 0.0 <= rho22 < 0.5:
        raise ValueError(f"rho22 must lie in [0, 1/2), got {rho22}")
    nu_arr = np.asarray(nu, dtype=float)
    # in place: a temporary of a long grid can be page-faulted afresh on every call
    with np.errstate(over="ignore", invalid="ignore"):
        nu2 = np.multiply(nu_arr, nu_arr, out=np.empty_like(nu_arr))
        den = nu2 + coeffs.b4
        den *= nu2
        den += coeffs.b2
        den *= nu2
        den += coeffs.b0
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

    M is solved over its structural zeros m12 = m21 = 0 by Cramer's rule
    with the denominators m11, m22 cleared:

        det M = m00 m11 m22 - m01 m10 m22 - m02 m20 m11,
        g11   = (q0 m11 m22 - m01 q1 m22 - m02 q2 m11) / det M,
        g12   = (q1 - m10 g11) / m11,

    two complex divisions per nu.  Both divisors are nonzero for gamma > 0:
    |det M|^2 equals the sextic denominator of :func:`incoherent_spectrum`,
    which is at least b0 = gamma^2 a^2 > 0, and |m11| is at least gamma / 2
    (its real part).

    det M grows as nu^3 and overflows past |nu| ~ 5.6e102; the density is 0
    there, as its nu^-4 tail gives, and no warning is raised.
    """
    nus = np.asarray(nu, dtype=float)
    flat = nus.reshape(-1)
    q = (rho.rho21 * rho.rho22, rho.rho22 - rho.rho12 * rho.rho21, -(rho.rho21 * rho.rho21))
    out = np.empty(flat.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            out[block] = _oracle_block(flat[block], omega_eff, delta_eff, gamma, q)
    out = out.reshape(nus.shape)
    return float(out) if np.isscalar(nu) or nus.ndim == 0 else out


# Grid points per block of the oracle.  Its five complex buffers of 64 kB
# stay below the C allocator's default mmap threshold (128 KiB in glibc) and
# in cache, so they are reused from the heap, where whole-grid buffers can
# be page-faulted afresh on every call.  In the spectra workload blocks of
# 4096 points ran faster than blocks of 8000 or 2048.
_BLOCK = 4096


def _oracle_block(nu: np.ndarray, omega_eff: complex, delta_eff: float, gamma: float,
                  q: tuple[complex, complex, complex]) -> np.ndarray:
    """Re g12 of :func:`oracle_spectrum` on a 1-d block of offsets, for the
    source vector ``q``."""
    m00, m01, m02, m10, m11, m20, m22 = _correlation_entries(nu, omega_eff, delta_eff, gamma)
    q0, q1, q2 = q
    # Numpy may round a complex product written over one of its own operands
    # differently (another inner loop), so each product writes where it
    # always has: over an operand only as below, else into a buffer it does
    # not read.
    prod = m11 * m22
    num = q0 * prod
    det = np.multiply(m00, prod, out=m00)
    det -= np.multiply(m01 * m10, m22, out=prod)
    num -= np.multiply(m01 * q1, m22, out=m22)
    det -= np.multiply(m02 * m20, m11, out=prod)
    num -= np.multiply(m02 * q2, m11, out=prod)
    g11 = np.divide(num, det, out=num)
    g12 = np.subtract(q1, np.multiply(m10, g11, out=g11), out=g11)
    out = np.divide(g12, m11, out=prod).real
    # one sum flags an overflow anywhere; the mask is built only then
    if not np.isfinite(det.sum()):
        out = np.where(np.isfinite(det), out, 0.0)
    return out


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
    quadrature of the density built from ``result.coefficients``, with the
    tails (falling as nu^-4) integrated to infinity.  The density depends on
    nu only through nu^2, so S(nu) = S(-nu) for any coefficients and the
    integral is twice the one over the half line: [0, cut] with a break at
    the side peak nu_p, then [cut, inf).  For any consistent steady state
    the ratio is exactly pi, making it a sharp cross-parameter consistency
    probe.
    """
    from scipy.integrate import quad

    denom = rho22 - abs(rho12) ** 2
    if denom <= 0.0:
        raise ValueError(
            f"rho22 - |rho12|^2 = {denom} is not positive; inconsistent steady state"
        )
    c = result.coefficients
    a0, b4, b2, b0 = c.a0, c.b4, c.b2, c.b0
    gamma = math.sqrt(b0) / c.a  # b0 = gamma^2 a^2
    scale = 2.0 * rho22 * rho22 * gamma * c.a

    def density(nu: float) -> float:
        nu2 = nu * nu
        return scale * (nu2 + a0) / (((nu2 + b4) * nu2 + b2) * nu2 + b0)

    nu_p = math.sqrt(c.nu_p_sq) if c.nu_p_sq > 0.0 else 0.0
    cut = 2.0 * nu_p + 20.0 * gamma
    # half the absolute tolerances of a full-line integral, since the sum is doubled
    inner, _ = quad(density, 0.0, cut, points=[nu_p] if nu_p > 0.0 else None,
                    limit=500, epsabs=5e-14, epsrel=1e-12)
    tail, _ = quad(density, cut, np.inf, limit=200, epsabs=5e-15)
    return 2.0 * (inner + tail) / denom
