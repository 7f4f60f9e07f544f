"""Reference values the benchmark computes without the code paths it times.

Everything here is built from the defining equations written out in the
README, not from ``iobspectra``:

* the inversion cubic ``(1 - W)((delta - zeta W)^2 + gamma^2/4) = 2 omega^2 W``,
  solved by companion-matrix eigenvalues (the method behind ``np.roots``),
  batched over many drives;
* the fold cubic ``2 zeta W (1 - W)(zeta W - delta) = (delta - zeta W)^2 + gamma^2/4``
  and its explicit inverse ``omega^2 = (1 - W)((delta - zeta W)^2 + gamma^2/4) / (2 W)``,
  which give the exact switching thresholds;
* the closed-form Rabi relation and side-peak position
  ``nu_p = sqrt(4 |omega_bar|^2 + delta_bar^2 - (3/4) gamma^2)``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

# Imaginary parts below this count a companion eigenvalue as real.  Points
# whose roots are this close to merging sit within ~1e-6 gamma of a fold and
# are exempt from root-count checks anyway.
REAL_IMAG_TOL = 1e-7
# Drives this close to an exact fold are not checked (double root there).
FOLD_EXEMPT = 1e-6


def _base_poly(gamma: float, delta: float, zeta: float) -> Polynomial:
    """(1 - W)((delta - zeta W)^2 + gamma^2/4), the drive-free part of the cubic."""
    one_minus_w = Polynomial([1.0, -1.0])
    shifted = Polynomial([delta, -zeta])
    return one_minus_w * (shifted**2 + 0.25 * gamma * gamma)


def inversion_roots(gamma: float, delta: float, zeta: float, omegas) -> list[np.ndarray]:
    """Physical inversion roots W in (0, 1], descending, for each drive.

    Descending W is ascending excited population, the order in which the
    program lists lower, middle and upper branch solutions.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    base = _base_poly(gamma, delta, zeta).coef
    base = np.pad(base, (0, 4 - base.size))
    if base[3] == 0.0:  # zeta == 0: the cubic degenerates to a line
        c0 = base[0]
        return [np.array([c0 / (c0 + 2.0 * om * om)]) for om in omegas]
    # P(W) = base(W) - 2 omega^2 W, made monic for the companion matrix
    coef = np.tile(base, (omegas.size, 1))
    coef[:, 1] -= 2.0 * omegas * omegas
    monic = coef[:, :3] / coef[:, 3:4]
    comp = np.zeros((omegas.size, 3, 3))
    comp[:, 0, :] = -monic[:, ::-1]
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    eig = np.linalg.eigvals(comp)
    out = []
    for row in eig:
        real = row.real[np.abs(row.imag) <= REAL_IMAG_TOL]
        real = np.minimum(real[(real > 0.0) & (real <= 1.0 + 1e-9)], 1.0)
        out.append(np.sort(real)[::-1])
    return out


def folds(gamma: float, delta: float, zeta: float) -> tuple[float, float] | None:
    """Exact (omega_up, omega_down), or None for a monostable medium."""
    if zeta == 0.0:
        return None
    w = Polynomial([0.0, 1.0])
    g = 0.25 * gamma * gamma
    fold = 2.0 * zeta * w * (1.0 - w) * (zeta * w - delta) - ((delta - zeta * w) ** 2 + g)
    ws = [r.real for r in fold.roots() if abs(r.imag) <= 1e-12 and 0.0 < r.real < 1.0]
    if len(ws) < 2:
        return None
    om = sorted(
        math.sqrt((1.0 - x) * ((delta - zeta * x) ** 2 + g) / (2.0 * x)) for x in ws
    )
    return om[-1], om[0]


def window_width(gamma: float, delta: float, zeta: float) -> float:
    f = folds(gamma, delta, zeta)
    return 0.0 if f is None else f[0] - f[1]


def cusp_zeta(gamma: float, delta: float) -> float:
    """Smallest total coupling at which the medium becomes bistable."""
    lo, hi = 0.0, 4.0 * gamma + 8.0 * abs(delta) + 8.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if folds(gamma, delta, mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


def zeta_for_width(gamma: float, delta: float, width: float) -> float:
    """Coupling just above the cusp whose bistable window has the given width."""
    lo = cusp_zeta(gamma, delta)
    hi = lo * 1.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if window_width(gamma, delta, mid) < width:
            lo = mid
        else:
            hi = mid
    return hi


def effective_sq(gamma: float, delta: float, zeta_l: float, zeta_m: float,
                 omega: float, w: float) -> tuple[float, float]:
    """(|omega_bar|^2, delta_bar) at inversion w from the closed Rabi relation."""
    g = 0.25 * gamma * gamma
    delta_bar = delta - zeta_m * w
    shifted = delta_bar - zeta_l * w
    return omega * omega * (delta_bar**2 + g) / (shifted**2 + g), delta_bar


def side_peak(omega_bar_sq: float, delta_bar: float, gamma: float) -> float | None:
    """nu_p, or None where the incoherent spectrum has a single central peak."""
    nu_p_sq = 4.0 * omega_bar_sq + delta_bar**2 - 0.75 * gamma * gamma
    return math.sqrt(nu_p_sq) if nu_p_sq > 0.0 else None


def expected_single_label(omega: float, exact: tuple[float, float] | None) -> str:
    """Branch label of the only root at a drive outside the bistable window."""
    if exact is not None and omega > exact[0]:
        return "upper"
    return "lower"


def near_fold(omega: float, exact: tuple[float, float] | None, gamma: float) -> bool:
    return exact is not None and min(abs(omega - exact[0]), abs(omega - exact[1])) <= FOLD_EXEMPT * gamma
