"""The benchmark media, their exact folds and the oracles that the test
modules share, built from the package's public names alone."""

import numpy as np
from hypothesis import strategies as st

from iobspectra import MediumParams, Mechanism

LORENTZ_50 = MediumParams(delta=3.0, zeta_lorentz=50.0)
DETUNING_50 = MediumParams(delta=3.0, zeta_detuning=50.0)

# Fold locations for delta = 3, zeta = 50, gamma = 1.  Eliminating 2 omega^2
# between the cubic and its W-derivative leaves 5000 W^3 - 2800 W^2 + 9.25 = 0,
# whose physical roots give the two fold drives below (see fold_oracle()).
OMEGA_UP_EXACT = 15.674130803086713
OMEGA_DOWN_EXACT = 1.393969707984965


def fold_points(
    gamma: float = 1.0, delta: float = 3.0, zeta: float = 50.0
) -> list[tuple[float, float]]:
    """(omega, W) at each fold, ascending in omega.

    Eliminating 2 omega^2 between the inversion cubic and its W-derivative
    leaves the resultant cubic
    2 zeta^2 W^3 - zeta (zeta + 2 delta) W^2 + delta^2 + gamma^2/4 = 0
    (5000 W^3 - 2800 W^2 + 9.25 for the benchmark medium), solved here by
    companion matrix; the derivative then gives each fold drive.
    """
    folds = []
    if zeta == 0.0:
        return folds
    c2 = zeta * (zeta + 2.0 * delta)
    c1 = delta * (delta + 2.0 * zeta) + 0.25 * gamma * gamma
    for w in np.roots([2.0 * zeta * zeta, -c2, 0.0, delta * delta + 0.25 * gamma * gamma]):
        if abs(w.imag) < 1e-12 and 0.0 < w.real <= 1.0:
            w = w.real
            omega_sq = (2.0 * c2 * w - 3.0 * zeta * zeta * w * w - c1) / 2.0
            if omega_sq > 0.0:
                folds.append((np.sqrt(omega_sq), w))
    return sorted(folds)


def fold_oracle(
    gamma: float = 1.0, delta: float = 3.0, zeta: float = 50.0
) -> tuple[float, float] | None:
    """Fold drives (omega_up, omega_down) from the resultant cubic, or None
    for a monostable medium."""
    omegas = [omega for omega, _ in fold_points(gamma, delta, zeta)]
    if len(omegas) < 2:
        return None
    return max(omegas), min(omegas)


def upper_fold_splittings() -> tuple[float, float]:
    """Side-peak offsets nu_p (detuning, lorentz) on the lower branch at the
    upper fold, where that branch ends at the fold root W of the resultant
    cubic.  Both enter nu_p^2 = 4 |omega_eff|^2 + delta_eff^2 - 3/4 with

    * detuning: omega_eff = omega_up, delta_eff = 3 - 50 W;
    * lorentz:  delta_eff = 3 and, from the saturation law
      W = dd / (2 |omega_eff|^2 + dd) with dd = 9 + 1/4,
      |omega_eff|^2 = (1 - W) dd / (2 W).
    """
    omega_up, w = fold_points()[-1]
    nu_det = np.sqrt(4.0 * omega_up**2 + (3.0 - 50.0 * w) ** 2 - 0.75)
    nu_lor = np.sqrt(2.0 * (1.0 - w) * 9.25 / w + 9.0 - 0.75)
    return nu_det, nu_lor


def liouvillian(omega_eff: complex, delta_eff: float, gamma: float) -> np.ndarray:
    """Master-equation generator on (rho11, rho12, rho21, rho22)."""
    ob = complex(omega_eff)
    obc = ob.conjugate()
    return np.array(
        [
            [0.0, -1j * obc, 1j * ob, gamma],
            [-1j * ob, 1j * delta_eff - 0.5 * gamma, 0.0, 1j * ob],
            [1j * obc, 0.0, -1j * delta_eff - 0.5 * gamma, -1j * obc],
            [0.0, 1j * obc, -1j * ob, -gamma],
        ],
        dtype=complex,
    )


def window_width(gamma: float, delta: float, zeta: float) -> float:
    folds = fold_oracle(gamma, delta, zeta)
    return 0.0 if folds is None else folds[0] - folds[1]


def zeta_for_width(gamma: float, delta: float, width: float) -> float:
    """Coupling just above the cusp whose bistable window is ``width`` wide."""
    lo, hi = 0.0, 4.0 * gamma + 8.0 * abs(delta) + 8.0
    while window_width(gamma, delta, hi) < width:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if window_width(gamma, delta, mid) < width:
            lo = mid
        else:
            hi = mid
    return hi


@st.composite
def extreme_media(draw):
    """(params, mech, gamma, delta, zeta): any medium in gamma 0.2-3,
    delta -20-20, zeta 0.1-1000, or one just above its cusp with a window
    narrower than 0.005 gamma."""
    gamma = draw(st.floats(0.2, 3.0))
    delta = draw(st.floats(-20.0, 20.0))
    if draw(st.booleans()):
        zeta = draw(st.floats(0.1, 1000.0))
    else:
        zeta = zeta_for_width(gamma, delta, draw(st.floats(1e-5, 5e-3)) * gamma)
    mech = draw(st.sampled_from(list(Mechanism)))
    share = {Mechanism.LORENTZ: 1.0, Mechanism.DETUNING: 0.0,
             Mechanism.JOINT: draw(st.floats(0.1, 0.9))}[mech]
    params = MediumParams(gamma=gamma, delta=delta, zeta_lorentz=share * zeta,
                          zeta_detuning=zeta - share * zeta)
    return params, mech, gamma, delta, params.zeta_lorentz + params.zeta_detuning
