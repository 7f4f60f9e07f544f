"""The oracle cross-check suite behind ``iobspectra verify``.

Each check compares a closed form with an independent route to the same
quantity and reports the worst deviation against a fixed tolerance:

    spectrum_oracle_equivalence  closed-form density vs the 3x3 linear solve
    factorization_identity       b4, b2, b0 vs the peak-root factorization
    fixed_point_agreement        cubic roots vs zeros of the Bloch flow
    rabi_relation                self-consistent |omega_eff|^2 vs its identity
    sum_rule_constancy           integral S / (2 rho22^2) vs pi across media, with
                                 |rho12|^2 = w rho22 at each state

Draws are seeded, so a seed fixes every printed deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, spectrum, steady_state
from .core import Branch, MediumParams, Mechanism


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_dev: float
    tol: float


def _coefficients_maybe_injected(
    omega_eff_sq, delta_eff, gamma, inject: bool
) -> spectrum.SpectrumCoefficients:
    """The density coefficients, elementwise on arrays; ``inject`` corrupts b2."""
    coeffs = spectrum.spectrum_coefficients(omega_eff_sq, delta_eff, gamma)
    if not inject:
        return coeffs
    # deliberately corrupt the quartic drive term down to quadratic
    o2, d2, g2 = omega_eff_sq, delta_eff * delta_eff, gamma * gamma
    bad_b2 = 16.0 * o2 + 2.0 * o2 * (4.0 * d2 + g2) + d2 * d2 - 1.5 * g2 * d2 + 0.5625 * g2 * g2
    return replace(coeffs, b2=bad_b2)


def _draw_effective(rng: np.random.Generator) -> tuple[complex, float, float]:
    gamma = rng.uniform(0.5, 2.0)
    delta_eff = rng.uniform(-8.0, 8.0) * gamma
    magnitude = rng.uniform(0.5, 15.0) * gamma
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return magnitude * np.exp(1j * phase), delta_eff, gamma


def check_spectrum_oracle(seed: int, inject: bool = False) -> CheckResult:
    """Closed-form density against the 3x3 linear-solve oracle, pointwise,
    on 20 random effective media."""
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(20):
        omega_eff, delta_eff, gamma = _draw_effective(rng)
        rho = steady_state.stationary_state(omega_eff, delta_eff, gamma)
        o2 = spectrum._omega_eff_sq(abs(omega_eff))
        coeffs = _coefficients_maybe_injected(o2, delta_eff, gamma, inject)
        nu = spectrum.default_nu_grid(coeffs.nu_p_sq, gamma, points=401)
        closed = spectrum.incoherent_spectrum(nu, coeffs, rho.rho22, gamma)
        oracle = spectrum.oracle_spectrum(nu, omega_eff, delta_eff, gamma, rho)
        rel = np.abs(closed - oracle) / np.maximum(np.abs(closed), np.abs(oracle))
        max_dev = max(max_dev, float(rel.max()))
    return CheckResult("spectrum_oracle_equivalence", max_dev <= 1e-10, max_dev, 1e-10)


def check_factorization(seed: int, inject: bool = False) -> CheckResult:
    """b4 = -2 nu_p^2, b2 = nu_p^4 + 8 gamma^2 |omega|^2,
    b0 = gamma^2 (2 |omega|^2 + delta^2 + gamma^2/4)^2 over 1000 random sets."""
    rng = np.random.default_rng(seed + 1)
    # one (o2, d, g) draw per set, in set order; every fifth set forces nu_p_sq < 0
    weak = (np.arange(1000) % 5 == 0)[:, None]
    low = np.where(weak, [0.0, -0.2, 1.0], [0.0, -10.0, 0.3])
    high = np.where(weak, [0.05, 0.2, 3.0], [50.0, 10.0, 3.0])
    o2, d, g = rng.uniform(low, high).T
    c = _coefficients_maybe_injected(o2, d, g, inject)
    scale = g * g + d * d + 2.0 * o2
    max_dev = float(np.max([
        abs(c.b4 + 2.0 * c.nu_p_sq) / scale,
        abs(c.b2 - (c.nu_p_sq * c.nu_p_sq + 8.0 * g * g * o2)) / (scale * scale),
        abs(c.b0 - g * g * np.square(2.0 * o2 + d * d + 0.25 * g * g)) / (scale * scale * scale),
    ]))
    return CheckResult("factorization_identity", max_dev <= 1e-12, max_dev, 1e-12)


# Newton steps per fixed-point search
_NEWTON_STEPS = 50


def _flow_zeros(params: MediumParams, mech: Mechanism, omega: np.ndarray,
                guess: np.ndarray) -> np.ndarray:
    """Zeros of the Bloch flow by plain Newton from each column of the (3, K)
    ``guess`` at the drives ``omega`` (K,); NaN columns where a search fails.

    One stacked solve of J s = -F, with each search's analytic Jacobian,
    steps every open search.  A search converges at its first step of at
    most 1e-12 |y|; a singular Jacobian ends every open search, as does the
    last of _NEWTON_STEPS steps."""
    # the couplings once, not once per root as dynamics.jacobian would
    zl, zm = dynamics._coupling(params, mech)
    g, d = params.gamma, params.delta
    zeros = np.full_like(guess, np.nan)
    open_, y = np.arange(guess.shape[1]), guess
    for _ in range(_NEWTON_STEPS):
        om = omega[open_]
        f = dynamics.bloch_rhs(y, params, mech, om)
        jac = [dynamics._jac(*s, o, g, d, zl, zm) for s, o in zip(y.T.tolist(), om.tolist())]
        try:
            step = np.linalg.solve(jac, -f.T[:, :, None])[:, :, 0].T
        except np.linalg.LinAlgError:
            break
        done = np.linalg.norm(step, axis=0) <= 1e-12 * np.linalg.norm(y, axis=0)
        y = y + step
        zeros[:, open_[done]] = y[:, done]
        open_, y = open_[~done], y[:, ~done]
        if open_.size == 0:
            break
    return zeros


def check_fixed_points(seed: int) -> CheckResult:
    """Algebraic roots versus Newton searches for zeros of the Bloch flow,
    each started next to a root; every converged search must land on an
    algebraic root."""
    rng = np.random.default_rng(seed + 2)
    cases = [
        (MediumParams(delta=3.0, zeta_lorentz=50.0), Mechanism.LORENTZ),
        (MediumParams(delta=3.0, zeta_detuning=50.0), Mechanism.DETUNING),
        (
            MediumParams(delta=rng.uniform(-4.0, 4.0), zeta_lorentz=rng.uniform(0.0, 40.0)),
            Mechanism.LORENTZ,
        ),
    ]
    max_dev = 0.0
    for params, mech in cases:
        arr = steady_state.solution_arrays(params, mech, np.linspace(0.2, 20.0, 17))
        at = np.nonzero(arr.w == arr.w)
        om, rho12 = arr.omega[at[0]], arr.rho12[at]
        fp = np.array([2.0 * rho12.real, 2.0 * rho12.imag, arr.w[at]])
        rhs = dynamics.bloch_rhs(fp, params, mech, om)
        max_dev = max(max_dev, float(np.abs(rhs).max()) / params.gamma)
        zero_w = _flow_zeros(params, mech, om, fp + [[1e-4], [-1e-4], [-1e-4]])[2]
        # every zero of the flow must coincide with an algebraic root; fmin and
        # fmax pass over NaN, the padding of a drive's roots and a failed search
        miss = np.fmin.reduce(np.abs(zero_w[:, None] - arr.w[at[0]]), axis=1)
        max_dev = max(max_dev, float(np.fmax.reduce(miss, initial=0.0)))
    return CheckResult("fixed_point_agreement", max_dev <= 1e-8, max_dev, 1e-8)


def check_rabi_relation(seed: int) -> CheckResult:
    """|omega_eff|^2 from the self-consistency solve versus the closed identity."""
    rng = np.random.default_rng(seed + 3)
    cases = [
        MediumParams(delta=3.0, zeta_lorentz=50.0),
        MediumParams(
            gamma=rng.uniform(0.5, 2.0),
            delta=rng.uniform(-5.0, 5.0),
            zeta_lorentz=rng.uniform(1.0, 80.0),
        ),
    ]
    max_dev = 0.0
    for params in cases:
        arr = steady_state.solution_arrays(params, Mechanism.LORENTZ, np.linspace(0.05, 25.0, 60))
        for om, count, ws, omega_effs in zip(arr.omega.tolist(), arr.count.tolist(),
                                             arr.w.tolist(), arr.omega_eff.tolist()):
            p = replace(params, omega=om)  # one medium per drive, for each of its roots
            for w, omega_eff in zip(ws[:count], omega_effs[:count]):
                expected = steady_state.rabi_relation_sq(w, p, Mechanism.LORENTZ)
                rel = abs(abs(omega_eff) * abs(omega_eff) - expected) / max(expected, 1e-300)
                max_dev = max(max_dev, rel)
    return CheckResult("rabi_relation", max_dev <= 1e-10, max_dev, 1e-10)


def _sum_rule_cases() -> list[tuple[MediumParams, Mechanism, Branch, float]]:
    lor = MediumParams(delta=3.0, zeta_lorentz=50.0)
    det = MediumParams(delta=3.0, zeta_detuning=50.0)
    free = MediumParams()
    return [
        (free, Mechanism.LORENTZ, Branch.LOWER, 1.0),
        (replace(free, delta=3.0), Mechanism.LORENTZ, Branch.LOWER, 5.0),
        (MediumParams(gamma=2.0, delta=-4.0), Mechanism.LORENTZ, Branch.LOWER, 8.0),
        (MediumParams(gamma=0.7, delta=1.0), Mechanism.DETUNING, Branch.LOWER, 3.0),
        (lor, Mechanism.LORENTZ, Branch.UPPER, 15.6),
        (lor, Mechanism.LORENTZ, Branch.LOWER, 8.0),
        (lor, Mechanism.LORENTZ, Branch.UPPER, 1.6),
        (det, Mechanism.DETUNING, Branch.LOWER, 15.0),
        (det, Mechanism.DETUNING, Branch.UPPER, 1.6),
        (det, Mechanism.DETUNING, Branch.MIDDLE, 8.0),
    ]


def _sum_rule_media(seed: int) -> list[tuple[MediumParams, Mechanism, Branch, float]]:
    """Free atoms drawn from the seed, down to weak drive: gamma in 0.1..10
    and omega / gamma in 0.1..30 (both log-uniform), |delta| / gamma <= 10."""
    rng = np.random.default_rng(seed + 4)
    media = []
    for _ in range(40):
        gamma = 10.0 ** rng.uniform(-1.0, 1.0)
        omega = gamma * 10.0 ** rng.uniform(-1.0, np.log10(30.0))
        delta = gamma * rng.uniform(-10.0, 10.0)
        media.append((MediumParams(gamma=gamma, delta=delta), Mechanism.LORENTZ, Branch.LOWER,
                      omega))
    return media


def check_sum_rule(seed: int) -> CheckResult:
    """Integral S / (2 rho22^2) against its exact value pi, across the ten
    fixed media and 40 free atoms drawn from the seed.

    Each state must also meet |rho12|^2 = w rho22, which makes 2 rho22^2 its
    inelastic share rho22 - |rho12|^2, within the rounding bound
    8 eps w sum|c_i| / (2 Q): the identity's defect is w P(w) / (2 Q) for
    the inversion cubic P with coefficients c_i and
    Q = (delta - zeta w)^2 + gamma^2/4, and rounding w leaves |P(w)| up to
    about eps sum|c_i|.  The check fails otherwise.
    """
    cases = _sum_rule_cases() + _sum_rule_media(seed)
    # one kernel call for every case, one row each: its medium at its drive
    rows = steady_state._Rows.of([(params, mech) for params, mech, _, _ in cases])
    zeta = rows.zeta_lorentz + rows.zeta_detuning
    omega = np.array([omega for *_, omega in cases])
    arr, folds = steady_state._solve(rows, zeta, omega)
    names = steady_state._labeled(arr, folds[0], stacklevel=2).tolist()
    at = (range(len(cases)), [row.index(case[2].value) for case, row in zip(cases, names)])
    w, rho12, z = arr.w[at], arr.rho12[at], arr.omega_eff[at]
    # one density call too; hypot rounds as a record's abs(z)
    coeffs = spectrum.spectrum_coefficients(spectrum._omega_eff_sq(np.hypot(z.real, z.imag)),
                                            arr.delta_eff[at], rows.gamma[:, 0])
    max_dev = 0.0
    for i, (w_i, rho12_i) in enumerate(zip(w.tolist(), rho12.tolist())):
        c = spectrum.SpectrumCoefficients(*(x.item(i) for x in vars(coeffs).values()))
        # the spectrum on an empty grid, whose coefficients sum_rule_ratio integrates
        result = spectrum.SpectrumResult(np.empty(0), np.empty(0), abs(rho12_i) * abs(rho12_i),
                                         spectrum.peak_positions(c), c)
        ratio = spectrum.sum_rule_ratio(result, 0.5 * (1.0 - w_i), rho12_i)
        max_dev = max(max_dev, abs(ratio - np.pi) / np.pi)
    w, rho12 = w[:, None], rho12[:, None]
    cubic = steady_state._inversion_cubic(rows, zeta, omega[:, None])
    q = np.square(rows.delta - zeta * w) + 0.25 * (rows.gamma * rows.gamma)
    bound = 8.0 * np.finfo(float).eps * w * sum(map(abs, cubic)) / (2.0 * q)
    defect = abs(np.square(np.hypot(rho12.real, rho12.imag)) - w * (0.5 * (1.0 - w)))
    consistent = bool(np.all(defect <= bound))
    return CheckResult("sum_rule_constancy", consistent and max_dev <= 1e-10, max_dev, 1e-10)


def run_verification(seed: int = 0, inject_b2_typo: bool = False) -> list[CheckResult]:
    return [
        check_spectrum_oracle(seed, inject_b2_typo),
        check_factorization(seed, inject_b2_typo),
        check_fixed_points(seed),
        check_rabi_relation(seed),
        check_sum_rule(seed),
    ]
