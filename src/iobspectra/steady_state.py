"""Steady states of the driven medium: cubic inversion roots, branches, thresholds.

Writing the stationary single-atom master equation in the rotating frame and
eliminating the coherence gives one real equation for the population
difference W = rho11 - rho22,

    (1 - W) * ((delta - zeta*W)**2 + gamma**2/4) = 2 * omega**2 * W,

which expands to the cubic  c3 W^3 + c2 W^2 + c1 W + c0 = 0  solved here.
Up to three roots coexist in (0, 1]; the middle one (by excited population)
is dynamically unstable and the root-count changes at two fold drives,
the switching thresholds of the hysteresis loop.

The folds are the extrema of the explicit inverse
omega^2(W) = (1 - W)((delta - zeta W)^2 + gamma^2/4) / (2W), so they follow
in closed form from the real roots in (0, 1) of one more cubic,

    2 zeta W (1 - W)(zeta W - delta) = (delta - zeta W)^2 + gamma^2/4.

Both cubics are solved by one closed-form kernel that works row-wise on
numpy arrays, so a whole drive grid is solved, assembled and classified at
once; the single-drive functions call the same kernel on one drive.  It is
elementwise in the medium too: rows of media, one per drive, solve in one
call, each row with the bits of its own one-medium call.
"""

from __future__ import annotations

import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    Branch,
    BranchNotPresentError,
    MediumParams,
    Mechanism,
    NoPhysicalRootError,
    check_drive,
    validate_mechanism,
    zeta_total,
)

# Roots closer than this collapse to a single (tangency) root; so do roots that
# rounding cannot tell from a double root (see _coincide).
ROOT_MERGE_TOL = 1e-8
# Eigenvalue |Re| below this, in units of gamma, as estimated in _stability,
# flags marginal stability.
MARGINAL_STABILITY_TOL = 1e-9

_EPS = float(np.finfo(float).eps)
# Widest gap that rounding can open in a double or triple root of the
# normalized inversion cubic, with a margin of 18.  With
# p = c3 (w - x1)(w - x2)(w - x3), adjacent roots x1 < x2 = x1 + d bulge by
# |c3| (d/2)^2 |mid - x3| at their midpoint, and they merge only when that is
# at most 32 eps (see _coincide).  Roots of modulus at most 1 give
# |c2|, |c1|, |c0| <= 3 |c3|, so |c3| >= 1/3 after normalization, and the
# third root lies outside the pair, |mid - x3| >= d/2.  Hence
# d^3 <= 24 * 32 eps, d <= 5.5e-5; a distant third root gives far less.
_SPLIT_MAX = 1e-3


class ThresholdRangeWarning(UserWarning):
    """A fold coincides with an endpoint of the scanned drive range."""


class MarginalStabilityWarning(UserWarning):
    """A fixed point sits on the stability boundary (fold tangency)."""


@dataclass(frozen=True)
class SteadyStateSolution:
    """One root of the inversion cubic with its derived quantities.

    w         : population difference, in (0, 1]
    rho22     : excited-state population, (1 - w)/2
    rho12     : steady-state coherence <sigma+>
    omega_eff : effective (local-field corrected) Rabi frequency
    delta_eff : effective detuning entering the master equation
    branch    : position within the solution set by ascending rho22
    stable    : all linearization eigenvalues have negative real part
    residual  : |cubic(w)| with coefficients normalized by max |c_i|
    """

    w: float
    rho22: float
    rho12: complex
    omega_eff: complex
    delta_eff: float
    branch: Branch
    stable: bool
    residual: float


class ScanPoint(NamedTuple):
    omega: float
    solutions: list[SteadyStateSolution]


@dataclass(frozen=True)
class HysteresisScan:
    """Full solution sets over a drive grid, with switching thresholds
    (``points`` is a :class:`ScanPoints` view from :func:`scan_hysteresis`)."""

    points: Sequence[ScanPoint]
    omega_up: float | None
    omega_down: float | None


@dataclass(frozen=True)
class StationaryState:
    """Stationary density matrix of a two-level atom for fixed effective parameters."""

    rho11: float
    rho12: complex
    rho21: complex
    rho22: float
    w: float


class SolutionArrays(NamedTuple):
    """Every steady state over a drive array, one row per drive.

    Columns hold the roots in ascending rho22 (descending w), so column k of
    a three-root row is branch k; rows with fewer roots are NaN-padded
    (``stable``/``marginal`` False there).

    omega     : (M,) drives
    count     : (M,) number of physical roots; 0 where none was found
    w, rho12, omega_eff, delta_eff, residual, stable : (M, 3), as in
                :class:`SteadyStateSolution`
    marginal  : (M, 3) at a fold or Hopf point, as :func:`_stability` says
    """

    omega: np.ndarray
    count: np.ndarray
    w: np.ndarray
    rho12: np.ndarray
    omega_eff: np.ndarray
    delta_eff: np.ndarray
    residual: np.ndarray
    stable: np.ndarray
    marginal: np.ndarray


class _Rows(NamedTuple):
    """Media as (K, 1) columns, one per drive of a kernel call, which reads
    them in place of a MediumParams; :meth:`of` checks each mechanism."""

    gamma: np.ndarray
    delta: np.ndarray
    zeta_lorentz: np.ndarray
    zeta_detuning: np.ndarray

    @classmethod
    def of(cls, media: Sequence[tuple[MediumParams, Mechanism]]) -> _Rows:
        for params, mech in media:
            validate_mechanism(params, mech)
        return cls(*np.array([[getattr(p, f) for f in cls._fields] for p, _ in media]).T[..., None])


def cubic_coefficients(
    params: MediumParams, mech: Mechanism
) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of the inversion cubic.

    c3 = zeta^2
    c2 = -zeta (zeta + 2 delta)
    c1 = 2 omega^2 + delta (delta + 2 zeta) + gamma^2 / 4
    c0 = -(delta^2 + gamma^2 / 4)
    """
    return tuple(map(float, _inversion_cubic(params, zeta_total(params, mech), params.omega)))


def _inversion_cubic(medium, zeta, omega):
    """Inversion-cubic coefficients at drive ``omega`` (a float or an array);
    every square is one product, so media, _Rows and drive arrays round alike."""
    g2_4 = 0.25 * (medium.gamma * medium.gamma)
    c1 = 2.0 * (omega * omega) + medium.delta * (medium.delta + 2.0 * zeta) + g2_4
    c0 = -(medium.delta * medium.delta + g2_4)
    return zeta * zeta, -zeta * (zeta + 2.0 * medium.delta), c1, c0


def _normalized(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient rows (4, K) divided column-wise by their largest magnitude."""
    scale = np.abs(coeffs).max(axis=0)
    scale[scale == 0.0] = 1.0
    return coeffs / scale


def _horner(c, w):
    """((c3 w + c2) w + c1) w + c0 for an array ``w``, built in one new array."""
    c3, c2, c1, c0 = c
    p = c3 * w
    p += c2
    p *= w
    p += c1
    p *= w
    p += c0
    return p


def _polish(c, w: np.ndarray) -> np.ndarray:
    """Three Newton steps on the normalized cubic ``c``, elementwise; each
    element keeps its best iterate.  Where the derivative or the residual
    vanishes, later iterates turn NaN or stand still, so they never beat it.
    The caller silences floating-point warnings."""
    c3, c2, c1, _ = c
    d3, d2 = 3.0 * c3, 2.0 * c2
    p = _horner(c, w)
    best_w, best_r = w.copy(), np.abs(p)
    for _ in range(3):
        slope = d3 * w
        slope += d2
        slope *= w
        slope += c1
        w = w - p / slope
        p = _horner(c, w)
        r = np.abs(p)
        better = r < best_r
        np.copyto(best_w, w, where=better)
        np.copyto(best_r, r, where=better)
    return best_w


# 2 pi k for the three branches of the trigonometric cubic formula
_TURNS = 2.0 * np.pi * np.arange(3.0)
# signs of the two Cardano terms -q/2 + sqrt(disc) and -q/2 - sqrt(disc)
_SIGNS = np.array([[1.0], [-1.0]])


def _cubic_formula(c: np.ndarray) -> np.ndarray:
    """Closed-form real roots (K, 3) of the cubics with coefficient rows
    ``c`` (4, K) and nonzero c3, NaN-padded: Cardano's formula where one
    root is real, the trigonometric form where three are.  A form that no
    row needs is not evaluated, so a single cubic pays for one form only."""
    b, cc, d = c[1:] / c[0]
    shift = b / 3.0
    p = cc - b * b / 3.0
    q = (2.0 * b * b * b - 9.0 * b * cc) / 27.0 + d
    disc = 0.25 * q * q + p * p * p / 27.0

    single = (disc > 0.0) | (p == 0.0)
    every = single.all()
    if every:
        ts = np.full(q.shape + (3,), np.nan)
    else:
        m = 2.0 * np.sqrt(-p / 3.0)
        phi = np.arccos(np.minimum(1.0, np.maximum(-1.0, 3.0 * q / (p * m))))
        ts = m[:, None] * np.cos((phi[:, None] - _TURNS) / 3.0)
    if every or single.any():
        hi_lo = -0.5 * q + np.sqrt(disc) * _SIGNS
        cbrt = np.copysign(np.abs(hi_lo) ** (1.0 / 3.0), hi_lo)
        triple = np.copysign(np.abs(q) ** (1.0 / 3.0), -q)
        one = np.where(disc > 0.0, cbrt[0] + cbrt[1], triple)
        if every:
            ts[:, 0] = one
        else:
            np.copyto(ts[:, 0], one, where=single)
            np.copyto(ts[:, 1:], np.nan, where=single[:, None])
    return ts - shift[:, None]


def _low_degree_formula(c2, c1, c0) -> np.ndarray:
    """Real roots (K, 3), NaN-padded, when the cubic term vanishes: the
    stable quadratic formula, or the linear one when c2 vanishes too."""
    roots = np.full(c2.shape + (3,), np.nan)
    s = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    qq = -0.5 * (c1 + np.copysign(s, c1))
    linear = np.abs(c2) < 1e-14
    roots[:, 0] = np.where(linear, np.where(np.abs(c1) < 1e-14, np.nan, -c0 / c1), qq / c2)
    roots[:, 1] = np.where(linear | (qq == 0.0), np.nan, c0 / qq)
    return roots


def _real_cubic_roots(coeffs: np.ndarray):
    """All real roots of the cubics c3 x^3 + c2 x^2 + c1 x + c0, closed form
    plus polishing, one cubic per column of the coefficient rows ``coeffs``
    (4, K).

    Coefficients are normalized by their largest magnitude first; degenerate
    leading coefficients fall back to the quadratic/linear formulas.  Roots
    of the cubic formula are polished once, by Newton on the cubic; fallback
    roots are not polished: Newton on the cubic can walk a far quadratic
    root onto the near one (a phantom second root), and the dropped term
    adds at most |c3| < 1e-14 to the residual of a root in (0, 1].
    Returns the roots as a (K, 3) array, unordered and NaN-padded, and the
    normalized coefficients repeated per root, (4, K, 3).
    """
    c = _normalized(coeffs)
    per_root = _per_root(c)
    low = np.abs(c[0]) < 1e-14
    with np.errstate(all="ignore"):
        roots = _cubic_formula(c)
        if not low.any():
            return _polish(per_root, roots), per_root
        roots[low] = _low_degree_formula(*c[1:, low])
        polish = ~low
        roots[polish] = _polish(per_root[:, polish], roots[polish])
    return roots, per_root


def _per_root(c: np.ndarray) -> np.ndarray:
    """Rows (..., K) repeated into (..., K, 3), one column per root.  Numpy
    runs an operation on equal shapes much faster than a broadcast one, and
    the polish and the residual do several per root."""
    return c[..., None].repeat(3, axis=-1)


def _coincide(c, lo, hi):
    """Whether adjacent roots lo < hi in (0, 1] of the normalized cubic ``c``
    are one double root: closer than ROOT_MERGE_TOL, or with the cubic at
    their midpoint indistinguishable from zero (NaN gives False).

    Horner's rule at w in (0, 1] errs by at most about 6 eps sum |c_i| w^i
    (three multiply-adds), and the normalized coefficients carry about two
    roundings more: e(w) = 8 eps sum |c_i| w^i <= 32 eps.  Between two real
    roots the cubic bulges by |p''| (hi - lo)^2 / 8 at the midpoint, so a
    pair whose bulge is below e(mid) is, to working precision, a double root
    that rounding split.  That split, 2 sqrt(2 e / |p''|), is of order
    sqrt(eps) (3e-8 at the upper fold of delta = 3, zeta = 50), above
    ROOT_MERGE_TOL.
    """
    mid = 0.5 * (lo + hi)
    rounding = 8.0 * _EPS * _horner(tuple(np.abs(ci) for ci in c), mid)
    return (hi - lo < ROOT_MERGE_TOL) | (np.abs(_horner(c, mid)) <= rounding)


def _merge_coincident(c, w: np.ndarray):
    """Rows of descending roots ``w`` with coincident neighbours (see
    :func:`_coincide`) collapsed left to right, each merged pair into the
    double root between them; returns the merged rows, NaN-padded, and their
    root counts."""
    rows = np.arange(w.shape[0])
    merged = np.full_like(w, np.nan)
    count = np.zeros(w.shape[0], dtype=int)
    for x in w.T:
        last = merged[rows, np.maximum(count - 1, 0)]
        join = (count > 0) & _coincide(c, x, last)
        if join.any():
            # A double root is a simple root of the derivative, so Newton runs
            # on p' = 3 c3 w^2 + 2 c2 w + c1; on p itself it converges only
            # linearly there and stops about sqrt(eps) short.
            c3, c2, c1, _ = (ci[join] for ci in c)
            with np.errstate(all="ignore"):
                mid = _polish((0.0, 3.0 * c3, 2.0 * c2, c1), 0.5 * (last[join] + x[join]))
            merged[rows[join], count[join] - 1] = np.where(
                mid > 0.0, np.minimum(mid, 1.0), x[join])
        add = (x == x) & ~join
        merged[rows[add], count[add]] = x[add]
        count += add
    return merged, count


def _fold_cubic(medium, zeta):
    """Coefficients of the fold cubic
    2 zeta^2 W^3 - zeta (zeta + 2 delta) W^2 + delta^2 + gamma^2/4."""
    delta = medium.delta
    return (2.0 * zeta * zeta, -zeta * (zeta + 2.0 * delta), 0.0,
            delta * delta + 0.25 * (medium.gamma * medium.gamma))


def _fold_pair(medium, zeta, roots: np.ndarray) -> np.ndarray:
    """Fold drives (omega_up, omega_down) as a (2, K) array from the fold
    cubics' ``roots`` (K, 3), rows of :func:`_real_cubic_roots`; NaN for a
    monostable medium.  At most two roots lie in (0, 1): with c1 = 0 and
    c3, c0 > 0 the cubic has one negative root."""
    w = np.where((roots > 0.0) & (roots < 1.0), roots, np.nan)
    q = np.square(medium.delta - zeta * w) + 0.25 * (medium.gamma * medium.gamma)
    omegas = np.sqrt((1.0 - w) * q / (2.0 * w))
    omegas.sort(axis=1)  # the NaN padding last
    folds = omegas.T[1::-1]
    folds[1, np.isnan(folds[0])] = np.nan  # one root in (0, 1) is no pair
    return folds


def _inversion_roots(medium, zeta, omega: np.ndarray):
    """Physical inversion roots W in (0, 1] at each drive, and the exact folds.

    One kernel call solves the inversion cubic at every drive and, as one
    more column per medium, the fold cubic.  Returns (roots, count, c,
    folds): roots as an (M, 3) array descending in W (ascending in rho22,
    the order of :class:`SolutionArrays`), NaN-padded and de-duplicated;
    count the roots per drive; c the normalized cubic coefficients repeated
    per root, (4, M, 3); folds as from :func:`_fold_pair`.
    """
    n = omega.size
    coeffs = np.empty((4, n + np.size(zeta), 1))  # (K, 1) columns, as the media's
    coeffs[0, :n], coeffs[1, :n], coeffs[2, :n], coeffs[3, :n] = _inversion_cubic(
        medium, zeta, omega[:, None])
    coeffs[0, n:], coeffs[1, n:], coeffs[2, n:], coeffs[3, n:] = _fold_cubic(medium, zeta)
    raw, c = _real_cubic_roots(coeffs[..., 0])
    folds = _fold_pair(medium, zeta, raw[n:])
    raw, c = raw[:n], c[:, :n]
    w = np.minimum(raw, 1.0)
    w[(raw <= 0.0) | (raw > 1.0 + 1e-9)] = np.nan
    w = -np.sort(-w, axis=1)  # the padding stays last
    count = (w == w).sum(axis=1)

    # Only rows with two roots closer than _SPLIT_MAX can hold a split double
    # root; the rest skip the merge.
    close = w[:, :-1] - w[:, 1:] < _SPLIT_MAX
    if close.any():
        near = np.flatnonzero(close.any(axis=1))
        w[near], count[near] = _merge_coincident(c[:, near, 0], w[near])
    return w, count, c, folds


def _complex(re, im):
    """re + i im without the rounding or signed-zero changes of complex arithmetic."""
    if np.ndim(re) == 0 and np.ndim(im) == 0:
        return complex(re, im)
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _effective(medium, omega: np.ndarray, w: np.ndarray):
    """(omega_eff, delta_eff) at drives omega and inversions w,
    elementwise; see :func:`effective_params`.

    omega_eff = omega / f with the feedback factor
    f = 1 - zl w (delta_eff - i gamma/2) / dd, dd = delta_eff^2 + gamma^2/4.
    f never vanishes: for gamma > 0 and zl > 0, Im f = zl w gamma / (2 dd)
    is zero only at w = 0 or where dd overflows, and there Re f = 1.

    Written in real arithmetic that rounds as CPython's complex operations
    do (its division is Smith's algorithm), so that one drive and a drive
    array give the same bits.
    """
    g = medium.gamma
    delta_eff = medium.delta - medium.zeta_detuning * w
    zl = medium.zeta_lorentz
    if not np.count_nonzero(zl):
        zero = 0.0 * w  # NaN where w pads a row
        return _complex(omega + zero, zero), delta_eff
    dd = delta_eff * delta_eff + 0.25 * g * g
    a = zl * w
    f_re = 1.0 - a * delta_eff / dd
    f_im = a * (0.5 * g) / dd
    with np.errstate(divide="ignore", invalid="ignore"):
        # Smith's step by the larger part of f: the real part almost
        # everywhere, since |Re f| < |Im f| only in a narrow band around Re f = 0
        ratio = f_im / f_re
        denom = f_re + f_im * ratio
        re = (omega + 0.0 * ratio) / denom
        im = (0.0 - omega * ratio) / denom
        by_im = np.abs(f_re) < np.abs(f_im)
        if by_im.any():
            ratio = f_re / f_im
            denom = f_re * ratio + f_im
            np.copyto(re, (omega * ratio + 0.0) / denom, where=by_im)
            np.copyto(im, (0.0 * ratio - omega) / denom, where=by_im)
    return _complex(re, im), delta_eff


def _hurwitz(medium, omega, w, rho12):
    """(c1, c0) of the characteristic cubic l^3 + 2g l^2 + c1 l + c0 of the
    Bloch Jacobian [[-g/2, a, zs v], [-a, -g/2, -k], [0, 2 omega, -g]] at
    fixed points given as scalars or arrays that broadcast together."""
    g, zl, zm = medium.gamma, medium.zeta_lorentz, medium.zeta_detuning
    zs = zl + zm
    u, v = 2.0 * rho12.real, 2.0 * rho12.imag
    a = zl * w - (medium.delta - zm * w)
    drive2 = 2.0 * omega
    k = zs * u + drive2
    e = 0.25 * g * g + a * a
    return e + g * g + drive2 * k, g * e + drive2 * (0.5 * g * k + a * zs * v)


def _stability(medium, omega, w, rho12):
    """(stable, marginal) by Routh-Hurwitz: stable iff c0 > 0 and 2g c1 > c0
    (NaN gives False).  Marginal: the real eigenvalue at a fold, about -c0/c1,
    or the Hopf pair's real part, about (c0 - 2g c1)/(2 (c1 + 4g^2)), is
    within MARGINAL_STABILITY_TOL * g of zero, g being the unit of frequency."""
    g = medium.gamma
    c1, c0 = _hurwitz(medium, omega, w, rho12)
    hopf = 2.0 * g * c1 - c0
    abs_c1 = abs(c1)
    tol = MARGINAL_STABILITY_TOL * g
    marginal = (abs(c0) < tol * abs_c1) | (abs(hopf) < 2.0 * tol * (abs_c1 + 4.0 * g * g))
    return (c0 > 0.0) & (hopf > 0.0), marginal


def solution_arrays(params: MediumParams, mech: Mechanism, omegas) -> SolutionArrays:
    """Every steady state at each drive of ``omegas`` (1-d), as arrays.

    One closed-form cubic solve over all drives, then effective parameters,
    coherence, residual and linear stability for every root at once.
    Drives that break :func:`check_drive` are rejected (ValueError).
    """
    omega = np.atleast_1d(np.asarray(omegas, dtype=float))
    _check_drives(omega)
    return _solve(params, zeta_total(params, mech), omega)[0]


def _check_drives(omega: np.ndarray) -> None:
    """:func:`check_drive` on the least and greatest drive (a NaN is both; 0 stands for none)."""
    for extreme in (omega.min(initial=0.0), omega.max(initial=0.0)):
        check_drive(float(extreme))


def _solve(medium, zeta, omega: np.ndarray):
    """(SolutionArrays, folds) of ``medium`` (or _Rows), of total coupling
    ``zeta``, at the checked 1-d drives ``omega``, with the exact folds of
    :func:`_fold_pair` from the same kernel call."""
    w, count, c, folds = _inversion_roots(medium, zeta, omega)
    residual = np.abs(_horner(c, w))
    drive = _per_root(omega)
    omega_eff, delta_eff = _effective(medium, drive, w)
    rho12 = coherence(w, omega_eff, delta_eff, medium.gamma)
    stable, marginal = _stability(medium, drive, w, rho12)
    return SolutionArrays(omega, count, w, rho12, omega_eff, delta_eff, residual,
                          stable, marginal), folds


def solve_inversion(params: MediumParams, mech: Mechanism) -> list[float]:
    """All inversion roots W in (0, 1], ascending and de-duplicated.

    With gamma > 0 the cubic always changes sign on [0, 1] (its value at 0
    is strictly negative and at 1 equals 2 omega^2), so at least one
    physical root exists for any valid parameter set.
    """
    roots, count, _, _ = _inversion_roots(
        params, zeta_total(params, mech), np.array([params.omega])
    )
    if count[0] == 0:
        raise _no_root_error(params, mech)
    return roots[0, : count[0]][::-1].tolist()


def effective_params(
    w: float, params: MediumParams, mech: Mechanism
) -> tuple[complex, float]:
    """Effective (omega_eff, delta_eff) at inversion w.

    detuning : delta_eff = delta - zeta_detuning * w, omega_eff = omega.
    lorentz  : delta_eff = delta; omega_eff solves the linear self-consistency
               omega_eff = omega + zeta_lorentz * rho12(omega_eff), where the
               coherence is linear in the drive at fixed w, so one division
               closes it.
    joint    : both substitutions, with the coherence evaluated at the
               shifted detuning.
    """
    validate_mechanism(params, mech)
    omega_eff, delta_eff = _effective(params, params.omega, np.array([float(w)]))
    return complex(omega_eff[0]), float(delta_eff[0])


def coherence(w: float, omega_eff: complex, delta_eff: float, gamma: float) -> complex:
    """Steady-state coherence <sigma+> of the master equation at fixed inversion.

    Setting the stationary off-diagonal Bloch equation
    (i delta_eff - gamma/2) rho12 = i omega_eff w to zero gives

        rho12 = omega_eff * w * (delta_eff - i gamma/2) / (delta_eff^2 + gamma^2/4).

    Works elementwise on numpy arrays as well; the real arithmetic below
    rounds as CPython's complex product and quotient do.
    """
    dd = delta_eff * delta_eff + 0.25 * gamma * gamma
    half = -0.5 * gamma
    x, y = omega_eff.real * w, omega_eff.imag * w
    return _complex((x * delta_eff - y * half) / dd, (x * half + y * delta_eff) / dd)


def stationary_state(omega_eff: complex, delta_eff: float, gamma: float) -> StationaryState:
    """Unique stationary density matrix for fixed effective parameters.

    This is the free-atom stationary state evaluated at the effective
    (possibly complex) drive and shifted detuning; the populations follow
    the saturation law and the coherence from :func:`coherence`.
    """
    dd = delta_eff * delta_eff + 0.25 * gamma * gamma
    w = dd / (2.0 * (abs(omega_eff) * abs(omega_eff)) + dd)
    r12 = coherence(w, omega_eff, delta_eff, gamma)
    return StationaryState(
        rho11=0.5 * (1.0 + w),
        rho12=r12,
        rho21=r12.conjugate(),
        rho22=0.5 * (1.0 - w),
        w=w,
    )


def rabi_relation_sq(w: float, params: MediumParams, mech: Mechanism) -> float:
    """|omega_eff|^2 from the closed identity

        |omega_eff|^2 = omega^2 (delta_eff^2 + gamma^2/4)
                        / ((delta_eff - zeta_lorentz w)^2 + gamma^2/4),

    where delta_eff is the detuning entering the master equation (the bare
    one for the pure local-field mechanism).
    """
    validate_mechanism(params, mech)
    g2_4 = 0.25 * (params.gamma * params.gamma)
    delta_eff = params.delta - params.zeta_detuning * w
    shifted = delta_eff - params.zeta_lorentz * w
    return params.omega * params.omega * (delta_eff * delta_eff + g2_4) / (shifted * shifted + g2_4)


def find_thresholds(params: MediumParams, mech: Mechanism) -> tuple[float, float] | None:
    """Fold drives (omega_up, omega_down) where the root count changes 1 <-> 3.

    Computed in closed form from the real roots in (0, 1) of the fold cubic
    2 zeta W (1 - W)(zeta W - delta) = (delta - zeta W)^2 + gamma^2/4, each
    mapped to its drive through omega^2(W); exact however narrow the
    window.  Returns None when the medium is monostable.
    """
    zeta = zeta_total(params, mech)
    roots, _ = _real_cubic_roots(np.array(_fold_cubic(params, zeta))[:, None])
    up, down = _fold_pair(params, zeta, roots)[:, 0].tolist()
    return None if up != up else (up, down)


# branch names by root count, "" past the last root
_BRANCH_NAMES = np.array([["", "", ""], ["lower", "", ""], ["lower", "upper", ""],
                          ["lower", "middle", "upper"]])


class ScanPoints(Sequence):
    """Read-only view of ``arrays``, one ScanPoint per drive, built when read;
    ``branches`` holds the (M, 3) branch names of the roots, "" past the last."""

    def __init__(self, arrays: SolutionArrays, branches: np.ndarray):
        self.arrays, self.branches = arrays, branches

    def __len__(self) -> int:
        return len(self.arrays.omega)

    def __getitem__(self, i) -> ScanPoint:
        i = range(len(self))[operator.index(i)]
        a = self.arrays
        return ScanPoint(a.omega[i].item(),
                         [_solution(a, self.branches, i, k) for k in range(a.count[i])])


def _solution(a: SolutionArrays, branches: np.ndarray, i: int, k: int) -> SteadyStateSolution:
    """Root k at drive i of ``a`` as a record, in Python scalars."""
    w = a.w.item(i, k)
    return SteadyStateSolution(w, 0.5 * (1.0 - w), a.rho12.item(i, k), a.omega_eff.item(i, k),
                               a.delta_eff.item(i, k), Branch(branches.item(i, k)),
                               a.stable.item(i, k), a.residual.item(i, k))


def _labeled(arr: SolutionArrays, omega_up: np.ndarray, stacklevel: int = 3) -> np.ndarray:
    """Branch names (M, 3) of the roots of ``arr``, "" past the last, warning
    once per marginal root (attributed ``stacklevel`` frames up: by default
    the caller's caller).  Three roots are lower/middle/upper and a merged
    pair lower/upper; a single root continues the upper branch at drives at
    or above ``omega_up`` (per drive or one; NaN: none) and the lower one otherwise."""
    names = _BRANCH_NAMES[arr.count]
    names[(arr.count == 1) & (arr.omega >= omega_up), 0] = "upper"
    for i, k in zip(*np.nonzero(arr.marginal)):
        om, w = arr.omega[i].item(), arr.w[i, k].item()
        warnings.warn(f"solution at omega={om}, w={w} is marginally stable",
                      MarginalStabilityWarning, stacklevel=stacklevel)
    return names


def _no_root_error(params: MediumParams, mech: Mechanism) -> NoPhysicalRootError:
    return NoPhysicalRootError(
        f"no inversion root in (0, 1] for coefficients {cubic_coefficients(params, mech)}"
    )


def solutions_at(params: MediumParams, mech: Mechanism) -> list[SteadyStateSolution]:
    """All steady-state solutions at ``params.omega``, ordered by ascending rho22.

    Three coexisting roots are labeled lower/middle/upper by excited
    population.  A single root is labeled by the exact folds, as in
    :func:`scan_hysteresis`: ``upper`` at or above the upper fold, where the
    surviving root continues the upper branch, ``lower`` otherwise.
    """
    arr, names = _at_drive(params, mech, params.omega)
    return ScanPoints(arr, names)[0].solutions


def _at_drive(params: MediumParams, mech: Mechanism,
              omega: float) -> tuple[SolutionArrays, np.ndarray]:
    """The roots at the checked drive ``omega`` and their branch names, for
    :func:`solutions_at` and :func:`branch_solution`; marginal roots warn at
    the caller of those."""
    arr, folds = _solve(params, zeta_total(params, mech), np.array([omega]))
    if arr.count[0] == 0:
        raise _no_root_error(replace(params, omega=omega), mech)
    return arr, _labeled(arr, folds[0], stacklevel=4)


def branch_solution(
    params: MediumParams,
    mech: Mechanism,
    branch: Branch,
    omega: float | None = None,
) -> SteadyStateSolution:
    """The solution on a given branch at ``omega`` (by default
    ``params.omega``), or BranchNotPresentError outside its window."""
    branch = Branch(branch)
    if omega is None:
        omega = params.omega
    else:  # the medium is checked; the drive is the one new value
        omega = float(omega)
        check_drive(omega)
    arr, names = _at_drive(params, mech, omega)
    row = names[0].tolist()
    if branch.value not in row:
        raise BranchNotPresentError(
            f"branch '{branch.value}' does not exist at omega={omega}"
        )
    return _solution(arr, names, 0, row.index(branch.value))


def scan_hysteresis(
    params: MediumParams, mech: Mechanism, omega_grid
) -> HysteresisScan:
    """Full solution sets over a drive grid, with branch labels and thresholds.

    Single-root points are labeled by the exact folds, whatever the grid
    covers: ``upper`` at or above the upper fold, ``lower`` otherwise.  The
    reported thresholds are the part of the bistable window inside the grid:
    None when the window lies outside it, and a fold beyond an end of the
    grid is clipped to that end with a ThresholdRangeWarning.  Solver
    failures at individual points are recorded as empty solution sets rather
    than aborting the scan, with one warning for the scan.
    """
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("omega_grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0.0):  # a NaN passes this, not the drive check
        raise ValueError("omega_grid must be strictly increasing")
    _check_drives(grid)

    arr, folds = _solve(params, zeta_total(params, mech), grid)
    lo, hi = float(grid[0]), float(grid[-1])
    up, down = folds[:, 0].tolist()
    omega_up = omega_down = None
    if up >= lo and down <= hi:
        omega_up, omega_down = min(up, hi), max(down, lo)
        for clipped, end, name in ((down < lo, "lower", "omega_down"),
                                   (up > hi, "upper", "omega_up")):
            if clipped:
                warnings.warn(f"bistable window touches the {end} end of the drive grid; "
                              f"{name} may lie outside it", ThresholdRangeWarning, stacklevel=2)
    points = ScanPoints(arr, _labeled(arr, folds[0]))
    rootless = arr.omega[arr.count == 0].tolist()
    if rootless:  # one warning per scan, worded at the first such drive
        error = _no_root_error(replace(params, omega=rootless[0]), mech)
        warnings.warn(f"solver failed at {len(rootless)} of {grid.size} drives, the first at "
                      f"omega={rootless[0]}: {error}", stacklevel=2)
    return HysteresisScan(points=points, omega_up=omega_up, omega_down=omega_down)
