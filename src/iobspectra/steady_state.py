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

Its roots split (0, 1] into one piece per branch, which count, bracket,
name and classify the inversion roots: roots on the two falling pieces are
stable, on the rising middle one unstable, and a fold's double root marginal.
Both cubics are solved by one closed-form kernel that works row-wise on
numpy arrays, so a whole drive grid is solved, assembled and classified at
once.  It is elementwise in the medium too: rows of media, one per drive,
solve in one call, each row with the bits of its own one-medium call.

One medium at one drive (:func:`solutions_at`, :func:`branch_solution`) and
the fold drives of one medium (:func:`find_thresholds`) take the same steps
in Python floats, with the kernel's bits, since a (1, 3) array pays numpy's
call overhead about 150 times.  Where a drive is at a fold or within its
rounding band, or the kernel would leave the closed form, they hand the
call to the kernel, which bisects and warns there.
"""

from __future__ import annotations

import math
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
    stable    : all linearization eigenvalues have negative real part: not
                the middle branch's root, nor a fold's double root, where
                one eigenvalue is zero
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
    """Full solution sets over a drive grid, with the medium's fold drives or
    None (``points`` is a :class:`ScanPoints` view from :func:`scan_hysteresis`)."""

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
    marginal  : (M, 3) a fold's double root, with one zero eigenvalue
    branch    : (M, 3) branch names, "" past the last root
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
    branch: np.ndarray


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
    """((c3 w + c2) w + c1) w + c0 for a float ``w``, or for an array built
    in one new array."""
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


def _scalar_roots(coeffs):
    """:func:`_real_cubic_roots` of one cubic in Python floats, bit for bit:
    (roots, c), the polished roots of the cubic formula, unordered, and the
    normalized coefficients; None where the kernel leaves that formula (a
    cubic term below 1e-14) or meets a division by zero or the square root
    of a negative number.  It takes the kernel's operations in its order:
    + - * / and sqrt round alike in Python and numpy, while arccos, cos and
    the cube root stay numpy calls, whose loops differ from libm's."""
    scale = max(map(abs, coeffs))  # finite: core bounds every input
    try:
        c3, c2, c1, c0 = c = tuple(x / scale for x in coeffs)
        if abs(c3) < 1e-14:
            return None
        b, cc, d = c2 / c3, c1 / c3, c0 / c3
        shift = b / 3.0
        p = cc - b * b / 3.0
        q = (2.0 * b * b * b - 9.0 * b * cc) / 27.0 + d
        disc = 0.25 * q * q + p * p * p / 27.0
        if disc > 0.0:
            s = math.sqrt(disc)
            hi, lo = -0.5 * q + s, -0.5 * q - s
            a, z = (np.array([abs(hi), abs(lo)]) ** (1.0 / 3.0)).tolist()
            roots = [math.copysign(a, hi) + math.copysign(z, lo) - shift]
        elif p == 0.0:
            [a] = (np.array([abs(q)]) ** (1.0 / 3.0)).tolist()
            roots = [math.copysign(a, -q) - shift]
        else:
            m = 2.0 * math.sqrt(-p / 3.0)
            [phi] = np.arccos([min(1.0, max(-1.0, 3.0 * q / (p * m)))]).tolist()
            cosines = np.cos([(phi - k) / 3.0 for k in _TURNS.tolist()]).tolist()
            roots = [m * t - shift for t in cosines]
        polished = []
        for w in roots:  # _polish
            r = _horner(c, w)
            best_w, best_r = w, abs(r)
            for _ in range(3):
                w = w - r / ((3.0 * c3 * w + 2.0 * c2) * w + c1)
                r = _horner(c, w)
                if abs(r) < best_r:
                    best_w, best_r = w, abs(r)
            polished.append(best_w)
    except (ZeroDivisionError, ValueError):  # where the kernel's arrays turn inf or NaN
        return None
    return polished, c


def _fold_cubic(medium, zeta):
    """Coefficients of the fold cubic
    2 zeta^2 W^3 - zeta (zeta + 2 delta) W^2 + delta^2 + gamma^2/4."""
    delta = medium.delta
    return (2.0 * zeta * zeta, -zeta * (zeta + 2.0 * delta), 0.0 * zeta,  # rows: np.array stacks
            delta * delta + 0.25 * (medium.gamma * medium.gamma))


def _folds(medium, zeta, roots: np.ndarray):
    """Fold inversions W_f1 <= W_f2, (K, 2) and both 0 for a monostable
    medium, and fold drives (omega_up, omega_down), (2, K) and NaN for a
    monostable medium, from the fold cubics' ``roots`` (K, 3), rows of
    :func:`_real_cubic_roots`.  At most two roots lie in (0, 1): with c1 = 0
    and c3, c0 > 0 the cubic has one negative root."""
    w = np.sort(np.where((roots > 0.0) & (roots < 1.0), roots, np.nan), axis=1)[:, :2]
    w[np.isnan(w[:, 1])] = np.nan  # one root in (0, 1) is no pair
    q = np.square(medium.delta - zeta * w) + 0.25 * (medium.gamma * medium.gamma)
    omegas = np.sqrt((1.0 - w) * q / (2.0 * w))
    omegas.sort(axis=1)
    return np.fmax(w, 0.0), omegas.T[::-1]  # fmax takes 0 for NaN


def _scalar_folds(medium, zeta, roots):
    """:func:`_folds` of one medium in Python floats, bit for bit, from the
    roots of :func:`_scalar_roots`: [W_f1, W_f2] and [omega_up, omega_down]."""
    w = sorted(x for x in roots if 0.0 < x < 1.0)[:2]
    if len(w) < 2:
        return [0.0, 0.0], [math.nan, math.nan]
    omegas = []
    for x in w:
        y = medium.delta - zeta * x
        q = y * y + 0.25 * (medium.gamma * medium.gamma)
        omegas.append(math.sqrt((1.0 - x) * q / (2.0 * x)))
    return w, sorted(omegas, reverse=True)


def _cubic_at(c, w):
    """The cubic with normalized coefficients ``c`` at ``w`` in [0, 1], and
    whether it cannot be told from zero (NaN: False): within 8 eps
    sum |c_i| w^i, Horner's error (three multiply-adds, about 6 eps) and
    two roundings of the coefficients.  |p| is scaled by 1 / (8 eps) = 2^49,
    which is exact, so a medium scaled by a power of two tests alike."""
    p = _horner(c, w)
    return p, np.abs(p) * 2.0 ** 49 <= _horner(np.abs(c), w)


def _inversion_roots(medium, zeta, omega: np.ndarray):
    """Physical inversion roots W in (0, 1] at each drive, and the exact folds.

    One kernel call solves the inversion cubic at every drive and, as one
    more column per medium, the fold cubic, whose roots W_f1 <= W_f2 split
    (0, 1] into the lower (W_f2, 1], middle and upper (0, W_f1] pieces, on
    each of which omega^2(W) is monotone.  The inversion cubic p is
    2 W (omega^2 - omega^2(W)): p(W_f1) > 0, above the lower fold, puts a
    root in the upper piece, p(W_f2) < 0, below the upper fold, one in the
    lower piece, and both one in the middle piece; where p(W_f) cannot be
    told from zero (:func:`_cubic_at`) the drive is at a fold and W_f is a
    double root.  The closed-form roots stand where they are one per such
    piece and p at each is zero to rounding; other rows, and rows at a
    fold, are bisected in their pieces (:func:`_bisected`).

    The piece is the stability.  At a root, with y = delta - zeta W, the
    Routh-Hurwitz coefficients of ``dynamics._hurwitz`` are c0 = gamma C(W) / W,
    C the fold cubic, and 2 gamma c1 - c0 = c0 + gamma (2 (1 - W) y^2
    + (3 W + 1) gamma^2/2) / W: the falling pieces, where C > 0, are stable,
    the middle one is not, a fold's double root has a zero eigenvalue, and
    no branch has a Hopf point.

    Returns (roots, count, residual, upper, marginal, folds): roots as an
    (M, 3) array descending in W (ascending in rho22, the order of
    :class:`SolutionArrays`), NaN-padded; count the roots per drive; |p| at
    each root, normalized; upper (M,) whether the upper piece holds a root;
    marginal (M, 3) which root is a fold's double root; folds the drives
    of :func:`_folds`.
    """
    n = omega.size
    coeffs = np.empty((4, n + np.size(zeta), 1))  # (K, 1) columns, as the media's
    coeffs[0, :n], coeffs[1, :n], coeffs[2, :n], coeffs[3, :n] = _inversion_cubic(
        medium, zeta, omega[:, None])
    coeffs[0, n:], coeffs[1, n:], coeffs[2, n:], coeffs[3, n:] = _fold_cubic(medium, zeta)
    raw, c = _real_cubic_roots(coeffs[..., 0])
    fw, folds = _folds(medium, zeta, raw[n:])
    raw, c = raw[:n], c[:, :n]
    w = np.minimum(raw, 1.0)
    w[(raw <= 0.0) | (raw > 1.0 + 1e-9)] = np.nan
    w = -np.sort(-w, axis=1)  # the padding stays last
    count = (w == w).sum(axis=1)

    p, root = _cubic_at(c, w)
    at_w_f, at_fold = _cubic_at(c[..., 0], fw.T)  # (2, M)
    clear = ~at_fold
    upper, lower = (at_w_f[0] > 0.0) & clear[0], (at_w_f[1] < 0.0) & clear[1]
    (f1, f2), (w0, w1, w2), root = fw.T, w.T, root.T
    ok = (np.where(lower, w0 > f2, w0 <= f1) & root[0] & clear[0] & clear[1]
          & np.where(upper & lower, (w1 <= f2) & (w1 > f1) & (w2 <= f1) & root[1] & root[2],
                     w1 != w1))
    residual = np.abs(p)
    marginal = np.zeros(w.shape, bool)
    if not ok.all():
        # c0 = 0: delta^2 + gamma^2/4 underflowed, the closed form stands and
        # W = 0, no fold, is the upper piece's root, lost
        lost = ~ok & (c[3, :, 0] == 0.0)
        upper &= ~lost
        bad = np.flatnonzero(~ok & ~lost)
        w[bad], marginal[bad] = _bisected(c[:, bad, 0], np.broadcast_to(fw, (n, 2))[bad],
                                          upper[bad], lower[bad], at_fold.T[bad])
        count[bad] = (w[bad] == w[bad]).sum(axis=1)
        residual[bad] = np.abs(_horner(c[:, bad], w[bad]))
    return w, count, residual, upper, marginal, folds


def _bisected(c, fw, upper, lower, at_fold) -> tuple[np.ndarray, np.ndarray]:
    """Roots (S, 3), descending in W and NaN-padded, of the normalized cubics
    ``c`` (4, S) with fold inversions ``fw`` (S, 2), as in
    :func:`_inversion_roots`.  The candidates, descending, are the lower
    piece's root, the double root W_f2, the middle piece's root, W_f1 and
    the upper piece's root; ``lower``, ``at_fold`` (S, 2) and ``upper`` say
    which exist.  Bisection halves the bit pattern, which orders
    nonnegative doubles, so 64 steps close any bracket in [0, 1] on two
    adjacent doubles; the one where |p| is smaller is the root.  Also
    returns which of the roots is a fold's double root, (S, 3)."""
    f1, f2 = fw[:, :1], fw[:, 1:]
    lo = np.hstack([f2, f2, f1, f1, np.zeros_like(f1)]).view(np.int64)
    hi = np.hstack([np.ones_like(f1), f2, f2, f1, f1]).view(np.int64)
    rises = np.array([True, True, False, True, True])  # does p rise through each
    c = c[..., None]
    for _ in range(64):
        mid = (lo + hi) >> 1
        above = (_horner(c, mid.view(float)) < 0.0) == rises  # the root lies above mid
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    lo, hi = lo.view(float), hi.view(float)
    w = np.where(np.abs(_horner(c, lo)) < np.abs(_horner(c, hi)), lo, hi)
    found = np.stack([lower, at_fold[:, 1], upper & lower, at_fold[:, 0], upper], axis=1)
    w = -np.sort(-np.where(found, w, np.nan), axis=1)[:, :3]
    return w, (w == f2) & at_fold[:, 1:] | (w == f1) & at_fold[:, :1]


def _complex(re, im):
    """re + i im without the rounding or signed-zero changes of complex arithmetic."""
    if isinstance(re, float) and isinstance(im, float) or np.ndim(re) == 0 and np.ndim(im) == 0:
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
    with np.errstate(divide="ignore", invalid="ignore"):  # dd is 0 where it underflows
        f_re = 1.0 - a * delta_eff / dd
        f_im = a * (0.5 * g) / dd
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
    ``zeta``, at the checked 1-d drives ``omega``, from one kernel call:
    branch and stable by :data:`_BRANCH_NAMES`, but a fold's double root is
    not stable, and folds the drives of :func:`_folds`."""
    w, count, residual, upper, marginal, folds = _inversion_roots(medium, zeta, omega)
    drive = _per_root(omega)
    omega_eff, delta_eff = _effective(medium, drive, w)
    rho12 = coherence(w, omega_eff, delta_eff, medium.gamma)
    kind = count, upper.view(np.int8)  # an index: numpy reads a bool array as a mask
    return SolutionArrays(omega, count, w, rho12, omega_eff, delta_eff, residual,
                          _STABLE[kind] & ~marginal, marginal, _BRANCH_NAMES[kind]), folds


def _one_drive(medium, zeta, omega: float) -> list[SteadyStateSolution] | None:
    """The records of :func:`_solve` at one drive, computed in Python floats
    with the kernel's operations in its order, so bit for bit; or None where
    the kernel decides more than the closed form: the ``ok`` test of
    :func:`_inversion_roots` fails (no root, a fold drive or its rounding
    band), :func:`_scalar_roots` hands a cubic over, or a division is by
    zero.  The kernel pays about 150 numpy calls on (1, 3) arrays here."""
    solved = _scalar_roots(_inversion_cubic(medium, zeta, omega))
    fold = _scalar_roots(_fold_cubic(medium, zeta))
    if solved is None or fold is None:
        return None
    (raw, c), ((f1, f2), _) = solved, _scalar_folds(medium, zeta, fold[0])
    w = sorted((min(x, 1.0) for x in raw if 0.0 < x <= 1.0 + 1e-9), reverse=True)
    n, xs, c_abs = len(w), w + [f1, f2], [abs(x) for x in c]
    p = [_horner(c, x) for x in xs]  # _cubic_at at the roots and the fold inversions
    tight = [abs(v) * 2.0 ** 49 <= _horner(c_abs, x) for v, x in zip(p, xs)]
    upper, lower = p[n] > 0.0 and not tight[n], p[n + 1] < 0.0 and not tight[n + 1]
    ok = (n > 0 and (w[0] > f2 if lower else w[0] <= f1) and tight[0]
          and not (tight[n] or tight[n + 1])
          and (n == 3 and f2 >= w[1] > f1 >= w[2] and tight[1] and tight[2]
               if upper and lower else n == 1))
    if not ok:
        return None
    kind, g, zl = (n, int(upper)), medium.gamma, medium.zeta_lorentz
    solutions = []
    try:
        for x, r, name, stable in zip(w, p, _BRANCH_NAMES[kind].tolist(), _STABLE[kind].tolist()):
            delta_eff = medium.delta - medium.zeta_detuning * x
            if zl == 0.0:
                omega_eff = complex(omega + 0.0 * x, 0.0 * x)
            else:  # _effective's Smith division by the larger part of f
                dd = delta_eff * delta_eff + 0.25 * g * g
                f_re, f_im = 1.0 - zl * x * delta_eff / dd, zl * x * (0.5 * g) / dd
                if abs(f_re) < abs(f_im):
                    ratio = f_re / f_im
                    denom = f_re * ratio + f_im
                    re, im = (omega * ratio + 0.0) / denom, (0.0 * ratio - omega) / denom
                else:
                    ratio = f_im / f_re
                    denom = f_re + f_im * ratio
                    re, im = (omega + 0.0 * ratio) / denom, (0.0 - omega * ratio) / denom
                omega_eff = complex(re, im)
            solutions.append(SteadyStateSolution(
                x, 0.5 * (1.0 - x), coherence(x, omega_eff, delta_eff, g), omega_eff, delta_eff,
                Branch(name), stable, abs(r)))
    except ZeroDivisionError:
        return None
    return solutions


def solve_inversion(params: MediumParams, mech: Mechanism) -> list[float]:
    """All inversion roots W in (0, 1], ascending and de-duplicated.

    With gamma > 0 the cubic always changes sign on [0, 1] (its value at 0
    is strictly negative and at 1 equals 2 omega^2), so at least one
    physical root exists for any valid parameter set.
    """
    arr = solution_arrays(params, mech, [params.omega])
    if arr.count[0] == 0:
        raise _no_root_error(params, mech)
    return arr.w[0, : arr.count[0]][::-1].tolist()


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
    coeffs = _fold_cubic(params, zeta)
    solved = _scalar_roots(coeffs)
    if solved is None:
        roots, _ = _real_cubic_roots(np.array(coeffs)[:, None])
        up, down = _folds(params, zeta, roots)[1][:, 0].tolist()
    else:
        up, down = _scalar_folds(params, zeta, solved[0])[1]
    return None if up != up else (up, down)


# Branch names, "" past the last root, and stability by root count and whether
# the upper piece holds a root.  A lone root is upper on the upper piece and
# lower otherwise.  The second of two is the upper piece's root, or else the
# lower fold's double root or, where c0 = 0, the unstable middle piece's root.
_BRANCH_NAMES = np.array([[["", "", ""]] * 2, [["lower", "", ""], ["upper", "", ""]],
                          [["lower", "upper", ""]] * 2, [["lower", "middle", "upper"]] * 2])
_STABLE = (_BRANCH_NAMES != "") & (_BRANCH_NAMES != "middle")
_STABLE[2, 0, 1] = False


class ScanPoints(Sequence):
    """Read-only view of ``arrays``, one ScanPoint per drive, built when read."""

    def __init__(self, arrays: SolutionArrays):
        self.arrays = arrays

    def __len__(self) -> int:
        return len(self.arrays.omega)

    def __getitem__(self, i) -> ScanPoint:
        i, a = range(len(self))[operator.index(i)], self.arrays
        return ScanPoint(a.omega[i].item(), [_solution(a, i, k) for k in range(a.count[i])])


def _solution(a: SolutionArrays, i: int, k: int) -> SteadyStateSolution:
    """Root k at drive i of ``a`` as a record, in Python scalars."""
    w = a.w.item(i, k)
    return SteadyStateSolution(w, 0.5 * (1.0 - w), a.rho12.item(i, k), a.omega_eff.item(i, k),
                               a.delta_eff.item(i, k), Branch(a.branch.item(i, k)),
                               a.stable.item(i, k), a.residual.item(i, k))


def _warn_marginal(arr: SolutionArrays, stacklevel: int = 3) -> None:
    """Warn once per marginal root of ``arr``, attributed ``stacklevel``
    frames up: by default the caller's caller."""
    for i, k in zip(*np.nonzero(arr.marginal)):
        om, w = arr.omega[i].item(), arr.w[i, k].item()
        warnings.warn(f"solution at omega={om}, w={w} is marginally stable",
                      MarginalStabilityWarning, stacklevel=stacklevel)


def _no_root_error(params: MediumParams, mech: Mechanism) -> NoPhysicalRootError:
    return NoPhysicalRootError(
        f"no inversion root in (0, 1] for coefficients {cubic_coefficients(params, mech)}"
    )


def solutions_at(params: MediumParams, mech: Mechanism) -> list[SteadyStateSolution]:
    """All steady-state solutions at ``params.omega``, ordered by ascending rho22.

    Three coexisting roots are labeled lower/middle/upper by excited
    population.  A single root is labeled by its fold piece, as in
    :func:`scan_hysteresis`: ``upper`` above the upper fold, where the
    surviving root continues the upper branch, ``lower`` otherwise.
    """
    return _at_drive(params, mech, params.omega)


def _at_drive(params: MediumParams, mech: Mechanism, omega: float) -> list[SteadyStateSolution]:
    """The solutions at the checked drive ``omega``, for :func:`solutions_at`
    and :func:`branch_solution`: those of :func:`_one_drive`, or else of the
    kernel, whose marginal roots warn at the caller of those."""
    zeta = zeta_total(params, mech)
    solutions = _one_drive(params, zeta, omega)
    if solutions is not None:
        return solutions
    arr, _ = _solve(params, zeta, np.array([omega]))
    if arr.count[0] == 0:
        raise _no_root_error(replace(params, omega=omega), mech)
    _warn_marginal(arr, stacklevel=4)
    return ScanPoints(arr)[0].solutions


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
    for sol in _at_drive(params, mech, omega):
        if sol.branch is branch:
            return sol
    raise BranchNotPresentError(f"branch '{branch.value}' does not exist at omega={omega}")


def scan_hysteresis(
    params: MediumParams, mech: Mechanism, omega_grid
) -> HysteresisScan:
    """Full solution sets over a drive grid, with branch labels and thresholds.

    Single-root points are labeled by their fold piece, whatever the grid
    covers: ``upper`` above the upper fold, ``lower`` otherwise.  The
    thresholds are the medium's, those of :func:`find_thresholds` bit for
    bit, whatever the grid covers.  Solver failures at individual points are
    recorded as empty solution sets rather than aborting the scan, with one
    warning for the scan.
    """
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("omega_grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0.0):  # a NaN passes this, not the drive check
        raise ValueError("omega_grid must be strictly increasing")
    _check_drives(grid)

    arr, folds = _solve(params, zeta_total(params, mech), grid)
    omega_up, omega_down = (None, None) if np.isnan(folds[0, 0]) else folds[:, 0].tolist()
    _warn_marginal(arr)
    rootless = arr.omega[arr.count == 0].tolist()
    if rootless:  # one warning per scan, worded at the first such drive
        error = _no_root_error(replace(params, omega=rootless[0]), mech)
        warnings.warn(f"solver failed at {len(rootless)} of {grid.size} drives, the first at "
                      f"omega={rootless[0]}: {error}", stacklevel=2)
    return HysteresisScan(points=ScanPoints(arr), omega_up=omega_up, omega_down=omega_down)
