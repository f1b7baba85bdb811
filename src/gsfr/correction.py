"""Sobolev-stable flux reconstruction correction functions.

The correction-function family is parameterized by the polynomial order p
and a weight vector ``iota = [iota_0, ..., iota_p]`` of the derivative
norm ``sum_i iota_i * integral (u^(i))^2 dxi``. The norm is the quadratic
form of one exact Gram matrix G = sum_i iota_i G_i, G_i[j][k] = integral
psi_j^(i) psi_k^(i) dxi (``_gram_block``), summed once per weight vector,
and the same matrix gives the correction functions: g_l solves
G g = -iota_0 psi(-1); the solve is singular exactly where det G = 0.
The left correction function h_l is the antiderivative of g_l with
h_l(1) = 0; a pair is h_l alone, and the reflection h_r(xi) = h_l(-xi)
and both gradients derive from it. Weight recovery ``recover_weights``
applies the same blocks to the gradient of a given h_l (whose order
gives p), the weights as unknowns. Both solves are exact: every float is
an integer ratio (binary-exact), each system is scaled to integers and
solved by fraction-free (Bareiss) elimination, so identical inputs give
bit-identical outputs, and a zero pivot is the exact verdict det = 0.
The one-parameter (OSFR) family is the weights [1, 0, ..., 0, iota], so
its map is weight recovery with the intermediate weights held at zero;
the kappa-matrix (ESFR) map is a closed form evaluated in floating
point, singular (a SingularSystemError) where that system is. Both
membership tests regenerate the function and compare within
MEMBERSHIP_TOL.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import inf, isfinite, lcm
from numbers import Rational
from typing import NamedTuple

import numpy as np

from .legendre import LegendreSeries, _derivative_coeffs, _Frozen, series_derivative

__all__ = [
    "CorrectionParams",
    "CorrectionPair",
    "StabilityBounds",
    "GsfrError",
    "NumericalFailure",
    "SingularSystemError",
    "UnsupportedOrderError",
    "DegenerateCoefficientError",
    "solve_correction",
    "sobolev_norm_squared",
    "sufficient_bounds",
    "osfr_iota",
    "esfr3_gradient",
    "esfr3_weights",
    "recover_weights",
    "MEMBERSHIP_TOL",
]

# Absolute tolerance of the OSFR/ESFR membership tests (per coefficient) and of the solve's endpoint values.
MEMBERSHIP_TOL = 1e-9


class GsfrError(Exception):
    """Base class of the package's errors; the CLI exits 1 on one unless it is a NumericalFailure."""


class NumericalFailure(GsfrError):
    """Base class of numerical failures (singular system, failed eigen-solve, blow-up, empty search); the CLI exits 2."""


class SingularSystemError(NumericalFailure):
    pass


class UnsupportedOrderError(GsfrError):
    pass


class DegenerateCoefficientError(GsfrError):
    pass


def _over_common_denominator(values) -> tuple[int, list[int]]:
    """(scale, nums) with values[k] = nums[k] / scale exactly, for floats and exact rationals alike.

    A rational (int, Fraction, numpy integer) gives its numerator and
    denominator as Python ints, so no product below wraps; anything else
    is read as a float, whose integer ratio is its exact binary value.
    """
    ratios = [
        (int(v.numerator), int(v.denominator)) if isinstance(v, Rational) else float(v).as_integer_ratio()
        for v in values
    ]
    scale = lcm(*(den for _, den in ratios))
    return scale, [num * (scale // den) for num, den in ratios]


def _ratio(num: int, den: int) -> float:
    """num / den rounded once to the nearest double (int / int does), over a positive denominator.

    The sign moves to the numerator first, as a Fraction normalises it:
    0 / -5 is -0.0, while 0 / 5 is 0.0; a ratio that underflows keeps its sign.
    """
    return num / den if den > 0 else -num / -den


class CorrectionParams(_Frozen):
    """Order p and derivative weights iota_0..iota_p (iota_0 > 0); equal, and hashed alike, when both are."""

    def __init__(self, p: int, iota):
        iota = tuple(iota)
        if not 2 <= p <= 5:
            raise UnsupportedOrderError(f"order p={p} outside supported range 2..5")
        if len(iota) != p + 1:
            raise ValueError(f"expected {p + 1} weights for p={p}, got {len(iota)}")
        try:
            values = [float(v) for v in iota]
        except OverflowError:  # an exact weight beyond the float range
            raise ValueError("weights must be finite, got one beyond the float range") from None
        if not all(isfinite(v) for v in values):
            raise ValueError(f"weights must be finite, got {values}")
        if values[0] <= 0:
            raise ValueError("iota_0 must be positive (it scales the L2 part of the norm)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "iota", iota)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.p, self.iota) == (other.p, other.iota)

    def __hash__(self):
        return hash((self.p, self.iota))

    @property
    def iota_array(self) -> np.ndarray:
        return np.array([float(v) for v in self.iota])

    @cached_property
    def _gram(self) -> tuple[int, list[list[int]]]:
        """The norm's Gram matrix G = sum_i iota_i G_i as (den, rows), G = rows / den exactly; summed on first use."""
        scale, weights = _over_common_denominator(self.iota)
        den, _ = _gram_block(self.p, 0)  # every block of order p has this denominator
        terms = [(w, _gram_block(self.p, i)[1]) for i, w in enumerate(weights) if w]
        size = self.p + 1
        rows = [[sum(w * block[j][k] for w, block in terms) for k in range(size)] for j in range(size)]
        return scale * den, rows


class CorrectionPair(_Frozen):
    """A left correction function h_l (order p+1); the right function and both gradients derive from it."""

    def __init__(self, h_l: LegendreSeries):
        object.__setattr__(self, "h_l", h_l)

    @property
    def p(self) -> int:
        return self.h_l.order - 1

    @cached_property
    def h_r(self) -> LegendreSeries:
        """The reflection h_r(xi) = h_l(-xi); + 0.0 writes a zero coefficient as 0.0, never -0.0."""
        return LegendreSeries(self.h_l.coeffs * (-1.0) ** np.arange(len(self.h_l.coeffs)) + 0.0)

    @cached_property
    def g_l(self) -> LegendreSeries:
        return self.h_l.derivative()

    @cached_property
    def g_r(self) -> LegendreSeries:
        return self.h_r.derivative()


class StabilityBounds(NamedTuple):
    """Componentwise lower bounds on iota with satisfaction flags."""

    lower: np.ndarray
    satisfied: bool
    margins: np.ndarray


def _solve_rational(rows: list[list[int]], rhs: list[int]) -> tuple[int, list[int]]:
    """Exact solution of the integer system rows . x = rhs, by fraction-free elimination, as (det, det * x).

    Bareiss elimination with partial (first-nonzero) pivoting: every
    update (a_rc a_kk - a_rk a_kc) divides exactly by the previous pivot,
    so all entries stay integers, and the last pivot is the determinant
    up to sign, so back substitution runs on det * x in integers too. A
    column without a nonzero pivot is the exact verdict det = 0, a
    SingularSystemError.
    """
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            raise SingularSystemError("correction system is singular (exact determinant 0)")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        top = aug[col]
        pivot = top[col]
        for r in range(col + 1, n):
            row = aug[r]
            lead = row[col]
            row[col + 1 :] = [(a * pivot - lead * b) // prev for a, b in zip(row[col + 1 :], top[col + 1 :])]
        prev = pivot
    det = prev
    scaled = [0] * n  # det * x
    for r in range(n - 1, -1, -1):
        row = aug[r]
        acc = det * row[n] - sum(row[c] * scaled[c] for c in range(r + 1, n))
        scaled[r] = acc // row[r]
    return det, scaled


def solve_correction(params: CorrectionParams) -> CorrectionPair:
    """Solve for the correction pair belonging to a weight vector.

    The left gradient g = h_l' solves G g = -iota_0 psi(-1), psi(-1) =
    [(-1)^m], on the norm's Gram matrix G (the norm-representer form of
    the stability conditions). Row and column 0 of G decouple (G[0][0] =
    2 iota_0, the rest of both is 0), so g_0 = -1/2, and rows 1..p are
    solved exactly. h_l is the antiderivative h_n = g_{n-1}/(2n-1) -
    g_{n+1}/(2n+3) with h_0 = -sum h_n, so h_l(1) = 0 and h_l(-1) =
    h_l(1) - integral g = 1; each coefficient is rounded to a double once.
    The rounded h_l meets h_l(-1) = 1 and h_l(1) = 0 to MEMBERSHIP_TOL,
    or the solve raises SingularSystemError: next to a singular vector
    the huge exact coefficients cancel there, and their doubles need not.
    """
    p = params.p
    den, gram = params._gram
    # iota_0 = gram[0][0] / (2 den): over den the right-hand side -iota_0 (-1)^m is -(-1)^m gram[0][0] / 2
    half = gram[0][0] // 2
    rhs = [(-1) ** (m + 1) * half for m in range(1, p + 1)]
    det, scaled = _solve_rational([row[1:] for row in gram[1:]], rhs)
    g = [-det] + [2 * v for v in scaled] + [0, 0]  # 2 det g, zero-padded above the top
    odd = lcm(*range(1, 2 * p + 4, 2))
    h = [0] + [g[n - 1] * (odd // (2 * n - 1)) - g[n + 1] * (odd // (2 * n + 3)) for n in range(1, p + 2)]
    h[0] = -sum(h)
    h_l = LegendreSeries(np.array([_ratio(v, 2 * odd * det) for v in h]))
    left, right = h_l(-1.0), h_l(1.0)
    if abs(left - 1.0) > MEMBERSHIP_TOL or abs(right) > MEMBERSHIP_TOL:
        raise SingularSystemError(f"the solve's h_l in doubles has h_l(-1) = {left:g}, h_l(1) = {right:g}; need 1 and 0")
    return CorrectionPair(h_l)


@cache
def _gram_block(p: int, i: int) -> tuple:
    """G_i of order p as (den, rows): G_i[j][k] = integral psi_j^(i) psi_k^(i) dxi = rows[j][k] / den, exact.

    Each entry is the mass-weighted inner product of the integer
    Legendre coefficients of d^i psi_j and d^i psi_k. den = lcm(1, 3,
    ..., 2p+1) clears every mass 2/(2k+1), so all blocks of one order
    share it.
    """
    den = lcm(*range(1, 2 * p + 2, 2))
    mass = [2 * den // (2 * j + 1) for j in range(p + 1)]
    derivs = [_derivative_coeffs(i, j) for j in range(p + 1)]
    return den, tuple(tuple(sum(w * x * y for w, x, y in zip(mass, a, b)) for b in derivs) for a in derivs)


def sobolev_norm_squared(params: CorrectionParams, u_tilde) -> float:
    """Weighted derivative norm sum_i iota_i * integral (u^(i))^2 dxi of a Legendre series, exactly.

    The quadratic form c^T G c of the coefficients c (zero-padded to
    p+1; a longer series is a ValueError) with the Gram matrix of the
    weights, in integers. A value beyond the float range is the
    correspondingly signed infinity.
    """
    coeffs = list(getattr(u_tilde, "coeffs", u_tilde))
    size = params.p + 1
    if len(coeffs) > size:
        raise ValueError(f"series has {len(coeffs)} coefficients, more than the p+1 = {size} of p={params.p}")
    scale, c = _over_common_denominator(coeffs + [0] * (size - len(coeffs)))
    den, gram = params._gram
    total = sum(cj * sum(g * ck for g, ck in zip(row, c)) for cj, row in zip(c, gram))
    try:
        return total / (den * scale * scale)  # int / int rounds the exact ratio once
    except OverflowError:  # beyond the float range
        return inf if total > 0 else -inf


# The bound on iota_i weighs each earlier iota_j by G_j[i][i], its u_i^2 factor in the norm, except
# these entries, which the published sum-of-squares split moves in part into cross terms.
_SPLIT = {(3, 1): 8, (4, 1): 11, (4, 2): 290}


def sufficient_bounds(params: CorrectionParams) -> StabilityBounds:
    """Componentwise sufficient lower bounds for norm positivity, p in {2,3,4}, decided exactly.

    Derived from expanding the weighted norm in Legendre coefficients:
    the bound on the last weight of each diagonal entry makes that entry
    positive, while the weights entering squared cross terms (iota_1 for
    p=3; iota_1, iota_2 for p=4) only need to be non-negative. Exceeding
    every bound is sufficient for positivity; violating one proves
    nothing (the condition is one-sided). At p=2, G is diagonal and the
    bounds are exactly its positive-definiteness. The verdict compares
    integers; each bound, the exact -sum_{j<i} w_j iota_j / G_i[i][i]
    (w_j = G_j[i][i] or its _SPLIT entry), is rounded once and finite
    (each row's weights over G_i[i][i] sum to less than 1/2); a margin
    beyond the float range is inf.
    """
    p = params.p
    if not 2 <= p <= 4:
        raise UnsupportedOrderError(f"sufficient bounds are only tabulated for p in 2..4, got p={p}")
    scale, nums = _over_common_denominator(params.iota)
    den = _gram_block(p, 0)[0]
    lower = [0.0] * (p + 1)
    ok = all(v >= 0 for v in nums[1 : p - 1])
    for i in (p - 1, p):
        weights = [_SPLIT[i, j] * den if (i, j) in _SPLIT else _gram_block(p, j)[1][i][i] for j in range(i + 1)]
        below = sum(w * v for w, v in zip(weights, nums[:i]))
        lower[i] = _ratio(-below, scale * weights[i])
        ok = ok and below + weights[i] * nums[i] > 0  # iota_i > lower_i, both sides times scale * weights[i] > 0
    margins = [float(value) - bound for value, bound in zip(params.iota, lower)]
    return StabilityBounds(lower=np.array(lower), satisfied=ok, margins=np.array(margins))


def _applied_blocks(h_l: LegendreSeries) -> list[list[int]]:
    """The interior rows of G g = -iota_0 psi(-1) per weight, for the gradient g = h' of h_l, exact.

    Returned as integer rows, all over one positive scale that the
    systems built from them do not see: rows[i] is (G_i g)[1..p] for
    i >= 1, and rows[0] holds the iota_0 terms
    (G_0 g)[m] - (h(1) - (-1)^m h(-1)), m = 1..p, whose boundary term is
    the right-hand side psi_m(-1) = (-1)^m once h(-1) = 1 and h(1) = 0.
    """
    _, h = _over_common_denominator(h_l.coeffs)
    p = len(h) - 2
    if not 2 <= p <= 5:
        raise UnsupportedOrderError(f"h_l of order {p + 1} is outside the supported orders 3..6")
    g = series_derivative(h)
    right, left = sum(h), sum((-1) ** n * c for n, c in enumerate(h))  # scale h(1), scale h(-1)
    den = _gram_block(p, 0)[0]
    applied = [[sum(a * b for a, b in zip(row, g)) for row in _gram_block(p, i)[1][1:]] for i in range(p + 1)]
    applied[0] = [v - den * (right - (-1) ** m * left) for m, v in enumerate(applied[0], 1)]
    return applied


def osfr_iota(h_l: LegendreSeries):
    """Recover the single-parameter iota reproducing h_l, or None.

    This is recover_weights with iota_1..iota_{p-1} held at zero: iota_p
    enters only the last interior row (G_p g is zero above it), so that
    row alone gives the candidate. Membership requires the solve of
    [1, 0, ..., 0, iota] to match every coefficient of h_l within
    MEMBERSHIP_TOL (a singular or refused solve is not a member). Returns None
    outside the one-parameter family. Like recover_weights it reads p
    from h_l and takes p in 2..5 only; other orders raise
    UnsupportedOrderError.
    """
    applied = _applied_blocks(h_l)
    p = len(applied) - 1
    if applied[p][-1] == 0:
        raise DegenerateCoefficientError("top Legendre coefficient of h_l vanishes")
    iota = _ratio(-applied[0][-1], applied[p][-1])
    try:
        rebuilt = solve_correction(CorrectionParams(p, [1.0] + [0.0] * (p - 1) + [iota]))
    except SingularSystemError:
        return None
    if np.max(np.abs(rebuilt.h_l.coeffs - h_l.coeffs)) > MEMBERSHIP_TOL:
        return None
    return iota


def esfr3_gradient(kappa0: float, kappa1: float) -> LegendreSeries:
    """Left-correction gradient of the p=3 kappa-matrix family."""
    upsilon = 175.0 * kappa1**2 - 42.0 * kappa0 - 12.0
    if upsilon == 0.0:
        raise SingularSystemError("upsilon = 175 k1^2 - 42 k0 - 12 vanishes")
    if 5.0 * kappa1 + 2.0 == 0.0:
        raise SingularSystemError("5 k1 + 2 vanishes")
    return LegendreSeries(
        -np.array(
            [
                0.5,
                3.0 * (21.0 * kappa0 + 35.0 * kappa1 + 6.0) / upsilon,
                5.0 / (5.0 * kappa1 + 2.0),
                21.0 * (5.0 * kappa1 + 2.0) / upsilon,
            ]
        )
    )


def esfr3_weights(g_l: LegendreSeries):
    """Recover (kappa0, kappa1) for a p=3 gradient, or None if not a member.

    kappa1 comes from the psi_2 coefficient and kappa0 from the psi_3
    coefficient; membership requires the regenerated gradient to match
    every coefficient within MEMBERSHIP_TOL.
    """
    g = np.asarray(g_l.coeffs, dtype=float)
    if len(g) != 4:
        raise ValueError(f"g_l must have order 3, got order {len(g) - 1}")
    for j in (2, 3):
        if abs(g[j]) < 1e-14:
            raise DegenerateCoefficientError(f"psi_{j} coefficient of g_l vanishes")
    kappa1 = -1.0 / g[2] - 0.4
    kappa0 = (175.0 * kappa1**2 * g[3] + 105.0 * kappa1 + 42.0 - 12.0 * g[3]) / (42.0 * g[3])
    try:
        rebuilt = esfr3_gradient(kappa0, kappa1)
    except SingularSystemError:
        return None
    if np.max(np.abs(rebuilt.coeffs - g)) > MEMBERSHIP_TOL:
        return None
    return kappa0, kappa1


def recover_weights(h_l: LegendreSeries) -> np.ndarray:
    """Invert a left correction function of order p+1 back to [1, iota_1..iota_p].

    With iota_0 = 1, rows 1..p of G g = -iota_0 psi(-1) with the weights
    as unknowns are the exact p x p system
    sum_{i>=1} iota_i (G_i g)[1..p] = -(G_0 g)[1..p] + (h(1) - (-1)^m h(-1)),
    g = h' for the coefficients h of h_l as integers over a common
    denominator. A singular system (h_l admits several weight vectors)
    raises DegenerateCoefficientError.
    """
    applied = _applied_blocks(h_l)
    p = len(applied) - 1
    rows = [[applied[i][r] for i in range(1, p + 1)] for r in range(p)]
    try:
        det, scaled = _solve_rational(rows, [-v for v in applied[0]])
    except SingularSystemError as exc:
        raise DegenerateCoefficientError(f"weight recovery is degenerate: {exc}") from None
    return np.array([1.0] + [_ratio(v, det) for v in scaled])
