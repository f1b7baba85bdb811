"""Sobolev-stable flux reconstruction correction functions.

The correction-function family is parameterized by the polynomial order p
and a weight vector ``iota = [iota_0, ..., iota_p]`` of the derivative
norm ``sum_i iota_i * integral (u^(i))^2 dxi``. Each weight vector yields
a (p+2)x(p+2) linear system whose solution is the left correction
function in the Legendre basis; the right function follows by parity.

The assembly, solve, and the recovery maps back to the classical
one-parameter (OSFR) and kappa-matrix (ESFR) families are all exact:
weights are embedded into Fraction (binary-exact for floats) and the
tiny systems are solved by rational Gaussian elimination, so identical
inputs give bit-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite
from numbers import Rational

import numpy as np

from .legendre import LegendreSeries, endpoint_derivative, integral_dm_dm1, mass_diagonal, series_derivative

__all__ = [
    "CorrectionParams",
    "CorrectionPair",
    "StabilityBounds",
    "GsfrError",
    "NumericalFailure",
    "SingularSystemError",
    "UnsupportedOrderError",
    "SingularEtaError",
    "SingularDenominatorError",
    "DegenerateCoefficientError",
    "correction_matrix",
    "solve_correction",
    "sobolev_norm_squared",
    "sufficient_bounds",
    "osfr_correction",
    "osfr_iota",
    "esfr3_gradient",
    "esfr3_weights",
    "recover_weights_p3",
    "pair_to_json",
    "pair_from_json",
    "MEMBERSHIP_TOL",
]

# Absolute per-coefficient tolerance for the OSFR/ESFR membership tests.
MEMBERSHIP_TOL = 1e-9


class GsfrError(Exception):
    """Base class of the package's errors; the CLI exits 1 on one unless it is a NumericalFailure."""


class NumericalFailure(GsfrError):
    """Base class of numerical failures (singular system, failed eigen-solve, blow-up, empty search); the CLI exits 2."""


class SingularSystemError(NumericalFailure):
    pass


class UnsupportedOrderError(GsfrError):
    pass


class SingularEtaError(NumericalFailure):
    pass


class SingularDenominatorError(NumericalFailure):
    pass


class DegenerateCoefficientError(GsfrError):
    pass


def _to_fraction(x) -> Fraction:
    # Fraction(float) is the exact binary value of the double, so the
    # rational path below is exact for every representable input.
    if isinstance(x, Rational):
        return Fraction(x)
    return Fraction(float(x))


@dataclass(frozen=True)
class CorrectionParams:
    """Order p and derivative weights iota_0..iota_p (iota_0 > 0)."""

    p: int
    iota: tuple

    def __init__(self, p: int, iota):
        iota = tuple(iota)
        if not 2 <= p <= 5:
            raise UnsupportedOrderError(f"order p={p} outside supported range 2..5")
        if len(iota) != p + 1:
            raise ValueError(f"expected {p + 1} weights for p={p}, got {len(iota)}")
        if not all(isfinite(float(v)) for v in iota):
            raise ValueError(f"weights must be finite, got {[float(v) for v in iota]}")
        if float(iota[0]) <= 0:
            raise ValueError("iota_0 must be positive (it scales the L2 part of the norm)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "iota", iota)

    @property
    def iota_fractions(self) -> list[Fraction]:
        return [_to_fraction(v) for v in self.iota]

    @property
    def iota_array(self) -> np.ndarray:
        return np.array([float(v) for v in self.iota])


@dataclass(frozen=True)
class CorrectionPair:
    """Left/right correction functions (order p+1) and their gradients."""

    h_l: LegendreSeries
    h_r: LegendreSeries
    g_l: LegendreSeries
    g_r: LegendreSeries

    @property
    def p(self) -> int:
        return self.h_l.order - 1


@dataclass(frozen=True)
class StabilityBounds:
    """Componentwise lower bounds on iota with satisfaction flags."""

    lower: np.ndarray
    satisfied: bool
    margins: np.ndarray


def _boundary_product(i: int, n: int, m: int) -> Fraction:
    """[d^i psi_n * d^i psi_m] evaluated at +1 minus at -1, exact."""
    if i > n or i > m:
        return Fraction(0)
    right = endpoint_derivative(i, n, "right") * endpoint_derivative(i, m, "right")
    left = endpoint_derivative(i, n, "left") * endpoint_derivative(i, m, "left")
    return right - left


def correction_matrix(params: CorrectionParams) -> list[list[Fraction]]:
    """Assemble the exact (p+2)x(p+2) correction-function system matrix.

    Rows 0..p-1 weigh the test orders m = 1..p: entry (m-1, n) combines
    the derivative-product integrals of psi_n against psi_m with the
    matching endpoint terms, summed over the norm weights. The raw
    combination evaluates to exactly -2x the conventional normalization,
    so interior rows carry a fixed -1/2 factor (row scaling does not
    change the solution; the factor pins the golden form). The last two
    rows enforce h_l(1) = 0 and h_l(-1) = 1.
    """
    p = params.p
    iota = params.iota_fractions
    size = p + 2
    mat: list[list[Fraction]] = []
    for m in range(1, p + 1):
        row = []
        for n in range(size):
            acc = Fraction(0)
            for i in range(p + 1):
                if iota[i] == 0:
                    continue
                acc += iota[i] * integral_dm_dm1(i, n, m)
                if i >= 1:
                    acc -= iota[i] * _boundary_product(i, n, m)
            row.append(-acc / 2)
        mat.append(row)
    mat.append([Fraction(1)] * size)
    mat.append([Fraction(-1) ** n for n in range(size)])
    return mat


def _solve_rational(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination with partial (first-nonzero) pivoting."""
    n = len(mat)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            cond = _condition_estimate(mat)
            raise SingularSystemError(
                f"correction system is singular (float condition estimate {cond:.3e})"
            )
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col] / pivot
            if factor:
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    sol = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = aug[r][n] - sum(aug[r][c] * sol[c] for c in range(r + 1, n))
        sol[r] = acc / aug[r][r]
    return sol


def _condition_estimate(mat) -> float:
    try:
        return float(np.linalg.cond(np.array([[float(v) for v in row] for row in mat])))
    except np.linalg.LinAlgError:
        return float("inf")


def solve_correction(params: CorrectionParams) -> CorrectionPair:
    """Solve for the correction pair belonging to a weight vector.

    The left coefficients solve the assembled system against the
    boundary-condition right-hand side [0, ..., 0, 1]; the right
    function is the parity reflection h_r(xi) = h_l(-xi).
    """
    mat = correction_matrix(params)
    rhs = [Fraction(0)] * (params.p + 1) + [Fraction(1)]
    return _reflected_pair(_solve_rational(mat, rhs))


def _reflected_pair(h_l: list[Fraction]) -> CorrectionPair:
    """Pair from exact left coefficients; the right function is h_r(xi) = h_l(-xi)."""
    h_r = [(-1) ** i * c for i, c in enumerate(h_l)]
    hl = LegendreSeries(np.array([float(c) for c in h_l]))
    hr = LegendreSeries(np.array([float(c) for c in h_r]))
    return CorrectionPair(h_l=hl, h_r=hr, g_l=hl.derivative(), g_r=hr.derivative())


def sobolev_norm_squared(params: CorrectionParams, u_tilde) -> float:
    """Weighted derivative norm of a Legendre series, exactly.

    Computes sum_i iota_i * integral (u^(i))^2 dxi by repeated exact
    series differentiation and the orthogonality weights 2/(2j+1).
    """
    coeffs = getattr(u_tilde, "coeffs", u_tilde)
    level = [_to_fraction(c) for c in coeffs]
    iota = params.iota_fractions
    total = Fraction(0)
    for i in range(params.p + 1):
        if iota[i] != 0:
            diag = mass_diagonal(len(level) - 1)
            total += iota[i] * sum(w * c * c for w, c in zip(diag, level))
        if len(level) > 1:
            level = series_derivative(level)
        else:
            level = [Fraction(0)]
    return float(total)


# Constant 2*((2i)!/(2^i i!))^2 multiplying iota_i in the u_i^2 entry of
# the expanded norm: 18 for i=2, 450 for i=3, 22050 for i=4.
def _top_weight(i: int) -> Fraction:
    c = Fraction(factorial(2 * i), 2**i * factorial(i))
    return 2 * c * c


# Row i holds the coefficients of iota_0..iota_{i-1} in the bound on iota_i,
# before the scale -1/_top_weight(i).
_BOUND_ROWS = {1: (2.0 / 3.0,), 2: (0.4, 6), 3: (2.0 / 7.0, 8, 150), 4: (2.0 / 9.0, 11, 290, 7350)}


def sufficient_bounds(params: CorrectionParams) -> StabilityBounds:
    """Componentwise sufficient lower bounds for norm positivity, p in {2,3,4}.

    Derived from expanding the weighted norm in Legendre coefficients:
    the bound on the last weight of each diagonal entry makes that entry
    positive, while the weights entering squared cross terms (iota_1 for
    p=3; iota_1, iota_2 for p=4) only need to be non-negative. Exceeding
    every bound is sufficient for positivity; violating one proves
    nothing (the condition is one-sided).
    """
    p = params.p
    if p not in _BOUND_ROWS:
        raise UnsupportedOrderError(f"sufficient bounds are only tabulated for p in 2..4, got p={p}")
    values = params.iota_array
    lower = np.zeros(p + 1)
    for i in (p - 1, p):
        row = _BOUND_ROWS[i]
        # summed left to right as first written, so each bound stays the same double
        acc = row[0] * values[0]
        for coeff, value in zip(row[1:], values[1:]):
            acc += coeff * value
        lower[i] = -float(1 / _top_weight(i)) * acc
    margins = values - lower
    ok = values[0] > 0.0
    for i in range(1, p + 1):
        ok = ok and (values[i] >= 0.0 if i <= p - 2 else values[i] > lower[i])
    return StabilityBounds(lower=lower, satisfied=bool(ok), margins=margins)


def osfr_correction(p: int, iota) -> CorrectionPair:
    """One-parameter stable correction pair (classical single-iota family)."""
    iota = _to_fraction(iota)
    a_p = Fraction(factorial(2 * p), 2**p * factorial(p) ** 2)
    eta = iota * (2 * p + 1) * (a_p * factorial(p)) ** 2
    if 1 + eta == 0:
        raise SingularEtaError(f"1 + eta_p vanishes for p={p}, iota={float(iota)}")
    sign = Fraction((-1) ** p, 2)
    h_l = [Fraction(0)] * (p + 2)
    h_l[p] = sign
    h_l[p - 1] = -sign * eta / (1 + eta)
    h_l[p + 1] = -sign / (1 + eta)
    return _reflected_pair(h_l)


def osfr_iota(p: int, h_l: LegendreSeries, tol: float = MEMBERSHIP_TOL):
    """Recover the single-parameter iota reproducing h_l, or None.

    The candidate comes from the top Legendre coefficient; membership
    requires the regenerated pair to match every coefficient within
    ``tol``. Returns None when h_l lies outside the one-parameter family.
    """
    coeffs = np.asarray(h_l.coeffs, dtype=float)
    if len(coeffs) != p + 2:
        raise ValueError(f"h_l must have order p+1={p + 1}, got order {len(coeffs) - 1}")
    top = coeffs[p + 1]
    if top == 0.0:
        raise DegenerateCoefficientError("top Legendre coefficient of h_l vanishes")
    a_p = factorial(2 * p) / (2**p * factorial(p) ** 2)
    scale = (2 * p + 1) * (a_p * factorial(p)) ** 2
    iota = ((-1) ** (p + 1) / (2.0 * top) - 1.0) / scale
    try:
        rebuilt = osfr_correction(p, iota)
    except SingularEtaError:
        return None
    if np.max(np.abs(rebuilt.h_l.coeffs - coeffs)) > tol:
        return None
    return iota


def esfr3_gradient(kappa0: float, kappa1: float) -> LegendreSeries:
    """Left-correction gradient of the p=3 kappa-matrix family."""
    upsilon = 175.0 * kappa1**2 - 42.0 * kappa0 - 12.0
    if upsilon == 0.0:
        raise SingularDenominatorError("upsilon = 175 k1^2 - 42 k0 - 12 vanishes")
    if 5.0 * kappa1 + 2.0 == 0.0:
        raise SingularDenominatorError("5 k1 + 2 vanishes")
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


def esfr3_weights(g_l: LegendreSeries, tol: float = MEMBERSHIP_TOL):
    """Recover (kappa0, kappa1) for a p=3 gradient, or None if not a member.

    kappa1 comes from the psi_2 coefficient and kappa0 from the psi_1
    coefficient; membership additionally requires the psi_3-coefficient
    consistency relation and a full regenerate-and-compare within ``tol``.
    """
    g = np.asarray(g_l.coeffs, dtype=float)
    if len(g) != 4:
        raise ValueError(f"g_l must have order 3, got order {len(g) - 1}")
    if abs(g[2]) < 1e-14:
        raise DegenerateCoefficientError("psi_2 coefficient of g_l vanishes")
    kappa1 = -(1.0 / g[2] + 0.4)
    denom1 = 42.0 * g[1] - 63.0
    numer1 = 175.0 * kappa1**2 * g[1] + 105.0 * kappa1 - 12.0 * g[1] + 18.0
    if abs(denom1) > 1e-12:
        kappa0 = numer1 / denom1
        if abs(g[3]) < 1e-14:
            raise DegenerateCoefficientError("psi_3 coefficient of g_l vanishes")
        lhs = (175.0 * kappa1**2 * g[3] + 105.0 * kappa1 + 42.0 - 12.0 * g[3]) / (42.0 * g[3])
        if abs(lhs - kappa0) > tol:
            return None
    else:
        # The psi_1 equation degenerates to a pure consistency constraint
        # (its kappa_0 factor vanishes, e.g. at nodal DG); kappa_0 then
        # comes from the psi_3 equation instead.
        if abs(numer1) > tol:
            return None
        if abs(g[3]) < 1e-14:
            raise DegenerateCoefficientError("psi_3 coefficient of g_l vanishes")
        kappa0 = (175.0 * kappa1**2 * g[3] + 105.0 * kappa1 + 42.0 - 12.0 * g[3]) / (42.0 * g[3])
    try:
        rebuilt = esfr3_gradient(kappa0, kappa1)
    except SingularDenominatorError:
        return None
    if np.max(np.abs(rebuilt.coeffs - g)) > tol:
        return None
    return kappa0, kappa1


def recover_weights_p3(h_l: LegendreSeries, tol: float = 1e-12) -> np.ndarray:
    """Invert a p=3 left correction function back to [1, iota_1..iota_3].

    Solves the lower-triangular system obtained by making the weights the
    unknowns of the correction equations (normalized to iota_0 = 1).
    Raises DegenerateCoefficientError when a pivot vanishes, which happens
    exactly when h_l admits several lower-order constructions.
    """
    h = np.asarray(h_l.coeffs, dtype=float)
    if len(h) != 5:
        raise ValueError(f"h_l must have order 4, got order {len(h) - 1}")
    piv1 = 3.0 * h[2] + 10.0 * h[4]
    piv2 = 45.0 * h[3]
    piv3 = 1575.0 * h[4]
    if min(abs(piv1), abs(piv2), abs(piv3)) < tol or abs(h[3]) < tol or abs(h[4]) < tol:
        raise DegenerateCoefficientError(
            "weight recovery is degenerate (a psi_3/psi_4 pivot vanishes)"
        )
    i1 = h[0] / piv1
    i2 = (h[1] - 15.0 * h[3] * i1) / piv2
    i3 = (h[0] + h[2] - (3.0 * h[2] + 45.0 * h[4]) * i1 - 525.0 * h[4] * i2) / piv3
    return np.array([1.0, i1, i2, i3])


def pair_to_json(params: CorrectionParams, pair: CorrectionPair) -> str:
    """Serialize p, the weights, and both correction functions."""
    doc = {
        "p": params.p,
        "iota": [float(v) for v in params.iota],
        "h_l": [float(c) for c in pair.h_l.coeffs],
        "h_r": [float(c) for c in pair.h_r.coeffs],
    }
    return json.dumps(doc, sort_keys=True)


def pair_from_json(text: str) -> tuple[CorrectionParams, CorrectionPair]:
    """Read what pair_to_json wrote; a missing or ill-typed field is a ValueError naming it."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"correction file holds a JSON {type(doc).__name__}, not an object")
    for name, kind in (("p", int), ("iota", list), ("h_l", list), ("h_r", list)):
        if not isinstance(doc.get(name), kind):
            raise ValueError(f"correction file field {name!r} is missing or not of type {kind.__name__}")
    params = CorrectionParams(doc["p"], doc["iota"])
    hl = LegendreSeries(np.array(doc["h_l"], dtype=float))
    hr = LegendreSeries(np.array(doc["h_r"], dtype=float))
    return params, CorrectionPair(h_l=hl, h_r=hr, g_l=hl.derivative(), g_r=hr.derivative())
