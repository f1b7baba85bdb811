"""Closed forms that the exact Gram solve makes redundant, kept as test oracles.

The program builds the norm, its bounds and the solve from one Gram
matrix G = sum_i iota_i G_i: g_l solves G g = -iota_0 psi(-1); the solve
is singular exactly where det G = 0. These are the routes it replaced.

- ``correction_matrix``: the paper-form (p+2)x(p+2) system in the
  coefficients of h_l, summed entry by entry, weight by weight, from
  ``integral_dm_dm1`` and the endpoint term ``boundary_product`` (built
  on ``endpoint_derivative``), which integration by parts cancels. Its
  interior rows are the Gram rows of the gradient; criterion 1's golden
  forms and the Fraction-solve oracle read it.
- ``integral_dm_dm1``: the derivative-product integral as a
  mass-weighted inner product of series-rule coefficients;
  ``legendre_b`` and ``b_sum_integral``: the factorial double sum for
  the same integral.
- ``osfr_correction``: the one-parameter (OSFR) family's a_p/eta closed
  form (Vincent, Castonguay & Jameson, J. Sci. Comput. 2011), which the
  exact solve of [1, 0, ..., 0, iota] reproduces.
- ``reflected_pair``: all four series of a pair from exact left
  coefficients, the right function reflected in Fractions before
  rounding, which ``CorrectionPair``'s derivation from the rounded h_l
  replaces.
- ``fraction_solve``: Gaussian elimination in Fraction arithmetic, which
  the fraction-free integer elimination of ``solve_correction`` replaces.
- ``differentiating_norm``: the Sobolev norm by repeated series
  differentiation on every call, which the Gram quadratic form of
  ``sobolev_norm_squared`` replaces.

``_dpsi`` evaluates a derivative of psi_n at points, for the quadrature
oracles of test_legendre.py and the acceptance suite. ``mass_diagonal``
(the masses 2/(2j+1) as Fractions) and ``to_fraction`` (an exact
rational of a weight or coefficient) feed the Fraction oracles; the
program reads integer masses over a common denominator and converts its
inputs straight to integer ratios.
"""

from fractions import Fraction
from functools import cache
from math import factorial
from numbers import Rational
from typing import NamedTuple

import numpy as np
import numpy.polynomial.legendre as npleg

from gsfr.correction import SingularSystemError
from gsfr.legendre import LegendreSeries, _derivative_coeffs, series_derivative


def to_fraction(x) -> Fraction:
    """x as an exact Fraction: a rational as itself, anything else as the exact binary value of its double."""
    if isinstance(x, Rational):
        return Fraction(x)
    return Fraction(float(x))


def mass_diagonal(p: int) -> list[Fraction]:
    """Diagonal of the Legendre mass matrix: entry j is 2/(2j+1)."""
    if p < 0:
        raise ValueError("order must be non-negative")
    return [Fraction(2, 2 * j + 1) for j in range(p + 1)]


def _dpsi(order, n, xs):
    """d^order psi_n at the points xs, in floats, for quadrature against the exact integrals."""
    c = [0.0] * n + [1.0]
    for _ in range(order):
        c = series_derivative(c) if len(c) > 1 else [0.0]
    return npleg.legval(xs, c)


@cache
def integral_dm_dm1(m: int, n: int, k: int) -> Fraction:
    """Exact integral over [-1, 1] of (d^m psi_n/dxi^m)(d^{m+1} psi_k/dxi^{m+1}).

    The mass-weighted inner product of the two derivatives' Legendre
    coefficients; out-of-range derivative orders give 0.
    """
    a, b = _derivative_coeffs(m, n), _derivative_coeffs(m + 1, k)
    # by parity every product vanishes when n + k is even; skipping zeros saves most of the Fraction work
    return sum((w * (x * y) for w, x, y in zip(mass_diagonal(len(a) - 1), a, b) if x and y), Fraction(0))


def legendre_b(i: int, m: int, n: int) -> Fraction:
    """Coefficient b_i(m, n) of the derivative-product integral expansion.

    b_i(m, n) = (-1)^i (2(n-i))! / (2^n (n-m-2i)! (n-i)! i!), defined only
    for n - m - 2i >= 0.
    """
    if n - m - 2 * i < 0:
        raise ValueError(f"b_{i}({m}, {n}) undefined: n - m - 2i = {n - m - 2 * i} < 0")
    value = Fraction(
        factorial(2 * (n - i)),
        2**n * factorial(n - m - 2 * i) * factorial(n - i) * factorial(i),
    )
    return -value if i % 2 else value


def b_sum_integral(m: int, n: int, k: int) -> Fraction:
    """Integral over [-1, 1] of (d^m psi_n)(d^{m+1} psi_k), as the closed-form double sum over b_i.

    Sums with a negative upper limit are empty, so out-of-range
    derivative orders give 0.
    """
    total = Fraction(0)
    for i in range((n - m) // 2 + 1) if n - m >= 0 else ():
        b_i = legendre_b(i, m, n)
        for j in range((k - m - 1) // 2 + 1) if k - m - 1 >= 0 else ():
            s = n + k - 2 * (m + i + j)
            parity = 1 - (-1) ** s
            if parity == 0:
                continue
            total += Fraction(b_i * legendre_b(j, m + 1, k) * parity, s)
    return total


def endpoint_derivative(n: int, j: int, side: str) -> Fraction:
    """Exact n-th derivative of the degree-j Legendre polynomial at an endpoint.

    ``side`` is "left" (xi = -1) or "right" (xi = +1). For j < n the
    derivative vanishes and 0 is returned.
    """
    if n < 0 or j < 0:
        raise ValueError("orders must be non-negative")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if j < n:
        return Fraction(0)
    value = Fraction(factorial(j + n), 2**n * factorial(n) * factorial(j - n))
    if side == "left" and (j - n) % 2 == 1:
        value = -value
    return value


def boundary_product(i: int, n: int, m: int) -> Fraction:
    """[d^i psi_n * d^i psi_m] evaluated at +1 minus at -1, exact."""
    if i > n or i > m:
        return Fraction(0)
    right = endpoint_derivative(i, n, "right") * endpoint_derivative(i, m, "right")
    left = endpoint_derivative(i, n, "left") * endpoint_derivative(i, m, "left")
    return right - left


def correction_matrix(params) -> list[list[Fraction]]:
    """The paper-form (p+2)x(p+2) correction system in the coefficients of h_l, exact.

    Interior row m = 1..p sums, weight by weight, -iota_i / 2 times the
    integral of (d^i psi_n)(d^{i+1} psi_m) minus, for i >= 1, its
    endpoint term; the last two rows enforce h_l(1) = 0 and h_l(-1) = 1.
    """
    p = params.p
    iota = [to_fraction(v) for v in params.iota]
    mat = []
    for m in range(1, p + 1):
        row = []
        for n in range(p + 2):
            acc = Fraction(0)
            for i in range(p + 1):
                if iota[i] == 0:
                    continue
                acc += iota[i] * integral_dm_dm1(i, n, m)
                if i >= 1:
                    acc -= iota[i] * boundary_product(i, n, m)
            row.append(-acc / 2)
        mat.append(row)
    mat.append([Fraction(1)] * (p + 2))
    mat.append([Fraction(-1) ** n for n in range(p + 2)])
    return mat


class ExactPair(NamedTuple):
    h_l: LegendreSeries
    h_r: LegendreSeries
    g_l: LegendreSeries
    g_r: LegendreSeries


def reflected_pair(h_l: list[Fraction]) -> ExactPair:
    """The pair of exact left coefficients: h_r(xi) = h_l(-xi) reflected in Fractions, each function then rounded."""
    h_r = [(-1) ** i * c for i, c in enumerate(h_l)]
    hl = LegendreSeries(np.array([float(c) for c in h_l]))
    hr = LegendreSeries(np.array([float(c) for c in h_r]))
    return ExactPair(h_l=hl, h_r=hr, g_l=hl.derivative(), g_r=hr.derivative())


def osfr_correction(p: int, iota) -> ExactPair:
    """One-parameter stable correction pair (classical single-iota family).

    Raises ZeroDivisionError where 1 + eta_p vanishes.
    """
    iota = to_fraction(iota)
    a_p = Fraction(factorial(2 * p), 2**p * factorial(p) ** 2)
    eta = iota * (2 * p + 1) * (a_p * factorial(p)) ** 2
    sign = Fraction((-1) ** p, 2)
    h_l = [Fraction(0)] * (p + 2)
    h_l[p] = sign
    h_l[p - 1] = -sign * eta / (1 + eta)
    h_l[p + 1] = -sign / (1 + eta)
    return reflected_pair(h_l)


def fraction_solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination with partial (first-nonzero) pivoting, in Fraction arithmetic."""
    n = len(mat)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularSystemError("correction system is singular (exact determinant 0)")
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


def differentiating_norm(params, u_tilde) -> float:
    """sum_i iota_i * integral (u^(i))^2 dxi by repeated exact series differentiation and the weights 2/(2j+1).

    Takes a series of any length.
    """
    coeffs = getattr(u_tilde, "coeffs", u_tilde)
    level = [to_fraction(c) for c in coeffs]
    iota = [to_fraction(v) for v in params.iota]
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
