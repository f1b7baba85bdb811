"""Legendre polynomial algebra on [-1, 1].

Everything combinatorial (derivative-product integrals, the mass
diagonal) is computed in exact rational arithmetic with
:class:`fractions.Fraction`; factorials up to roughly (2p+2)! appear
and would overflow fixed-width integers. Floating point enters only
when a series is evaluated or handed to the linear algebra layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np
import numpy.polynomial.legendre as npleg

__all__ = [
    "LegendreSeries",
    "legendre_b",
    "integral_dm_dm1",
    "mass_diagonal",
    "series_derivative",
]


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


def integral_dm_dm1(m: int, n: int, k: int) -> Fraction:
    """Exact integral over [-1, 1] of (d^m psi_n/dxi^m)(d^{m+1} psi_k/dxi^{m+1}).

    Closed-form double sum over b_i coefficients; sums with a negative
    upper limit are empty, so out-of-range derivative orders give 0.
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


def mass_diagonal(p: int) -> list[Fraction]:
    """Diagonal of the Legendre mass matrix: entry j is 2/(2j+1)."""
    if p < 0:
        raise ValueError("order must be non-negative")
    return [Fraction(2, 2 * j + 1) for j in range(p + 1)]


def series_derivative(coeffs):
    """Differentiate a Legendre series given by its coefficient sequence.

    Works elementwise on whatever number type the coefficients carry
    (Fraction stays exact, float stays float). Uses the expansion
    d psi_j / dxi = sum_{i = j-1, j-3, ...} (2i+1) psi_i. A constant
    series maps to the zero series of order 0.
    """
    order = len(coeffs) - 1
    if order <= 0:
        return [0 * c for c in coeffs[:1]] or [0]
    out = [coeffs[0] * 0 for _ in range(order)]
    for j in range(1, order + 1):
        for i in range(j - 1, -1, -2):
            out[i] = out[i] + (2 * i + 1) * coeffs[j]
    return out


@dataclass(frozen=True)
class LegendreSeries:
    """Polynomial in the Legendre basis; ``coeffs[i]`` multiplies psi_i."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, xi):
        return npleg.legval(xi, self.coeffs)

    def derivative(self) -> "LegendreSeries":
        if self.order == 0:
            return LegendreSeries(np.zeros(1))
        return LegendreSeries(np.array(series_derivative(list(self.coeffs))))
