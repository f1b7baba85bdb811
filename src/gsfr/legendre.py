"""Legendre polynomial algebra on [-1, 1].

One rule carries all of the calculus: d psi_j/dxi = sum_{i = j-1, j-3,
...} (2i+1) psi_i (``series_derivative``) together with orthogonality,
integral psi_i psi_j = 2/(2j+1) if i = j and 0 otherwise
(``mass_diagonal``). The correction module's Gram blocks G_i are
mass-weighted inner products of the integer coefficient tuples of
derivatives (``_derivative_coeffs``): g_l solves G g = -iota_0 psi(-1);
the solve is singular exactly where det G = 0. Floating point enters
only when a series is evaluated or handed to the linear algebra layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np
import numpy.polynomial.legendre as npleg

__all__ = [
    "LegendreSeries",
    "mass_diagonal",
    "series_derivative",
]


@cache
def _derivative_coeffs(m: int, n: int) -> tuple[int, ...]:
    """Integer Legendre coefficients of d^m psi_n/dxi^m; (0,) once m > n."""
    coeffs = [0] * n + [1]
    for _ in range(m):
        coeffs = series_derivative(coeffs)
    return tuple(coeffs)


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
