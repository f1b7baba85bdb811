"""Legendre polynomial algebra on [-1, 1].

One rule carries all of the calculus: d psi_j/dxi = sum_{i = j-1, j-3,
...} (2i+1) psi_i (``series_derivative``) together with orthogonality,
integral psi_i psi_j = 2/(2j+1) if i = j and 0 otherwise. The correction
module's Gram blocks G_i, integers over a common denominator, are
mass-weighted inner products of the integer coefficient tuples of
derivatives (``_derivative_coeffs``): g_l solves G g = -iota_0 psi(-1);
the solve is singular exactly where det G = 0. Floating point enters
only when a series is evaluated or handed to the linear algebra layer.
"""

from __future__ import annotations

from functools import cache

import numpy as np
import numpy.polynomial.legendre as npleg

__all__ = [
    "LegendreSeries",
    "series_derivative",
]


class _Frozen:
    """Attributes are set once, in __init__ through object.__setattr__; setting or deleting one later raises."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


@cache
def _derivative_coeffs(m: int, n: int) -> tuple[int, ...]:
    """Integer Legendre coefficients of d^m psi_n/dxi^m; (0,) once m > n."""
    coeffs = [0] * n + [1]
    for _ in range(m):
        coeffs = series_derivative(coeffs)
    return tuple(coeffs)


def series_derivative(coeffs):
    """Differentiate a Legendre series given by its coefficient sequence.

    Works elementwise on whatever number type the coefficients carry
    (integers stay exact, floats stay float). Uses the expansion
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


class LegendreSeries(_Frozen):
    """Polynomial in the Legendre basis; ``coeffs[i]`` multiplies psi_i."""

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", np.atleast_1d(np.asarray(coeffs, dtype=float)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, xi):
        return npleg.legval(xi, self.coeffs)

    def derivative(self) -> "LegendreSeries":
        if self.order == 0:
            return LegendreSeries(np.zeros(1))
        return LegendreSeries(np.array(series_derivative(list(self.coeffs))))
