"""Closed forms that the exact correction system makes redundant, kept as test oracles.

- ``endpoint_derivative`` and ``boundary_product``: the endpoint term of
  the raw per-weight blocks, which integration by parts cancels;
  ``triple_loop_matrix`` in test_correction.py sums the blocks in that
  raw form.
- ``osfr_correction``: the one-parameter (OSFR) family's a_p/eta closed
  form (Vincent, Castonguay & Jameson, J. Sci. Comput. 2011), which the
  exact solve of [1, 0, ..., 0, iota] reproduces.
- ``fraction_solve``: Gaussian elimination in Fraction arithmetic, which
  the fraction-free integer elimination of ``solve_correction`` replaces.
"""

from fractions import Fraction
from math import factorial

from gsfr.correction import (
    CorrectionPair,
    SingularSystemError,
    _condition_estimate,
    _reflected_pair,
    _to_fraction,
)


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


def osfr_correction(p: int, iota) -> CorrectionPair:
    """One-parameter stable correction pair (classical single-iota family).

    Raises ZeroDivisionError where 1 + eta_p vanishes.
    """
    iota = _to_fraction(iota)
    a_p = Fraction(factorial(2 * p), 2**p * factorial(p) ** 2)
    eta = iota * (2 * p + 1) * (a_p * factorial(p)) ** 2
    sign = Fraction((-1) ** p, 2)
    h_l = [Fraction(0)] * (p + 2)
    h_l[p] = sign
    h_l[p - 1] = -sign * eta / (1 + eta)
    h_l[p + 1] = -sign / (1 + eta)
    return _reflected_pair(h_l)


def fraction_solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination with partial (first-nonzero) pivoting, in Fraction arithmetic."""
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
