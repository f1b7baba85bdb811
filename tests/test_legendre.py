from fractions import Fraction

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from gsfr.legendre import (
    LegendreSeries,
    series_derivative,
)

from closed_forms import _dpsi, b_sum_integral, endpoint_derivative, integral_dm_dm1, legendre_b, mass_diagonal


def test_endpoint_derivative_examples():
    assert endpoint_derivative(0, 3, "right") == 1
    assert endpoint_derivative(1, 1, "left") == 1
    # psi_3'' = 15 xi, so 15 at the right endpoint
    assert endpoint_derivative(2, 3, "right") == 15
    assert endpoint_derivative(4, 3, "right") == 0  # derivative order above degree


def test_endpoint_derivative_matches_series_differentiation():
    for j in range(9):
        coeffs = [Fraction(0)] * j + [Fraction(1)]
        for n in range(j + 1):
            left = float(npleg.legval(-1.0, [float(c) for c in coeffs]))
            right = float(npleg.legval(1.0, [float(c) for c in coeffs]))
            assert float(endpoint_derivative(n, j, "left")) == pytest.approx(left, abs=1e-9)
            assert float(endpoint_derivative(n, j, "right")) == pytest.approx(right, abs=1e-9)
            coeffs = series_derivative(coeffs) if len(coeffs) > 1 else [Fraction(0)]


def test_legendre_b_examples():
    assert legendre_b(0, 0, 0) == 1
    assert legendre_b(0, 0, 1) == 1
    assert legendre_b(1, 0, 2) == Fraction(-1, 2)


def test_legendre_b_rejects_out_of_range():
    with pytest.raises(ValueError):
        legendre_b(2, 0, 1)


def test_integral_matches_b_sum_oracle():
    # all 729 triples m, n, k <= 8, equal as Fractions
    for m in range(9):
        for n in range(9):
            for k in range(9):
                assert integral_dm_dm1(m, n, k) == b_sum_integral(m, n, k), (m, n, k)


def test_integral_examples():
    assert integral_dm_dm1(0, 1, 0) == 0
    assert integral_dm_dm1(0, 0, 1) == 2
    # (d psi_2)(d^2 psi_3) = (3 xi)(15 xi), integral 30
    assert integral_dm_dm1(1, 2, 3) == 30


def test_integral_parity():
    # integrand parity is (-1)^(n+k-2m-1): the integral vanishes for n+k even
    for m in range(5):
        for n in range(7):
            for k in range(7):
                if (n + k) % 2 == 0:
                    assert integral_dm_dm1(m, n, k) == 0


def test_mass_matrix():
    assert mass_diagonal(0) == [Fraction(2)]
    assert mass_diagonal(2) == [Fraction(2), Fraction(2, 3), Fraction(2, 5)]


def test_mass_matrix_orthogonality_quadrature():
    xs, ws = npleg.leggauss(12)
    diag = mass_diagonal(8)
    for i in range(9):
        for j in range(9):
            quad = float(np.sum(ws * _dpsi(0, i, xs) * _dpsi(0, j, xs)))
            exact = float(diag[i]) if i == j else 0.0
            assert abs(quad - exact) < 1e-12


def test_series_derivative_examples():
    assert series_derivative([0, 1]) == [1]
    assert series_derivative([0, 0, 1]) == [0, 3]
    assert series_derivative([5.0]) == [0.0]


def test_series_derivative_finite_difference():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(6)
    series = LegendreSeries(coeffs)
    ds = series.derivative()
    xs = npleg.leggauss(8)[0]
    h = 1e-6
    fd = (series(xs + h) - series(xs - h)) / (2 * h)
    assert np.max(np.abs(ds(xs) - fd)) < 1e-8


def test_series_derivative_preserves_fractions():
    out = series_derivative([Fraction(0), Fraction(0), Fraction(1)])
    assert out == [Fraction(0), Fraction(3)]
    assert all(isinstance(v, Fraction) for v in out)
