import pickle
import random
import re
import struct
import warnings
from fractions import Fraction as F
from itertools import permutations
from math import factorial, prod

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from gsfr.correction import (
    _SPLIT,
    _gram_block,
    CorrectionPair,
    CorrectionParams,
    DegenerateCoefficientError,
    MEMBERSHIP_TOL,
    SingularSystemError,
    UnsupportedOrderError,
    _ratio,
    esfr3_gradient,
    esfr3_weights,
    osfr_iota,
    recover_weights,
    sobolev_norm_squared,
    solve_correction,
    sufficient_bounds,
)
from gsfr.experiments import default_search_grid, step_limit
from gsfr.legendre import LegendreSeries, series_derivative
from gsfr.spectral import PUBLISHED_STEP_LIMITS

from closed_forms import (
    BOUND_ROWS,
    BOUND_TOPS,
    correction_matrix,
    differentiating_norm,
    exact_bound,
    fraction_solve,
    osfr_correction,
    reflected_pair,
    to_fraction,
)


def coefficient_matrices(p):
    """Per-weight coefficient matrices of the paper-form oracle: M(iota) = sum_i iota_i * C_i on interior rows."""
    size = p + 2
    base = correction_matrix(CorrectionParams(p, [F(1)] + [F(0)] * p))
    out = [base]
    for i in range(1, p + 1):
        unit = [F(1)] + [F(0)] * p
        unit[i] = F(1)
        with_i = correction_matrix(CorrectionParams(p, unit))
        out.append([[with_i[r][c] - base[r][c] for c in range(size)] for r in range(size)])
    return out


# hand-copied golden forms: entry -> coefficients of [iota_0, ..., iota_p]
GOLDEN_P2 = {
    (0, 0): [-1, 0, 0],
    (0, 2): [0, 3, 0],
    (1, 1): [-1, 0, 0],
    (1, 3): [0, 15, 45],
}

GOLDEN_P3 = {
    (0, 0): [-1, 0, 0, 0],
    (0, 2): [0, 3, 0, 0],
    (0, 4): [0, 10, 0, 0],
    (1, 1): [-1, 0, 0, 0],
    (1, 3): [0, 15, 45, 0],
    (2, 0): [-1, 0, 0, 0],
    (2, 2): [-1, 3, 0, 0],
    (2, 4): [0, 45, 525, 1575],
}

# what the published p=4 matrix shows, including its internal inconsistencies
GOLDEN_P4_AS_PUBLISHED = {
    (0, 0): [1, 0, 0, 0, 0],
    (0, 2): [0, 3, 0, 0, 0],
    (0, 4): [0, 10, 0, 0, 0],
    (1, 1): [1, 0, 0, 0, 0],
    (1, 3): [0, 15, 45, 0, 0],
    (1, 5): [0, 42, 315, 0, 0],
    (2, 0): [1, 0, 0, 0, 0],
    (2, 2): [1, 3, 0, 0, 0],
    (2, 4): [0, 45, 525, 1575, 0],
    (3, 1): [1, 0, 0, 0, 0],
    (3, 3): [-1, 15, 150, 0, 0],
    (3, 5): [0, 105, 3255, -6615, 99225],
}

# entries where the published p=4 matrix disagrees with the assembler:
# the isolated iota_0 signs, and the iota_3 coefficient of entry (3, 5)
P4_IOTA0_SIGN_ENTRIES = {(0, 0), (1, 1), (2, 0), (2, 2), (3, 1)}
P4_OTHER_DEVIATIONS = {(3, 5)}


def _check_golden(p, golden):
    mats = coefficient_matrices(p)
    deviations = []
    for r in range(p):
        for c in range(p + 2):
            assembled = [mats[i][r][c] for i in range(p + 1)]
            expected = [F(v) for v in golden.get((r, c), [0] * (p + 1))]
            if assembled != expected:
                deviations.append(((r, c), assembled, expected))
    return deviations


def test_golden_matrix_p4_known_deviations():
    # the published p=4 matrix flips the sign of the isolated iota_0
    # entries relative to its own p=2/p=3 forms, and its (3, 5) entry
    # carries -6615 iota_3 where the assembly gives +33075 iota_3
    deviations = _check_golden(4, GOLDEN_P4_AS_PUBLISHED)
    found = {pos for pos, _, _ in deviations}
    assert found == P4_IOTA0_SIGN_ENTRIES | P4_OTHER_DEVIATIONS
    for pos, assembled, published in deviations:
        if pos in P4_IOTA0_SIGN_ENTRIES:
            assert assembled[0] == -published[0]
            assert assembled[1:] == published[1:]
        else:
            assert pos == (3, 5)
            assert assembled == [F(0), F(105), F(3255), F(33075), F(99225)]


def derivative_matrix(p):
    """The integer (p+1)x(p+2) matrix D with g = D h: column n holds the series derivative of psi_n."""
    cols = [series_derivative([0] * n + [1]) for n in range(p + 2)]
    return [[col[k] if k < len(col) else 0 for col in cols] for k in range(p + 1)]


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_interior_rows_are_gram_rows_of_the_gradient(p):
    # the oracle's per-weight interior rows are 1/2 (G_i D)[1..p] for i >= 1 and, by parts,
    # -1/2 (D^T G_0)[1..p] for i = 0 (zero in the psi_{p+1} column): the system is G g = -iota_0 psi(-1)
    d = derivative_matrix(p)
    blocks = coefficient_matrices(p)
    for i in range(p + 1):
        den, rows = _gram_block(p, i)
        gram = [[F(v, den) for v in row] for row in rows]
        if i:
            expected = [[sum(gram[m][k] * d[k][n] for k in range(p + 1)) / 2 for n in range(p + 2)] for m in range(1, p + 1)]
        else:
            expected = [
                [-sum(d[k][m] * gram[k][n] for k in range(p + 1)) / 2 for n in range(p + 1)] + [F(0)]
                for m in range(1, p + 1)
            ]
        assert blocks[i][:p] == expected, i


def exact_gram(params):
    """G = sum_i iota_i G_i as Fractions, from the integer blocks."""
    p = params.p
    blocks = [_gram_block(p, i) for i in range(p + 1)]
    return [
        [sum(F(w) * F(rows[j][k], den) for w, (den, rows) in zip(params.iota, blocks)) for k in range(p + 1)]
        for j in range(p + 1)
    ]


def leibniz_determinant(mat):
    """Exact determinant as the signed sum over permutations, independent of any elimination."""
    n = len(mat)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(mat[i][perm[i]] for i in range(n))
    return total


def _osfr_singular_iota(p):
    """The weight iota_p at which 1 + eta_p of the one-parameter family vanishes."""
    return F(-1, (2 * p + 1) * (factorial(2 * p) // (2**p * factorial(p))) ** 2)


SINGULAR_WEIGHTS = [
    [1, F(1, 10), F(-1, 18)],
    [1, F(-1, 3), 5],
    [1, F(1, 10), 0, F(-131, 40950)],
    [1, F(1, 10), F(-1, 18), F(1, 100)],
] + [[1] + [0] * (p - 1) + [_osfr_singular_iota(p)] for p in (2, 3, 4, 5)]


@pytest.mark.parametrize("iota", SINGULAR_WEIGHTS, ids=["p2-a", "p2-b", "p3-a", "p3-b", "p2-osfr", "p3-osfr", "p4-osfr", "p5-osfr"])
def test_solve_is_singular_where_the_gram_matrix_is(iota):
    params = CorrectionParams(len(iota) - 1, iota)
    for mat in (exact_gram(params), correction_matrix(params)):
        with pytest.raises(SingularSystemError):
            fraction_solve(mat, [F(0)] * len(mat))
    with pytest.raises(SingularSystemError):
        solve_correction(params)


def test_boundary_condition_rows():
    mat = correction_matrix(CorrectionParams(3, [1, 0.2, 0.3, 0.4]))
    assert mat[3] == [F(1)] * 5
    assert mat[4] == [F(1), F(-1), F(1), F(-1), F(1)]


def test_assembled_example_p2():
    mat = correction_matrix(CorrectionParams(2, [F(1), F(2), F(3)]))
    expected = [
        [F(-1), F(0), F(6), F(0)],
        [F(0), F(-1), F(0), F(165)],
        [F(1), F(1), F(1), F(1)],
        [F(1), F(-1), F(1), F(-1)],
    ]
    assert mat == expected


def test_params_validation():
    with pytest.raises(UnsupportedOrderError):
        CorrectionParams(1, [1, 0])
    with pytest.raises(ValueError):
        CorrectionParams(3, [1, 0, 0])
    with pytest.raises(ValueError):
        CorrectionParams(3, [0, 0, 0, 0])


@pytest.mark.parametrize(
    "params",
    # the Gram rows 1..p are exactly singular where 45 iota_2 + 1 or 1575 iota_3 + 1 vanishes, and in a coupled p=3 case
    [
        CorrectionParams(2, [1, 0, F(-1, 45)]),
        CorrectionParams(3, [1, 0, 0, F(-1, 1575)]),
        CorrectionParams(3, [1, F(1, 10), 0, F(-131, 40950)]),
    ],
    ids=["p2", "p3", "p3-coupled"],
)
def test_singular_system_reports_exact_determinant(params):
    # a zero pivot of the exact elimination is the verdict: the Gram rows and columns 1..p have determinant 0
    gram = [row[1:] for row in exact_gram(params)[1:]]
    assert leibniz_determinant(gram) == 0
    with pytest.raises(SingularSystemError) as caught:
        solve_correction(params)
    assert str(caught.value) == "correction system is singular (exact determinant 0)"


def _oracle_vectors():
    """Seeded weight vectors for p = 2..5: zero, negative and 1e-5..10 weights, iota_0 != 1, singular points, row swaps."""
    rng = np.random.default_rng(17)
    for p in (2, 3, 4, 5):
        singular = _osfr_singular_iota(p)
        for scale in (1, 3, F(1, 7)):
            yield CorrectionParams(p, [scale] + [0] * (p - 1) + [scale * singular])
        yield CorrectionParams(p, [1.0] + [0.0] * (p - 1) + [float(singular)])
        for _ in range(500):
            iota_0 = 1.0 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-5, 1))
            kind = rng.integers(0, 3, p)  # zero, positive, negative
            weights = np.where(kind == 2, -1.0, 1.0) * (kind > 0) * 10.0 ** rng.uniform(-5, 1, p)
            yield CorrectionParams(p, [iota_0] + weights.tolist())
    # iota_0 + 3 iota_1 = 0 makes G[1][1] = 0 exactly, so the eliminator swaps rows
    for iota in ([3, -1, 0, 0.01], [3, -1, 0, 0.01, 0.001], [3, -1, 0, 0.01, 0.001, 1e-4]):
        yield CorrectionParams(len(iota) - 1, iota)


def test_integer_elimination_matches_fraction_oracle():
    singular = refused = recovered = 0
    blocks_by_order = {p: coefficient_matrices(p) for p in (2, 3, 4, 5)}
    for params in _oracle_vectors():
        p = params.p
        try:
            expected = fraction_solve(correction_matrix(params), [F(0)] * (p + 1) + [F(1)])
        except SingularSystemError as exc:
            # singular together, with the one exact message
            singular += 1
            with pytest.raises(SingularSystemError, match=re.escape(str(exc))):
                solve_correction(params)
            continue
        coeffs = [float(v) for v in expected]
        left, right = npleg.legval(-1.0, coeffs), npleg.legval(1.0, coeffs)
        if abs(left - 1.0) > MEMBERSHIP_TOL or abs(right) > MEMBERSHIP_TOL:
            # the doubles of the exact h_l miss its endpoints (the float OSFR-singular weight): the solve refuses them
            refused += 1
            with pytest.raises(SingularSystemError) as caught:
                solve_correction(params)
            message = f"the solve's h_l in doubles has h_l(-1) = {left:g}, h_l(1) = {right:g}; need 1 and 0"
            assert str(caught.value) == message, params
            recovered += 1  # the weight-recovery sample of every later vector stays as it was
            continue
        h_l = solve_correction(params).h_l
        assert h_l.coeffs.tolist() == coeffs, params
        if recovered % 10 == 0:
            # weight recovery: the oracle's blocks, applied to the float coefficients, with the weights as unknowns
            blocks = blocks_by_order[p]
            h = [F(c) for c in h_l.coeffs]
            applied = [[sum(b * c for b, c in zip(block[r], h)) for r in range(p)] for block in blocks]
            mat = [[applied[i][r] for i in range(1, p + 1)] for r in range(p)]
            try:
                weights = fraction_solve(mat, [-v for v in applied[0]])
            except SingularSystemError as exc:
                with pytest.raises(DegenerateCoefficientError) as caught:
                    recover_weights(h_l)
                assert str(caught.value) == f"weight recovery is degenerate: {exc}", params
            else:
                assert recover_weights(h_l).tolist() == [1.0] + [float(w) for w in weights], params
        recovered += 1
    assert singular >= 12 and refused == 4


def test_solve_dg_p2():
    pair = solve_correction(CorrectionParams(2, [1, 0, 0]))
    assert np.allclose(pair.h_l.coeffs, [0, 0, 0.5, -0.5], atol=0)


def test_solve_boundary_conditions_and_symmetry():
    xi = np.linspace(-1.0, 1.0, 50)
    for p in (2, 3, 4, 5):
        pair = solve_correction(CorrectionParams(p, [1] + [0.01] * p))
        assert pair.h_l(-1.0) == pytest.approx(1.0, abs=1e-10)
        assert pair.h_l(1.0) == pytest.approx(0.0, abs=1e-10)
        assert pair.h_r(-1.0) == pytest.approx(0.0, abs=1e-10)
        assert pair.h_r(1.0) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(pair.h_l(xi) - pair.h_r(-xi))) < 1e-10


def test_osfr_subset_identity():
    for p in (2, 3, 4):
        for iota in (0, F(1, 1000), F(1, 100), F(1, 10)):
            weights = [1] + [0] * (p - 1) + [iota]
            gsfr = solve_correction(CorrectionParams(p, weights))
            osfr = osfr_correction(p, iota)
            assert np.max(np.abs(gsfr.h_l.coeffs - osfr.h_l.coeffs)) < 1e-11


def test_collapse_to_single_function_at_plain_l2_weights():
    for p in (2, 3, 4):
        pair = solve_correction(CorrectionParams(p, [1] + [0] * p))
        dg = osfr_correction(p, 0)
        assert np.max(np.abs(pair.h_l.coeffs - dg.h_l.coeffs)) < 1e-14


def test_osfr_huynh_g2_value():
    # iota = 4/4725 at p=3 gives eta_3 = 4/3: known closed-form coefficients
    pair = osfr_correction(3, F(4, 4725))
    assert np.allclose(pair.h_l.coeffs, [0, 0, 2 / 7, -0.5, 3 / 14], atol=1e-15)


def test_osfr_singular_eta():
    # eta_3 = 1575 iota, so iota = -1/1575 degenerates: the exact system is singular there
    with pytest.raises(SingularSystemError):
        solve_correction(CorrectionParams(3, [1, 0, 0, F(-1, 1575)]))


def test_osfr_iota_round_trip():
    assert osfr_iota(osfr_correction(3, 0.01).h_l) == pytest.approx(0.01, abs=1e-10)
    assert osfr_iota(osfr_correction(3, 0).h_l) == pytest.approx(0.0, abs=1e-12)
    # the typed weight comes back within one rounding, down to 1e-15, and it is the weight recover_weights finds
    for p in (2, 3, 4, 5):
        for iota in (1e-15, 1e-12, 1e-9, 1e-6, 1e-2, 1e6):
            h_l = solve_correction(CorrectionParams(p, [1.0] + [0.0] * (p - 1) + [iota])).h_l
            recovered = osfr_iota(h_l)
            assert abs(recovered - iota) <= 2.2e-16 * iota, (p, iota)
            assert recovered == recover_weights(h_l)[p]


def test_osfr_iota_degenerate_top_coefficient():
    with pytest.raises(DegenerateCoefficientError):
        osfr_iota(LegendreSeries(np.array([0.0, 0.0, 0.25, -0.5, 0.0])))


def test_osfr_iota_unsupported_order():
    # p = 1 nodal DG: osfr_iota reads p from h_l and the exact blocks, which exist for p in 2..5 only
    with pytest.raises(UnsupportedOrderError):
        osfr_iota(LegendreSeries(np.array([0.0, 0.5, -0.5])))


def test_esfr3_gradient_nodal_dg():
    grad = esfr3_gradient(0.0, 0.0)
    assert np.allclose(grad.coeffs, [-0.5, 1.5, -2.5, 3.5], atol=1e-15)
    dg = solve_correction(CorrectionParams(3, [1, 0, 0, 0]))
    assert np.max(np.abs(grad.coeffs - dg.g_l.coeffs)) < 1e-14


def test_esfr3_gradient_leading_coefficient():
    for k0, k1 in ((0.3, 0.1), (-0.05, 0.4), (0.0, 1.0)):
        assert esfr3_gradient(k0, k1).coeffs[0] == -0.5


@pytest.mark.parametrize(
    "k0,k1,message",
    [(-2 / 7, 0.0, "upsilon = 175 k1^2 - 42 k0 - 12 vanishes"), (0.0, -0.4, "5 k1 + 2 vanishes")],
    ids=["upsilon", "5k1+2"],
)
def test_esfr3_gradient_refuses_each_vanishing_denominator(k0, k1, message):
    # both are exactly 0.0 in doubles: 42 * (-2/7) = -12 and 5 * -0.4 = -2
    with pytest.raises(SingularSystemError, match=re.escape(message)):
        esfr3_gradient(k0, k1)


def test_esfr3_round_trip():
    k0, k1 = esfr3_weights(esfr3_gradient(0.1, 0.2))
    assert k0 == pytest.approx(0.1, abs=1e-9)
    assert k1 == pytest.approx(0.2, abs=1e-9)


def test_esfr3_dg_membership():
    dg = solve_correction(CorrectionParams(3, [1, 0, 0, 0]))
    k0, k1 = esfr3_weights(dg.g_l)
    assert abs(k0) < 1e-12 and abs(k1) < 1e-12


def test_esfr_members_embed_exactly():
    # integrate an ESFR gradient to its correction function, recover the
    # derivative-norm weights, and re-solve: the family must contain it
    for k0, k1 in ((0.1, 0.2), (0.0, 0.05), (-0.01, 0.03)):
        grad = esfr3_gradient(k0, k1)
        coeffs = npleg.legint(grad.coeffs)
        coeffs[0] += 1.0 - npleg.legval(-1.0, coeffs)
        h_l = LegendreSeries(coeffs)
        weights = recover_weights(h_l)
        pair = solve_correction(CorrectionParams(3, weights))
        assert np.max(np.abs(pair.h_l.coeffs - h_l.coeffs)) < 1e-12


def test_recover_weights_osfr_embedding():
    for iota in (1e-3, 1e-2, 1e-1):
        weights = recover_weights(osfr_correction(3, iota).h_l)
        assert np.allclose(weights, [1, 0, 0, iota], atol=1e-12)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_recover_weights_round_trip_every_order(p):
    rng = np.random.default_rng(p)
    for _ in range(20):
        weights = [1.0] + list(10.0 ** rng.uniform(-5, -1, p))
        recovered = recover_weights(solve_correction(CorrectionParams(p, weights)).h_l)
        assert np.max(np.abs(recovered - weights) / np.array(weights)) < 1e-10
    dg = recover_weights(solve_correction(CorrectionParams(p, [1] + [0] * p)).h_l)
    assert dg.tolist() == [1.0] + [0.0] * p and not np.signbit(dg).any()


def test_recover_weights_degenerate_pivot():
    # vanishing top coefficient kills the last pivot
    bad = LegendreSeries(np.array([0.1, -0.2, 0.3, -0.7, 0.0]))
    with pytest.raises(DegenerateCoefficientError):
        recover_weights(bad)


def test_norm_trivial_values():
    p3 = CorrectionParams(3, [1, 0, 0, 0])
    assert sobolev_norm_squared(p3, [1, 0, 0, 0]) == pytest.approx(2.0, abs=0)
    assert sobolev_norm_squared(p3, [0, 1, 1, 0]) == pytest.approx(2 / 3 + 2 / 5, abs=1e-15)


def test_norm_closed_form_p3():
    # expanded quadratic form; the u3^2 weight of iota_3 is
    # 2*(d^3 psi_3)^2 = 450 (a published 255 does not match its own p=4 form)
    rng = np.random.default_rng(3)
    for _ in range(25):
        i0 = 1.0
        i1, i2, i3 = rng.uniform(-0.02, 0.2, 3)
        u0, u1, u2, u3 = rng.standard_normal(4)
        value = sobolev_norm_squared(CorrectionParams(3, [i0, i1, i2, i3]), [u0, u1, u2, u3])
        closed = (
            2 * i0 * u0**2
            + (2 / 3 * i0 + i1) * u1**2
            + (2 / 5 * i0 + 6 * i1 + 18 * i2) * u2**2
            + (2 / 7 * i0 + 8 * i1 + 150 * i2 + 450 * i3) * u3**2
            + i1 * (u1 + 2 * u3) ** 2
        )
        assert value == pytest.approx(closed, abs=1e-10)


def test_norm_quadrature_oracle():
    xs, ws = npleg.leggauss(12)
    rng = np.random.default_rng(11)
    for p in (2, 3, 4, 5):
        for _ in range(30):
            iota = [1.0] + list(rng.uniform(-0.005, 0.2, p))
            u = rng.standard_normal(p + 1)
            params = CorrectionParams(p, iota)
            quad = 0.0
            coeffs = list(u)
            for i in range(p + 1):
                quad += iota[i] * float(np.sum(ws * npleg.legval(xs, coeffs) ** 2))
                coeffs = series_derivative(coeffs) if len(coeffs) > 1 else [0.0]
            assert sobolev_norm_squared(params, u) == pytest.approx(quad, abs=1e-9)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_norm_matches_the_differentiating_loop(p):
    # the Gram quadratic form rounds the same exact rational once, so it returns the loop's doubles bit for bit
    rng = np.random.default_rng(p)
    cases = [(CorrectionParams(p, [1] + [0] * p), [1])]
    for _ in range(100):
        signed = rng.choice([-1.0, 1.0], p) * 10 ** rng.uniform(-12, 300, p)
        iota = [10 ** rng.uniform(-3, 300)] + list(np.where(rng.random(p) < 0.3, 0.0, signed))
        u = rng.standard_normal(p + 1) * 10 ** rng.uniform(-3, 3, p + 1)
        params = CorrectionParams(p, iota)
        cases += [(params, u), (params, LegendreSeries(u)), (params, list(u[: rng.integers(1, p + 2)]))]
    for iota in ([1, 1e308, -1e308], [1, 0, 1e308, -1e308], [1, 1e308, 0, -1e308]):
        if len(iota) == p + 1:
            cases.append((CorrectionParams(p, iota), [0] * p + [1e-200]))
    for params, u in cases:
        assert sobolev_norm_squared(params, u) == differentiating_norm(params, u)


def test_norm_pads_a_short_series_and_rejects_a_long_one():
    dg3 = CorrectionParams(3, [1, 0, 0, 0])
    assert sobolev_norm_squared(dg3, [1]) == 2.0
    assert sobolev_norm_squared(dg3, [0, 1]) == sobolev_norm_squared(dg3, [0, 1, 0, 0])
    with pytest.raises(ValueError, match="series has 6 coefficients, more than the p\\+1 = 4 of p=3"):
        sobolev_norm_squared(dg3, [1, 2, 3, 4, 5, 6])


def test_norm_beyond_the_float_range_is_a_signed_infinity():
    assert sobolev_norm_squared(CorrectionParams(2, [1e300, 0, 0]), [1e10]) == np.inf
    assert sobolev_norm_squared(CorrectionParams(2, [1, -1e308, 0]), [0, 1e10]) == -np.inf


def sample_inside_bounds(p, rng):
    """Random weight vector strictly inside the sufficient bounds."""
    iota = [1.0]
    for i in range(1, p + 1):
        iota.append(0.0)
        probe = iota + [0.0] * (p - i)
        lower = sufficient_bounds(CorrectionParams(p, probe)).lower[i]
        if lower == 0.0:
            iota[i] = rng.uniform(1e-6, 0.1)
        else:
            iota[i] = lower + rng.uniform(0.05, 1.0) * abs(lower) + rng.uniform(0.0, 0.1)
    return iota


def test_sufficient_bounds_examples():
    dg3 = sufficient_bounds(CorrectionParams(3, [1, 0, 0, 0]))
    assert dg3.satisfied
    assert dg3.margins[2] == pytest.approx((2 / 5) / 18, abs=1e-15)
    assert dg3.margins[3] == pytest.approx((2 / 7) / 450, abs=1e-15)
    assert not sufficient_bounds(CorrectionParams(3, [1, -0.1, 0, 0])).satisfied
    # a negative iota_1 at p=2 pushes the iota_2 lower bound positive
    raised = sufficient_bounds(CorrectionParams(2, [1, -0.3, 0]))
    assert raised.lower[1] == pytest.approx(-1 / 3, abs=1e-15)
    assert raised.lower[2] > 0 and not raised.satisfied
    assert sufficient_bounds(CorrectionParams(2, [1, -0.3, 0.5])).satisfied
    # ...and the unsatisfied point is genuinely indefinite
    assert sobolev_norm_squared(CorrectionParams(2, [1, -0.3, 0]), [0, 0, 1]) < 0


def test_sufficient_bounds_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        sufficient_bounds(CorrectionParams(5, [1, 0, 0, 0, 0, 0]))


def test_violating_bounds_is_not_asserted_indefinite():
    # one-sided check only: this point violates the iota_1 >= 0 bound but
    # its quadratic form is still positive definite (an ESFR member)
    params = CorrectionParams(3, [1.0, -0.01718821, 0.00739607, -0.00204501])
    assert not sufficient_bounds(params).satisfied
    rng = np.random.default_rng(17)
    for _ in range(200):
        u = rng.standard_normal(4)
        assert sobolev_norm_squared(params, u) > 0.0


def test_overflowing_bound_is_not_met():
    # a bound row whose terms are beyond the float range is still a finite bound (its weights over
    # G_i[i][i] sum to less than 1/2); the last weight is below it, so it is not met and there is no
    # step limit: these three norms are indefinite
    for iota in ([1, 1e308, -1e308], [1, 0, 1e308, -1e308], [1, 1e308, 0, -1e308]):
        params = CorrectionParams(len(iota) - 1, iota)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = sufficient_bounds(params)
            assert step_limit(params) is None
        assert not bounds.satisfied
        assert np.isfinite(bounds.lower[-1]) and iota[-1] < bounds.lower[-1]
        assert sobolev_norm_squared(params, [0] * params.p + [1e-200]) < 0


def test_overflowing_bound_row_is_decided_by_its_pre_scaled_terms():
    # 0.4 + 6e308 is beyond the float range, but the bound, that row over G_2[2][2] = 18, is -3.33e307:
    # these two positive-definite (diagonal) Gram matrices meet the bounds and have a step limit
    for iota in ([1, 1e308, 0], [1, 1e308, 1e308]):
        params = CorrectionParams(2, iota)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = sufficient_bounds(params)
            tau = step_limit(params).tau_max
        assert bounds.satisfied and np.isfinite(tau) and tau > 0
        assert bounds.lower[2] == pytest.approx(-1e308 / 3, rel=1e-15)
    # the bound never overflows, but a margin may: inf, again without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = sufficient_bounds(CorrectionParams(2, [1, 1.5e308, 1.5e308]))
    assert bounds.satisfied and bounds.lower[2] == pytest.approx(-5e307, rel=1e-15) and bounds.margins[2] == np.inf


@pytest.mark.parametrize("p", [2, 3, 4])
def test_bounds_are_the_published_rows_rounded_once(p):
    # each bound is the published row evaluated exactly and rounded once, bit for bit, and the verdict
    # is the exact comparison, on the vn sweep grid and on wide seeded vectors
    rng = np.random.default_rng(p)
    signed = rng.choice([-1.0, 1.0], (300, p)) * 10 ** rng.uniform(-12, 308, (300, p))
    grid = [list(iota) for iota in default_search_grid(p, [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])]
    verdicts = set()
    for iota in grid + [[1.0] + list(row) for row in signed]:
        bounds = sufficient_bounds(CorrectionParams(p, iota))
        exact = {i: exact_bound(i, iota) for i in (p - 1, p)}
        for i, bound in exact.items():
            assert bounds.lower[i].tobytes() == np.float64(float(bound)).tobytes(), (iota, i)
        met = all(v >= 0 for v in iota[1 : p - 1]) and all(to_fraction(iota[i]) > b for i, b in exact.items())
        assert bounds.satisfied == met, iota
        verdicts.add(met)
    assert verdicts == {True, False}


def test_p2_bounds_are_exactly_positive_definiteness():
    # at p=2 G is diagonal and the two bounds are its diagonal entries' signs, so the verdict is the
    # exact LDL^T one, also within rounding of a bound: G[2][2] is -5.0e-17 for the first boundary
    # vector and positive for the second (the double -1/15 is above -1/15)
    rng = np.random.default_rng(15)
    signed = rng.choice([-1.0, 1.0], (300, 2)) * 10 ** rng.uniform(-12, 308, (300, 2))
    boundary = [[1, -0.0666666, -2.2222222222861234e-08], [1, -1 / 15, -0.0]]
    cases = [list(iota) for iota in default_search_grid(2, [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])]
    cases += [[1.0] + list(row) for row in signed] + boundary
    blocks = [_gram_block(2, i)[1] for i in range(3)]
    verdicts = []
    for iota in cases:
        weights = [to_fraction(v) for v in iota]
        gram = [[sum(w * g[j][k] for w, g in zip(weights, blocks)) for k in range(3)] for j in range(3)]
        verdicts.append(sufficient_bounds(CorrectionParams(2, iota)).satisfied)
        assert verdicts[-1] == positive_definite(gram), iota
    assert verdicts[-2:] == [False, True] and len(set(verdicts)) == 2


def test_exact_weight_beyond_the_float_range_is_not_finite():
    with pytest.raises(ValueError, match="must be finite"):
        CorrectionParams(2, [1, 0, 10**400])


def test_singular_solve_with_entries_beyond_the_float_range():
    # iota_0 + 3 iota_1 = 0 makes the system singular, and its exact Gram entries overflow a float,
    # which the exact verdict never converts (no bare OverflowError)
    with pytest.raises(SingularSystemError) as caught:
        solve_correction(CorrectionParams(2, [1, F(-1, 3), 10**308]))
    assert str(caught.value) == "correction system is singular (exact determinant 0)"


@pytest.mark.parametrize("p", range(6))
def test_gram_block_matches_quadrature(p):
    # G_i[j][k] against Gauss quadrature of numpy's Legendre derivatives, which do not use the series rule
    xs, ws = npleg.leggauss(p + 2)
    unit = np.eye(p + 1)
    for i in range(p + 1):
        den, rows = _gram_block(p, i)
        samples = [npleg.legval(xs, npleg.legder(unit[j], i)) for j in range(p + 1)]
        for j in range(p + 1):
            for k in range(p + 1):
                quad = float(np.sum(ws * samples[j] * samples[k]))
                assert quad == pytest.approx(F(rows[j][k], den), rel=1e-12, abs=1e-9), (i, j, k)


def positive_definite(mat):
    """Exact LDL^T: a symmetric matrix is positive definite iff every pivot is positive."""
    a = [list(row) for row in mat]
    for c in range(len(a)):
        if a[c][c] <= 0:
            return False
        for r in range(c + 1, len(a)):
            factor = a[r][c] / a[c][c]
            a[r][c + 1 :] = [x - factor * y for x, y in zip(a[r][c + 1 :], a[c][c + 1 :])]
    return True


@pytest.mark.parametrize(
    "p, magnitudes, counts",
    [
        (2, [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1], (121, 101, 101, 0)),
        (3, [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1], (1331, 471, 788, 0)),
        (4, [0.0, 1e-3, 1e-2], (625, 98, 227, 0)),
    ],
)
def test_sufficient_bounds_imply_positive_definite_gram(p, magnitudes, counts):
    # the norm is c^T G c with G = sum_i iota_i G_i; (points, sufficient, PD,
    # sufficient but not PD) on the vn sweep grids. The bounds guarantee a
    # norm but are not necessary: many PD points fail them. The blocks of one
    # order share a positive denominator, which does not change definiteness.
    blocks = [_gram_block(p, i)[1] for i in range(p + 1)]
    points = sufficient = definite = unsound = 0
    for iota in default_search_grid(p, magnitudes):
        weights = [F(float(v)) for v in iota]
        gram = [[sum(w * g[j][k] for w, g in zip(weights, blocks)) for k in range(p + 1)] for j in range(p + 1)]
        ok = sufficient_bounds(CorrectionParams(p, iota)).satisfied
        pd = positive_definite(gram)
        points += 1
        sufficient += ok
        definite += pd
        unsound += ok and not pd
    assert (points, sufficient, definite, unsound) == counts


def test_bound_rows_are_gram_diagonals():
    # row i, entry j of the published table is G_j[i][i], the u_i^2 factor of iota_j, except the three
    # entries the published sum-of-squares split moves into cross terms, which _SPLIT holds
    split = {(3, 1): 12, (4, 1): 20, (4, 2): 690}
    assert set(_SPLIT) == set(split)
    for i, row in BOUND_ROWS.items():
        for j, entry in enumerate(row + (BOUND_TOPS[i],)):
            den, rows = _gram_block(i, j)
            diagonal = F(rows[i][i], den)
            if (i, j) in split:
                assert (entry, diagonal) == (_SPLIT[i, j], split[i, j])
            else:
                assert entry == diagonal, (i, j)
    tops = []
    for i in range(1, 6):
        den, rows = _gram_block(i, i)
        tops.append(F(rows[i][i], den))
    assert tops == [2, 18, 450, 22050, 1786050]


def test_pair_derives_the_exact_reflection_bit_for_bit():
    # h_r and both gradients, derived from the rounded h_l, are the doubles of reflecting the exact
    # coefficients first; DG's zero coefficients pin the signed zero (a reflected 0.0 is 0.0, not -0.0)
    rng = np.random.default_rng(24)
    cases = [CorrectionParams(p, [1] + [0] * p) for p in (2, 3, 4, 5)]
    cases += [CorrectionParams(p, weights) for p, _, weights, _ in PUBLISHED_STEP_LIMITS]
    for p in (2, 3, 4, 5):
        for _ in range(10):
            signed = rng.choice([-1.0, 0.0, 1.0], p) * 10 ** rng.uniform(-6, 1, p)
            cases.append(CorrectionParams(p, [1.0] + signed.tolist()))
    pairs = []
    for params in cases:
        try:
            exact = fraction_solve(correction_matrix(params), [F(0)] * (params.p + 1) + [F(1)])
        except SingularSystemError:
            continue
        pairs.append((solve_correction(params), reflected_pair(exact)))
    for p in (2, 3, 4, 5):
        for iota in (0, F(1, 1000), F(4, 4725), 0.01):
            oracle = osfr_correction(p, iota)
            pairs.append((CorrectionPair(oracle.h_l), oracle))
    assert len(pairs) > 60
    signed_zeros = 0
    for pair, oracle in pairs:
        for name in ("h_l", "h_r", "g_l", "g_r"):
            assert getattr(pair, name).coeffs.tobytes() == getattr(oracle, name).coeffs.tobytes(), name
        signed_zeros += np.count_nonzero(pair.h_l.coeffs[1::2] == 0)
    assert signed_zeros > 10


def test_pair_dataclass_order():
    pair = solve_correction(CorrectionParams(3, [1, 0, 0, 0]))
    assert isinstance(pair, CorrectionPair)
    assert pair.p == 3
    assert pair.h_l.order == 4
    assert pair.g_l.order == 3


def test_integer_ratio_rounds_as_fraction_does():
    # the exact layer rounds int / int over a positive denominator, the division float(Fraction(a, b)) makes:
    # bit for bit, signed zeros and underflowing ratios included, and both overflow past the float range
    rng = random.Random(36)
    halfway = 2**1024 - 2**970  # half an ulp above the largest double: from here a ratio rounds to inf
    cases = [(0, 5), (0, -5), (0, -(2**2000)), (-1, 2**1100), (1, -(2**1100)), (-1, -(2**1100)), (3, -7)]
    for den in (1, 3, -3, 2**60 + 1, -(2**900)):
        cases += [(halfway * den + d, den) for d in (-1, 0, 1)]
        cases += [(-(halfway * den + d), den) for d in (-1, 0, 1)]
    for _ in range(3000):
        num = rng.getrandbits(rng.randrange(0, 2200)) * rng.choice((1, -1))
        den = (rng.getrandbits(rng.randrange(0, 2200)) + 1) * rng.choice((1, -1))
        cases.append((num, den))
    overflowed = negative_zeros = 0
    for num, den in cases:
        try:
            want = float(F(num, den))
        except OverflowError:
            overflowed += 1
            with pytest.raises(OverflowError):
                _ratio(num, den)
            continue
        assert struct.pack("<d", _ratio(num, den)) == struct.pack("<d", want), (num, den)
        negative_zeros += struct.pack("<d", want) == struct.pack("<d", -0.0)
    assert overflowed > 400 and negative_zeros > 150
    assert struct.pack("<d", _ratio(0, -5)) == struct.pack("<d", 0.0) != struct.pack("<d", 0 / -5)


def test_exact_weight_types_solve_to_the_oracle_bits():
    # floats, ints, Fractions and numpy integers of one weight vector solve to the exact oracle's h_l, bit for bit;
    # numpy integers are read as Python ints, so the elimination cannot wrap in int64
    vectors = [[1, 0, 0], [1, 3, 7], [1, 0, 0, 0, 7], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1]]
    checked = 0
    for iota in vectors:
        p = len(iota) - 1
        exact = fraction_solve(correction_matrix(CorrectionParams(p, iota)), [F(0)] * (p + 1) + [F(1)])
        want = reflected_pair(exact).h_l.coeffs.tobytes()
        for weights in (
            [float(v) for v in iota], iota, [F(v) for v in iota], np.array(iota), np.array(iota, dtype=np.int32),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an int64 overflow would warn
                assert solve_correction(CorrectionParams(p, weights)).h_l.coeffs.tobytes() == want, (iota, weights)
            checked += 1
    assert checked == 30
    # an exact non-dyadic weight is held exactly, not as its double
    params = CorrectionParams(3, [1, 0, 0, F(1, 3000)])
    exact = fraction_solve(correction_matrix(params), [F(0)] * 4 + [F(1)])
    assert solve_correction(params).h_l.coeffs.tobytes() == reflected_pair(exact).h_l.coeffs.tobytes()


def test_zero_weights_recover_as_positive_zeros():
    for p in (2, 3, 4, 5):
        h_l = solve_correction(CorrectionParams(p, [1.0] + [0.0] * p)).h_l
        assert not np.signbit(recover_weights(h_l)).any()
        iota = osfr_iota(h_l)
        assert iota == 0.0 and not np.signbit(iota)


def test_correction_classes_are_immutable_pickled_values():
    params = CorrectionParams(3, [1, 0, 0, 1e-3])
    pair = solve_correction(params)
    for obj, name in ((params, "p"), (params, "iota"), (pair, "h_l"), (pair.h_l, "coeffs")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert params == CorrectionParams(3, (1, 0, 0, 1e-3)) and hash(params) == hash(CorrectionParams(3, (1, 0, 0, 1e-3)))
    assert params != CorrectionParams(3, [1, 0, 0, 2e-3]) and params != (3, (1, 0, 0, 1e-3))
    # the caches travel with the object and read the same afterwards
    params._gram, pair.g_r  # noqa: B018
    params2, pair2 = pickle.loads(pickle.dumps((params, pair)))
    assert params2 == params and params2._gram == params._gram
    assert pair2.g_r.coeffs.tobytes() == pair.g_r.coeffs.tobytes()
    assert pair2.h_l.coeffs.tobytes() == pair.h_l.coeffs.tobytes()
    with pytest.raises(AttributeError):
        pair2.h_l = pair.h_l
