import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import gsfr.spectral
from gsfr.correction import CorrectionParams, solve_correction, sufficient_bounds
from gsfr.experiments import default_search_grid
from gsfr.operators import RK_DIVISORS, build_reference_element, build_scheme_operators
from gsfr.spectral import (
    BISECTION_REL_TOL,
    PUBLISHED_STEP_LIMITS,
    StabilityResult,
    _excess_coeffs,
    _phase_classes,
    bloch_matrix,
    cfl_limit,
    dispersion_sweep,
    k_from_k_hat,
    spectral_radius,
    update_matrix,
)


def make_ops(weights, alpha=1.0, p=3):
    pair = solve_correction(CorrectionParams(p, weights))
    element = build_reference_element(p, pair)
    return build_scheme_operators(element, alpha, jacobian=1.0)


@pytest.fixture(scope="module")
def dg3_up():
    return make_ops([1, 0, 0, 0], 1.0)


@pytest.fixture(scope="module")
def dg3_central():
    return make_ops([1, 0, 0, 0], 0.5)


def test_bloch_matrix_constant_mode(dg3_up):
    q0 = bloch_matrix(dg3_up, 0.0)
    assert np.max(np.abs(q0 @ np.ones(4))) < 1e-12
    assert np.min(np.abs(np.linalg.eigvals(q0))) < 1e-12


def test_bloch_matrix_finite_at_nyquist(dg3_up):
    q = bloch_matrix(dg3_up, k_from_k_hat(dg3_up, np.pi))
    assert np.all(np.isfinite(q))


def test_stacked_kernels_match_one_matrix_at_a_time(dg3_up):
    ks = k_from_k_hat(dg3_up, np.pi * np.arange(1, 17) / 16)
    singles = [bloch_matrix(dg3_up, float(k)) for k in ks]
    stack = bloch_matrix(dg3_up, ks)
    assert stack.shape == (16, 4, 4) and np.array_equal(stack, singles)
    updates = update_matrix(stack, 0.3, "rk44")
    assert np.array_equal(updates, [update_matrix(q, 0.3, "rk44") for q in singles])
    radii = spectral_radius(updates)
    assert radii.shape == (16,)
    assert np.array_equal(radii, [spectral_radius(m) for m in updates])
    assert isinstance(spectral_radius(updates[0]), float)


def physical_speed(ops, k):
    """The modified wave speed closest to the exact speed 1 among the eigenvalues of (i/k) Q(k)."""
    c = (1j / k) * np.linalg.eigvals(bloch_matrix(ops, k))
    return c[np.argmin(np.abs(c - 1.0))]


def test_upwind_physical_mode_never_grows(dg3_up):
    for kh in np.pi * np.arange(1, 257) / 256:
        assert physical_speed(dg3_up, k_from_k_hat(dg3_up, kh)).imag * kh <= 1e-12


def test_update_matrix_zero_step_identity():
    q = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    for rk in RK_DIVISORS:
        assert np.allclose(update_matrix(q, 0.0, rk), np.eye(2), atol=0)


def test_update_matrix_nilpotent_exact():
    # for a nilpotent matrix with q^5 = 0 the rk44 update equals the full
    # exponential minus exactly the vanished tail
    q = np.diag(np.ones(4), k=1).astype(complex)  # 5x5, q^5 = 0
    tau = 0.7
    expected = sum(np.linalg.matrix_power(tau * q, n) / factorial(n) for n in range(5))
    assert np.allclose(update_matrix(q, tau, "rk44"), expected, atol=1e-14)


def test_update_matrix_orders():
    q = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    tau = 0.3
    for rk, divisors in RK_DIVISORS.items():
        order = len(divisors) - 1
        expected = sum(np.linalg.matrix_power(tau * q, n) / factorial(n) for n in range(order + 1))
        assert np.allclose(update_matrix(q, tau, rk), expected, rtol=0.0, atol=1e-15)  # a wrong divisor moves ~1e-7


def test_spectral_radius_examples():
    assert spectral_radius(np.diag([1.0, -2.0, 3.0j])) == pytest.approx(3.0, abs=1e-12)
    theta = 0.73
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert spectral_radius(rot) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_against_independent_root_finder():
    # oracle: characteristic polynomial by Faddeev-LeVerrier, roots by
    # Durand-Kerner iteration; fully independent of the QR eigensolver
    rng = np.random.default_rng(12)
    for _ in range(5):
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        n = 6
        coeffs = [1.0 + 0.0j]  # monic characteristic polynomial
        work = np.array(mat)
        aux = np.array(mat)
        for k in range(1, n + 1):
            c = -np.trace(aux) / k
            coeffs.append(c)
            if k < n:
                aux = mat @ (aux + c * np.eye(n))
        roots = np.array([(0.4 + 0.9j) ** i for i in range(n)], dtype=complex)
        for _ in range(200):
            new = roots.copy()
            for i in range(n):
                denom = np.prod([roots[i] - roots[j] for j in range(n) if j != i])
                new[i] = roots[i] - np.polyval(coeffs, roots[i]) / denom
            if np.max(np.abs(new - roots)) < 1e-14:
                roots = new
                break
            roots = new
        oracle = float(np.max(np.abs(roots)))
        assert spectral_radius(mat) == pytest.approx(oracle, abs=1e-9)


def test_cfl_limit_dg_p3_rk44(dg3_up):
    res = cfl_limit(dg3_up, "rk44", k_samples=256)
    assert isinstance(res, StabilityResult)
    # reference-domain step for the plain-L2 member; half of it matches
    # the widely tabulated per-element-width value 0.145
    assert res.tau_max == pytest.approx(0.2908, rel=2e-3)
    assert res.rk == "rk44" and res.k_samples == 256


def test_cfl_limit_bracket_properties(dg3_up):
    res = cfl_limit(dg3_up, "rk44", k_samples=64)
    # verified stable at tau_max, unstable just above
    for kh in np.pi * np.arange(1, 65) / 64:
        q = bloch_matrix(dg3_up, k_from_k_hat(dg3_up, kh))
        assert spectral_radius(update_matrix(q, res.tau_max, "rk44")) <= 1.0 + 1e-10
    tau_probe = res.tau_max * (1.0 + 2e-4)
    q_worst = bloch_matrix(dg3_up, k_from_k_hat(dg3_up, res.worst_k_hat))
    assert spectral_radius(update_matrix(q_worst, tau_probe, "rk44")) > 1.0 + 1e-10


@pytest.mark.parametrize("rk", ["rk33", "rk44", "rk55"])
def test_cfl_limit_k_sample_consistency(dg3_up, rk):
    coarse = cfl_limit(dg3_up, rk, k_samples=256).tau_max
    fine = cfl_limit(dg3_up, rk, k_samples=1024).tau_max
    assert abs(coarse - fine) / fine < 0.01


def test_cfl_limit_central_rk55_tolerance_limited(dg3_central):
    # the order-5 truncated exponential grows like (tau*|lambda|)^6/360 on
    # the imaginary axis, so a dissipation-free operator admits only the
    # tiny step the spectral-radius threshold tolerates, shrinking as the
    # threshold tightens
    res = cfl_limit(dg3_central, "rk55", k_samples=64)
    assert 0.0 < res.tau_max < 0.02
    tighter = cfl_limit(dg3_central, "rk55", k_samples=64, rho_tol=1e-14)
    assert tighter.tau_max < res.tau_max


def test_cfl_limit_central_rk33_positive(dg3_central):
    res = cfl_limit(dg3_central, "rk33", k_samples=64)
    assert res.tau_max > 0.05


def test_cfl_monotone_instability_indicator(dg3_up):
    # the indicator max_k rho - 1 changes sign exactly once across the
    # bracket for each scheme (dense scan)
    k_hats = np.pi * np.arange(1, 65) / 64
    q_mats = [bloch_matrix(dg3_up, k_from_k_hat(dg3_up, kh)) for kh in k_hats]
    for rk in ("rk33", "rk44", "rk55"):
        tau_star = cfl_limit(dg3_up, rk, k_samples=64).tau_max
        taus = np.linspace(0.2 * tau_star, 1.8 * tau_star, 60)
        signs = []
        for tau in taus:
            rho = max(spectral_radius(update_matrix(q, tau, rk)) for q in q_mats)
            signs.append(rho - 1.0 > 1e-10)
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1
        assert not signs[0] and signs[-1]


def test_weakly_unstable_member_collapses_at_strict_tolerance():
    # this member's operator has spectral abscissa ~3e-5, so the strict
    # threshold only admits steps with tau * 3e-5 <= 1e-10 while a
    # threshold above the weak growth unlocks the Runge-Kutta-edge limit
    ops = make_ops([1, 2.069e-4, 2.336e-3, 2.336e-3], 1.0)
    strict = cfl_limit(ops, "rk44", k_samples=128)
    assert strict.tau_max < 1e-5
    loose = cfl_limit(ops, "rk44", k_samples=128, rho_tol=1e-4)
    assert loose.tau_max > 0.5


def test_published_p3_step_limits_reproduce_at_threshold_tolerance():
    # the three published p=3 optima carry positive spectral abscissas up
    # to 4.5e-4, so they only admit finite steps under a thresholded
    # stability verdict; at rho_tol 1e-4 the limits plateau and match the
    # published numbers at exactly half the raw reference-domain value
    rows = [row for row in PUBLISHED_STEP_LIMITS if row[0] == 3]
    assert len(rows) == 3
    for _, rk, weights, published in rows:
        ops = make_ops(weights, 1.0)
        tau = cfl_limit(ops, rk, k_samples=256, rho_tol=1e-4).tau_max
        assert 0.5 * tau == pytest.approx(published, rel=0.01)


def _matrix_route_limit(ops, rk, k_samples, rho_tol):
    """cfl_limit's bisection with one update_matrix + spectral_radius per probe.

    Returns (tau_max, worst_k_hat, probes); this is the route the eigenvalue
    route replaced, kept here as its oracle.
    """
    k_hats = np.pi * np.arange(1, k_samples + 1) / k_samples
    q_mats = bloch_matrix(ops, k_from_k_hat(ops, k_hats))
    probes = 0

    def radii(tau):
        return spectral_radius(update_matrix(q_mats, tau, rk))

    def stable(tau):
        nonlocal probes
        probes += 1
        return radii(tau).max() <= 1.0 + rho_tol

    lo, hi = 0.0, 0.05
    while stable(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e3:
            return lo, float(k_hats[-1]), probes
    while hi - lo > BISECTION_REL_TOL * max(hi, 1e-12):
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo, float(k_hats[int(np.argmax(radii(hi)))]), probes


def _route_cases():
    cases = [(p, rk, w, rho_tol, 256) for p, rk, w, _ in PUBLISHED_STEP_LIMITS for rho_tol in (1e-10, 1e-4)]
    grid = default_search_grid(3, magnitudes=[0.0, 1e-3])
    inside = [[float(v) for v in iota] for iota in grid if sufficient_bounds(CorrectionParams(3, iota)).satisfied]
    assert len(inside) == 12
    cases += [(3, "rk44", iota, 1e-10, 64) for iota in inside]
    # strict p=4 point with tau_max ~6.6e-9: every growth is 1 to round-off, so the
    # matrix route sees the whole stack; p=2 has no exact aliases at 128 samples
    strict = [1.0, 0.0, 1e-2, -1e-3, 1e-3]
    assert sufficient_bounds(CorrectionParams(4, strict)).satisfied
    cases += [(4, rk, strict, 1e-10, 128) for rk in ("rk33", "rk44")]
    assert any(np.array_equal(iota, [1.0, 1e-3, 1e-3]) for iota in default_search_grid(2, [0.0, 1e-3]))
    return cases + [(2, "rk33", [1.0, 1e-3, 1e-3], 1e-10, 128)]


# the one case whose bisection takes a different turn: both routes put
# the strict p=3 rk33 limit near 2.2e-7, 5.2e-5 apart (relative)
ROUTE_EXCEPTIONS = {(3, "rk33", 1e-10)}


def test_cfl_limit_matches_matrix_route():
    for p, rk, weights, rho_tol, k_samples in _route_cases():
        ops = make_ops(weights, 1.0, p=p)
        res = cfl_limit(ops, rk, k_samples, rho_tol)
        tau, worst_k_hat, probes = _matrix_route_limit(ops, rk, k_samples, rho_tol)
        case = (p, rk, tuple(weights), rho_tol)
        assert (res.tau_max > 0.0) == (tau > 0.0), case
        if (p, rk, rho_tol) in ROUTE_EXCEPTIONS:
            assert abs(res.tau_max - tau) <= 1e-4 * tau, case
            continue
        assert res.tau_max.hex() == tau.hex(), case
        assert res.worst_k_hat.hex() == _first_alias(ops, k_samples, worst_k_hat).hex(), case
        assert res.probes == probes, case


def _first_alias(ops, k_samples, k_hat):
    """First grid k_hat whose Q(k) is Q at k_hat or its conjugate, to round-off."""
    k_hats = np.pi * np.arange(1, k_samples + 1) / k_samples
    q_mats = bloch_matrix(ops, k_from_k_hat(ops, k_hats))
    q = bloch_matrix(ops, k_from_k_hat(ops, k_hat))
    gap = np.minimum(np.abs(q_mats - q).max(axis=(1, 2)), np.abs(q_mats - q.conj()).max(axis=(1, 2)))
    return float(k_hats[np.argmax(gap <= 1e-14 * np.abs(q_mats).max())])


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_phase_classes_cover_the_grid_once(p):
    # Q(k) depends on k_hat only through the phase (p+1)*k_hat, and conjugate
    # phases give conjugate matrices: odd p repeats phases on the grid, even p does not
    ops = make_ops([1] + [0] * p, 1.0, p=p)
    for k_samples in (64, 128, 256):
        reps = _phase_classes(p, k_samples)
        assert len(reps) == {2: k_samples, 3: k_samples // 4 + 1, 4: k_samples, 5: k_samples // 2 + 1}[p]
        assert reps[0] == 0 and np.all(np.diff(reps) > 0)
        q_mats = bloch_matrix(ops, k_from_k_hat(ops, np.pi * np.arange(1, k_samples + 1) / k_samples))
        rep_mats = q_mats[reps]
        gap = np.minimum(
            np.abs(q_mats[:, None] - rep_mats).max(axis=(2, 3)),
            np.abs(q_mats[:, None] - rep_mats.conj()).max(axis=(2, 3)),
        )
        # every grid matrix is its representative's or that one's conjugate, and
        # the representative is the first grid wavenumber of its class
        assert gap.min(axis=1).max() <= 1e-14 * np.abs(q_mats).max(), (p, k_samples)
        assert np.all(reps[gap.argmin(axis=1)] <= np.arange(k_samples)), (p, k_samples)
    # on any grid, the first index of each class of the folded integer phase min(m, 2K - m)
    for k_samples in range(1, 300):
        m = (p + 1) * np.arange(1, k_samples + 1) % (2 * k_samples)
        _, first = np.unique(np.minimum(m, 2 * k_samples - m), return_index=True)
        assert np.array_equal(_phase_classes(p, k_samples), np.sort(first)), k_samples


def test_cfl_limit_solves_each_phase_once(monkeypatch):
    # one eigen-solve per phase class up to conjugation (65 of the 256 wavenumbers
    # at p=3, all 256 at p=4); the matrix route that picks worst_k_hat sees only
    # the near-worst classes
    shapes = {"_eigvals": [], "update_matrix": [], "spectral_radius": []}

    def recording(name):
        kernel = getattr(gsfr.spectral, name)

        def wrapped(mat, *args):
            shapes[name].append(np.shape(mat))
            return kernel(mat, *args)

        return wrapped

    for name in shapes:
        monkeypatch.setattr(gsfr.spectral, name, recording(name))
    _, rk, weights, _ = next(row for row in PUBLISHED_STEP_LIMITS if row[:2] == (3, "rk44"))
    cfl_limit(make_ops(weights, 1.0), rk, k_samples=256, rho_tol=1e-4)
    (near,) = shapes["update_matrix"]
    assert near[0] < 65 and near[1:] == (4, 4)
    assert shapes["spectral_radius"] == [near]
    assert shapes["_eigvals"] == [(65, 4, 4), near]
    _, rk, weights, _ = next(row for row in PUBLISHED_STEP_LIMITS if row[:2] == (4, "rk44"))
    cfl_limit(make_ops(weights, 1.0, p=4), rk, k_samples=256, rho_tol=1e-4)
    assert shapes["_eigvals"][2] == (256, 5, 5)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_tie_break_window_holds_the_two_routes_per_class_gap(alpha):
    # cfl_limit keeps a phase class in its matrix-route tie-break when its eigen-route growth
    # sqrt(1 + excess) is within 1e-12 of the largest; the matrix route's largest class must land inside,
    # so the two routes' per-class growths just past the limit must differ by less than that window
    # (measured maxima 3.7e-14 at alpha 1 and 5.8e-13 at alpha 0.5)
    vectors = [(p, weights) for p, _, weights, _ in PUBLISHED_STEP_LIMITS]
    vectors += [(4, (1, 0.01, 0.01, 0.01, 0.01)), (4, (1, 0.01, 0.01, 0, 0.01))]
    worst = 0.0
    for p, weights in vectors:
        ops = make_ops(list(weights), alpha, p=p)
        reps = _phase_classes(p, 256)
        q_mats = bloch_matrix(ops, k_from_k_hat(ops, np.pi * (reps + 1) / 256))
        lam = np.linalg.eigvals(q_mats).ravel()
        for rk, divisors in RK_DIVISORS.items():
            order = len(divisors) - 1
            coeffs = _excess_coeffs(lam, divisors)
            for rho_tol in (1e-10, 1e-4):
                tau = cfl_limit(ops, rk, 256, rho_tol).tau_max * (1.0 + BISECTION_REL_TOL)
                eigen = np.sqrt(1.0 + (coeffs @ tau ** np.arange(1, 2 * order + 1)).reshape(len(reps), -1).max(axis=1))
                matrix = spectral_radius(update_matrix(q_mats, tau, rk))
                worst = max(worst, float(np.max(np.abs(eigen - matrix) / matrix)))
    assert worst < 1e-12, worst


def _r_terms(lam, order):
    """The terms lambda^n / n! of R(lambda) = sum_{n<=order} lambda^n / n!."""
    return np.array([1.0 / factorial(n) for n in range(order + 1)]) * lam ** np.arange(order + 1)


def _squared_modulus(lam, order):
    """Coefficients in tau, constant first, of |R(tau lambda)|^2 by one convolution."""
    terms = _r_terms(lam, order)
    return np.convolve(terms, terms.conj()).real


def _first_loss_of_stability(ops, rk, rho_tol, k_samples=256):
    """Smallest positive root of |R(tau lambda)|^2 = (1 + rho_tol)^2 over all eigenvalues.

    R(z) = sum_{n<=s} z^n / n!, so |R(tau lambda)|^2 is a real polynomial
    of degree 2s in tau: its tau^j coefficient is
    sum_{m+n=j} Re(lambda^m conj(lambda)^n) / (m! n!).
    """
    k_hats = np.pi * np.arange(1, k_samples + 1) / k_samples
    lams = np.linalg.eigvals(bloch_matrix(ops, k_from_k_hat(ops, k_hats))).ravel()
    first = np.inf
    for lam in lams:
        poly = _squared_modulus(lam, len(RK_DIVISORS[rk]) - 1)
        poly[0] -= (1.0 + rho_tol) ** 2
        roots = np.roots(poly[::-1])
        real = roots[(np.abs(roots.imag) <= 1e-9 * np.abs(roots)) & (roots.real > 0.0)].real
        if real.size:
            first = min(first, real.min())
    return first


def test_cfl_limit_brackets_the_exact_root():
    # the published rows at a threshold tolerance, and two strict limits
    # below 1e-9 (roots 3.7605e-10 and 7.9857e-10)
    cases = [(p, rk, weights, 1e-4) for p, rk, weights, _ in PUBLISHED_STEP_LIMITS]
    cases += [(3, "rk44", (1, 0.1, -0.01, 0.001), 1e-10), (3, "rk44", (1, 0.1, 0, 0.001), 1e-10)]
    for p, rk, weights, rho_tol in cases:
        ops = make_ops(weights, 1.0, p=p)
        root = _first_loss_of_stability(ops, rk, rho_tol)
        tau = cfl_limit(ops, rk, 256, rho_tol).tau_max
        assert root * (1.0 - BISECTION_REL_TOL) <= tau <= root, (p, rk, weights, tau, root)
    # p=3 DG's abscissa is round-off above 0, so at rho_tol 0 no step is stable
    assert cfl_limit(make_ops([1, 0, 0, 0], 1.0), "rk44", 256, 0.0).tau_max == 0.0


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_excess_coeffs_match_the_convolved_polynomial(p):
    # cfl_limit's probe rows are the convolution's coefficients without the
    # constant 1; each c_j sums s+1 rounded products, so they agree to the
    # rounding of that sum, measured against the convolution of |terms|
    ops = make_ops([1] + [1e-3] * p, 1.0, p=p)
    lams = np.linalg.eigvals(bloch_matrix(ops, k_from_k_hat(ops, np.pi * np.arange(1, 65) / 64))).ravel()
    for rk, divisors in RK_DIVISORS.items():
        order = len(divisors) - 1
        coeffs = _excess_coeffs(lams, divisors)
        assert coeffs.shape == (lams.size, 2 * order)
        for lam, row in zip(lams, coeffs):
            poly = _squared_modulus(lam, order)
            size = np.abs(_r_terms(lam, order))
            scale = np.convolve(size, size)
            assert poly[0] == 1.0
            assert np.all(np.abs(row - poly[1:]) <= 2 * (order + 1) * np.finfo(float).eps * scale[1:]), (p, rk, lam)


def _exact_excess(ops, rk, rho_tol, tau, k_samples=256):
    """Exact max of |R(tau lambda)|^2 - (1 + rho_tol)^2 over cfl_limit's float eigenvalues."""
    reps = _phase_classes(ops.element.p, k_samples)
    k_hats = np.pi * np.arange(1, k_samples + 1) / k_samples
    lams = np.linalg.eigvals(bloch_matrix(ops, k_from_k_hat(ops, k_hats[reps]))).ravel()
    t = Fraction(tau)
    worst = None
    for lam in lams:
        z_re, z_im = t * Fraction(lam.real), t * Fraction(lam.imag)
        term_re, term_im = r_re, r_im = Fraction(1), Fraction(0)
        for n in range(1, len(RK_DIVISORS[rk])):  # term = z^n / n!
            term_re, term_im = (term_re * z_re - term_im * z_im) / n, (term_re * z_im + term_im * z_re) / n
            r_re, r_im = r_re + term_re, r_im + term_im
        excess = r_re**2 + r_im**2 - (1 + Fraction(rho_tol)) ** 2
        worst = excess if worst is None else max(worst, excess)
    return worst


# two rows of `vn sweep --p 3 --rk rk44 --magnitudes 0,1e-3,1e-2` whose strict
# limit a complex Horner probe of |R| put past the exact loss of stability:
# it decided on |1 + small| at tau ~1e-7 and lost ~1e-6 of the excess
HORNER_LIMITS = {(0.01, -0.001, 0.001): 1.1627562344074249e-07, (0.01, 0.001, 0.001): 4.9217487685382377e-08}


def test_strict_tiny_limits_are_decided_without_cancellation():
    reference = json.loads((Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json").read_text())
    sweep = {tuple(point): tau for point, tau in zip(reference["vn_sweep"]["grid"], reference["vn_sweep"]["tau_max"])}
    for iota, horner in HORNER_LIMITS.items():
        ops = make_ops([1.0, *iota], 1.0)
        tau = cfl_limit(ops, "rk44", 256).tau_max
        assert tau.hex() == sweep[iota].hex(), iota
        assert 0.0 < (horner - tau) / horner < 1e-4, iota
        assert _exact_excess(ops, "rk44", 1e-10, tau) <= 0 < _exact_excess(ops, "rk44", 1e-10, horner), iota


def test_degeneration_towards_lower_order():
    # very large top weights push the response towards the p=2 scheme
    big = make_ops([1, 0, 1e3, 1e3], 1.0)
    dg2 = make_ops([1, 0, 0], 1.0, p=2)
    k = k_from_k_hat(big, 0.4)  # same physical wavenumber for both
    c_big = physical_speed(big, k)
    c_dg2 = physical_speed(dg2, k)
    assert abs(c_big - c_dg2) / abs(c_dg2) < 0.05


def test_dispersion_sweep_shapes_and_continuity(dg3_up):
    k_hats, om_re, om_im = dispersion_sweep(dg3_up, 128)
    assert k_hats.shape == (128,)
    assert om_re.shape == (128, 4) and om_im.shape == (128, 4)
    # physical-mode column follows Re(omega) ~ k_hat at low k
    assert om_re[0, 0] == pytest.approx(k_hats[0], rel=1e-6)
    # matched columns move smoothly
    jumps = np.abs(np.diff(om_re + 1j * om_im, axis=0))
    assert np.max(jumps) < 0.5
