"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines and the reproduction tables.
"""

from fractions import Fraction as F
from math import ceil

import numpy as np
import numpy.polynomial.legendre as npleg

from gsfr.correction import (
    CorrectionPair,
    CorrectionParams,
    esfr3_weights,
    osfr_correction,
    osfr_iota,
    recover_weights_p3,
    sobolev_norm_squared,
    solve_correction,
    sufficient_bounds,
)
from gsfr.experiments import HETERO_PERIOD, hetero_energy_study, ooa_study
from gsfr.legendre import LegendreSeries, integral_dm_dm1, series_derivative
from gsfr.operators import (
    RK_STAGE_ORDER,
    build_reference_element,
    build_scheme_operators,
    make_heterogeneous_rhs,
    rk_advance,
    uniform_mesh,
)
from gsfr.spectral import (
    PUBLISHED_STEP_LIMITS,
    bloch_matrix,
    cfl_limit,
    k_from_k_hat,
)

from test_correction import (
    GOLDEN_P2,
    GOLDEN_P3,
    GOLDEN_P4_AS_PUBLISHED,
    P4_IOTA0_SIGN_ENTRIES,
    P4_OTHER_DEVIATIONS,
    _check_golden,
    sample_inside_bounds,
)
from test_legendre import _dpsi
from test_operators import dense_operator
from test_spectral import physical_speed

TABLE_RK44_P3 = [1, 2.069e-4, 2.336e-3, 2.336e-3]

# s * tau at rho_tol 1e-4 for the published p=4 weight vectors. These are
# not the published limits (0.431 / 0.430 / 0.354): criterion 6 holds them
# to an independent eigenvalue route and to threshold independence instead.
P4_CALIBRATED_LIMITS = {"rk33": 0.1134, "rk44": 0.1254, "rk55": 0.1217}


def _verdict(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_golden_matrices():
    """Assembled systems reproduce the published p=2/p=3 matrices exactly."""
    dev2 = _check_golden(2, GOLDEN_P2)
    dev3 = _check_golden(3, GOLDEN_P3)
    dev4 = _check_golden(4, GOLDEN_P4_AS_PUBLISHED)
    for (pos, assembled, published) in dev4:
        print(
            f"  p=4 deviation at row {pos[0]}, col {pos[1]}: assembled "
            f"{[str(v) for v in assembled]} vs published {[str(v) for v in published]}"
        )
    found = {pos for pos, _, _ in dev4}
    confined = found == P4_IOTA0_SIGN_ENTRIES | P4_OTHER_DEVIATIONS
    ok = dev2 == [] and dev3 == [] and confined
    _verdict(
        1,
        ok,
        "p=2 and p=3 exact; p=4 deviations confined to the known "
        "iota_0-sign entries and the (3,5) iota_3 coefficient (publication-internal inconsistency)",
    )
    assert dev2 == [] and dev3 == []
    assert confined


def test_criterion_02_osfr_subset():
    """Single-parameter members match the dedicated closed form to 1e-11."""
    worst = 0.0
    for p in (2, 3, 4):
        for iota in (0, F(1, 1000), F(1, 100), F(4, 4725)):
            weights = [1] + [0] * (p - 1) + [iota]
            gsfr = solve_correction(CorrectionParams(p, weights))
            osfr = osfr_correction(p, iota)
            worst = max(
                worst,
                float(np.max(np.abs(gsfr.h_l.coeffs - osfr.h_l.coeffs))),
                float(np.max(np.abs(gsfr.h_r.coeffs - osfr.h_r.coeffs))),
            )
    ok = worst < 1e-11
    _verdict(2, ok, f"worst coefficient difference {worst:.2e}")
    assert ok


def test_criterion_03_uniqueness():
    """The showcase weight vector is neither OSFR nor ESFR but round-trips."""
    params = CorrectionParams(3, [1, 0.01, 0.01, 0.1])
    pair = solve_correction(params)
    not_osfr = osfr_iota(3, pair.h_l) is None
    not_esfr = esfr3_weights(pair.g_l) is None
    recovered = recover_weights_p3(pair.h_l)
    rebuilt = solve_correction(CorrectionParams(3, recovered))
    round_trip = float(np.max(np.abs(rebuilt.h_l.coeffs - pair.h_l.coeffs)))
    ok = not_osfr and not_esfr and np.allclose(recovered, [1, 0.01, 0.01, 0.1], atol=1e-9) and round_trip < 1e-9
    _verdict(3, ok, f"outside both classical families; weight recovery round-trip {round_trip:.2e}")
    assert ok


def test_criterion_04_norm_positivity_suite():
    """Positivity and a quadrature oracle over random weights and data."""
    rng = np.random.default_rng(42)
    xs, ws = npleg.leggauss(12)
    worst_oracle = 0.0
    min_value = np.inf
    for p in (2, 3, 4):
        for _ in range(50):
            params = CorrectionParams(p, sample_inside_bounds(p, rng))
            assert sufficient_bounds(params).satisfied
            data = rng.standard_normal((200, p + 1))
            for row in range(200):
                u = data[row]
                value = sobolev_norm_squared(params, u)
                min_value = min(min_value, value)
                if row < 4:  # quadrature oracle on a subsample per weight vector
                    quad = 0.0
                    coeffs = list(u)
                    for i in range(p + 1):
                        quad += float(params.iota_array[i]) * float(
                            np.sum(ws * npleg.legval(xs, coeffs) ** 2)
                        )
                        coeffs = series_derivative(coeffs) if len(coeffs) > 1 else [0.0]
                    worst_oracle = max(worst_oracle, abs(value - quad))
    ok = min_value > 0.0 and worst_oracle < 1e-9
    _verdict(4, ok, f"min norm value {min_value:.3e}, worst oracle gap {worst_oracle:.2e}")
    assert ok


def test_criterion_05_derivative_product_integral_oracle():
    """Exhaustive quadrature check of the closed-form integral, m,n,k <= 6."""
    xs, ws = npleg.leggauss(20)
    worst = 0.0
    count = 0
    for m in range(7):
        for n in range(7):
            for k in range(7):
                exact = float(integral_dm_dm1(m, n, k))
                terms = ws * _dpsi(m, n, xs) * _dpsi(m + 1, k, xs)
                # tolerance scaled by the quadrature's own term magnitudes:
                # products reach ~1e7 where absolute 1e-10 is below one ulp
                scale = max(1.0, float(np.sum(np.abs(terms))))
                worst = max(worst, abs(exact - float(np.sum(terms))) / scale)
                count += 1
    ok = worst < 1e-10 and count == 343
    _verdict(5, ok, f"343 cases, worst scaled deviation {worst:.2e}")
    assert ok


def _eigenvalue_route_limit(ops, rk, rho_tol, k_samples=256):
    """First loss of stability, from the semi-discrete eigenvalues alone.

    By spectral mapping, eig(R(tau Q)) = R(tau eig(Q)) (Vermeire & Vincent,
    CMAME 2017), so the stability predicate becomes
    max |sum_{n<=s} (tau lambda)^n / n!| <= 1 + rho_tol over the
    eigenvalues of Q(k) on the k_hat grid of cfl_limit. One stacked
    eigen-solve; the first unstable point of a fine tau grid is then
    bisected to 1e-9 relative, well inside cfl_limit's 1e-4.
    """
    k_hats = np.pi * np.arange(1, k_samples + 1) / k_samples
    lam = np.linalg.eigvals(np.stack([bloch_matrix(ops, k_from_k_hat(ops, kh)) for kh in k_hats])).ravel()

    def stable(tau):
        z = np.multiply.outer(tau, lam)
        term = total = np.ones_like(z)
        for n in range(1, RK_STAGE_ORDER[rk] + 1):
            term = term * z / n
            total = total + term
        return np.max(np.abs(total), axis=-1) <= 1.0 + rho_tol

    taus = np.linspace(0.005, 2.0, 400)
    first = int(np.argmin(stable(taus)))
    assert not stable(taus[first]), "no loss of stability on the tau grid"
    lo, hi = (taus[first - 1] if first else 0.0), taus[first]
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


def _printed_p4_operators(weights):
    """Scheme operators from the p=4 correction system exactly as published."""
    size = 6
    mat = [
        [sum(w * c for w, c in zip(weights, GOLDEN_P4_AS_PUBLISHED.get((r, n), [0] * 5))) for n in range(size)]
        for r in range(4)
    ]
    mat += [[1.0] * size, [(-1.0) ** n for n in range(size)]]
    h_l = np.linalg.solve(np.array(mat, dtype=float), np.eye(size)[-1])
    hl, hr = LegendreSeries(h_l), LegendreSeries(h_l * (-1.0) ** np.arange(size))
    pair = CorrectionPair(h_l=hl, h_r=hr, g_l=hl.derivative(), g_r=hr.derivative())
    return build_scheme_operators(build_reference_element(4, pair), 1.0, 1.0)


def test_criterion_06_published_step_limit_table():
    """Reproduce the published peak-step table after one global calibration.

    Limits are taken at rho_tol 1e-4. Four published weight vectors carry a
    small positive spectral abscissa: the three p=3 rows (4.5e-4, 3.3e-5,
    2.3e-8) and p=4 rk55 (2.5e-6). At the strict 1e-10 threshold those rows
    lose stability at once (tau 2e-7 .. 4e-3), so their published values
    are only reachable under a thresholded check. The p=4 rk33 and rk44
    operators have no growing mode (abscissa ~1e-15, round-off), and their
    strict and thresholded limits coincide (0.2270, 0.2510).

    The three p=3 rows match at a single global scale s = 0.5 (per element
    width) to 0.2 percent, and are held to 3 percent of the published
    values. The p=4 rows are a known deviation: the published limits are not
    reachable from the published p=4 weight vectors, neither through the
    assembled system nor through the p=4 system as printed (its iota_0
    signs and its (3,5) coefficient disagree with its own p=2/p=3 forms;
    see criterion 1). They are printed as MISMATCH against the published
    values and held instead to what can be checked independently:
    cfl_limit agrees with the eigenvalue route to its 1e-4 bisection
    tolerance, the limit moves under 1 percent from rho_tol 1e-6 to 1e-2
    (so no thresholded reading reaches the published values), and the
    calibrated values stay at P4_CALIBRATED_LIMITS to four decimals.
    """
    ops, computed = {}, {}
    for p, rk, weights, _ in PUBLISHED_STEP_LIMITS:
        pair = solve_correction(CorrectionParams(p, weights))
        ops[(p, rk)] = build_scheme_operators(build_reference_element(p, pair), 1.0, 1.0)
        computed[(p, rk)] = cfl_limit(ops[(p, rk)], rk, k_samples=256, rho_tol=1e-4).tau_max
    scale = 0.390 / computed[(3, "rk44")]
    print(f"  global calibration s = {scale:.6f} (fitted on p=3 rk44)")
    failures = []
    for p, rk, _, published in PUBLISHED_STEP_LIMITS:
        value = scale * computed[(p, rk)]
        rel = abs(value - published) / published
        status = "ok" if rel <= 0.03 else "MISMATCH"
        print(f"  p={p} {rk}: s*tau = {value:.4f} vs published {published} ({rel * 100:.2f}%) {status}")
        if p == 3 and rel > 0.03:
            failures.append(f"p=3 {rk}: s*tau {value:.4f} is {rel:.1%} from published {published}")
        if p == 4 and round(value, 4) != P4_CALIBRATED_LIMITS[rk]:
            failures.append(f"p=4 {rk}: s*tau {value:.6f} moved from {P4_CALIBRATED_LIMITS[rk]}")
    for p, rk, weights, published in PUBLISHED_STEP_LIMITS:
        if p != 4:
            continue
        tau = computed[(p, rk)]
        route = _eigenvalue_route_limit(ops[(p, rk)], rk, rho_tol=1e-4)
        gap = abs(tau - route) / route
        spread = abs(
            _eigenvalue_route_limit(ops[(p, rk)], rk, rho_tol=1e-2)
            - _eigenvalue_route_limit(ops[(p, rk)], rk, rho_tol=1e-6)
        ) / route
        printed = scale * cfl_limit(_printed_p4_operators(weights), rk, k_samples=256, rho_tol=1e-4).tau_max
        printed_rel = abs(printed - published) / published
        print(
            f"  p=4 {rk}: eigenvalue route tau = {route:.6f} (gap {gap:.1e}), "
            f"rho_tol 1e-6..1e-2 spread {spread * 100:.2f}%, "
            f"printed p=4 system s*tau = {printed:.4f} ({printed_rel * 100:.2f}% off)"
        )
        if gap > 1e-4:
            failures.append(f"p=4 {rk}: cfl_limit {tau:.6f} vs eigenvalue route {route:.6f}")
        if spread >= 0.01:
            failures.append(f"p=4 {rk}: limit moves {spread:.2%} between rho_tol 1e-6 and 1e-2")
        if printed_rel <= 0.03:
            failures.append(f"p=4 {rk}: printed p=4 system reaches the published {published} ({printed:.4f})")
    ok = not failures
    _verdict(
        6,
        ok,
        "p=3 rows reproduce at s=0.5; p=4 rows hold their eigenvalue-route limits "
        "(known deviation: the published p=4 limits are not reachable from the published p=4 weights)"
        if ok
        else "; ".join(failures),
    )
    assert ok, failures


def test_criterion_07_order_of_accuracy():
    """Full order for the plain and peak-step members, degraded for large iota_3."""
    dg = ooa_study(CorrectionParams(3, [1, 0, 0, 0]))
    table = ooa_study(CorrectionParams(3, TABLE_RK44_P3))
    degraded = ooa_study(CorrectionParams(3, [1, 0, 0, 10]))
    ok = (
        abs(dg.fitted_order - 4.0) <= 0.15
        and abs(table.fitted_order - 4.0) <= 0.15
        and degraded.fitted_order <= 3.3
    )
    _verdict(
        7,
        ok,
        f"orders: plain {dg.fitted_order:.3f}, peak-step {table.fitted_order:.3f}, "
        f"large-iota_3 {degraded.fitted_order:.3f}",
    )
    assert ok


def test_criterion_08_heterogeneous_advection():
    """Upwind runs survive 15 periods; central runs blow up; period verified."""
    upwind_ok = True
    for weights in ([1, 0, 0, 0], TABLE_RK44_P3):
        rep = hetero_energy_study(CorrectionParams(3, weights), alpha=1.0, n_elements=32, n_periods=15)
        upwind_ok = upwind_ok and not rep.blew_up and np.all(np.isfinite(rep.energy))
        if weights == [1, 0, 0, 0]:
            upwind_ok = upwind_ok and rep.error_at_periods[0] < 1e-2
    central_ok = True
    for weights in ([1, 0, 0, 0], TABLE_RK44_P3):
        rep = hetero_energy_study(CorrectionParams(3, weights), alpha=0.5, n_elements=32, n_periods=15)
        central_ok = central_ok and rep.blew_up and rep.blowup_time < 15 * HETERO_PERIOD

    # dense reference returns to the initial state after one period
    params = CorrectionParams(3, [1, 0, 0, 0])
    element = build_reference_element(3, solve_correction(params))
    n = 512
    ops = build_scheme_operators(element, 1.0, jacobian=1.0 / n)
    state = uniform_mesh(ops, n, -1.0, 1.0, init=lambda x: np.sin(4 * np.pi * x))
    u0 = state.u.copy()
    tau = 0.5 * state.element_width / (4 * 3.0)
    steps = ceil(HETERO_PERIOD / tau)
    tau = HETERO_PERIOD / steps
    rhs = make_heterogeneous_rhs(ops, state)
    for _ in range(steps):
        state = rk_advance(rhs, state, tau, "rk44")
    period_eps = float(np.mean(np.abs(state.u - u0)))
    ok = upwind_ok and central_ok and period_eps < 1e-4
    _verdict(
        8,
        ok,
        f"upwind survived, central blew up, dense period return eps2 = {period_eps:.2e}",
    )
    assert ok


def test_criterion_09_wave_speed_consistency():
    """Superconvergent dispersion upwind; dissipation-free central interfaces."""
    pair = solve_correction(CorrectionParams(3, [1, 0, 0, 0]))
    element = build_reference_element(3, pair)
    up = build_scheme_operators(element, 1.0, 1.0)
    k_hats = np.logspace(-3, -1, 21)
    errs = []
    for kh in k_hats:
        errs.append(abs(physical_speed(up, k_from_k_hat(up, kh)).real - 1.0))
    errs = np.array(errs)
    mask = errs > 1e-12  # eigensolver noise floor; values below it carry no slope information
    slope = np.polyfit(np.log(k_hats[mask]), np.log(errs[mask]), 1)[0] if mask.sum() >= 3 else 0.0
    central = build_scheme_operators(element, 0.5, 1.0)
    worst_im = 0.0
    for kh in np.pi * np.arange(1, 129) / 128:
        k = k_from_k_hat(central, kh)
        c = (1j / k) * np.linalg.eigvals(bloch_matrix(central, k))
        worst_im = max(worst_im, float(np.max(np.abs(c.imag))))
    ok = slope >= 6.0 and worst_im < 1e-10
    _verdict(9, ok, f"dispersion slope {slope:.2f} (>= 6), central max |Im c| {worst_im:.2e}")
    assert ok


def test_criterion_10_circulant_oracle():
    """Wavenumber blocks match a 64-element physical-space operator.

    The blocks are compared entry by entry as well as by eigenvalues, which
    pins the exponent-sign convention on the neighbour couplings.
    """
    pair = solve_correction(CorrectionParams(3, [1, 0, 0, 0]))
    ops = build_scheme_operators(build_reference_element(3, pair), 1.0, 1.0)
    n = 64
    mat = dense_operator(ops, n)
    delta = 2.0
    blocks = [mat[0:4, 4 * j : 4 * j + 4] for j in range(n)]
    worst = worst_block = 0.0
    for m in (1, 3, 7, 11, 17, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 63):
        k_m = 2.0 * np.pi * m / (n * delta)
        summed = sum(blocks[j] * np.exp(1j * k_m * j * delta) for j in range(n))
        q = bloch_matrix(ops, k_m)
        worst_block = max(worst_block, float(np.max(np.abs(summed - q))))
        eig_a = np.sort_complex(np.linalg.eigvals(summed))
        eig_q = np.sort_complex(np.linalg.eigvals(q))
        worst = max(worst, float(np.max(np.abs(eig_a - eig_q))))
    ok = worst < 1e-9 and worst_block < 1e-9
    _verdict(10, ok, f"16 sampled wavenumbers, worst eigenvalue gap {worst:.2e}")
    assert ok
