"""Von Neumann analysis of the semi-discrete and fully-discrete schemes.

For a periodic uniform mesh the element-coupled update reduces, one
wavenumber at a time, to the (p+1)x(p+1) complex block

    Q(k) = -J^{-1} (C_plus e^{+ik delta} + C_zero + C_minus e^{-ik delta})

(the +/- exponents follow the neighbour shift directions; the circulant
operator test pins this choice against a physical-space assembly). The
modified wave speeds are the eigenvalues of (i/k) Q(k), and fully
discrete stability requires the spectral radius of the one-step update
matrix to stay within one over the whole wavenumber range.

Wavenumbers are reported through k_hat = k * delta / (p+1) in (0, pi],
i.e. normalised so the grid Nyquist limit sits at pi.
"""

from __future__ import annotations

from math import gcd, inf
from typing import NamedTuple

import numpy as np

from .correction import NumericalFailure
from .operators import SchemeOperators, rk_divisors

__all__ = [
    "StabilityResult",
    "ConvergenceFailureError",
    "PUBLISHED_STEP_LIMITS",
    "bloch_matrix",
    "k_from_k_hat",
    "update_matrix",
    "spectral_radius",
    "cfl_limit",
    "dispersion_sweep",
]

RHO_TOL = 1e-10
BISECTION_REL_TOL = 1e-4

# The paper's peak stable steps (per element width) with their weight vectors,
# as (p, scheme, iota_0..iota_p, published step limit).
PUBLISHED_STEP_LIMITS = (
    (3, "rk33", (1, 1.274e-3, 1.438e-2, 7.848e-3), 0.385),
    (3, "rk44", (1, 2.069e-4, 2.336e-3, 2.336e-3), 0.390),
    (3, "rk55", (1, 6.952e-4, -6.158e-5, 2.336e-3), 0.443),
    (4, "rk33", (1, 4.833e-4, 2.336e-5, -1.438e-4, 2.637e-4), 0.431),
    (4, "rk44", (1, 1.624e-3, 2.637e-4, -2.637e-4, 2.637e-4), 0.430),
    (4, "rk55", (1, 1.624e-3, 1.274e-5, -2.637e-4, 8.859e-4), 0.354),
)


class ConvergenceFailureError(NumericalFailure):
    """Eigenvalue extraction failed (matrices here are at most 8x8), or a step bisection found no unstable step."""


class StabilityResult(NamedTuple):
    """Largest stable time step for a (scheme, RK) pair with sweep evidence."""

    tau_max: float
    k_samples: int
    rk: str
    worst_k_hat: float  # normalised wavenumber in (0, pi] of the largest growth
    probes: int  # stability-predicate evaluations of the bisection
    spectral_abscissa: float  # max Re lambda over the sampled Q(k)


def k_from_k_hat(ops: SchemeOperators, k_hat: float) -> float:
    """Physical wavenumber for a normalised k_hat in (0, pi]."""
    delta = 2.0 * ops.jacobian
    return k_hat * (ops.element.p + 1) / delta


def bloch_matrix(ops: SchemeOperators, k) -> np.ndarray:
    """Wavenumber-reduced semi-discrete operator Q(k); a stack for an array of k."""
    delta = 2.0 * ops.jacobian
    phase = np.exp(1j * np.asarray(k) * delta)[..., None, None]
    return -(ops.C_plus * phase + ops.C_zero + ops.C_minus / phase) / ops.jacobian


def _eigvals(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigenvalue extraction failed: {exc}") from exc


def update_matrix(Q: np.ndarray, tau: float, rk: str = "rk44") -> np.ndarray:
    """Fully-discrete one-step map R(tau Q), R the scheme's polynomial sum_n z^n / d_n of RK_DIVISORS; stacks map to stacks."""
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    out = np.eye(Q.shape[-1], dtype=complex)
    power, step = out, tau * Q
    for divisor in rk_divisors(rk)[1:]:
        power = power @ step
        out = out + power / divisor
    return out


def spectral_radius(mat: np.ndarray):
    """Largest eigenvalue magnitude by full eigenvalue extraction; one per matrix of a stack."""
    mat = np.asarray(mat, dtype=complex)
    rho = np.max(np.abs(_eigvals(mat)), axis=-1)
    return float(rho) if mat.ndim == 2 else rho


def _k_hat_grid(k_samples: int) -> np.ndarray:
    if k_samples < 1:
        raise ValueError("need at least one wavenumber sample")
    return np.pi * np.arange(1, k_samples + 1) / k_samples


def _phase_classes(p: int, k_samples: int) -> np.ndarray:
    """First grid index of each Bloch phase class up to conjugation, in grid order.

    The j-th wavenumber (j = 1..K, k_hat = pi*j/K) has phase
    (p+1)*k_hat = pi*m_j/K with m_j = (p+1)*j mod 2K, which repeats with
    period P = 2K / gcd(p+1, 2K); inside a period m_(P-j) = -m_j, so Q at
    j and at P-j are conjugates. The first of each class is thus
    j = 1..P/2 and j = P (phase 0), or every j when P = 2K (even p).
    Integers, so no rounding decides an alias.
    """
    period = 2 * k_samples // gcd(p + 1, 2 * k_samples)
    if period > k_samples:
        return np.arange(k_samples)
    return np.array([*range(period // 2), period - 1])


def _excess_coeffs(lam: np.ndarray, divisors: tuple) -> np.ndarray:
    """Rows c_1..c_2s of |R(tau lambda)|^2 - 1 = sum_j c_j tau^j, one row per eigenvalue.

    R(z) = sum_{n<=s} z^n / d_n, d_0 = 1, with a scheme's divisors of RK_DIVISORS, so c_j = Re sum_{m+n=j}
    lambda^m conj(lambda)^n / (d_m d_n); the exact constant c_0 = 1 is dropped rather than cancelled.
    """
    size = len(divisors)
    terms = lam[:, None] ** np.arange(size) / divisors
    sq = np.zeros((lam.size, 2 * size - 1))
    for m in range(size):
        sq[:, m : m + size] += (terms[:, m : m + 1] * terms.conj()).real
    return sq[:, 1:]


def cfl_limit(
    ops: SchemeOperators,
    rk: str = "rk44",
    k_samples: int = 256,
    rho_tol: float = RHO_TOL,
) -> StabilityResult:
    """Largest tau with spectral radius <= 1 + rho_tol over the sampled wavenumbers.

    Bisection to a relative tolerance of 1e-4 on the stability predicate
    max_k rho(R(tau Q(k))) <= 1 + rho_tol, where R is the scheme's
    degree-s polynomial of RK_DIVISORS. By spectral mapping,
    eig(R(tau Q)) = R(tau eig(Q)) (Vermeire & Vincent, CMAME 2017), so
    the eigenvalues are solved once, and with them the coefficients of
    |R(tau lambda)|^2 - 1, a real polynomial of degree 2s in tau with no
    constant term (`_excess_coeffs`). Each probe is one product of that
    coefficient matrix with the powers of tau, held against
    (1 + rho_tol)^2 - 1. Nothing cancels against the exact 1, so a strict
    limit near tau ~1e-7 is decided on the excess itself rather than on
    |R| = |1 + small|, which loses about 1e-6 of it. Q(k) depends on k_hat
    only through the phase exp(i(p+1)k_hat), and conjugate phases give
    conjugate matrices with the same |R(tau lambda)|, so only the first
    grid wavenumber of each phase class up to conjugation is solved. For
    K a power of two (at least 4) the grid holds K/4 + 1 classes at p=3
    and K/2 + 1 at p=5; at even p every wavenumber is its own class. The
    update-matrix route (update_matrix + spectral_radius) runs once, at
    the first unstable bracket end, to pick the worst class among those
    whose eigen-route growth sqrt(1 + excess) there is within 1e-12 of
    the largest; worst_k_hat is the first grid k_hat of that class. The
    route also serves the tests as the oracle.
    tau is expressed for the operators as given; with jacobian 1
    (element width 2) it is the reference-domain time step for unit
    advection speed.

    The default rho_tol 1e-10 treats any true eigenvalue growth as
    unstable. Weight vectors with a tiny positive spectral abscissa
    (several published optima; the result reports it) then report their
    small limit as bisected, about rho_tol / abscissa; a looser rho_tol
    gives threshold-style verdicts. With no floor, a tau_max of 0 means no
    stable step at the bisection's resolution (about 1e-16). A bracket
    passing tau = 1e3 found no unstable step: a ConvergenceFailureError.
    """
    divisors = rk_divisors(rk)
    if not 0.0 <= rho_tol < inf:
        raise ValueError(f"rho_tol must be finite and non-negative, got {rho_tol!r}")
    k_hats = _k_hat_grid(k_samples)
    reps = _phase_classes(ops.element.p, k_samples)
    q_mats = bloch_matrix(ops, k_from_k_hat(ops, k_hats[reps]))
    lam = _eigvals(q_mats).ravel()
    coeffs, powers = _excess_coeffs(lam, divisors), np.arange(1, 2 * len(divisors) - 1)
    bound = 2.0 * rho_tol + rho_tol * rho_tol  # |R| <= 1 + rho_tol, squared, minus 1; inf past the float range
    probes = 0

    def excess(tau: float) -> np.ndarray:
        return coeffs @ tau**powers

    def stable(tau: float) -> bool:
        nonlocal probes
        probes += 1
        return excess(tau).max() <= bound

    lo, hi = 0.0, 0.05
    while stable(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e3:
            raise ConvergenceFailureError(f"no unstable step up to tau = {lo:g}: lower --rho-tol ({rho_tol:g} here)")
    while hi - lo > BISECTION_REL_TOL * max(hi, 1e-12):
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    # per phase class the two routes' growths differ by at most 5.3e-14
    # relative on the published rows and the p=2..4 weight grids at alpha 1
    # (7.2e-13 at alpha 0.5), so 1e-12 keeps the matrix route's maximum
    # inside `near`
    per_class = np.sqrt(1.0 + excess(hi).reshape(len(reps), -1).max(axis=1))
    near = np.flatnonzero(per_class >= per_class.max() * (1.0 - 1e-12))
    worst = near[np.argmax(spectral_radius(update_matrix(q_mats[near], hi, rk)))]
    return StabilityResult(
        tau_max=lo,
        k_samples=k_samples,
        rk=rk,
        worst_k_hat=float(k_hats[reps[worst]]),
        probes=probes,
        spectral_abscissa=float(lam.real.max()),
    )


def dispersion_sweep(ops: SchemeOperators, k_samples: int = 256):
    """Dispersion/dissipation curves over k_hat in (0, pi].

    Returns (k_hats, omega_re, omega_im) with mode columns kept
    continuous in k by nearest-neighbour matching between consecutive
    wavenumbers; column 0 starts from the physical mode at small k_hat.
    """
    k_hats = _k_hat_grid(k_samples)
    ks = k_from_k_hat(ops, k_hats)
    n_modes = ops.element.p + 1
    raw = (1j / ks)[:, None] * _eigvals(bloch_matrix(ops, ks))
    # modes by descending real part, imaginary part as tie-break
    ordered = np.take_along_axis(raw, np.lexsort((raw.imag, -raw.real), axis=-1), axis=-1)
    speeds = np.empty((k_samples, n_modes), dtype=complex)
    for row, c in enumerate(ordered):
        if row == 0:
            # start from the physical mode, then deterministic order
            first = int(np.argmin(np.abs(c - 1.0)))
            idx = [first] + [i for i in range(n_modes) if i != first]
            c = c[idx]
        else:
            taken = np.zeros(n_modes, dtype=bool)
            matched = np.empty(n_modes, dtype=complex)
            for col in range(n_modes):
                dist = np.abs(c - speeds[row - 1, col])
                dist[taken] = np.inf
                j = int(np.argmin(dist))
                taken[j] = True
                matched[col] = c[j]
            c = matched
        speeds[row] = c
    omega = speeds * k_hats[:, None]
    return k_hats, omega.real, omega.imag
