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

from dataclasses import dataclass
from math import factorial, inf

import numpy as np

from .correction import NumericalFailure
from .operators import SchemeOperators, stage_order

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
    """Eigenvalue extraction failed (matrices here are at most 8x8)."""


@dataclass(frozen=True)
class StabilityResult:
    """Largest stable time step for a (scheme, RK) pair with sweep evidence."""

    tau_max: float
    k_samples: int
    rk: str
    worst_k: float
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
    """Fully-discrete one-step map (exponential truncated at the scheme order); stacks map to stacks."""
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    out = np.eye(Q.shape[-1], dtype=complex)
    power = np.eye(Q.shape[-1], dtype=complex)
    for n in range(1, stage_order(rk) + 1):
        power = power @ (tau * Q)
        out = out + power / factorial(n)
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


def cfl_limit(
    ops: SchemeOperators,
    rk: str = "rk44",
    k_samples: int = 256,
    rho_tol: float = RHO_TOL,
) -> StabilityResult:
    """Largest tau with spectral radius <= 1 over the sampled wavenumbers.

    Bisection to a relative tolerance of 1e-4 on the stability predicate
    max_k rho(R(tau Q(k))) <= 1 + rho_tol, where R is the exponential
    truncated at the scheme order. By spectral mapping,
    eig(R(tau Q)) = R(tau eig(Q)) (Vermeire & Vincent, CMAME 2017), so
    the eigenvalues of the Q(k) stack are solved once and each probe
    evaluates max |R(tau lambda)| over them. The update-matrix route
    (update_matrix + spectral_radius) runs once, at the first unstable
    bracket end, to pick worst_k; it also serves the tests as the oracle.
    tau is expressed for the operators as given; with jacobian 1
    (element width 2) it is the reference-domain time step for unit
    advection speed.

    The default rho_tol 1e-10 treats any true eigenvalue growth as
    unstable. Weight vectors whose semi-discrete operator carries a tiny
    positive spectral abscissa (several published optima do; the result
    reports it) then report a tau_max near 0; passing a looser rho_tol
    reproduces threshold-style stability verdicts instead.
    """
    order = stage_order(rk)
    if not 0.0 <= rho_tol < inf:
        raise ValueError(f"rho_tol must be finite and non-negative, got {rho_tol!r}")
    k_hats = _k_hat_grid(k_samples)
    q_mats = bloch_matrix(ops, k_from_k_hat(ops, k_hats))
    lam = _eigvals(q_mats).ravel()
    probes = 0

    def stable(tau: float) -> bool:
        nonlocal probes
        probes += 1
        z = tau * lam
        growth = np.ones_like(z)
        for n in range(order, 0, -1):  # Horner form of sum_{n<=order} z^n / n!
            growth = 1.0 + growth * z / n
        return np.abs(growth).max() <= 1.0 + rho_tol

    def result(tau_max: float, worst_k: float) -> StabilityResult:
        return StabilityResult(
            tau_max=tau_max,
            k_samples=k_samples,
            rk=rk,
            worst_k=float(worst_k),
            probes=probes,
            spectral_abscissa=float(lam.real.max()),
        )

    lo, hi = 0.0, 0.05
    while stable(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e3:  # no finite limit detected; report the verified bracket
            return result(lo, k_hats[-1])
    while hi - lo > BISECTION_REL_TOL * max(hi, 1e-12):
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
        if hi < 1e-9:  # unstable for arbitrarily small steps
            lo = 0.0
            break
    return result(lo, k_hats[int(np.argmax(spectral_radius(update_matrix(q_mats, hi, rk))))])


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
