"""Desk-scale numerical studies: order of accuracy, aliasing energy, CFL search.

The studies couple the correction-function solver, the FR right-hand
sides, and the wavenumber analysis into the three reference experiments:
mesh-refinement order measurement for plane-wave advection, long-time
energy tracking for the variable-speed aliasing problem, and the coupled
search for the largest stable time step among order-recovering weight
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, inf, nan, pi, sqrt

import numpy as np

from .correction import CorrectionParams, NumericalFailure, SingularSystemError, solve_correction, sufficient_bounds
from .operators import (
    build_reference_element,
    build_scheme_operators,
    linear_advection_rhs,
    make_heterogeneous_rhs,
    mesh_nodes,
    rk_advance,
    solution_energy,
    stage_order,
    uniform_mesh,
)
from .spectral import ConvergenceFailureError, cfl_limit

__all__ = [
    "OoaReport",
    "EnergyReport",
    "SearchReport",
    "UnstableRunError",
    "EmptyFeasibleSetError",
    "HETERO_PERIOD",
    "ooa_study",
    "hetero_energy_study",
    "cfl_search",
    "advect_snapshot",
    "reference_operators",
    "step_limit",
    "StepMap",
    "step_map",
]

# exact traversal period of the variable-speed problem on [-1, 1]
HETERO_PERIOD = 2.0 / sqrt(3.0)

BLOWUP_ENERGY = 1e3

# advection studies: wave cos(WAVENUMBER x), step SAFETY times the limit at REFERENCE_RHO_TOL
WAVENUMBER = 1.0
SAFETY = 0.2
REFERENCE_RHO_TOL = 1e-4
# the search accepts a fitted order of at least p + ORDER_MARGIN
ORDER_MARGIN = 0.8

DEFAULT_ELEMENT_COUNTS = (50, 55, 60, 65, 70, 75)


class UnstableRunError(NumericalFailure):
    pass


class EmptyFeasibleSetError(NumericalFailure):
    pass


@dataclass(frozen=True)
class OoaReport:
    element_counts: tuple
    errors: np.ndarray
    fitted_order: float
    r_squared: float
    steps: tuple
    tau: tuple

    def to_dict(self) -> dict:
        return {
            "element_counts": list(self.element_counts),
            "errors": [float(e) for e in self.errors],
            "fitted_order": self.fitted_order,
            "r_squared": self.r_squared,
            "steps": list(self.steps),
            "tau": list(self.tau),
        }


@dataclass(frozen=True)
class EnergyReport:
    times: np.ndarray
    energy: np.ndarray
    error_at_periods: np.ndarray
    blew_up: bool
    blowup_time: float | None
    steps_per_period: int
    tau: float


@dataclass(frozen=True)
class SearchReport:
    best_iota: np.ndarray
    best_tau: float
    ooa_at_best: float
    grid_spec: str
    evaluated: int

    def to_dict(self) -> dict:
        return {
            "best_iota": [float(v) for v in self.best_iota],
            "best_tau": self.best_tau,
            "ooa_at_best": self.ooa_at_best,
            "grid_spec": self.grid_spec,
            "evaluated": self.evaluated,
        }


@dataclass(frozen=True)
class StepMap:
    """One explicit RK step of a linear right-hand side as a periodic block-banded matrix.

    The step is a degree-s polynomial in the right-hand side (s =
    RK_STAGE_ORDER[rk]), which couples only adjacent elements, so it
    couples each element to its s neighbours on either side: element j
    of the stepped solution is blocks[j] applied to the values of the
    2s+1 elements neighbours[j] = (j-s, ..., j+s) mod n, stacked in
    that order.
    """

    blocks: np.ndarray  # (n, p+1, (2s+1)(p+1))
    neighbours: np.ndarray  # (n, 2s+1)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        n = u.shape[0]
        return np.matmul(self.blocks, u[self.neighbours].reshape(n, -1, 1))[..., 0]


def step_map(rhs_fn, state, tau: float, rk: str) -> StepMap:
    """Assemble the one-step map of rk_advance(rhs_fn, ., tau, rk) by coloured probing.

    Elements are coloured j mod c, with c the smallest divisor of n that is
    at least min(2s+1, n). Each probe is a unit value at one local node of
    every element of one colour, stepped by rk_advance; a row element then
    meets at most one probed element within its band, so the probe's
    response fills exactly one of its blocks. That takes c(p+1) steps
    instead of n(p+1). When n < 2s+1, every element is probed alone and
    its coupling lands in the first slot that names it; the other slots
    naming the same element stay zero.
    """
    n, width = state.u.shape
    s = stage_order(rk)
    colours = next(c for c in range(min(2 * s + 1, n), n + 1) if n % c == 0)
    rows = np.arange(n)
    blocks = np.zeros((n, width, (2 * s + 1) * width))
    for colour in range(colours):
        # offset from row j to the element of this colour in its band, if any
        offset = (colour - rows + s) % colours - s
        near = offset <= s
        for i in range(width):
            probe = np.zeros_like(state.u)
            probe[colour::colours, i] = 1.0
            response = rk_advance(rhs_fn, replace(state, u=probe), tau, rk).u
            blocks[rows[near], :, (offset[near] + s) * width + i] = response[near]
    neighbours = (rows[:, None] + np.arange(-s, s + 1)) % n
    return StepMap(blocks, neighbours)


def reference_operators(pair, alpha: float):
    """Scheme operators of a correction pair on one Gauss reference element (jacobian 1).

    On linear advection the nodal operators of any node kind are
    similarity transforms of one modal operator, so the node kind cannot
    change a spectrum; the wavenumber analysis uses Gauss points only.
    """
    return build_scheme_operators(build_reference_element(pair.p, pair), alpha, 1.0)


def _reference_tau(
    pair, alpha: float, rk: str, k_samples: int = 128, rho_tol: float = REFERENCE_RHO_TOL
) -> float:
    """Stable reference-domain step (jacobian 1) for the given scheme."""
    return cfl_limit(reference_operators(pair, alpha), rk, k_samples, rho_tol=rho_tol).tau_max


def step_limit(
    params: CorrectionParams,
    alpha: float = 1.0,
    rk: str = "rk44",
    k_samples: int = 128,
    rho_tol: float = REFERENCE_RHO_TOL,
) -> float:
    """Reference-element step limit of a weight vector, the one path from weights to tau_max.

    nan outside the sufficient bounds and when the correction system is
    singular or the bisection fails; every other error propagates.
    """
    if not sufficient_bounds(params).satisfied:
        return nan
    try:
        return _reference_tau(solve_correction(params), alpha, rk, k_samples, rho_tol)
    except (SingularSystemError, ConvergenceFailureError):
        return nan


def _advection_setup(
    params: CorrectionParams, alpha: float, rk: str, node_kind: str, element_counts, t_end: float
):
    """Reference element and step limit of an advection study.

    Invalid meshes and end times are refused before the solve, and a
    limit of 0.02 or less is an UnstableRunError.
    """
    if min(element_counts) < 1 or not 0.0 < t_end < inf:
        raise ValueError(f"need n_elements >= 1 and a finite t_end > 0; got {min(element_counts)}, {t_end}")
    pair = solve_correction(params)
    element = build_reference_element(params.p, pair, node_kind)
    tau_ref = _reference_tau(pair, alpha, rk)
    if tau_ref <= 0.02:
        # tolerance-dominated or vanishing limits mean the scheme is
        # unusable at study scale (a healthy member sits near 0.1..0.9)
        raise UnstableRunError(f"no usable stable time step (reference limit {tau_ref:.3e}); study not run")
    return element, tau_ref


def _advect_cosine(element, alpha: float, n_elements: int, t_end: float, rk: str, tau_ref: float):
    """Advect cos(WAVENUMBER x) on [0, 2*pi] to t_end; return (x, u, eps_2, steps, tau).

    The step is SAFETY times the stable limit, shrinks like 1/N and is
    shortened to land exactly on t_end.
    """
    ops = build_scheme_operators(element, alpha, jacobian=pi / n_elements)
    state = uniform_mesh(ops, n_elements, 0.0, 2.0 * pi, init=lambda x: np.cos(WAVENUMBER * x))
    x = mesh_nodes(ops, state)
    tau = SAFETY * tau_ref * ops.jacobian
    steps = max(1, ceil(t_end / tau))
    tau = t_end / steps
    step = step_map(lambda s: linear_advection_rhs(ops, s), state, tau, rk)
    u = state.u
    # divergence overflows on its way to inf; the finite checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            u = step(u)
            if (k % 256 == 0 or k == steps - 1) and not np.all(np.isfinite(u)):
                raise UnstableRunError(f"divergence at N={n_elements}, t={k * tau:.4g}")
    eps = float(np.mean(np.abs(u - np.cos(WAVENUMBER * (x - t_end)))))
    return x.ravel(), u.ravel(), eps, steps, tau


def ooa_study(
    params: CorrectionParams,
    alpha: float = 1.0,
    element_counts=DEFAULT_ELEMENT_COUNTS,
    t_end: float = pi,
    rk: str = "rk44",
    node_kind: str = "gauss",
) -> OoaReport:
    """Measured order of accuracy for plane-wave advection on [0, 2*pi].

    A cosine wave is advected to t_end on each mesh and the point-averaged
    error eps_2 = mean |u - u_exact| is fitted against the total number of
    solution points in log-log; the negated slope is the realised order.
    The time step is SAFETY times the stable limit and shrinks like
    1/N, keeping the temporal error negligible next to the spatial one.
    """
    if len(set(element_counts)) < 4:
        raise ValueError("need at least four distinct mesh resolutions for a credible fit")
    element, tau_ref = _advection_setup(params, alpha, rk, node_kind, element_counts, t_end)
    errors, steps, taus = [], [], []
    for n in element_counts:
        _, _, err, n_steps, tau = _advect_cosine(element, alpha, n, t_end, rk, tau_ref)
        if not np.isfinite(err) or err > BLOWUP_ENERGY:
            raise UnstableRunError(f"error {err:.3e} at N={n}; run reported, not fitted")
        errors.append(err)
        steps.append(n_steps)
        taus.append(tau)
    errors = np.array(errors)
    n_points = np.array(element_counts, dtype=float) * (params.p + 1)
    slope, intercept = np.polyfit(np.log(n_points), np.log(errors), 1)
    fit = slope * np.log(n_points) + intercept
    resid = np.log(errors) - fit
    ss_tot = np.sum((np.log(errors) - np.mean(np.log(errors))) ** 2)
    r2 = 1.0 - float(np.sum(resid**2)) / float(ss_tot) if ss_tot > 0 else 1.0
    return OoaReport(
        element_counts=tuple(element_counts),
        errors=errors,
        fitted_order=float(-slope),
        r_squared=r2,
        steps=tuple(steps),
        tau=tuple(taus),
    )


def hetero_energy_study(
    params: CorrectionParams,
    alpha: float = 1.0,
    n_elements: int = 32,
    n_periods: int = 15,
    cfl: float = 0.06,
    rk: str = "rk44",
    node_kind: str = "gauss",
) -> EnergyReport:
    """Energy history of sin(4*pi*x) under the variable-speed flux on [-1, 1].

    The solution is exactly time-periodic with period 2/sqrt(3), so the
    domain energy returns to 1 at every period multiple; the recorded
    |E(nT) - 1| measure the aliasing-driven error. The step is sized per
    solution point against the maximum speed 3 and adjusted to land
    exactly on period boundaries. Blow-up (energy above 1e3) stops the
    run and is flagged with its time rather than raised.
    """
    if n_elements < 1 or n_periods < 1 or not cfl > 0.0:
        raise ValueError(f"need n_elements >= 1, n_periods >= 1, cfl > 0; got {n_elements}, {n_periods}, {cfl}")
    pair = solve_correction(params)
    element = build_reference_element(params.p, pair, node_kind)
    ops = build_scheme_operators(element, alpha, jacobian=1.0 / n_elements)
    state = uniform_mesh(ops, n_elements, -1.0, 1.0, init=lambda x: np.sin(4.0 * np.pi * x))
    node_spacing = state.element_width / (params.p + 1)
    tau_target = cfl * node_spacing / 3.0
    steps_per_period = max(1, ceil(HETERO_PERIOD / tau_target))
    tau = HETERO_PERIOD / steps_per_period
    record_stride = max(1, steps_per_period // 32)

    step = step_map(make_heterogeneous_rhs(ops, state), state, tau, rk)
    # solution_energy's expression on the bare array, so the energies are the same doubles
    u, jac, w = state.u, state.jacobian, ops.element.weights[None, :]
    times = [0.0]
    energy = [solution_energy(ops, state)]
    period_errors = []
    blew_up = False
    blowup_time = None
    t = 0.0
    # blow-up overflows on its way to inf; the energy check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_periods * steps_per_period + 1):
            u = step(u)
            t = n * tau
            e = float(jac * np.sum(w * u**2))
            if n % record_stride == 0 or n % steps_per_period == 0:
                times.append(t)
                energy.append(e)
            if not np.isfinite(e) or e > BLOWUP_ENERGY:
                blew_up = True
                blowup_time = t
                break
            if n % steps_per_period == 0:
                period_errors.append(abs(e - 1.0))
    return EnergyReport(
        times=np.array(times),
        energy=np.array(energy),
        error_at_periods=np.array(period_errors),
        blew_up=blew_up,
        blowup_time=blowup_time,
        steps_per_period=steps_per_period,
        tau=tau,
    )


def default_search_grid(p: int, magnitudes):
    """Every weight vector [1, iota_1, ..., iota_p] with each iota_i in {0, +/-m for m in magnitudes}.

    Points outside the sufficient bounds are kept; step_limit maps them to nan.
    """
    axes = sorted({0.0} | {s * m for m in magnitudes for s in (1.0, -1.0)})
    grids = np.meshgrid(*([axes] * p), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    return [np.concatenate(([1.0], row)) for row in points]


def cfl_search(
    p: int,
    rk: str,
    grid,
    alpha: float = 1.0,
    element_counts=DEFAULT_ELEMENT_COUNTS,
) -> SearchReport:
    """Largest stable step among weight vectors that keep the full order.

    Every grid point inside the sufficient bounds gets an analytic step
    limit; candidates are then checked in descending step order with the
    mesh-refinement study until one reaches the order p + ORDER_MARGIN.
    """
    ooa_threshold = p + ORDER_MARGIN
    points = [CorrectionParams(p, list(iota)) for iota in grid]
    taus = [step_limit(params, alpha, rk) for params in points]
    candidates = [(tau, params) for tau, params in zip(taus, points) if tau > 0.0]
    if not candidates:
        skipped = sum(not sufficient_bounds(params).satisfied for params in points)
        raise EmptyFeasibleSetError(
            f"no stable grid point among {len(grid)} ({skipped} outside the bounds)"
        )
    candidates.sort(key=lambda item: -item[0])
    for tau, params in candidates:
        try:
            report = ooa_study(params, alpha, element_counts=element_counts, rk=rk)
        except UnstableRunError:
            continue
        if report.fitted_order >= ooa_threshold:
            return SearchReport(
                best_iota=params.iota_array,
                best_tau=tau,
                ooa_at_best=report.fitted_order,
                grid_spec=f"{len(grid)} points, {len(candidates)} stable, threshold {ooa_threshold}",
                evaluated=len(candidates),
            )
    raise EmptyFeasibleSetError(
        f"no grid point reached order {ooa_threshold} among {len(candidates)} stable candidates"
    )


def advect_snapshot(
    params: CorrectionParams,
    alpha: float = 1.0,
    n_elements: int = 50,
    t_end: float = pi,
    rk: str = "rk44",
    node_kind: str = "gauss",
):
    """Advect a cosine wave and return (x, u, eps_2) at t_end."""
    element, tau_ref = _advection_setup(params, alpha, rk, node_kind, (n_elements,), t_end)
    return _advect_cosine(element, alpha, n_elements, t_end, rk, tau_ref)[:3]
