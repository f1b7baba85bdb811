"""Desk-scale numerical studies: order of accuracy, aliasing energy, CFL search.

The studies couple the correction-function solver, the FR right-hand
sides, and the wavenumber analysis into the three reference experiments:
mesh-refinement order measurement for plane-wave advection, long-time
energy tracking for the variable-speed aliasing problem, and the coupled
search for the largest stable time step among order-recovering weight
vectors.
"""

from __future__ import annotations

from math import ceil, inf, pi, sqrt
from typing import NamedTuple

import numpy as np

from .correction import CorrectionParams, NumericalFailure, SingularSystemError, solve_correction, sufficient_bounds
from .operators import (
    MeshState,
    build_reference_element,
    build_scheme_operators,
    make_heterogeneous_rhs,
    mesh_nodes,
    rk_advance,
    rk_divisors,
    solution_energy,
    uniform_mesh,
)
from .spectral import ConvergenceFailureError, StabilityResult, bloch_matrix, cfl_limit

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
    "step_map",
]

# exact traversal period of the variable-speed problem on [-1, 1]
HETERO_PERIOD = 2.0 / sqrt(3.0)

BLOWUP_ENERGY = 1e3
# steps of the hetero study per energy reduction; its buffer holds their products and the state before them
_ENERGY_CHUNK = 128

# advection studies: wave cos(WAVENUMBER x), step SAFETY times the limit at REFERENCE_RHO_TOL over REFERENCE_K_SAMPLES
WAVENUMBER = 1.0
SAFETY = 0.2
REFERENCE_RHO_TOL = 1e-4
REFERENCE_K_SAMPLES = 128
# the search accepts a fitted order of at least p + ORDER_MARGIN
ORDER_MARGIN = 0.8
# an order study whose smallest error is below this fits round-off: at p=3, N=384 (eps_2 about 1.3e-11)
# two float routes to the same scheme, the Bloch power and a step-map loop, differ by 1.3e-4 relative
ROUNDOFF_FLOOR = 1e-11

DEFAULT_ELEMENT_COUNTS = (50, 55, 60, 65, 70, 75)


class UnstableRunError(NumericalFailure):
    pass


class EmptyFeasibleSetError(NumericalFailure):
    pass


class OoaReport(NamedTuple):
    """Errors, steps and step sizes per mesh of an order study, and the order fitted through the errors."""

    element_counts: tuple
    errors: np.ndarray
    fitted_order: float
    r_squared: float
    steps: tuple
    tau: tuple
    at_roundoff: bool  # the smallest error is below ROUNDOFF_FLOOR, so the fit may read round-off


class EnergyReport(NamedTuple):
    """Energy history of the variable-speed study, its error at each period end, and its blow-up if any."""

    times: np.ndarray
    energy: np.ndarray
    error_at_periods: np.ndarray
    blew_up: bool
    blowup_time: float | None
    peak_energy: float  # largest energy from t = 0 to the end or the blow-up step
    steps_per_period: int
    tau: float


class SearchReport(NamedTuple):
    """The search's winning weight vector with its step limit and order, and the fate of every other grid point."""

    best_iota: np.ndarray
    best_tau: float
    ooa_at_best: float
    grid_spec: str
    evaluated: int  # candidates whose order study ran, unstable runs included
    # the fate of every other grid point and of every evaluated candidate but the best
    outside_bounds: int  # outside the sufficient bounds, so never given a limit
    no_limit: int  # inside the bounds, but a singular or refused solve or a failed bisection
    zero_tau: int  # a limit of 0: unstable for every step
    unstable_runs: int  # order studies refused or diverged (UnstableRunError)
    below_order: int  # order studies that fitted below the threshold
    spectral_abscissa: float  # the winner's, from its step limit's cfl_limit call


def step_map(rhs_fn, state, tau: float, rk: str):
    """One step of rk_advance(rhs_fn, ., tau, rk), rhs_fn linear, as a periodic block-tridiagonal map.

    The step is the degree-s polynomial of rk's RK_DIVISORS entry in the
    right-hand side, which couples only adjacent elements, so it couples
    each element to its s neighbours on either side. A group of s
    consecutive elements then couples only to itself and the groups on
    either side. The map is the pair (rows, cols), rows of shape
    (ceil(n/s), s(p+1), 3s(p+1)) and cols of shape (ceil(n/s), 3s(p+1)):
    group g of the stepped solution, elements g*s .. g*s+s-1, is rows[g]
    applied to the values of the 3s elements (g*s-s, ..., g*s+2s-1) mod n,
    which sit at the flat positions cols[g] of u. When s does not divide
    n, the last group runs past element n-1 and repeats elements 0, 1,
    ...; those surplus rows are no part of the step, and the in-place
    steps of hetero_energy_study leave them unread.

    The map is assembled by coloured probing. Elements are coloured in
    runs: each whole run of 2s+1 elements takes colours 0..2s in order,
    and the n mod (2s+1) elements left over take one new colour each, so
    elements of one colour are at least 2s+1 apart, also across the
    periodic wrap. Each probe is a unit value at one local
    node of every element of one colour; a row element then meets at most
    one probed element within its band, so the probe's response fills
    exactly one of its per-element blocks (p+1 rows by the (2s+1)(p+1)
    values of elements j-s .. j+s). That takes at most (4s+1)(p+1) probes
    instead of n(p+1), whatever n is, stepped as one stack by rk_advance.
    When n < 2s+1, every element is probed alone and its coupling lands in
    the first slot that names it; the other slots naming the same element
    stay zero.

    The blocks are then packed into ceil(n/s) group rows: element g*s+r
    (mod n) is row block r of group g, at the columns of window slots
    r .. r+2s, and the rest of the row is zero.
    """
    n, width = state.u.shape
    s = len(rk_divisors(rk)) - 1
    band = 2 * s + 1
    runs, rows = n // band, np.arange(n)
    colour = np.where(rows < runs * band, rows % band, rows - max(runs - 1, 0) * band)
    probes = np.zeros((colour.max() + 1, width, n, width))
    probes[colour, :, rows, :] = np.eye(width)
    responses = rk_advance(rhs_fn, state._replace(u=probes.reshape(-1, n, width)), tau, rk).u.reshape(probes.shape)
    neighbours = (rows[:, None] + np.arange(-s, s + 1)) % n
    # blocks[j, :, o, :] is element j's response to the probe of its o-th band element
    blocks = responses[colour[neighbours], :, rows[:, None], :].transpose(0, 3, 1, 2)
    blocks[:, :, n:, :] = 0.0  # slots past n repeat an element an earlier slot names
    groups = ceil(n / s)
    packed = np.zeros((groups, s, width, 3 * s, width))
    elements = np.arange(groups * s).reshape(groups, s) % n
    for r in range(s):
        packed[:, r, :, r : r + band, :] = blocks[elements[:, r]]
    window = (elements[:, :1] + np.arange(-s, 2 * s)) % n
    cols = (window[..., None] * width + np.arange(width)).reshape(groups, -1)
    return packed.reshape(groups, s * width, -1), cols


def reference_operators(pair, alpha: float):
    """Scheme operators of a correction pair on one Gauss reference element (jacobian 1).

    On linear advection the nodal operators of any node kind are
    similarity transforms of one modal operator, so the node kind cannot
    change a spectrum; the wavenumber analysis uses Gauss points only.
    """
    return build_scheme_operators(build_reference_element(pair.p, pair), alpha, 1.0)


def _reference_limit(pair, alpha: float, rk: str, k_samples: int = REFERENCE_K_SAMPLES, rho_tol: float = REFERENCE_RHO_TOL):
    """(reference_operators, cfl_limit) of a pair (Gauss, jacobian 1) for the given scheme."""
    ops = reference_operators(pair, alpha)
    return ops, cfl_limit(ops, rk, k_samples, rho_tol=rho_tol)


def step_limit(
    params: CorrectionParams,
    alpha: float = 1.0,
    rk: str = "rk44",
    k_samples: int = REFERENCE_K_SAMPLES,
    rho_tol: float = REFERENCE_RHO_TOL,
) -> StabilityResult | None:
    """Reference-element step limit of a weight vector, the one path from weights to tau_max.

    None outside the sufficient bounds, on a singular or refused solve
    and when the bisection fails; an unknown scheme raises first, every other error propagates.
    """
    rk_divisors(rk)
    if not sufficient_bounds(params).satisfied:
        return None
    return _solved_limit(params, alpha, rk, k_samples, rho_tol)[1]


def _solved_limit(params, alpha: float, rk: str, k_samples: int = REFERENCE_K_SAMPLES, rho_tol: float = REFERENCE_RHO_TOL):
    """(Gauss operators, step_limit) of a point already inside the sufficient bounds, (None, None) off the usable set."""
    try:
        return _reference_limit(solve_correction(params), alpha, rk, k_samples, rho_tol)
    except (SingularSystemError, ConvergenceFailureError):
        return None, None


def _advection_setup(params: CorrectionParams, alpha: float, rk: str, node_kind: str, element_counts, t_end: float):
    """Operators (jacobian 1) and step limit of an advection study; bad meshes and end times are refused before the solve."""
    if min(element_counts) < 1 or not 0.0 < t_end < inf:
        raise ValueError(f"need n_elements >= 1 and a finite t_end > 0; got {min(element_counts)}, {t_end}")
    pair = solve_correction(params)
    # the limit's own operators are the Gauss ones; any other node kind is built (and refused) before the limit
    ops = None if node_kind == "gauss" else build_scheme_operators(build_reference_element(params.p, pair, node_kind), alpha)
    gauss, limit = _reference_limit(pair, alpha, rk)
    return ops or gauss, limit.tau_max


def _advect_cosine(ops, n_elements: int, t_end: float, rk: str, tau_ref: float):
    """Advect cos(WAVENUMBER x) on [0, 2*pi] to t_end; return (x, u, eps_2, steps, tau).

    The step is SAFETY times the stable limit, shrinks like 1/N and is
    shortened to land exactly on t_end; a limit of 0.02 or less is an UnstableRunError.
    The wave is one Bloch mode, so the steps are one power of its (p+1)x(p+1) block:
    rk_advance applied to the wave's semi-discrete operator Q (spectral.bloch_matrix),
    one stacked step of the p+1 unit vectors.
    """
    if tau_ref <= 0.02:
        # tolerance-dominated or vanishing limits mean the scheme is
        # unusable at study scale (a healthy member sits near 0.1..0.9)
        raise UnstableRunError(f"no usable stable time step (reference limit {tau_ref:.3e}); study not run")
    ops = ops._replace(jacobian=pi / n_elements)  # C_plus, C_zero and C_minus do not depend on the jacobian
    unit = MeshState(n_elements, 0.0, np.eye(ops.element.nodes.size, dtype=complex))
    x = mesh_nodes(ops, unit)
    tau = SAFETY * tau_ref * ops.jacobian
    steps = max(1, ceil(t_end / tau))
    tau = t_end / steps
    # element j holds Re(phase[j] v), v = e^{i WAVENUMBER x} on element 0, and dv/dt = Q v;
    # row i of the step is the image of e_i, so its transpose is the block
    phase = np.exp(1j * WAVENUMBER * (x[:, :1] - x[0, 0]))
    q = bloch_matrix(ops, WAVENUMBER)
    block = rk_advance(lambda u: u @ q.T, unit, tau, rk).u.T
    # divergence overflows on its way to inf; the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        u = (phase * (np.linalg.matrix_power(block, steps) @ np.exp(1j * WAVENUMBER * x[0]))).real
    if not np.all(np.isfinite(u)):
        raise UnstableRunError(f"divergence at N={n_elements}")
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
    The time step is SAFETY times the stable limit and shrinks like 1/N,
    so the study is fully discrete and also measures the time integrator:
    with rk33 the third-order temporal error dominates from p=4 on (DG
    fits about 3.04 at p=4 and 3.00 at p=5 on the default meshes).
    Errors near round-off leave the fit unresolved, and at_roundoff
    flags a study whose smallest error is below ROUNDOFF_FLOOR. At p=3 past about
    N = 300, eps_2 is about 1e-11 (at N = 384) and two float routes to
    the same scheme differ by 1.3e-4 relative. At p=5 with rk55 the
    default meshes already sit there (1e-12 to 9e-14), and two routes to
    the one-step block fit 5.996 and 6.003.
    """
    if len(set(element_counts)) < 4:
        raise ValueError("need at least four distinct mesh resolutions for a credible fit")
    ops, tau_ref = _advection_setup(params, alpha, rk, node_kind, element_counts, t_end)
    return _fit_order(ops, tau_ref, element_counts, t_end, rk)


def _fit_order(ops, tau_ref: float, element_counts, t_end: float, rk: str) -> OoaReport:
    """The order study of ooa_study on operators whose reference limit is already known."""
    errors, steps, taus = [], [], []
    for n in element_counts:
        _, _, err, n_steps, tau = _advect_cosine(ops, n, t_end, rk, tau_ref)
        if not np.isfinite(err) or err > BLOWUP_ENERGY:
            raise UnstableRunError(f"error {err:.3e} at N={n}; run reported, not fitted")
        errors.append(err)
        steps.append(n_steps)
        taus.append(tau)
    errors = np.array(errors)
    n_points = np.array(element_counts, dtype=float) * (ops.element.p + 1)
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
        at_roundoff=bool(errors.min() < ROUNDOFF_FLOOR),
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
    run and is flagged with its time rather than raised. Each step gathers
    into one window allocated per run and writes its product in place into
    the energy buffer, so no step allocates.
    """
    if n_elements < 1 or n_periods < 1 or not 0.0 < cfl < inf:
        raise ValueError(f"need n_elements >= 1, n_periods >= 1, a finite cfl > 0; got {n_elements}, {n_periods}, {cfl}")
    pair = solve_correction(params)
    element = build_reference_element(params.p, pair, node_kind)
    ops = build_scheme_operators(element, alpha, jacobian=1.0 / n_elements)
    state = uniform_mesh(ops, n_elements, -1.0, 1.0, init=lambda x: np.sin(4.0 * np.pi * x))
    node_spacing = 2.0 * ops.jacobian / (params.p + 1)
    tau_target = cfl * node_spacing / 3.0
    # steps are counted in int64: refuse a run longer than that, checked before dividing by a
    # tau_target that may underflow to 0, and again after ceil's rounding
    max_steps = int(np.iinfo(np.int64).max)
    too_long = ValueError(f"{n_periods} periods at cfl {cfl:g} take more than {max_steps} steps")
    if n_periods > max_steps or n_periods * HETERO_PERIOD > tau_target * max_steps:
        raise too_long
    steps_per_period = max(1, ceil(HETERO_PERIOD / tau_target))
    if n_periods * steps_per_period > max_steps:
        raise too_long
    tau = HETERO_PERIOD / steps_per_period
    record_stride = max(1, steps_per_period // 32)

    rows, cols = step_map(make_heterogeneous_rhs(ops, state), state, tau, rk)
    cols, size = cols[..., None], state.u.size
    window = np.empty(cols.shape)
    buf = np.zeros((_ENERGY_CHUNK + 1,) + rows.shape[:2] + (1,))  # slot 0: the state before the chunk
    buf[0].reshape(-1)[:size] = state.u.ravel()
    slots = list(buf)
    total = n_periods * steps_per_period
    times, energy, period_errors = [np.zeros(1)], [np.array([solution_energy(ops, state.u)])], []
    peak = energy[0][0]
    # blow-up overflows on its way to inf; the energy check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, _ENERGY_CHUNK):
            count = min(_ENERGY_CHUNK, total - start)
            for slot, next_slot in zip(slots, slots[1 : count + 1]):
                # cols indexes the slot, so clip never fires; numpy buffers take(out=) under mode="raise"
                slot.take(cols, out=window, mode="clip")
                np.matmul(rows, window, out=next_slot)
            chunk = buf[1 : count + 1].reshape(count, -1)[:, :size].reshape((count,) + state.u.shape)
            e = solution_energy(ops, chunk)
            buf[0] = buf[count]
            bad = ~np.isfinite(e) | (e > BLOWUP_ENERGY)
            blew_up = bool(bad.any())
            stop = np.argmax(bad) + 1 if blew_up else count
            e, bad, n = e[:stop], bad[:stop], np.arange(start + 1, start + stop + 1)
            recorded = (n % record_stride == 0) | (n % steps_per_period == 0)
            times.append(n[recorded] * tau)
            energy.append(e[recorded])
            period_errors.append(np.abs(e[(n % steps_per_period == 0) & ~bad] - 1.0))
            peak = np.max(e, initial=peak)
            if blew_up:
                break
    return EnergyReport(
        times=np.concatenate(times),
        energy=np.concatenate(energy),
        error_at_periods=np.concatenate(period_errors),
        blew_up=blew_up,
        blowup_time=float(n[-1] * tau) if blew_up else None,
        peak_energy=float(peak),
        steps_per_period=steps_per_period,
        tau=tau,
    )


def default_search_grid(p: int, magnitudes):
    """Every weight vector [1, iota_1, ..., iota_p] with each iota_i in {0, +/-m for m in magnitudes}.

    Points outside the sufficient bounds are kept; step_limit maps them to None.
    """
    axes = sorted({0.0} | {s * m for m in magnitudes for s in (1.0, -1.0)})
    grids = np.meshgrid(*([axes] * p), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    return [np.concatenate(([1.0], row)) for row in points]


def cfl_search(p: int, rk: str, grid, alpha: float = 1.0) -> SearchReport:
    """Largest stable step among weight vectors that keep the full order.

    Every grid point inside the sufficient bounds gets an analytic step
    limit; candidates are then checked in descending step order with the
    order study of ooa_study on their grid record until one reaches the order p + ORDER_MARGIN.
    """
    rk_divisors(rk)
    ooa_threshold = p + ORDER_MARGIN
    points = [CorrectionParams(p, list(iota)) for iota in grid]
    inside = [params for params in points if sufficient_bounds(params).satisfied]
    outside = len(points) - len(inside)
    # records (Gauss operators, step limit, point): a candidate's order study reads its operators and limit
    records = [(*_solved_limit(params, alpha, rk), params) for params in inside]
    limited = [record for record in records if record[1] is not None]
    candidates = [record for record in limited if record[1].tau_max > 0.0]
    if not candidates:
        raise EmptyFeasibleSetError(
            f"no stable grid point among {len(grid)} ({outside} outside the bounds)"
        )
    candidates.sort(key=lambda item: -item[1].tau_max)
    unstable_runs = 0
    for evaluated, (ops, limit, params) in enumerate(candidates, start=1):
        try:
            report = _fit_order(ops, limit.tau_max, DEFAULT_ELEMENT_COUNTS, pi, rk)
        except UnstableRunError:
            unstable_runs += 1
            continue
        if report.fitted_order >= ooa_threshold:
            return SearchReport(
                best_iota=params.iota_array,
                best_tau=limit.tau_max,
                ooa_at_best=report.fitted_order,
                grid_spec=f"{len(grid)} points, {len(candidates)} stable, threshold {ooa_threshold}",
                evaluated=evaluated,
                outside_bounds=outside,
                no_limit=len(inside) - len(limited),
                zero_tau=len(limited) - len(candidates),
                unstable_runs=unstable_runs,
                below_order=evaluated - 1 - unstable_runs,
                spectral_abscissa=limit.spectral_abscissa,
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
    ops, tau_ref = _advection_setup(params, alpha, rk, node_kind, (n_elements,), t_end)
    return _advect_cosine(ops, n_elements, t_end, rk, tau_ref)[:3]
