import re
from dataclasses import replace
from math import ceil, pi

import numpy as np
import pytest

import gsfr.experiments
from gsfr.correction import CorrectionParams, SingularSystemError, solve_correction
from gsfr.experiments import (
    BLOWUP_ENERGY,
    DEFAULT_ELEMENT_COUNTS,
    HETERO_PERIOD,
    SAFETY,
    WAVENUMBER,
    EmptyFeasibleSetError,
    UnstableRunError,
    _advect_cosine,
    _advection_setup,
    _reference_tau,
    advect_snapshot,
    cfl_search,
    default_search_grid,
    hetero_energy_study,
    ooa_study,
    reference_operators,
    step_limit,
    step_map,
)
from gsfr.operators import (
    RK_SCHEMES,
    RK_STAGE_ORDER,
    build_reference_element,
    build_scheme_operators,
    linear_advection_rhs,
    make_heterogeneous_rhs,
    mesh_nodes,
    rk_advance,
    solution_energy,
    uniform_mesh,
)
from gsfr.spectral import PUBLISHED_STEP_LIMITS, bloch_matrix, cfl_limit, update_matrix

DG3 = CorrectionParams(3, [1, 0, 0, 0])


def test_period_constant():
    assert HETERO_PERIOD == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-15)


def test_ooa_study_dg_recovers_full_order():
    report = ooa_study(CorrectionParams(3, [1, 0, 0, 0]))
    assert report.fitted_order == pytest.approx(4.0, abs=0.15)
    assert report.r_squared > 0.999
    assert report.element_counts == DEFAULT_ELEMENT_COUNTS
    assert np.all(np.diff(report.errors) < 0)  # monotone decay under refinement


def test_ooa_study_large_top_weight_degrades_order():
    report = ooa_study(CorrectionParams(3, [1, 0, 0, 10]))
    assert report.fitted_order == pytest.approx(3.0, abs=0.3)


def test_ooa_study_needs_enough_resolutions():
    with pytest.raises(ValueError):
        ooa_study(CorrectionParams(3, [1, 0, 0, 0]), element_counts=(10, 20))


def test_ooa_study_p2():
    report = ooa_study(CorrectionParams(2, [1, 0, 0]), element_counts=(40, 50, 60, 70))
    assert report.fitted_order == pytest.approx(3.0, abs=0.2)


def test_step_limit_is_nan_off_the_usable_set(monkeypatch):
    pair = solve_correction(DG3)
    assert step_limit(DG3) == cfl_limit(reference_operators(pair, 1.0), "rk44", 128, rho_tol=1e-4).tau_max > 0.0
    assert np.isnan(step_limit(CorrectionParams(3, [1, -0.5, 0, 0])))  # outside the sufficient bounds

    def singular(params):
        raise SingularSystemError("singular")

    monkeypatch.setattr(gsfr.experiments, "solve_correction", singular)
    assert np.isnan(step_limit(DG3))


def test_advect_snapshot():
    x, u, eps = advect_snapshot(CorrectionParams(3, [1, 0, 0, 0]), n_elements=30, t_end=1.0)
    assert x.shape == u.shape == (120,)
    assert eps < 1e-5
    assert np.max(np.abs(u - np.cos(x - 1.0))) < 1e-4


def test_hetero_energy_initial_value_and_window():
    report = hetero_energy_study(CorrectionParams(3, [1, 0, 0, 0]), n_periods=1, n_elements=16)
    assert report.energy[0] == pytest.approx(1.0, abs=1e-12)
    assert report.times[0] == 0.0
    assert report.times[-1] == pytest.approx(HETERO_PERIOD, rel=1e-12)
    assert not report.blew_up
    assert len(report.error_at_periods) == 1
    # cfl 0.06 per solution point against the top speed 3, rounded to land on the period
    assert report.steps_per_period == ceil(HETERO_PERIOD / (0.06 * (2.0 / 16 / 4) / 3.0))
    assert report.steps_per_period * report.tau == pytest.approx(HETERO_PERIOD, rel=1e-14)


@pytest.mark.parametrize("rk", RK_SCHEMES)
@pytest.mark.parametrize("rhs_kind", ["advection", "heterogeneous"])
def test_step_map_matches_stage_form(rk, rhs_kind):
    # n = 1, 2, 5 lie below the band 2s+1 of every scheme; the larger n colour by a proper divisor (32)
    # or element by element (7, 8, 9, 11 for some schemes); alpha below 1 puts mass on both sides of the band
    element = build_reference_element(3, solve_correction(DG3))
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 7, 8, 9, 11, 32):
        ops = build_scheme_operators(element, 0.75, jacobian=1.0 / n)
        state = uniform_mesh(ops, n, -1.0, 1.0)
        if rhs_kind == "advection":
            rhs = lambda s: linear_advection_rhs(ops, s)
        else:
            rhs = make_heterogeneous_rhs(ops, state)
        tau = 0.05 * state.element_width / 4
        step = step_map(rhs, state, tau, rk)
        assert step.blocks.shape == (n, 4, (2 * RK_STAGE_ORDER[rk] + 1) * 4)
        for _ in range(3):
            u = rng.standard_normal(state.u.shape)
            gap = np.max(np.abs(step(u) - rk_advance(rhs, replace(state, u=u), tau, rk).u))
            assert gap <= 1e-14, (n, gap)


def test_step_map_probes_one_colour_at_a_time(monkeypatch):
    # N=32 rk44: 16 colours (the smallest divisor of 32 that is >= 9) x 4 nodes, not 32 x 4
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return rk_advance(*args, **kwargs)

    monkeypatch.setattr(gsfr.experiments, "rk_advance", counting)
    ops = build_scheme_operators(build_reference_element(3, solve_correction(DG3)), 1.0, jacobian=1.0 / 32)
    state = uniform_mesh(ops, 32, -1.0, 1.0)
    step_map(make_heterogeneous_rhs(ops, state), state, 1e-3, "rk44")
    assert len(calls) == 64


@pytest.mark.parametrize("alpha, cfl", [(1.0, 0.06), (0.5, 0.06), (1.0, 1.5)])
def test_hetero_study_matches_stage_form(alpha, cfl):
    # the third run steps well past the stable limit and blows up in its first period
    report = hetero_energy_study(DG3, alpha=alpha, n_elements=16, n_periods=2, cfl=cfl)
    # the same run stepped by the stage form, at the step the report names
    ops = build_scheme_operators(build_reference_element(3, solve_correction(DG3)), alpha, jacobian=1.0 / 16)
    state = uniform_mesh(ops, 16, -1.0, 1.0, init=lambda x: np.sin(4.0 * np.pi * x))
    rhs = make_heterogeneous_rhs(ops, state)
    period_errors, blowup_time = [], None
    for n in range(1, 2 * report.steps_per_period + 1):
        state = rk_advance(rhs, state, report.tau, "rk44")
        e = solution_energy(ops, state)
        if not np.isfinite(e) or e > BLOWUP_ENERGY:
            blowup_time = n * report.tau
            break
        if n % report.steps_per_period == 0:
            period_errors.append(abs(e - 1.0))
    assert report.blew_up == (cfl > 1.0) == (blowup_time is not None)
    assert report.blowup_time == blowup_time
    assert len(report.error_at_periods) == len(period_errors)
    np.testing.assert_allclose(report.error_at_periods, period_errors, rtol=1e-9, atol=0)


@pytest.mark.parametrize("rk", RK_SCHEMES)
def test_advect_snapshot_matches_stage_form(rk):
    n, t_end = 30, 1.0
    _, u, eps = advect_snapshot(DG3, n_elements=n, t_end=t_end, rk=rk)
    pair = solve_correction(DG3)
    ops = build_scheme_operators(build_reference_element(3, pair), 1.0, jacobian=pi / n)
    state = uniform_mesh(ops, n, 0.0, 2.0 * pi, init=np.cos)
    steps = ceil(t_end / (SAFETY * _reference_tau(pair, 1.0, rk) * ops.jacobian))
    for _ in range(steps):
        state = rk_advance(lambda s: linear_advection_rhs(ops, s), state, t_end / steps, rk)
    ref = float(np.mean(np.abs(state.u - np.cos(mesh_nodes(ops, state) - t_end))))
    assert eps == pytest.approx(ref, rel=1e-6)
    assert np.max(np.abs(u - state.u.ravel())) < 1e-12


def step_map_advect(element, alpha, n_elements, t_end, rk, tau_ref):
    """(u, eps_2) of _advect_cosine by the step-map loop it ran before the Bloch route; kept as its oracle."""
    ops = build_scheme_operators(element, alpha, jacobian=pi / n_elements)
    state = uniform_mesh(ops, n_elements, 0.0, 2.0 * pi, init=lambda x: np.cos(WAVENUMBER * x))
    steps = max(1, ceil(t_end / (SAFETY * tau_ref * ops.jacobian)))
    step = step_map(lambda s: linear_advection_rhs(ops, s), state, t_end / steps, rk)
    u = state.u
    for _ in range(steps):
        u = step(u)
    return u.ravel(), float(np.mean(np.abs(u - np.cos(WAVENUMBER * (mesh_nodes(ops, state) - t_end)))))


@pytest.mark.parametrize(
    "iota, rk", [((1, 0, 0, 0), "rk33"), (PUBLISHED_STEP_LIMITS[1][2], "rk44")], ids=["dg-rk33", "published-rk44"]
)
def test_advect_cosine_matches_step_map_loop(iota, rk):
    # the Bloch power and the step-map loop round differently over thousands of steps; eps_2 is a
    # mean of errors near 1e-10, so it keeps fewer digits of agreement than u
    element, tau_ref = _advection_setup(CorrectionParams(3, list(iota)), 1.0, rk, "gauss", (160, 256), pi)
    for n in (160, 256):
        _, u, eps, _, _ = _advect_cosine(element, 1.0, n, pi, rk, tau_ref)
        ref_u, ref_eps = step_map_advect(element, 1.0, n, pi, rk, tau_ref)
        assert np.max(np.abs(u - ref_u)) <= 1e-12, n
        assert eps == pytest.approx(ref_eps, rel=1e-5), n


@pytest.mark.parametrize("rk", RK_SCHEMES)
@pytest.mark.parametrize("alpha", [1.0, 0.75])
@pytest.mark.parametrize("node_kind", ["gauss", "lobatto"])
def test_advection_block_is_the_spectral_update_matrix(rk, alpha, node_kind, monkeypatch):
    # the probes' element-0 responses, in call order, are the columns of the wave's one-step block
    responses = []

    def recording(*args, **kwargs):
        stepped = rk_advance(*args, **kwargs)
        responses.append(stepped.u[0])
        return stepped

    monkeypatch.setattr(gsfr.experiments, "rk_advance", recording)
    pair = solve_correction(DG3)
    element = build_reference_element(3, pair, node_kind)
    tau_ref = _reference_tau(pair, alpha, rk)
    for n in (1, 2, 7, 160):
        responses.clear()
        tau = _advect_cosine(element, alpha, n, pi, rk, tau_ref)[4]
        spectral = update_matrix(bloch_matrix(build_scheme_operators(element, alpha, pi / n), WAVENUMBER), tau, rk)
        assert len(responses) == 4
        gap = np.max(np.abs(np.stack(responses, axis=1) - spectral))
        assert gap <= 1e-14, (n, gap)


def test_ooa_study_has_no_time_loop(monkeypatch):
    # p+1 = 4 probe steps per mesh, whatever the number of time steps (hundreds per mesh here)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return rk_advance(*args, **kwargs)

    monkeypatch.setattr(gsfr.experiments, "rk_advance", counting)
    report = ooa_study(DG3, rk="rk33")
    assert min(report.steps) > 100
    assert len(calls) == 4 * len(DEFAULT_ELEMENT_COUNTS)


def test_hetero_upwind_survives_fifteen_periods():
    report = hetero_energy_study(
        CorrectionParams(3, [1, 0, 0, 0]), alpha=1.0, n_elements=32, n_periods=15, cfl=0.12
    )
    assert not report.blew_up
    assert report.error_at_periods[0] < 1e-2
    assert np.all(np.isfinite(report.energy))


def test_hetero_central_blows_up():
    report = hetero_energy_study(
        CorrectionParams(3, [1, 0, 0, 0]), alpha=0.5, n_elements=24, n_periods=15, cfl=0.12
    )
    assert report.blew_up
    assert report.blowup_time is not None
    assert report.blowup_time < 15 * HETERO_PERIOD


# every entry point that takes a scheme name, called with an unknown one
UNKNOWN_SCHEME_CALLS = {
    "rk_advance-tau0": lambda ops, state: rk_advance(lambda s: linear_advection_rhs(ops, s), state, 0.0, "rk99"),
    "rk_advance-tau>0": lambda ops, state: rk_advance(lambda s: linear_advection_rhs(ops, s), state, 0.1, "rk99"),
    "update_matrix": lambda ops, state: update_matrix(np.zeros((4, 4)), 0.1, "rk99"),
    "cfl_limit": lambda ops, state: cfl_limit(ops, "rk99"),
    "step_map": lambda ops, state: step_map(make_heterogeneous_rhs(ops, state), state, 0.1, "rk99"),
    "hetero_energy_study": lambda ops, state: hetero_energy_study(DG3, n_elements=4, n_periods=1, rk="rk99"),
}


@pytest.mark.parametrize("entry", UNKNOWN_SCHEME_CALLS)
def test_unknown_scheme_is_one_value_error(entry):
    ops = build_scheme_operators(build_reference_element(3, solve_correction(DG3)), 1.0, jacobian=0.25)
    state = uniform_mesh(ops, 4, -1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"unknown scheme 'rk99'; expected one of {RK_SCHEMES}")):
        UNKNOWN_SCHEME_CALLS[entry](ops, state)


def test_default_search_grid_shape():
    grid = default_search_grid(2, magnitudes=(0.0, 1e-3))
    assert all(len(v) == 3 and v[0] == 1.0 for v in grid)
    assert len(grid) == 9  # {-1e-3, 0, 1e-3}^2


def test_cfl_search_degenerate_grid_returns_dg():
    report = cfl_search(
        3,
        "rk44",
        grid=[np.array([1.0, 0.0, 0.0, 0.0])],
        element_counts=(40, 50, 60, 70),
    )
    assert np.allclose(report.best_iota, [1, 0, 0, 0], atol=0)
    assert report.best_tau == pytest.approx(0.2908, rel=5e-3)
    assert report.ooa_at_best == pytest.approx(4.0, abs=0.15)


def test_cfl_search_prefers_faster_member():
    grid = [
        np.array([1.0, 0.0, 0.0, 0.0]),
        np.array([1.0, 2.069e-4, 2.336e-3, 2.336e-3]),
    ]
    report = cfl_search(3, "rk44", grid=grid, element_counts=(40, 50, 60, 70))
    assert np.allclose(report.best_iota, grid[1], atol=0)
    assert report.best_tau >= 2 * 0.2908  # well above the plain-L2 member
    assert 0.5 * report.best_tau == pytest.approx(0.390, rel=0.02)
    assert report.ooa_at_best >= 3.8


def test_cfl_search_empty_feasible_set():
    with pytest.raises(EmptyFeasibleSetError):
        cfl_search(3, "rk44", grid=[np.array([1.0, -0.5, 0.0, 0.0])])


def test_cfl_search_lets_programming_errors_through(monkeypatch):
    # only numerical failures drop a grid point; a bug must not read as "unstable"
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(gsfr.experiments, "cfl_limit", broken)
    with pytest.raises(TypeError):
        cfl_search(3, "rk44", grid=[np.array([1.0, 0.0, 0.0, 0.0])])


def test_ooa_unstable_run_reported():
    # far outside the bounds: the norm is indefinite and the operator has
    # strongly unstable modes at every tolerance
    with pytest.raises(UnstableRunError):
        ooa_study(CorrectionParams(3, [1, -0.5, 0, 0]), element_counts=(40, 50, 60, 70))
