from math import ceil, pi

import numpy as np
import pytest

import gsfr.experiments
from gsfr.correction import CorrectionParams, solve_correction
from gsfr.experiments import (
    DEFAULT_ELEMENT_COUNTS,
    HETERO_PERIOD,
    EmptyFeasibleSetError,
    UnstableRunError,
    advect_snapshot,
    cfl_search,
    default_search_grid,
    hetero_energy_study,
    ooa_study,
)
from gsfr.operators import (
    build_reference_element,
    build_scheme_operators,
    heterogeneous_rhs,
    rk_advance,
    uniform_mesh,
)


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


def test_dense_reference_returns_to_initial_state():
    # independent check of the analytic period: a fine mesh comes back to
    # its initial data after exactly one traversal
    params = CorrectionParams(3, [1, 0, 0, 0])
    element = build_reference_element(3, solve_correction(params))
    n = 256
    ops = build_scheme_operators(element, 1.0, jacobian=1.0 / n)
    state = uniform_mesh(ops, n, -1.0, 1.0, init=lambda x: np.sin(4 * np.pi * x))
    u0 = state.u.copy()
    tau = 0.4 * state.element_width / (4 * 3.0)
    steps = ceil(HETERO_PERIOD / tau)
    tau = HETERO_PERIOD / steps
    for _ in range(steps):
        state = rk_advance(lambda s: heterogeneous_rhs(ops, s), state, tau, "rk44")
    assert np.mean(np.abs(state.u - u0)) < 1e-4


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
