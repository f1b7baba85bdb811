import re
from fractions import Fraction as F
from math import ceil, pi
from types import SimpleNamespace

import numpy as np
import pytest

import gsfr.experiments
from gsfr.correction import (
    CorrectionParams,
    SingularSystemError,
    UnsupportedOrderError,
    solve_correction,
    sufficient_bounds,
)
from gsfr.experiments import (
    BLOWUP_ENERGY,
    DEFAULT_ELEMENT_COUNTS,
    HETERO_PERIOD,
    SAFETY,
    WAVENUMBER,
    EmptyFeasibleSetError,
    UnstableRunError,
    _BLOCK_STEPS,
    _CHUNK_BLOCKS,
    EnergyReport,
    _advect_cosine,
    _advection_setup,
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
    RK_DIVISORS,
    RK_SCHEMES,
    build_reference_element,
    build_scheme_operators,
    linear_advection_rhs,
    make_heterogeneous_rhs,
    mesh_nodes,
    rk_advance,
    rk_divisors,
    solution_energy,
    uniform_mesh,
)
from gsfr.spectral import (
    PUBLISHED_STEP_LIMITS,
    ConvergenceFailureError,
    StabilityResult,
    bloch_matrix,
    cfl_limit,
    update_matrix,
)

DG3 = CorrectionParams(3, [1, 0, 0, 0])


def degree(rk):
    """The degree s of the scheme's stability polynomial: one less than its RK_DIVISORS entry's length."""
    return len(RK_DIVISORS[rk]) - 1


def reference_tau(params, alpha, rk):
    """The step limit an advection study reads (128 samples, rho_tol 1e-4); unlike step_limit, no bounds check, so p=5 too."""
    return cfl_limit(reference_operators(params, alpha), rk, 128, rho_tol=1e-4).tau_max


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


def test_step_limit_is_none_off_the_usable_set(monkeypatch):
    limit = step_limit(DG3)
    assert limit == cfl_limit(reference_operators(DG3, 1.0), "rk44", 128, rho_tol=1e-4) and limit.tau_max > 0.0
    assert step_limit(CorrectionParams(3, [1, -0.5, 0, 0])) is None  # outside the sufficient bounds
    # inside the bounds, yet refused by the solve: the double nearest -1/3 lies 2^-54 / 3 above it, so
    # i0 + 3 i1 = 2^-54 > 0 exactly, and at p=2 the bounds are exactly the positive definiteness of the diagonal
    # Gram matrix. Next to that singular edge the exact h_l's huge coefficients cancel at -1 and their doubles do
    # not: h_l(-1) = 0 in doubles, so _solved_limit's SingularSystemError branch gives None
    assert F(-0.3333333333333333) - F(-1, 3) == F(1, 3 * 2**54)
    for iota_2 in (0.3333333333333333, 1.0):
        params = CorrectionParams(2, [1.0, -0.3333333333333333, iota_2])
        assert sufficient_bounds(params).satisfied
        with pytest.raises(SingularSystemError, match=re.escape("h_l(-1) = 0,")):
            solve_correction(params)
        assert step_limit(params) is None

    def singular(params):
        raise SingularSystemError("singular")

    def refused(*args, **kwargs):
        raise ConvergenceFailureError("no unstable step")

    monkeypatch.setattr(gsfr.experiments, "cfl_limit", refused)
    assert step_limit(DG3) is None
    monkeypatch.setattr(gsfr.experiments, "solve_correction", singular)
    assert step_limit(DG3) is None


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


@pytest.fixture
def rk_calls(monkeypatch):
    """Every rk_advance call of gsfr.experiments as (the array it stepped, the stepped array)."""
    calls = []

    def recording(rhs_fn, state, *args, **kwargs):
        stepped = rk_advance(rhs_fn, state, *args, **kwargs)
        calls.append((state.u, stepped.u))
        return stepped

    monkeypatch.setattr(gsfr.experiments, "rk_advance", recording)
    return calls


def apply_step(step, u):
    """u (n, p+1) stepped by the map (rows, cols) of step_map, the surplus rows of a wrapped last group dropped."""
    rows, cols = step
    n, width = u.shape
    return np.matmul(rows, u.ravel().take(cols)[..., None]).reshape(-1, width)[:n]


@pytest.mark.parametrize("rk", RK_SCHEMES)
@pytest.mark.parametrize("rhs_kind", ["advection", "heterogeneous"])
def test_step_map_matches_stage_form(rk, rhs_kind):
    # n = 1, 2, 5 lie below the band 2s+1 of every scheme; 7, 8, 9 and 11 are one run plus leftovers or
    # below the band for some schemes, and 32 is several runs; alpha below 1 puts mass on both sides of the band
    element = build_reference_element(3, solve_correction(DG3))
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 7, 8, 9, 11, 32):
        ops = build_scheme_operators(element, 0.75, jacobian=1.0 / n)
        state = uniform_mesh(ops, n, -1.0, 1.0)
        if rhs_kind == "advection":
            rhs = lambda s: linear_advection_rhs(ops, s)
        else:
            rhs = make_heterogeneous_rhs(ops, state)
        tau = 0.05 * 2 * ops.jacobian / 4
        step = step_map(rhs, state, tau, rk)
        s = degree(rk)
        assert [array.shape for array in step] == [(ceil(n / s), 4 * s, 12 * s), (ceil(n / s), 12 * s)]
        for _ in range(3):
            u = rng.standard_normal(state.u.shape)
            gap = np.max(np.abs(apply_step(step, u) - rk_advance(rhs, state._replace(u=u), tau, rk).u))
            assert gap <= 1e-14, (n, gap)


def test_step_map_probes_one_colour_at_a_time(rk_calls):
    # N=32 rk44: 14 colours (three runs of 9, then 5 leftover elements) x 4 nodes, not 32 x 4, in one stacked step
    ops = build_scheme_operators(build_reference_element(3, solve_correction(DG3)), 1.0, jacobian=1.0 / 32)
    state = uniform_mesh(ops, 32, -1.0, 1.0)
    step_map(make_heterogeneous_rhs(ops, state), state, 1e-3, "rk44")
    assert [u.shape for u, _ in rk_calls] == [(56, 32, 4)]


def element_blocks(step, n, s):
    """The per-element blocks (n, p+1, (2s+1)(p+1)) that step_map packs into its group rows, as a
    C-contiguous copy; asserts that the rows hold nothing else: zeros off every element's band, and
    the surplus rows of a wrapped last group repeat elements 0, 1, ..."""
    groups, height, _ = step[0].shape
    width = height // s
    rows = step[0].reshape(groups, s, width, 3 * s, width)
    band = np.zeros(rows.shape, dtype=bool)
    for r in range(s):
        band[:, r, :, r : r + 2 * s + 1] = True
    assert not rows[~band].any()
    blocks = np.stack([rows[:, r, :, r : r + 2 * s + 1] for r in range(s)], axis=1).reshape(groups * s, width, -1)
    assert blocks.tobytes() == blocks[np.arange(groups * s) % n].tobytes()
    return blocks[:n]


def per_element_apply(step, n, s):
    """The step applied element by element, blocks[j] times the gathered band of element j, as the step
    map was applied before the grouped product; kept as its oracle."""
    blocks = element_blocks(step, n, s)
    neighbours = (np.arange(n)[:, None] + np.arange(-s, s + 1)) % n
    return lambda u: np.matmul(blocks, u[neighbours].reshape(n, -1, 1))[..., 0]


def step_map_per_probe(rhs_fn, state, tau, rk):
    """(blocks, neighbours) of step_map by one rk_advance call per probe, as before the stacked probe; its oracle."""
    n, width = state.u.shape
    s = degree(rk)
    colours = next(c for c in range(min(2 * s + 1, n), n + 1) if n % c == 0)
    rows = np.arange(n)
    blocks = np.zeros((n, width, (2 * s + 1) * width))
    for colour in range(colours):
        offset = (colour - rows + s) % colours - s
        near = offset <= s
        for i in range(width):
            probe = np.zeros_like(state.u)
            probe[colour::colours, i] = 1.0
            response = rk_advance(rhs_fn, state._replace(u=probe), tau, rk).u
            blocks[rows[near], :, (offset[near] + s) * width + i] = response[near]
    return blocks, (rows[:, None] + np.arange(-s, s + 1)) % n


@pytest.mark.parametrize("rk", RK_SCHEMES)
@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_step_map_matches_per_probe_loop(p, rk):
    # bit for bit: the stacked probe fills the same blocks; n = 1, 2, 5 lie below some bands, 7 and 9
    # colour element by element, and the prime 23 leaves leftover colours for every scheme (the oracle's
    # divisor rule gives it 23 colours). The grouped product applies them as the per-element one did, bit
    # for bit at p = 3; at other p the node width is not a multiple of 4, so BLAS sums the shifted rows
    # of a group in other lanes, and each entry may move by a dot product's rounding bound
    s = degree(rk)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(p)
    pair = solve_correction(CorrectionParams(p, [1.0] + [0.0] * p))
    for node_kind in ("gauss", "lobatto"):
        element = build_reference_element(p, pair, node_kind)
        for alpha in (1.0, 0.75):
            for n in (1, 2, 5, 7, 9, 23, 32, 64):
                ops = build_scheme_operators(element, alpha, jacobian=1.0 / n)
                state = uniform_mesh(ops, n, -1.0, 1.0)
                tau = 0.05 * 2 * ops.jacobian / (p + 1)
                for rhs in (lambda s: linear_advection_rhs(ops, s), make_heterogeneous_rhs(ops, state)):
                    step = step_map(rhs, state, tau, rk)
                    blocks, neighbours = step_map_per_probe(rhs, state, tau, rk)
                    assert np.array_equal(element_blocks(step, n, s), blocks), (node_kind, alpha, n)
                    u = rng.standard_normal(state.u.shape)
                    gathered = np.matmul(blocks, u[neighbours].reshape(n, -1, 1))[..., 0]
                    if p == 3:
                        assert np.array_equal(apply_step(step, u), gathered), (node_kind, alpha, n)
                    else:
                        scale = np.matmul(np.abs(blocks), np.abs(u[neighbours]).reshape(n, -1, 1))[..., 0]
                        bound = (2 * s + 1) * (p + 1) * eps * scale
                        assert np.all(np.abs(apply_step(step, u) - gathered) <= bound), (node_kind, alpha, n)


@pytest.mark.parametrize("rk", RK_SCHEMES)
@pytest.mark.parametrize("node_kind", ["gauss", "lobatto"])
def test_grouped_apply_matches_per_element_product(rk, node_kind):
    # bit for bit at p = 3, over every group remainder: n < s, a wrapped last group (s does not divide n),
    # the band wrapping onto itself (n < 3s), and the mesh sizes the studies use
    s = degree(rk)
    rng = np.random.default_rng(5)
    element = build_reference_element(3, solve_correction(DG3), node_kind)
    for n in [*range(1, 41), 64, 127]:
        ops = build_scheme_operators(element, 0.75, jacobian=1.0 / n)
        state = uniform_mesh(ops, n, -1.0, 1.0)
        step = step_map(make_heterogeneous_rhs(ops, state), state, 0.05 * 2 * ops.jacobian / 4, rk)
        # every column sits inside the solution's n(p+1) values: hetero_energy_study's clip-mode gather
        # never clips, and the surplus rows of a wrapped last group stay unread
        cols = step[1]
        assert 0 <= cols.min() and cols.max() < state.u.size == n * 4, n
        per_element = per_element_apply(step, n, s)
        for _ in range(3):
            u = rng.standard_normal(state.u.shape)
            assert np.array_equal(apply_step(step, u), per_element(u)), n


def test_step_map_steps_any_mesh_in_one_bounded_stack(rk_calls):
    # a prime n = 127 rk44 takes 9 + 127 mod 9 = 10 colours x 4 nodes in one call (the oracle's divisor
    # rule gives 127 colours); on every n up to 64 each scheme probes at most (4s+1)(p+1) states at once
    element = build_reference_element(3, solve_correction(DG3))
    ops = build_scheme_operators(element, 0.75, jacobian=1.0 / 127)
    state = uniform_mesh(ops, 127, -1.0, 1.0)
    rhs = make_heterogeneous_rhs(ops, state)
    blocks, _ = step_map_per_probe(rhs, state, 1e-3, "rk44")
    step = step_map(rhs, state, 1e-3, "rk44")
    assert [u.shape for u, _ in rk_calls] == [(40, 127, 4)]
    packed = element_blocks(step, 127, degree("rk44"))
    assert packed.shape == blocks.shape and packed.tobytes() == blocks.tobytes()  # sign bits too
    for rk in RK_SCHEMES:
        for n in range(1, 65):
            ops = build_scheme_operators(element, 1.0, jacobian=1.0 / n)
            state = uniform_mesh(ops, n, -1.0, 1.0)
            rk_calls.clear()
            step_map(lambda s: linear_advection_rhs(ops, s), state, 1e-3, rk)
            shapes = [u.shape for u, _ in rk_calls]
            assert len(shapes) == 1 and shapes[0][0] <= (4 * degree(rk) + 1) * 4, (rk, n, shapes)


def test_studies_hand_their_right_hand_sides_arrays(monkeypatch):
    # every stage of every stacked step passes the solution array itself, never a MeshState
    kinds = []

    def recording(rhs_fn, state, *args, **kwargs):
        return rk_advance(lambda u: kinds.append(type(u)) or rhs_fn(u), state, *args, **kwargs)

    monkeypatch.setattr(gsfr.experiments, "rk_advance", recording)
    hetero_energy_study(DG3, n_elements=8, n_periods=1)
    ooa_study(DG3, element_counts=(8, 10, 12, 14), rk="rk33")
    ops = build_scheme_operators(build_reference_element(3, solve_correction(DG3)), 1.0, jacobian=1.0 / 5)
    state = uniform_mesh(ops, 5, -1.0, 1.0)
    step_map(lambda u: linear_advection_rhs(ops, u), state, 1e-3, "rk55")
    # rk44 on hetero, rk33 on four meshes, rk55 on one mesh
    assert kinds == [np.ndarray] * (4 + 4 * 3 + 5)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("rhs_kind", ["advection", "heterogeneous", "energy"])
def test_rhs_takes_a_stack_of_states(rhs_kind, dtype):
    # a (3, 2, n, p+1) stack gives, bit for bit, the right-hand sides (or the energies) of its six states
    element = build_reference_element(3, solve_correction(DG3))
    rng = np.random.default_rng(11)
    for n in (1, 2, 32):
        ops = build_scheme_operators(element, 0.75, jacobian=1.0 / n)
        state = uniform_mesh(ops, n, -1.0, 1.0)
        if rhs_kind == "advection":
            rhs = lambda u: linear_advection_rhs(ops, u)
        elif rhs_kind == "heterogeneous":
            rhs = make_heterogeneous_rhs(ops, state)
        else:
            rhs = lambda u: solution_energy(ops, u)
        stack = rng.standard_normal((3, 2, n, 4)).astype(dtype)
        if dtype is complex:
            stack += 1j * rng.standard_normal(stack.shape)
        per_state = np.array([[rhs(u) for u in row] for row in stack])
        assert np.array_equal(rhs(stack), per_state), n


def step_map_hetero(params, alpha, n_elements, n_periods, cfl, rk="rk44", node_kind="gauss", per_element=False):
    """The EnergyReport of hetero_energy_study by the per-step energy loop it ran before the chunked reduction
    and the blocked steps; kept as its oracle. With per_element, each step is the per-element product the
    study applied before the grouped one."""
    pair = solve_correction(params)
    ops = build_scheme_operators(build_reference_element(params.p, pair, node_kind), alpha, jacobian=1.0 / n_elements)
    state = uniform_mesh(ops, n_elements, -1.0, 1.0, init=lambda x: np.sin(4.0 * np.pi * x))
    steps_per_period = max(1, ceil(HETERO_PERIOD / (cfl * 2 * ops.jacobian / (params.p + 1) / 3.0)))
    tau = HETERO_PERIOD / steps_per_period
    record_stride = max(1, steps_per_period // 32)
    step = step_map(make_heterogeneous_rhs(ops, state), state, tau, rk)
    if per_element:
        apply = per_element_apply(step, n_elements, degree(rk))
    else:
        apply = lambda u: apply_step(step, u)
    u, jac, w = state.u, ops.jacobian, ops.element.weights[None, :]
    times, energy, every = [0.0], [solution_energy(ops, state.u)], [solution_energy(ops, state.u)]
    period_errors, blowup_time = [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_periods * steps_per_period + 1):
            u = apply(u)
            t = n * tau
            e = float(jac * np.sum(w * u**2))
            every.append(e)
            if n % record_stride == 0 or n % steps_per_period == 0:
                times.append(t)
                energy.append(e)
            if not np.isfinite(e) or e > BLOWUP_ENERGY:
                blowup_time = t
                break
            if n % steps_per_period == 0:
                period_errors.append(abs(e - 1.0))
    return EnergyReport(
        np.array(times), np.array(energy), np.array(period_errors), blowup_time is not None, blowup_time,
        float(np.max(every)), steps_per_period, tau,
    )


# blocked steps reach a state by a jump and a fill rather than step by step: energies and the peak move by at
# most 2e-11 relative on the cases below, and |E(nT) - 1| inherits the energies' absolute error, at most
# BLOCKED_TOL * E <= BLOCKED_TOL * (1 + |E(nT) - 1|)
BLOCKED_TOL = 1e-10


def assert_hetero_matches(study, oracle, monkeypatch):
    """study() against the oracle's EnergyReport: at the default block length the run's course exactly (blow-up,
    its time, recorded times, steps per period, step) and its energies within BLOCKED_TOL; one step per block,
    bit for bit."""
    report = study()
    assert (report.blew_up, report.blowup_time) == (oracle.blew_up, oracle.blowup_time)
    assert (report.steps_per_period, report.tau) == (oracle.steps_per_period, oracle.tau)
    assert np.array_equal(report.times, oracle.times)
    np.testing.assert_allclose(report.energy, oracle.energy, rtol=BLOCKED_TOL, atol=0)
    np.testing.assert_allclose(report.peak_energy, oracle.peak_energy, rtol=BLOCKED_TOL, atol=0)
    assert report.error_at_periods.shape == oracle.error_at_periods.shape
    moved = np.abs(report.error_at_periods - oracle.error_at_periods)
    assert np.all(moved <= BLOCKED_TOL * (1.0 + oracle.error_at_periods))
    monkeypatch.setattr(gsfr.experiments, "_BLOCK_STEPS", 1)
    report = study()
    assert np.array_equal(report.times, oracle.times)
    assert np.array_equal(report.energy, oracle.energy)
    assert np.array_equal(report.error_at_periods, oracle.error_at_periods)
    assert report.blowup_time == oracle.blowup_time
    assert report.peak_energy == oracle.peak_energy


@pytest.mark.parametrize(
    "p, alpha, n_elements, n_periods, cfl, rk",
    [
        (3, 1.0, 32, 15, 0.06, "rk44"),
        (3, 0.5, 16, 15, 0.06, "rk44"),
        (2, 1.0, 5, 32, 0.2, "rk44"),
        (2, 1.0, 5, 2, 0.2, "rk44"),
        (2, 0.75, 6, 4, 0.13, "rk44"),
        (3, 1.0, 8, 3, 100.0, "rk44"),
        (3, 1.0, 8, 15, 0.92, "rk44"),
        (3, 1.0, 32, 2, 0.06, "rk33"),
        (3, 1.0, 32, 2, 0.06, "rk55"),
    ],
    ids=[
        "default", "blowup-mid-chunk", "partial-last-chunk", "partial-last-block", "period-off-stride",
        "blowup-on-a-period", "blowup-mid-block", "rk33-surplus-rows", "rk55-surplus-rows",
    ],
)
def test_hetero_study_matches_per_step_loop(p, alpha, n_elements, n_periods, cfl, rk, request, monkeypatch):
    params = CorrectionParams(p, [1.0] + [0.0] * p)
    oracle = step_map_hetero(params, alpha, n_elements, n_periods, cfl, rk)
    steps = n_periods * oracle.steps_per_period
    block, chunk = _BLOCK_STEPS, _BLOCK_STEPS * _CHUNK_BLOCKS
    case = request.node.callspec.id
    # each case stands for what its id names, in blocks and chunks of the default block length
    stop = round(oracle.blowup_time / oracle.tau) if oracle.blew_up else None
    if case == "blowup-mid-chunk":
        assert chunk < stop < steps and stop % chunk != 0
    if case == "blowup-mid-block":
        assert block < stop < chunk and stop % block != 0  # a filled step, past the first block
    if case == "blowup-on-a-period":
        assert stop % oracle.steps_per_period == 0  # a step past the limit: blows up on a period step
    if case == "partial-last-chunk":
        assert steps > chunk and steps % chunk != 0 and steps % block == 0
    if case == "partial-last-block":
        assert steps % block != 0
    if case == "period-off-stride":
        assert oracle.steps_per_period % max(1, oracle.steps_per_period // 32) != 0
    if case.endswith("surplus-rows"):
        assert n_elements % degree(rk) != 0  # the last group of s elements runs past element n-1
    assert oracle.blew_up == case.startswith("blowup")
    assert_hetero_matches(lambda: hetero_energy_study(params, alpha, n_elements, n_periods, cfl, rk), oracle, monkeypatch)


def test_hetero_study_blocks_up_to_its_unknowns_bound(monkeypatch):
    # the jump is formed on meshes of at most _BLOCK_UNKNOWNS unknowns; past that each block is one step, bit for bit
    jumps, matrix_power = [], np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power", lambda a, m: jumps.append((a.shape, m)) or matrix_power(a, m))
    monkeypatch.setattr(gsfr.experiments, "_BLOCK_UNKNOWNS", 24)
    blocked = hetero_energy_study(DG3, n_elements=6, n_periods=2)  # 24 unknowns
    assert jumps == [((24, 24), _BLOCK_STEPS)]
    stepped = hetero_energy_study(DG3, n_elements=7, n_periods=2)  # 28 unknowns
    assert len(jumps) == 1
    np.testing.assert_allclose(blocked.energy, step_map_hetero(DG3, 1.0, 6, 2, 0.06).energy, rtol=BLOCKED_TOL, atol=0)
    assert np.array_equal(stepped.energy, step_map_hetero(DG3, 1.0, 7, 2, 0.06).energy)


@pytest.mark.parametrize("alpha", [1.0, 0.5], ids=["default", "central-blowup"])
def test_hetero_study_matches_per_element_apply(alpha, monkeypatch):
    # the default run of `run hetero` at p = 3 (32 elements, 15 periods, cfl 0.06), and its central-flux
    # blow-up, against the per-element product
    oracle = step_map_hetero(DG3, alpha, 32, 15, 0.06, per_element=True)
    assert oracle.blew_up == (alpha == 0.5)
    assert_hetero_matches(lambda: hetero_energy_study(DG3, alpha), oracle, monkeypatch)


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
        e = solution_energy(ops, state.u)
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
    ops = build_scheme_operators(build_reference_element(3, solve_correction(DG3)), 1.0, jacobian=pi / n)
    state = uniform_mesh(ops, n, 0.0, 2.0 * pi, init=np.cos)
    steps = ceil(t_end / (SAFETY * reference_tau(DG3, 1.0, rk) * ops.jacobian))
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
        u = apply_step(step, u)
    return u.ravel(), float(np.mean(np.abs(u - np.cos(WAVENUMBER * (mesh_nodes(ops, state) - t_end)))))


@pytest.mark.parametrize(
    "iota, rk", [((1, 0, 0, 0), "rk33"), (PUBLISHED_STEP_LIMITS[1][2], "rk44")], ids=["dg-rk33", "published-rk44"]
)
def test_advect_cosine_matches_step_map_loop(iota, rk):
    # the Bloch power and the step-map loop round differently over thousands of steps; eps_2 is a
    # mean of errors near 1e-10, so it keeps fewer digits of agreement than u
    ops, tau_ref = _advection_setup(CorrectionParams(3, list(iota)), 1.0, rk, "gauss", (160, 256), pi)
    for n in (160, 256):
        _, u, eps, _, _ = _advect_cosine(ops, n, pi, rk, tau_ref)
        ref_u, ref_eps = step_map_advect(ops.element, 1.0, n, pi, rk, tau_ref)
        assert np.max(np.abs(u - ref_u)) <= 1e-12, n
        assert eps == pytest.approx(ref_eps, rel=1e-5), n


@pytest.mark.parametrize("rk", RK_SCHEMES)
@pytest.mark.parametrize("alpha", [1.0, 0.75])
@pytest.mark.parametrize("node_kind", ["gauss", "lobatto"])
def test_advection_block_is_the_spectral_update_matrix(rk, alpha, node_kind, rk_calls):
    # one stacked step of the p+1 unit vectors per mesh; its rows, unit vector by unit vector, are the
    # columns of the wave's one-step block
    element = build_reference_element(3, solve_correction(DG3), node_kind)
    tau_ref = reference_tau(DG3, alpha, rk)
    for n in (1, 2, 7, 160):
        rk_calls.clear()
        tau = _advect_cosine(build_scheme_operators(element, alpha), n, pi, rk, tau_ref)[4]
        spectral = update_matrix(bloch_matrix(build_scheme_operators(element, alpha, pi / n), WAVENUMBER), tau, rk)
        assert len(rk_calls) == 1 and rk_calls[0][1].shape == (4, 4)
        gap = np.max(np.abs(rk_calls[0][1].T - spectral))
        assert gap <= 1e-14, (n, gap)


def whole_mesh_block(element, alpha, n_elements, tau, rk):
    """The wave's one-step block of _advect_cosine probed on all n elements of the mesh; its oracle."""
    ops = build_scheme_operators(element, alpha, jacobian=pi / n_elements)
    state = uniform_mesh(ops, n_elements, 0.0, 2.0 * pi)
    x = mesh_nodes(ops, state)
    phase = np.exp(1j * WAVENUMBER * (x[:, :1] - x[0, 0]))
    probes = state._replace(u=phase * np.eye(x.shape[1])[:, None, :])
    return rk_advance(lambda s: linear_advection_rhs(ops, s), probes, tau, rk).u[:, 0].T


@pytest.mark.parametrize("rk", RK_SCHEMES)
@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_advection_block_matches_whole_mesh_probe(p, rk, rk_calls):
    # the block steps Q(k) where the oracle steps every element of the mesh, so the two round differently:
    # within 1e-15 relative (4.0e-16 measured) on meshes below, at and above the 2s+1 elements that reach
    # element 0 in one step
    s = degree(rk)
    params = CorrectionParams(p, [1.0] + [0.0] * p)
    pair = solve_correction(params)
    for alpha in (1.0, 0.5):
        tau_ref = reference_tau(params, alpha, rk)
        for node_kind in ("gauss", "lobatto"):
            element = build_reference_element(p, pair, node_kind)
            for n in (1, 2, 2 * s, 2 * s + 1, 2 * s + 2, 160):
                rk_calls.clear()
                tau = _advect_cosine(build_scheme_operators(element, alpha), n, pi, rk, tau_ref)[4]
                assert len(rk_calls) == 1 and rk_calls[0][1].shape == (p + 1, p + 1)
                oracle = whole_mesh_block(element, alpha, n, tau, rk)
                gap = np.max(np.abs(rk_calls[0][1].T - oracle)) / np.max(np.abs(oracle))
                assert gap <= 1e-15, (alpha, node_kind, n, gap)


def test_ooa_study_has_no_time_loop(rk_calls):
    # one stacked step of the p+1 = 4 unit vectors of the wave's 4x4 operator per mesh, whatever the
    # number of time steps (hundreds per mesh here)
    report = ooa_study(DG3, rk="rk33")
    assert min(report.steps) > 100
    assert [u.shape for u, _ in rk_calls] == [(4, 4)] * len(DEFAULT_ELEMENT_COUNTS)


@pytest.mark.parametrize("node_kind", ["gauss", "lobatto"])
def test_advection_studies_build_one_element_per_node_kind(node_kind, monkeypatch):
    # the study reads its reference limit from its own element and operators, whatever the node kind;
    # every mesh rescales those operators (jacobian 1) rather than building its own
    built = {"element": 0, "operators": 0}

    def counted(name, fn):
        def wrapper(*args):
            built[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(gsfr.experiments, "build_reference_element", counted("element", build_reference_element))
    monkeypatch.setattr(gsfr.experiments, "build_scheme_operators", counted("operators", build_scheme_operators))
    for study in (
        lambda: ooa_study(DG3, element_counts=(8, 10, 12, 14), t_end=0.5, node_kind=node_kind),
        lambda: advect_snapshot(DG3, n_elements=8, t_end=0.5, node_kind=node_kind),
    ):
        built.update(element=0, operators=0)
        study()
        assert built == {"element": 1, "operators": 1}


def test_lobatto_operators_give_the_gauss_step_limit():
    # nodal operators of any node kind are similarity transforms of one modal operator, so a Lobatto study
    # reads its own limit: the same tau_max and probes as on Gauss points, on the published rows and DG
    points = [CorrectionParams(p, iota) for p, _, iota, _ in PUBLISHED_STEP_LIMITS]
    points += [CorrectionParams(p, [1.0] + [0.0] * p) for p in (2, 3, 4, 5)]
    cases = 0
    for params in points:
        for alpha in (1.0, 0.5):
            gauss, lobatto = (reference_operators(params, alpha, kind) for kind in ("gauss", "lobatto"))
            for rk in ("rk33", "rk44", "rk55"):
                for k_samples, rho_tol in ((128, 1e-4), (256, 1e-10)):
                    expected = cfl_limit(gauss, rk, k_samples, rho_tol=rho_tol)
                    got = cfl_limit(lobatto, rk, k_samples, rho_tol=rho_tol)
                    case = (params, alpha, rk, k_samples)
                    assert (got.tau_max, got.probes) == (expected.tau_max, expected.probes), case
                    cases += 1
    assert cases == 120


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
    # every other entry refuses through this lookup of the scheme table, with its message
    "rk_divisors": lambda ops, state: rk_divisors("rk99"),
    "rk_advance-tau0": lambda ops, state: rk_advance(lambda s: linear_advection_rhs(ops, s), state, 0.0, "rk99"),
    "rk_advance-tau>0": lambda ops, state: rk_advance(lambda s: linear_advection_rhs(ops, s), state, 0.1, "rk99"),
    "update_matrix": lambda ops, state: update_matrix(np.zeros((4, 4)), 0.1, "rk99"),
    "cfl_limit": lambda ops, state: cfl_limit(ops, "rk99"),
    "step_map": lambda ops, state: step_map(make_heterogeneous_rhs(ops, state), state, 0.1, "rk99"),
    "hetero_energy_study": lambda ops, state: hetero_energy_study(DG3, n_elements=4, n_periods=1, rk="rk99"),
    # refused before the bounds filter, so a point outside the bounds cannot hide the scheme
    "step_limit": lambda ops, state: step_limit(CorrectionParams(3, [1, -0.5, 0, 0]), rk="rk99"),
    "cfl_search": lambda ops, state: cfl_search("rk99", [CorrectionParams(3, [1.0, -0.5, 0.0, 0.0])]),
    "ooa_study": lambda ops, state: ooa_study(DG3, rk="rk99"),
    "advect_snapshot": lambda ops, state: advect_snapshot(DG3, n_elements=4, rk="rk99"),
}


@pytest.mark.parametrize("entry", UNKNOWN_SCHEME_CALLS)
def test_unknown_scheme_is_one_value_error(entry):
    ops = build_scheme_operators(build_reference_element(3, solve_correction(DG3)), 1.0, jacobian=0.25)
    state = uniform_mesh(ops, 4, -1.0, 1.0)
    with pytest.raises(ValueError) as refusal:
        UNKNOWN_SCHEME_CALLS[entry](ops, state)
    assert str(refusal.value) == f"unknown scheme 'rk99'; expected one of {RK_SCHEMES}"


def test_default_search_grid_shape():
    grid = default_search_grid(2, magnitudes=(0.0, 1e-3))
    assert all(params.p == 2 and len(params.iota) == 3 and params.iota[0] == 1.0 for params in grid)
    assert len(grid) == 9  # {-1e-3, 0, 1e-3}^2


@pytest.mark.parametrize("p", [-1, 0, 1, 6, 7])
def test_default_search_grid_refuses_a_bad_order_at_its_first_point(p, monkeypatch):
    # CorrectionParams holds the one range check; at p=7 the other 823,542 points are never built
    built = []

    def counted(*args):
        built.append(args)
        return CorrectionParams(*args)

    monkeypatch.setattr(gsfr.experiments, "CorrectionParams", counted)
    with pytest.raises(UnsupportedOrderError, match=re.escape(f"order p={p} outside supported range 2..5")):
        default_search_grid(p, [0.0, 1e-4, 1e-3, 1e-2])
    assert len(built) == 1


def test_cfl_search_degenerate_grid_returns_dg():
    report = cfl_search("rk44", grid=[DG3])
    assert np.allclose(report.best_iota, [1, 0, 0, 0], atol=0)
    assert report.best_tau == pytest.approx(0.2908, rel=5e-3)
    assert report.ooa_at_best == pytest.approx(4.0, abs=0.15)


def test_cfl_search_prefers_faster_member():
    grid = [DG3, CorrectionParams(3, [1.0, 2.069e-4, 2.336e-3, 2.336e-3])]
    report = cfl_search("rk44", grid=grid)
    assert np.allclose(report.best_iota, grid[1].iota_array, atol=0)
    assert report.best_tau >= 2 * 0.2908  # well above the plain-L2 member
    assert 0.5 * report.best_tau == pytest.approx(0.390, rel=0.02)
    assert report.ooa_at_best >= 3.8


def test_cfl_search_counts_unstable_runs_as_evaluated(monkeypatch):
    # three stable candidates: the fastest one's order study fails, the plain-L2 member
    # is the second one evaluated and reaches the order, the slowest one is never studied
    studied, fit = [], gsfr.experiments._fit_order

    def first_run_unstable(ops, tau_ref, *args):
        studied.append(tau_ref)
        if len(studied) == 1:
            raise UnstableRunError("divergence")
        return fit(ops, tau_ref, *args)

    monkeypatch.setattr(gsfr.experiments, "_fit_order", first_run_unstable)
    grid = [DG3, CorrectionParams(3, [1.0, 2.069e-4, 2.336e-3, 2.336e-3]), CorrectionParams(3, [1.0, 0.0, 0.0, -1e-4])]
    report = cfl_search("rk44", grid=grid)
    assert report.grid_spec.startswith("3 points, 3 stable")
    assert studied == [step_limit(grid[1]).tau_max, step_limit(DG3).tau_max]
    assert np.array_equal(report.best_iota, grid[0].iota_array)
    assert report.evaluated == 2
    assert (report.unstable_runs, report.below_order) == (1, 0)


def test_cfl_search_reports_every_candidate_fate(monkeypatch):
    # one point outside the bounds, one without a limit, one with a zero limit; the
    # order studies run fastest first: below the order, unstable, then the best
    points = default_search_grid(3, [0.0, 1e-3])
    inside = [params for params in points if sufficient_bounds(params).satisfied]
    grid = [CorrectionParams(3, [1.0, -0.5, 0.0, 0.0])] + inside[:5]
    # each record carries its own abscissa, so the winner's can only come from its own record
    ops = reference_operators(DG3, 1.0)
    limits = [None, None] + [
        StabilityResult(tau, 128, "rk44", pi, 0, abscissa)
        for tau, abscissa in [(0.0, 1e-3), (0.3, 2e-3), (0.01, 3e-3), (0.005, 4.25e-9)]
    ]
    records = dict(zip(grid, [(ops, limit) for limit in limits]))
    # the 0.01 limit runs the real order study, whose 0.02 check refuses it
    orders, fit = {0.3: 3.0, 0.005: 4.0}, gsfr.experiments._fit_order

    def scripted_fit(ops, tau_ref, *args):
        if tau_ref not in orders:
            return fit(ops, tau_ref, *args)
        return SimpleNamespace(fitted_order=orders[tau_ref])

    monkeypatch.setattr(gsfr.experiments, "_solved_limit", lambda params, *args: records[params])
    monkeypatch.setattr(gsfr.experiments, "_fit_order", scripted_fit)
    report = cfl_search("rk44", grid=grid)
    assert np.array_equal(report.best_iota, grid[5].iota_array) and report.best_tau == 0.005
    assert report.spectral_abscissa == 4.25e-9
    assert report.grid_spec.startswith("6 points, 3 stable")
    fates = (report.outside_bounds, report.no_limit, report.zero_tau, report.unstable_runs, report.below_order)
    assert fates == (1, 1, 1, 1, 1) and report.evaluated == 3


def test_cfl_search_solves_and_limits_each_point_once(monkeypatch):
    # every point gets one bounds check, and the two inside the bounds one solve, one Gauss element, one
    # set of operators and one limit each; the order study of the published vector (the faster of the two,
    # and it reaches the order) reads its grid record, as do the winner's step limit and abscissa
    calls = {"bounds": 0, "solve": 0, "element": 0, "operators": 0, "limit": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gsfr.experiments, "solve_correction", counted("solve", solve_correction))
    monkeypatch.setattr(gsfr.experiments, "cfl_limit", counted("limit", cfl_limit))
    monkeypatch.setattr(gsfr.experiments, "sufficient_bounds", counted("bounds", sufficient_bounds))
    monkeypatch.setattr(gsfr.experiments, "build_reference_element", counted("element", build_reference_element))
    monkeypatch.setattr(gsfr.experiments, "build_scheme_operators", counted("operators", build_scheme_operators))
    grid = [DG3, CorrectionParams(3, PUBLISHED_STEP_LIMITS[1][2]), CorrectionParams(3, [1.0, -0.5, 0.0, 0.0])]
    report = cfl_search("rk44", grid=grid)
    assert np.array_equal(report.best_iota, grid[1].iota_array) and report.evaluated == 1 and report.outside_bounds == 1
    assert calls == {"bounds": 3, "solve": 2, "element": 2, "operators": 2, "limit": 2}


def test_cfl_search_order_route_matches_the_public_route():
    # the search fits each candidate on its grid record; the public study of the winner solves and limits
    # it again, and both routes give the same bits (15 of the 16 candidates fit below the order here)
    report = cfl_search("rk33", default_search_grid(4, [0.0, 1e-3, 1e-2]))
    winner = CorrectionParams(4, list(report.best_iota))
    assert report.evaluated == 16 and report.below_order == 15
    assert report.ooa_at_best == ooa_study(winner, rk="rk33").fitted_order
    assert report.best_tau == step_limit(winner, rk="rk33").tau_max
    with pytest.raises(EmptyFeasibleSetError, match=re.escape("no grid point reached order 4.8 among 16 stable")):
        cfl_search("rk33", default_search_grid(4, [0.0, 1e-3]))


def test_cfl_search_empty_feasible_set():
    with pytest.raises(EmptyFeasibleSetError):
        cfl_search("rk44", grid=[CorrectionParams(3, [1.0, -0.5, 0.0, 0.0])])


def test_cfl_search_lets_programming_errors_through(monkeypatch):
    # only numerical failures drop a grid point; a bug must not read as "unstable"
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(gsfr.experiments, "cfl_limit", broken)
    with pytest.raises(TypeError):
        cfl_search("rk44", grid=[DG3])


def test_ooa_unstable_run_reported():
    # far outside the bounds: the norm is indefinite and the operator has
    # strongly unstable modes at every tolerance
    with pytest.raises(UnstableRunError):
        ooa_study(CorrectionParams(3, [1, -0.5, 0, 0]), element_counts=(40, 50, 60, 70))
