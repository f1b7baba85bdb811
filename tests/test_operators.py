import argparse
from math import factorial, pi

import numpy as np
import pytest

import gsfr.cli
from gsfr.correction import CorrectionParams, solve_correction
from gsfr.operators import (
    _element_base,
    RK_DIVISORS,
    RK_SCHEMES,
    MeshState,
    build_reference_element,
    build_scheme_operators,
    gauss_nodes,
    linear_advection_rhs,
    lobatto_nodes,
    make_heterogeneous_rhs,
    mesh_nodes,
    rk_advance,
    solution_energy,
    uniform_mesh,
    wave_speed,
)


@pytest.fixture(scope="module")
def dg3():
    return solve_correction(CorrectionParams(3, [1, 0, 0, 0]))


@pytest.fixture(scope="module")
def element(dg3):
    return build_reference_element(3, dg3)


def dense_operator(ops, n_elements):
    """Physical-space matrix of the linear rhs: column j is the rhs of unit vector j, all in one stacked call."""
    size = n_elements * (ops.element.p + 1)
    return linear_advection_rhs(ops, np.eye(size).reshape(size, n_elements, -1)).reshape(size, size).T


def test_node_sets():
    g, gw = gauss_nodes(3)
    assert np.allclose(np.sort(g), g) and gw.sum() == pytest.approx(2.0, abs=1e-14)
    l, lw = lobatto_nodes(3)
    assert l[0] == -1.0 and l[-1] == 1.0
    assert lw.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(l[1:3], [-1 / np.sqrt(5), 1 / np.sqrt(5)], atol=1e-14)


def test_derivative_matrix_exact_for_polynomials(element):
    nodes = element.nodes
    assert np.max(np.abs(element.D.sum(axis=1))) < 1e-12
    # exact for degree <= p
    for q in range(1, 4):
        assert np.max(np.abs(element.D @ nodes**q - q * nodes ** (q - 1))) < 1e-12


def test_derivative_matrix_p1_linear():
    pair = solve_correction(CorrectionParams(2, [1, 0, 0]))
    el = build_reference_element(2, pair)
    vals = el.nodes
    assert np.allclose(el.D @ vals, np.ones_like(vals), atol=1e-13)


def test_interpolation_vectors(element):
    # psi_1(xi) = xi interpolated to the left face
    assert element.l_left @ element.nodes == pytest.approx(-1.0, abs=1e-13)
    assert element.l_right @ element.nodes == pytest.approx(1.0, abs=1e-13)
    assert element.l_left.sum() == pytest.approx(1.0, abs=1e-13)


def test_interpolation_vector_at_node():
    pair = solve_correction(CorrectionParams(3, [1, 0, 0, 0]))
    el = build_reference_element(3, pair, "lobatto")
    assert np.allclose(el.l_left, [1, 0, 0, 0], atol=0)
    assert np.allclose(el.l_right, [0, 0, 0, 1], atol=0)


def test_correction_gradient_samples(element, dg3):
    assert np.max(np.abs(element.g_left - dg3.g_l(element.nodes))) < 1e-10
    assert np.max(np.abs(element.g_right - dg3.g_r(element.nodes))) < 1e-10


def test_operator_invariants(element):
    ops = build_scheme_operators(element, 0.7, jacobian=0.5)
    gl = element.g_left[:, None]
    gr = element.g_right[:, None]
    assert np.allclose(ops.C_plus, 0.3 * gr * element.l_left[None, :], atol=0)
    assert np.allclose(ops.C_minus, 0.7 * gl * element.l_right[None, :], atol=0)
    total = ops.C_plus + ops.C_zero + ops.C_minus
    assert np.max(np.abs(total @ np.ones(4))) < 1e-11


def test_builder_validation(element, dg3):
    with pytest.raises(ValueError):
        build_scheme_operators(element, 0.2)
    with pytest.raises(ValueError):
        build_scheme_operators(element, 1.0, jacobian=-1.0)
    with pytest.raises(ValueError):
        build_reference_element(0, None)
    with pytest.raises(ValueError, match="p=2 differs from the correction pair's p=3"):
        build_reference_element(2, dg3)


def test_reference_elements_share_one_read_only_base(dg3):
    _element_base.cache_clear()
    other = solve_correction(CorrectionParams(3, [1, 1e-3, 0, 2e-3]))
    first, second = build_reference_element(3, dg3), build_reference_element(3, other)
    for name in ("nodes", "weights", "D", "l_left", "l_right"):
        assert getattr(first, name) is getattr(second, name)
        assert not getattr(first, name).flags.writeable
    assert np.array_equal(first.nodes, gauss_nodes(3)[0]) and np.array_equal(first.weights, gauss_nodes(3)[1])
    assert not np.array_equal(first.g_left, second.g_left) and first.g_left.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first.nodes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        first.D[0, 0] = 0.0
    lobatto = build_reference_element(3, dg3, "lobatto")
    assert lobatto.nodes is not first.nodes and np.array_equal(lobatto.nodes, lobatto_nodes(3)[0])
    assert _element_base.cache_info().currsize == 2
    # invalid requests raise before the base is built
    with pytest.raises(ValueError, match="need p >= 1"):
        build_reference_element(0, None)
    with pytest.raises(ValueError, match="differs from the correction pair's"):
        build_reference_element(4, dg3)
    with pytest.raises(ValueError, match="unknown node kind"):
        build_reference_element(3, dg3, "chebyshev")
    assert _element_base.cache_info().currsize == 2


def test_constant_field_is_steady(element):
    for alpha in (1.0, 0.5):
        ops = build_scheme_operators(element, alpha, jacobian=0.25)
        state = uniform_mesh(ops, 10, 0.0, 5.0, init=lambda x: 3.0 * np.ones_like(x))
        assert np.max(np.abs(linear_advection_rhs(ops, state.u))) < 1e-11
        hetero = make_heterogeneous_rhs(ops, state)
        assert np.max(np.abs(hetero(state.u))) > 0  # variable speed, not steady
        assert np.max(np.abs(hetero(np.zeros_like(state.u)))) == 0.0


def test_resolved_sine_rhs(element):
    n = 40
    ops = build_scheme_operators(element, 1.0, jacobian=pi / n)
    state = uniform_mesh(ops, n, 0.0, 2.0 * pi, init=np.sin)
    x = mesh_nodes(ops, state)
    err = np.max(np.abs(linear_advection_rhs(ops, state.u) + np.cos(x)))
    assert err < 5e-5


def test_alpha_independent_for_continuous_nodal_data(element):
    # identical per-element data with matching endpoint traces has no
    # interface jumps, so the upwinding ratio cannot matter
    n = 6
    ops1 = build_scheme_operators(element, 1.0, jacobian=1.0)
    ops5 = build_scheme_operators(element, 0.5, jacobian=1.0)
    cell = element.nodes**2  # trace 1 at both faces, periodic-continuous
    u = np.tile(cell, (n, 1))
    r1 = linear_advection_rhs(ops1, u)
    r5 = linear_advection_rhs(ops5, u)
    assert np.max(np.abs(r1 - r5)) < 1e-10
    assert np.max(np.abs(r1 + 2.0 * element.nodes[None, :])) < 1e-10


def test_global_conservation(element):
    rng = np.random.default_rng(2)
    for alpha in (1.0, 0.75, 0.5):
        ops = build_scheme_operators(element, alpha, jacobian=0.37)
        state = uniform_mesh(ops, 9, 0.0, 9 * 0.74, init=lambda x: np.sin(x) + 0.2)
        u = state.u + 0.1 * rng.standard_normal(state.u.shape)
        rhs = linear_advection_rhs(ops, u)
        integral = ops.jacobian * np.sum(element.weights[None, :] * rhs)
        assert abs(integral) < 1e-10


def test_gauss_lobatto_rhs_agreement(dg3):
    # for a linear flux the semi-discretization is node-independent, so
    # both node sets must produce the same rhs polynomial when fed the
    # same per-element Legendre data
    import numpy.polynomial.legendre as npleg

    n = 12
    el_g = build_reference_element(3, dg3, "gauss")
    el_l = build_reference_element(3, dg3, "lobatto")
    ops_g = build_scheme_operators(el_g, 1.0, jacobian=pi / n)
    ops_l = build_scheme_operators(el_l, 1.0, jacobian=pi / n)
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal((n, 4))
    u_g = npleg.legval(el_g.nodes, coeffs.T, tensor=True)
    u_l = npleg.legval(el_l.nodes, coeffs.T, tensor=True)
    rg = linear_advection_rhs(ops_g, u_g)
    rl = linear_advection_rhs(ops_l, u_l)
    vand = lambda el: np.stack([npleg.legval(el.nodes, [0] * j + [1]) for j in range(4)], axis=1)
    cg = np.linalg.solve(vand(el_g), rg.T)
    cl = np.linalg.solve(vand(el_l), rl.T)
    assert np.max(np.abs(cg - cl)) < 1e-9


def test_semi_discrete_spectrum_nonpositive_for_classical_members():
    # upwind interfaces: the plain-L2 and one-parameter members give
    # operators whose eigenvalues sit in the closed left half-plane
    for weights in ([1, 0, 0, 0], [1, 0, 0, 1e-2], [1, 0, 0, 1e-1]):
        pair = solve_correction(CorrectionParams(3, weights))
        el = build_reference_element(3, pair)
        ops = build_scheme_operators(el, 1.0, jacobian=1.0)
        mat = dense_operator(ops, 16)
        assert np.max(np.linalg.eigvals(mat).real) < 1e-9


def test_semi_discrete_spectrum_counterexample_inside_bounds():
    # weight vectors inside the sufficient bounds are NOT all
    # eigenvalue-stable: the bounds certify the norm, not the operator
    pair = solve_correction(CorrectionParams(3, [1, 2.069e-4, 2.336e-3, 2.336e-3]))
    el = build_reference_element(3, pair)
    ops = build_scheme_operators(el, 1.0, jacobian=1.0)
    mat = dense_operator(ops, 32)
    abscissa = np.max(np.linalg.eigvals(mat).real)
    assert 1e-6 < abscissa < 1e-3


def test_hetero_interface_speed_range():
    xs = np.linspace(-1, 1, 101)
    speeds = wave_speed(xs)
    assert speeds.min() >= 1.0 and speeds.max() <= 3.0


def test_hetero_single_step_energy_matches_physical_curvature(dg3):
    # the variable-speed problem's energy is not conserved pointwise in
    # time: E'(0) = -int a_x u0^2 dx = 0 but E''(0) = pi^2 (hand
    # integration of 2*int a_x u (a u)_x dx with u0 = sin(4 pi x)), so one
    # step changes the energy by (pi^2/2) tau^2 physically; the resolved
    # dense-grid runs must reproduce that curvature, leaving no room for
    # spurious single-step growth beyond it
    el = build_reference_element(3, dg3)
    curvature = np.pi**2 / 2.0
    for n in (256, 512):
        ops = build_scheme_operators(el, 1.0, jacobian=1.0 / n)
        state = uniform_mesh(ops, n, -1.0, 1.0, init=lambda x: np.sin(4 * np.pi * x))
        e0 = solution_energy(ops, state.u)
        assert e0 == pytest.approx(1.0, abs=1e-12)
        tau = 0.05 * 2 * ops.jacobian / 3.0
        after = rk_advance(make_heterogeneous_rhs(ops, state), state, tau, "rk44")
        delta = solution_energy(ops, after.u) - e0
        assert delta / tau**2 == pytest.approx(curvature, rel=0.01)


def test_scheme_table_holds_the_taylor_divisors_of_each_degree():
    # the degrees and n! are this test's own, so a wrong entry fails here and in every n! oracle of the tests
    degrees = {"rk33": 3, "rk44": 4, "rk55": 5}
    assert RK_DIVISORS == {rk: tuple(factorial(n) for n in range(s + 1)) for rk, s in degrees.items()}
    assert all(type(d) is int for divisors in RK_DIVISORS.values() for d in divisors)  # integer divisions keep their bits
    assert RK_SCHEMES == tuple(RK_DIVISORS) == tuple(degrees)
    # every command with an --rk option offers exactly the table's schemes
    commands = [gsfr.cli._build_parser()]
    choices = []
    while commands:
        parser = commands.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                commands.extend(action.choices.values())
            elif "--rk" in action.option_strings:
                choices.append(action.choices)
    assert len(choices) == 6 and all(c is RK_SCHEMES for c in choices), choices


def test_rk_advance_zero_step(element):
    ops = build_scheme_operators(element, 1.0, jacobian=1.0)
    state = uniform_mesh(ops, 5, 0.0, 10.0, init=np.cos)
    for scheme in ("rk33", "rk44", "rk55"):
        out = rk_advance(lambda s: linear_advection_rhs(ops, s), state, 0.0, scheme)
        assert np.array_equal(out.u, state.u)


@pytest.mark.parametrize("scheme,order", [("rk33", 3), ("rk44", 4), ("rk55", 5)])
def test_rk_advance_matches_truncated_exponential(element, scheme, order):
    n = 4
    ops = build_scheme_operators(element, 1.0, jacobian=1.0)
    rng = np.random.default_rng(4)
    u0 = rng.standard_normal((n, 4))
    state = MeshState(n, 0.0, u0)
    tau = 0.01
    mat = dense_operator(ops, n)
    poly = np.eye(n * 4)
    power = np.eye(n * 4)
    for k in range(1, order + 1):
        power = power @ (tau * mat)
        poly = poly + power / factorial(k)
    expected = (poly @ u0.ravel()).reshape(n, 4)
    advanced = rk_advance(lambda s: linear_advection_rhs(ops, s), state, tau, scheme)
    assert np.max(np.abs(advanced.u - expected)) < 1e-12


def test_one_period_advection_accuracy(dg3):
    # p=3, N=50: one domain traversal of a cosine wave stays below 1e-5
    n = 50
    el = build_reference_element(3, dg3)
    ops = build_scheme_operators(el, 1.0, jacobian=pi / n)
    state = uniform_mesh(ops, n, 0.0, 2 * pi, init=np.cos)
    x = mesh_nodes(ops, state)
    tau = 0.05 * ops.jacobian
    steps = int(np.ceil(2 * pi / tau))
    tau = 2 * pi / steps
    for _ in range(steps):
        state = rk_advance(lambda s: linear_advection_rhs(ops, s), state, tau, "rk44")
    eps = np.mean(np.abs(state.u - np.cos(x)))
    assert eps < 1e-5


def test_energy_decays_for_upwind_linear(dg3):
    n = 20
    el = build_reference_element(3, dg3)
    ops = build_scheme_operators(el, 1.0, jacobian=pi / n)
    state = uniform_mesh(ops, n, 0.0, 2 * pi, init=lambda x: np.sin(3 * x))
    e0 = solution_energy(ops, state.u)
    tau = 0.05 * ops.jacobian
    for _ in range(200):
        state = rk_advance(lambda s: linear_advection_rhs(ops, s), state, tau, "rk44")
        e1 = solution_energy(ops, state.u)
        assert e1 <= e0 * (1.0 + 1e-12)
        e0 = e1


def test_mesh_state_geometry(element):
    ops = build_scheme_operators(element, 1.0, jacobian=0.1)
    state = uniform_mesh(ops, 10, -1.0, 1.0)
    assert (state.n_elements, state.x_left) == (10, -1.0)
    x = mesh_nodes(ops, state)
    assert x.shape == (10, 4)
    assert np.allclose(np.diff(x, axis=0), 0.2, rtol=0.0, atol=1e-15)  # element width 2 * ops.jacobian
    assert x.min() > -1.0 and x.max() < 1.0
    # the jacobian is the operators' alone: a mesh whose element width is not 2 * ops.jacobian is refused
    for n_elements, x_right in ((10, 1.5), (5, 1.0), (20, 1.0), (10, 1.0 + 1e-9)):
        with pytest.raises(ValueError, match=r"^element width .* is not 2 \* jacobian 0\.1$"):
            uniform_mesh(ops, n_elements, -1.0, x_right)
    # the studies' meshes: hetero on [-1, 1] with jacobian 1/n, advection on [0, 2 pi] with pi/n
    for n in (*range(1, 41), 64, 127, 160, 192, 224, 256, 384, 512):
        uniform_mesh(build_scheme_operators(element, 1.0, 1.0 / n), n, -1.0, 1.0)
        uniform_mesh(build_scheme_operators(element, 1.0, pi / n), n, 0.0, 2.0 * pi)
