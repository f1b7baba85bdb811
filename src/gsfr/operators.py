"""1D flux-reconstruction semi-discretization on periodic uniform meshes.

A reference element bundles the solution points, the Lagrange derivative
matrix, the interface interpolation vectors, and samples of the
correction-function gradients. The per-element update couples each
element to its two neighbours through the three operator matrices

    C_plus  = (1 - alpha) g_r l_l^T        (downwind neighbour)
    C_zero  = D - alpha g_l l_l^T - (1 - alpha) g_r l_r^T
    C_minus = alpha g_l l_r^T              (upwind neighbour)

with alpha the interface upwinding ratio (1 = fully upwinded, 0.5 =
central). All right-hand sides are linear in the solution values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import numpy.polynomial.legendre as npleg

from .correction import CorrectionPair

__all__ = [
    "ReferenceElement",
    "SchemeOperators",
    "MeshState",
    "gauss_nodes",
    "lobatto_nodes",
    "NODE_KINDS",
    "build_reference_element",
    "build_scheme_operators",
    "uniform_mesh",
    "mesh_nodes",
    "linear_advection_rhs",
    "make_heterogeneous_rhs",
    "wave_speed",
    "rk_advance",
    "solution_energy",
    "RK_STAGE_ORDER",
    "RK_SCHEMES",
    "stage_order",
]

# truncation order of each scheme's one-step polynomial (see rk_advance)
RK_STAGE_ORDER = {"rk33": 3, "rk44": 4, "rk55": 5}
RK_SCHEMES = tuple(RK_STAGE_ORDER)


def stage_order(rk: str) -> int:
    """RK_STAGE_ORDER[rk], with a ValueError naming RK_SCHEMES for an unknown scheme."""
    if rk not in RK_STAGE_ORDER:
        raise ValueError(f"unknown scheme {rk!r}; expected one of {RK_SCHEMES}")
    return RK_STAGE_ORDER[rk]


def gauss_nodes(p: int):
    """Gauss-Legendre points and weights for p+1 solution points."""
    return npleg.leggauss(p + 1)


def lobatto_nodes(p: int):
    """Gauss-Lobatto points and weights for p+1 solution points (p >= 1)."""
    if p < 1:
        raise ValueError("Lobatto nodes need at least two points")
    interior = npleg.legroots(npleg.legder([0.0] * p + [1.0]))
    nodes = np.concatenate(([-1.0], interior, [1.0]))
    # w_i = 2 / (n(n-1) P_{n-1}(x_i)^2) with n = p+1 points
    n = p + 1
    pm1 = npleg.legval(nodes, [0.0] * p + [1.0])
    weights = 2.0 / (n * (n - 1) * pm1**2)
    return nodes, weights


NODE_KINDS = {"gauss": gauss_nodes, "lobatto": lobatto_nodes}


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def _derivative_matrix(nodes: np.ndarray) -> np.ndarray:
    w = _barycentric_weights(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


def _interpolation_vector(nodes: np.ndarray, x: float) -> np.ndarray:
    hit = np.isclose(nodes, x, rtol=0.0, atol=1e-13)
    if hit.any():
        vec = np.zeros_like(nodes)
        vec[np.argmax(hit)] = 1.0
        return vec
    w = _barycentric_weights(nodes)
    terms = w / (x - nodes)
    return terms / np.sum(terms)


@dataclass(frozen=True)
class ReferenceElement:
    """Solution points plus the operators living on [-1, 1]."""

    p: int
    nodes: np.ndarray
    weights: np.ndarray
    D: np.ndarray
    l_left: np.ndarray
    l_right: np.ndarray
    g_left: np.ndarray
    g_right: np.ndarray


@dataclass(frozen=True)
class SchemeOperators:
    element: ReferenceElement
    alpha: float
    jacobian: float
    C_plus: np.ndarray
    C_zero: np.ndarray
    C_minus: np.ndarray


@dataclass(frozen=True)
class MeshState:
    """Solution values at the mapped nodes of a periodic uniform mesh."""

    n_elements: int
    x_left: float
    x_right: float
    u: np.ndarray

    @property
    def element_width(self) -> float:
        return (self.x_right - self.x_left) / self.n_elements

    @property
    def jacobian(self) -> float:
        return 0.5 * self.element_width


def build_reference_element(
    p: int, correction: CorrectionPair, node_kind: str = "gauss"
) -> ReferenceElement:
    """Assemble nodes, derivative matrix, and correction-gradient samples."""
    if p < 1:
        raise ValueError("need p >= 1")
    if node_kind not in NODE_KINDS:
        raise ValueError(f"unknown node kind {node_kind!r}")
    nodes, weights = NODE_KINDS[node_kind](p)
    return ReferenceElement(
        p=p,
        nodes=nodes,
        weights=weights,
        D=_derivative_matrix(nodes),
        l_left=_interpolation_vector(nodes, -1.0),
        l_right=_interpolation_vector(nodes, 1.0),
        g_left=correction.g_l(nodes),
        g_right=correction.g_r(nodes),
    )


def build_scheme_operators(
    element: ReferenceElement, alpha: float, jacobian: float = 1.0
) -> SchemeOperators:
    if not 0.5 <= alpha <= 1.0:
        raise ValueError("upwinding ratio alpha must lie in [0.5, 1]")
    if jacobian <= 0.0:
        raise ValueError("jacobian must be positive")
    gl = element.g_left[:, None]
    gr = element.g_right[:, None]
    ll = element.l_left[None, :]
    lr = element.l_right[None, :]
    return SchemeOperators(
        element=element,
        alpha=alpha,
        jacobian=jacobian,
        C_plus=(1.0 - alpha) * gr * ll,
        C_zero=element.D - alpha * gl * ll - (1.0 - alpha) * gr * lr,
        C_minus=alpha * gl * lr,
    )


def uniform_mesh(
    ops: SchemeOperators, n_elements: int, x_left: float, x_right: float, init=None
) -> MeshState:
    """Periodic uniform mesh with optional pointwise initial data."""
    if n_elements < 1 or x_right <= x_left:
        raise ValueError("need n_elements >= 1 and x_right > x_left")
    x = _node_coords(ops.element, n_elements, x_left, x_right)
    u = np.zeros_like(x) if init is None else np.asarray(init(x), dtype=float)
    return MeshState(n_elements=n_elements, x_left=x_left, x_right=x_right, u=u)


def _node_coords(element, n_elements, x_left, x_right):
    delta = (x_right - x_left) / n_elements
    offsets = x_left + delta * np.arange(n_elements)[:, None]
    return offsets + 0.5 * delta * (element.nodes[None, :] + 1.0)


def mesh_nodes(ops: SchemeOperators, state: MeshState) -> np.ndarray:
    """Physical coordinates of every solution point, shape (n_elements, p+1)."""
    return _node_coords(ops.element, state.n_elements, state.x_left, state.x_right)


def linear_advection_rhs(ops: SchemeOperators, state: MeshState) -> np.ndarray:
    """du/dt for unit-speed linear advection on the periodic mesh."""
    u = state.u
    jac = state.jacobian
    out = u @ ops.C_zero.T
    out += np.roll(u, -1, axis=0) @ ops.C_plus.T
    out += np.roll(u, 1, axis=0) @ ops.C_minus.T
    return -out / jac


def wave_speed(x):
    """Spatially varying advection speed sin(pi x) + 2, always in [1, 3]."""
    return np.sin(np.pi * x) + 2.0


def make_heterogeneous_rhs(ops: SchemeOperators, state: MeshState):
    """du/dt for the variable-speed flux f = (sin(pi x) + 2) u, as a closure over the mesh.

    The flux is collocated at the solution points before differentiation
    (the product is under-resolved by the nodal basis, which is the
    aliasing mechanism of interest). The node and interface speeds depend
    only on the mesh geometry, so build this once per mesh and call the
    returned rhs(state) per stage.
    """
    el = ops.element
    jac = state.jacobian
    a_nodes = wave_speed(mesh_nodes(ops, state))
    delta = state.element_width
    x_face = state.x_left + delta * np.arange(state.n_elements)
    a_face = wave_speed(x_face)

    def rhs(s: MeshState) -> np.ndarray:
        u = s.u
        f = a_nodes * u
        # interface i sits between elements i-1 and i (periodic); the
        # common flux is the local speed times the alpha-blend of the two
        # traces, and the speed is strictly positive so the upwind side
        # is always the left
        u_minus = np.roll(u @ el.l_right, 1)
        u_plus = u @ el.l_left
        f_common = a_face * (ops.alpha * u_minus + (1.0 - ops.alpha) * u_plus)
        jump_left = f_common - f @ el.l_left
        jump_right = np.roll(f_common, -1) - f @ el.l_right
        out = f @ el.D.T
        out += jump_left[:, None] * el.g_left[None, :]
        out += jump_right[:, None] * el.g_right[None, :]
        return -out / jac

    return rhs


def rk_advance(rhs_fn, state: MeshState, tau: float, scheme: str = "rk44") -> MeshState:
    """One explicit Runge-Kutta step of the semi-discrete system.

    Every right-hand side in this package is linear in u, so each scheme
    realises the truncated-exponential one-step map of its order: rk33
    (Shu-Osher SSP) and rk44 (classic four-stage) do so through their
    standard stage forms, and rk55 applies the order-5 Taylor update in
    Horner form (a six-stage fifth-order scheme would append a spurious
    sixth-power term relative to the spectral update matrix).

    This stage form defines every time step in the package and is the
    oracle for the fast path: the studies build the step's block-banded
    matrix once with `gsfr.experiments.step_map`, which probes this
    function, and apply that matrix instead; tests hold the two together.
    """
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    stage_order(scheme)  # rejects an unknown scheme, also at tau 0
    if tau == 0.0:
        return state
    u = state.u

    def f(v):
        return rhs_fn(replace(state, u=v))

    if scheme == "rk33":
        u1 = u + tau * f(u)
        u2 = 0.75 * u + 0.25 * (u1 + tau * f(u1))
        new = u / 3.0 + 2.0 / 3.0 * (u2 + tau * f(u2))
    elif scheme == "rk44":
        k1 = f(u)
        k2 = f(u + 0.5 * tau * k1)
        k3 = f(u + 0.5 * tau * k2)
        k4 = f(u + tau * k3)
        new = u + tau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:  # rk55
        acc = u.copy()
        for n in range(5, 0, -1):
            acc = u + (tau / n) * f(acc)
        new = acc
    return replace(state, u=new)


def solution_energy(ops: SchemeOperators, state: MeshState) -> float:
    """Domain integral of u^2 by the element quadrature rule."""
    return float(state.jacobian * np.sum(ops.element.weights[None, :] * state.u**2))
