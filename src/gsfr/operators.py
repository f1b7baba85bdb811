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

from functools import cache
from math import isclose
from typing import NamedTuple

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
    "RK_DIVISORS",
    "RK_SCHEMES",
    "rk_divisors",
]

# each scheme's stability polynomial R(z) = sum_{n<=s} z^n / d_n as its integer divisors d_n, here Taylor's n!
RK_DIVISORS = {"rk33": (1, 1, 2, 6), "rk44": (1, 1, 2, 6, 24), "rk55": (1, 1, 2, 6, 24, 120)}
RK_SCHEMES = tuple(RK_DIVISORS)


def rk_divisors(rk: str) -> tuple:
    """RK_DIVISORS[rk], with a ValueError naming RK_SCHEMES for an unknown scheme."""
    if rk not in RK_DIVISORS:
        raise ValueError(f"unknown scheme {rk!r}; expected one of {RK_SCHEMES}")
    return RK_DIVISORS[rk]


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


class ReferenceElement(NamedTuple):
    """Solution points plus the operators living on [-1, 1]."""

    p: int
    nodes: np.ndarray
    weights: np.ndarray
    D: np.ndarray
    l_left: np.ndarray
    l_right: np.ndarray
    g_left: np.ndarray
    g_right: np.ndarray


class SchemeOperators(NamedTuple):
    """The three neighbour-coupling matrices of one element, with the upwinding ratio and jacobian they were built for."""

    element: ReferenceElement
    alpha: float
    jacobian: float
    C_plus: np.ndarray
    C_zero: np.ndarray
    C_minus: np.ndarray


class MeshState(NamedTuple):
    """Values u at the nodes of a periodic uniform mesh from x_left; its element width is 2 * SchemeOperators.jacobian."""

    n_elements: int
    x_left: float
    u: np.ndarray


def build_reference_element(
    p: int, correction: CorrectionPair, node_kind: str = "gauss"
) -> ReferenceElement:
    """Assemble nodes, derivative matrix, and correction-gradient samples.

    Only the correction-gradient samples g_left and g_right are evaluated
    per call. The nodes, quadrature weights, D, l_left and l_right depend
    on (p, node_kind) alone: every element of that order and kind shares
    one read-only copy of them.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    if p != correction.p:
        raise ValueError(f"element order p={p} differs from the correction pair's p={correction.p}")
    if node_kind not in NODE_KINDS:
        raise ValueError(f"unknown node kind {node_kind!r}")
    nodes, weights, D, l_left, l_right = _element_base(p, node_kind)
    return ReferenceElement(
        p=p,
        nodes=nodes,
        weights=weights,
        D=D,
        l_left=l_left,
        l_right=l_right,
        g_left=correction.g_l(nodes),
        g_right=correction.g_r(nodes),
    )


@cache
def _element_base(p: int, node_kind: str) -> tuple:
    """Read-only nodes, weights, D, l_left and l_right of one order and node kind."""
    nodes, weights = NODE_KINDS[node_kind](p)
    D = _derivative_matrix(nodes)
    base = (nodes, weights, D, _interpolation_vector(nodes, -1.0), _interpolation_vector(nodes, 1.0))
    for array in base:
        array.flags.writeable = False
    return base


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
    """Periodic uniform mesh with optional pointwise initial data; x_right only checks that its width is 2 * ops.jacobian."""
    if n_elements < 1 or x_right <= x_left:
        raise ValueError("need n_elements >= 1 and x_right > x_left")
    if not isclose((x_right - x_left) / n_elements, 2.0 * ops.jacobian, rel_tol=1e-12):
        raise ValueError(f"element width {(x_right - x_left) / n_elements!r} is not 2 * jacobian {ops.jacobian!r}")
    x = mesh_nodes(ops, MeshState(n_elements, x_left, None))
    u = np.zeros_like(x) if init is None else np.asarray(init(x), dtype=float)
    return MeshState(n_elements, x_left, u)


def mesh_nodes(ops: SchemeOperators, state: MeshState) -> np.ndarray:
    """Physical coordinates of every solution point, shape (n_elements, p+1)."""
    offsets = state.x_left + 2.0 * ops.jacobian * np.arange(state.n_elements)[:, None]
    return offsets + ops.jacobian * (ops.element.nodes[None, :] + 1.0)


def linear_advection_rhs(ops: SchemeOperators, u: np.ndarray) -> np.ndarray:
    """du/dt for unit-speed linear advection on the periodic mesh, for u of shape (..., n, p+1).

    Element j meets elements j-1 and j+1 mod u.shape[-2].
    """
    out = u @ ops.C_zero.T
    out += np.roll(u, -1, axis=-2) @ ops.C_plus.T
    out += np.roll(u, 1, axis=-2) @ ops.C_minus.T
    return -out / ops.jacobian


def wave_speed(x):
    """Spatially varying advection speed sin(pi x) + 2, always in [1, 3]."""
    return np.sin(np.pi * x) + 2.0


def make_heterogeneous_rhs(ops: SchemeOperators, state: MeshState):
    """du/dt for the variable-speed flux f = (sin(pi x) + 2) u, as a closure over the mesh.

    The flux is collocated at the solution points before differentiation
    (the product is under-resolved by the nodal basis, which is the
    aliasing mechanism of interest). The node and interface speeds depend
    only on the mesh geometry, so build this once per mesh and call the
    returned rhs(u) per stage; u may be a stack (..., n, p+1).
    """
    el = ops.element
    a_nodes = wave_speed(mesh_nodes(ops, state))
    a_face = wave_speed(state.x_left + 2.0 * ops.jacobian * np.arange(state.n_elements))

    def rhs(u: np.ndarray) -> np.ndarray:
        f = a_nodes * u
        # interface i sits between elements i-1 and i (periodic); the
        # common flux is the local speed times the alpha-blend of the two
        # traces, and the speed is strictly positive so the upwind side
        # is always the left
        u_minus = np.roll(u @ el.l_right, 1, axis=-1)
        u_plus = u @ el.l_left
        f_common = a_face * (ops.alpha * u_minus + (1.0 - ops.alpha) * u_plus)
        jump_left = f_common - f @ el.l_left
        jump_right = np.roll(f_common, -1, axis=-1) - f @ el.l_right
        out = f @ el.D.T
        out += jump_left[..., None] * el.g_left
        out += jump_right[..., None] * el.g_right
        return -out / ops.jacobian

    return rhs


def rk_advance(rhs_fn, state: MeshState, tau: float, scheme: str = "rk44") -> MeshState:
    """One explicit Runge-Kutta step of the semi-discrete system.

    Every right-hand side in this package is linear in u, so a scheme is
    its stability polynomial of RK_DIVISORS: rk33 (Shu-Osher SSP) and rk44
    (classic four-stage) realise it through their standard stage forms,
    and rk55 as its degree-s Taylor update in Horner form (a six-stage
    fifth-order scheme would append a spurious sixth-power term).

    rhs_fn maps a solution array to du/dt and is called once per stage.
    This stage form defines every time step in the package and is the
    oracle for the fast paths, which probe it in one call each: state.u
    may be a stack (..., n, p+1), and every state of it is stepped as if
    alone. Advection steps per Bloch wave, as a power of the step of the
    wave's (p+1)x(p+1) operator, and the hetero study with the periodic
    block-tridiagonal matrix of `gsfr.experiments.step_map`.
    """
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    degree = len(rk_divisors(scheme)) - 1  # rejects an unknown scheme, also at tau 0
    if tau == 0.0:
        return state
    u = state.u
    if scheme == "rk33":
        u1 = u + tau * rhs_fn(u)
        u2 = 0.75 * u + 0.25 * (u1 + tau * rhs_fn(u1))
        new = u / 3.0 + 2.0 / 3.0 * (u2 + tau * rhs_fn(u2))
    elif scheme == "rk44":
        k1 = rhs_fn(u)
        k2 = rhs_fn(u + 0.5 * tau * k1)
        k3 = rhs_fn(u + 0.5 * tau * k2)
        k4 = rhs_fn(u + tau * k3)
        new = u + tau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:  # rk55
        acc = u.copy()
        for n in range(degree, 0, -1):
            acc = u + (tau / n) * rhs_fn(acc)
        new = acc
    return state._replace(u=new)


def solution_energy(ops: SchemeOperators, u: np.ndarray):
    """Domain integral of u^2 by the element quadrature rule, one per state of a stack (..., n, p+1)."""
    # weights tiled to (n, p+1): broadcasting the p+1 weights runs numpy's inner loop only p+1 long
    return ops.jacobian * np.sum(u**2 * np.tile(ops.element.weights, (u.shape[-2], 1)), axis=(-2, -1))
