"""Discrete tensor calculus over a conformal metric.

Conventions:

    (grad u)^i_j   = d_j u^i + Gamma^i_jk u^k          (lower slot = direction)
    transpose      g(grad_v u, w) = g(v, (grad u)^t w)  (taken with the metric;
                   for a conformal metric, the component transpose)
    Def(u)         = (grad u + (grad u)^t) / 2
    div u          = e^{-2 phi} d_i (e^{2 phi} u^i)
    grad f         = e^{-2 phi} (d_x f, d_y f)          (contravariant)
    Div S          = g^{jk} (grad_j S)^i_k  for a (1,1)-tensor S
    Lap u          = trace(grad^2 u) - Ric u            (Hodge, via Weitzenboeck)
    Lap_r          = Lap + 2 Ric,   Lop = Lap_r + grad div
    <u,v>_0        = integral g(u,v) mu
    <u,v>_1        = <u,v>_0 + 2 a^2 integral gbar(Def u, Def v) mu

Curvature enters through the 2-D closed forms R(a,b)c = K (g(b,c) a - g(a,c) b),
Ric = K Id and (grad_u Ric)(v) = dK(u) v.

All linear operators are written against the generic scalar backend, so the
same code paths evaluate pointwise on ScalarField components and record on
TapeScalar ones, whose fields.Tape assembles or transposes the recorded map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Tensor11Field, VectorField
from .geometry import ConformalMetric
from .grid import require_unbatched


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def covariant_derivative(m: ConformalMetric, u: VectorField) -> Tensor11Field:
    """(grad u)^i_j = d_j u^i + Gamma^i_jk u^k."""
    g = m.gamma
    c = u.comps()
    t = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            d = c[i].dx() if j == 0 else c[i].dy()
            t[i][j] = d + c[0] * g[i, j, 0] + c[1] * g[i, j, 1]
    return Tensor11Field(u.grid, t[0][0], t[0][1], t[1][0], t[1][1])


def def_tensor(m: ConformalMetric, u: VectorField) -> Tensor11Field:
    du = covariant_derivative(m, u)
    return (du + du.transpose()) * 0.5


def divergence(m: ConformalMetric, u: VectorField):
    """Metric divergence e^{-2 phi} d_i(e^{2 phi} u^i)."""
    return ((u.c1 * m.e2phi).dx() + (u.c2 * m.e2phi).dy()) * m.em2phi


def gradient(m: ConformalMetric, f) -> VectorField:
    """Contravariant gradient of a scalar."""
    return VectorField(m.grid, f.dx() * m.em2phi, f.dy() * m.em2phi)


def nabla_along(m: ConformalMetric, v: VectorField, u: VectorField) -> VectorField:
    """grad_v u = (grad u)(v)."""
    return covariant_derivative(m, u).apply(v)


def jacobi_lie_bracket(m: ConformalMetric, u: VectorField, v: VectorField) -> VectorField:
    """[u, v] = grad_u v - grad_v u, in coordinates, where the Christoffel terms cancel."""
    b1 = u.c1 * v.c1.dx() + u.c2 * v.c1.dy() - (v.c1 * u.c1.dx() + v.c2 * u.c1.dy())
    b2 = u.c1 * v.c2.dx() + u.c2 * v.c2.dy() - (v.c1 * u.c2.dx() + v.c2 * u.c2.dy())
    return VectorField(m.grid, b1, b2)


# ---------------------------------------------------------------------------
# second-order operators
# ---------------------------------------------------------------------------

def div_11(m: ConformalMetric, S: Tensor11Field) -> VectorField:
    """Frame-independent divergence Div(S)^i = g^{jk} (grad_j S)^i_k.

    The metric is conformal, so only the four components (grad_j S)^i_j
    are built, (grad_j S)^i_k = d_j S^i_k + Gamma^i_jl S^l_k - Gamma^l_jk S^i_l.
    """
    g = m.gamma

    def cov(j, i):
        term = S[i, j].dx() if j == 0 else S[i, j].dy()
        for l in range(2):
            term = term + S[l, j] * g[i, j, l] - S[i, l] * g[l, j, j]
        return term

    c1 = (cov(0, 0) + cov(1, 0)) * m.em2phi
    c2 = (cov(0, 1) + cov(1, 1)) * m.em2phi
    return VectorField(m.grid, c1, c2)


def bochner_laplacian(m: ConformalMetric, u: VectorField) -> VectorField:
    """Trace of the second covariant derivative, g^{jk} grad_j (grad u)^i_k."""
    return div_11(m, covariant_derivative(m, u))


def hodge_laplacian(m: ConformalMetric, u: VectorField) -> VectorField:
    """Hodge Laplacian on vector fields via the Weitzenboeck identity."""
    return bochner_laplacian(m, u) - u * m.K


def ricci_laplacian(m: ConformalMetric, u: VectorField) -> VectorField:
    """Lap_r u = Lap u + 2 Ric u = Lap u + 2 K u in 2-D."""
    return bochner_laplacian(m, u) + u * m.K


def l_operator(m: ConformalMetric, u: VectorField) -> VectorField:
    """Lop u = Lap_r u + grad(div u)."""
    return ricci_laplacian(m, u) + gradient(m, divergence(m, u))


# ---------------------------------------------------------------------------
# pairings and integrals
# ---------------------------------------------------------------------------

def g_pair(m: ConformalMetric, u: VectorField, v: VectorField):
    """Pointwise g(u, v) = e^{2 phi} (u1 v1 + u2 v2)."""
    return (u.c1 * v.c1 + u.c2 * v.c2) * m.e2phi


def gbar_pair(m: ConformalMetric, R: Tensor11Field, S: Tensor11Field):
    """Pointwise gbar(R, S) = Tr(R^t . S), the sum of the products of matching
    components, in the order of the trace of the transpose product."""
    return (R[0, 0] * S[0, 0] + R[1, 0] * S[1, 0]) + (R[0, 1] * S[0, 1] + R[1, 1] * S[1, 1])


def _integral(m: ConformalMetric, density) -> float:
    """integral density mu of one pointwise density; a batch raises ValueError."""
    require_unbatched(density.data)
    return float(np.sum(m.quad_mu() * density.data))


def inner0(m: ConformalMetric, u: VectorField, v: VectorField) -> float:
    return _integral(m, g_pair(m, u, v))


def inner1(m: ConformalMetric, alpha: float, u: VectorField, v: VectorField) -> float:
    base = g_pair(m, u, v)
    dpair = gbar_pair(m, def_tensor(m, u), def_tensor(m, v))
    return _integral(m, base + dpair * (2.0 * alpha**2))


def inner0_tensor(m: ConformalMetric, R: Tensor11Field, S: Tensor11Field) -> float:
    """(R, S)_0 = integral gbar(R, S) mu."""
    return _integral(m, gbar_pair(m, R, S))


def wall_integral(m: ConformalMetric, walls, u: VectorField, v: VectorField) -> float:
    """Integral over the walls of g((grad_n u)^tan + S_n(u), v) d(mu_boundary),
    the wall term of the deformation pairing's integration by parts."""
    du = covariant_derivative(m, u)
    total = 0.0
    for w in walls:
        j = w.j
        # grad_n u with n = n^y d_y: the tangent component n^y (grad u)^1_y
        gnu1 = w.normal * du[0, 1].data[:, j]
        s_term = w.s_weingarten * u.c1.data[:, j]
        total += float(np.sum(w.mu_weights * m.e2phi[:, j]
                              * (gnu1 + s_term) * v.c1.data[:, j]))
    return total


# ---------------------------------------------------------------------------
# curvature contractions (2-D closed forms)
# ---------------------------------------------------------------------------

@dataclass
class CurvatureContractions:
    """The curvature-built fields entering the quadratic operators.

    r_tensor   : the (1,1)-tensor w -> R(w, u) v
    r_grad     : Tr R(., u) grad_. v
    r_swap     : Tr R(u, grad_. v) .
    ric_rate   : (grad_u Ric) v = dK(u) v
    ric_v      : Ric v = K v

    The quadratic operators add r_tensor to their other (1,1)-tensors and
    take one Div of the sum.
    """

    r_tensor: Tensor11Field
    r_grad: VectorField
    r_swap: VectorField
    ric_rate: VectorField
    ric_v: VectorField


def curvature_contractions(m: ConformalMetric, u: VectorField, v: VectorField,
                           dv: Tensor11Field | None = None) -> CurvatureContractions:
    """The contractions of u and v; dv, when given, is covariant_derivative(m, v)."""
    grid = m.grid
    guv = g_pair(m, u, v)
    # tensor T(w) = R(w,u)v = K (g(u,v) w - g(w,v) u): T^i_j = K (g(u,v) d^i_j - u^i v_j)
    v_low = (v.c1 * m.e2phi, v.c2 * m.e2phi)
    r_tensor = Tensor11Field(grid,
                             (guv - u.c1 * v_low[0]) * m.K, (-(u.c1 * v_low[1])) * m.K,
                             (-(u.c2 * v_low[0])) * m.K, (guv - u.c2 * v_low[1]) * m.K)

    dv = covariant_derivative(m, v) if dv is None else dv
    divv = divergence(m, v)
    # sharp of the 1-form w -> g(u, grad_w v); conformal factors cancel
    contr = VectorField(grid,
                        u.c1 * dv[0, 0] + u.c2 * dv[1, 0],
                        u.c1 * dv[0, 1] + u.c2 * dv[1, 1])
    r_grad = (contr - u * divv) * m.K
    r_swap = (u * divv - dv.apply(u)) * m.K

    dKu = u.c1 * m.Kx + u.c2 * m.Ky
    ric_rate = VectorField(grid, v.c1 * dKu, v.c2 * dKu)
    ric_v = v * m.K
    return CurvatureContractions(r_tensor, r_grad, r_swap, ric_rate, ric_v)


# ---------------------------------------------------------------------------
# the scalar potential of the quadratic operator's independent route
# ---------------------------------------------------------------------------

def F_scalar(m: ConformalMetric, u: VectorField):
    """F(u) = Tr(grad u . grad u) + Ricci(u,u) + (1/2) Tr g(grad_. u, grad_. u)."""
    du = covariant_derivative(m, u)
    sq = du.matmul(du).trace()
    ricci_uu = g_pair(m, u, u) * m.K
    frob = gbar_pair(m, du, du)
    return sq + ricci_uu + frob * 0.5

