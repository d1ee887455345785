"""Discrete tensor calculus over a conformal metric.

Conventions:

    (grad u)^i_j   = d_j u^i + Gamma^i_jk u^k          (lower slot = direction)
    transpose      g(grad_v u, w) = g(v, (grad u)^t w)  (taken with the metric)
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
same code paths evaluate pointwise on ScalarField components and assemble
sparse matrices on OpScalar components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Tensor11Field, VectorField
from .geometry import ConformalMetric


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


def transpose_metric(m: ConformalMetric, T: Tensor11Field) -> Tensor11Field:
    """Metric transpose, (T^t)^i_j = g^{ik} g_{jl} T^l_k, by explicit e^{+-2 phi}."""
    lowered = [[(T[l, k] * m.e2phi) for k in range(2)] for l in range(2)]
    return Tensor11Field(T.grid,
                         lowered[0][0] * m.em2phi, lowered[1][0] * m.em2phi,
                         lowered[0][1] * m.em2phi, lowered[1][1] * m.em2phi)


def def_tensor(m: ConformalMetric, u: VectorField) -> Tensor11Field:
    du = covariant_derivative(m, u)
    return (du + transpose_metric(m, du)) * 0.5


def divergence(m: ConformalMetric, u: VectorField):
    """Metric divergence e^{-2 phi} d_i(e^{2 phi} u^i)."""
    return ((u.c1 * m.e2phi).dx() + (u.c2 * m.e2phi).dy()) * m.em2phi


def gradient(m: ConformalMetric, f) -> VectorField:
    """Contravariant gradient of a scalar."""
    return VectorField(m.grid, f.dx() * m.em2phi, f.dy() * m.em2phi)


def nabla_along(m: ConformalMetric, v: VectorField, u: VectorField) -> VectorField:
    """grad_v u = (grad u)(v)."""
    return covariant_derivative(m, u).apply(v)


def jacobi_lie_bracket(m: ConformalMetric, u: VectorField, v: VectorField,
                       form: str = "covariant") -> VectorField:
    """[u, v] = grad_u v - grad_v u; Christoffel terms cancel in coordinates."""
    if form == "covariant":
        return nabla_along(m, u, v) - nabla_along(m, v, u)
    if form == "coordinate":
        g = m.grid
        b1 = u.c1 * v.c1.dx() + u.c2 * v.c1.dy() - (v.c1 * u.c1.dx() + v.c2 * u.c1.dy())
        b2 = u.c1 * v.c2.dx() + u.c2 * v.c2.dy() - (v.c1 * u.c2.dx() + v.c2 * u.c2.dy())
        return VectorField(g, b1, b2)
    raise ValueError(form)


# ---------------------------------------------------------------------------
# second-order operators
# ---------------------------------------------------------------------------

def cov_derivative_tensor(m: ConformalMetric, S: Tensor11Field):
    """Components (grad_j S)^i_k as a nested list indexed [j][i][k]."""
    g = m.gamma
    out = [[[None, None], [None, None]] for _ in range(2)]
    for j in range(2):
        for i in range(2):
            for k in range(2):
                d = S[i, k].dx() if j == 0 else S[i, k].dy()
                term = d
                for l in range(2):
                    term = term + S[l, k] * g[i, j, l] - S[i, l] * g[l, j, k]
                out[j][i][k] = term
    return out

def div_11(m: ConformalMetric, S: Tensor11Field) -> VectorField:
    """Frame-independent divergence Div(S)^i = g^{jk} (grad_j S)^i_k."""
    dS = cov_derivative_tensor(m, S)
    c1 = (dS[0][0][0] + dS[1][0][1]) * m.em2phi
    c2 = (dS[0][1][0] + dS[1][1][1]) * m.em2phi
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
    """Pointwise gbar(R, S) = Tr(R^t . S), transpose taken with the metric."""
    return transpose_metric(m, R).matmul(S).trace()


def inner0(m: ConformalMetric, u: VectorField, v: VectorField) -> float:
    return float(np.sum(m.quad_mu() * g_pair(m, u, v).data))


def inner1(m: ConformalMetric, alpha: float, u: VectorField, v: VectorField) -> float:
    base = g_pair(m, u, v)
    if alpha == 0.0:
        return float(np.sum(m.quad_mu() * base.data))
    dpair = gbar_pair(m, def_tensor(m, u), def_tensor(m, v))
    return float(np.sum(m.quad_mu() * (base.data + 2.0 * alpha**2 * dpair.data)))


def inner0_tensor(m: ConformalMetric, R: Tensor11Field, S: Tensor11Field) -> float:
    """(R, S)_0 = integral gbar(R, S) mu."""
    return float(np.sum(m.quad_mu() * gbar_pair(m, R, S).data))


# ---------------------------------------------------------------------------
# curvature contractions (2-D closed forms)
# ---------------------------------------------------------------------------

@dataclass
class CurvatureContractions:
    """The curvature-built vector fields entering the quadratic operators.

    div_r      : Div of the tensor w -> R(w, u) v
    r_grad     : Tr R(., u) grad_. v
    r_swap     : Tr R(u, grad_. v) .
    ric_rate   : (grad_u Ric) v = dK(u) v
    ric_v      : Ric v = K v
    """

    div_r: VectorField
    r_grad: VectorField
    r_swap: VectorField
    ric_rate: VectorField
    ric_v: VectorField


def curvature_contractions(m: ConformalMetric, u: VectorField,
                           v: VectorField) -> CurvatureContractions:
    grid = m.grid
    guv = g_pair(m, u, v)
    # tensor T(w) = R(w,u)v = K (g(u,v) w - g(w,v) u): T^i_j = K (g(u,v) d^i_j - u^i v_j)
    v_low = (v.c1 * m.e2phi, v.c2 * m.e2phi)
    T = Tensor11Field(grid,
                      (guv - u.c1 * v_low[0]) * m.K, (-(u.c1 * v_low[1])) * m.K,
                      (-(u.c2 * v_low[0])) * m.K, (guv - u.c2 * v_low[1]) * m.K)
    div_r = div_11(m, T)

    dv = covariant_derivative(m, v)
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
    return CurvatureContractions(div_r, r_grad, r_swap, ric_rate, ric_v)


# ---------------------------------------------------------------------------
# the scalar potentials of the quadratic operator algebra
# ---------------------------------------------------------------------------

def F_scalar(m: ConformalMetric, u: VectorField):
    """F(u) = Tr(grad u . grad u) + Ricci(u,u) + (1/2) Tr g(grad_. u, grad_. u)."""
    du = covariant_derivative(m, u)
    sq = du.matmul(du).trace()
    ricci_uu = g_pair(m, u, u) * m.K
    frob = gbar_pair(m, du, du)
    return sq + ricci_uu + frob * 0.5


def G_scalar(m: ConformalMetric, u: VectorField, v: VectorField):
    """Polarization G(u,v) = F(u+v) - F(u) - F(v)."""
    return F_scalar(m, u + v) - F_scalar(m, u) - F_scalar(m, v)
