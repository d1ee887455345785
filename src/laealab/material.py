"""Material (Lagrangian) side: flow maps, the geodesic spray, the connector
contraction, and the two-path commutative-diagram check.

A material state is a flow map eta (nodal positions, stored as a continuous
lift in periodic directions) together with the material velocity V = d/dt eta
sampled at the material labels.  The spatial velocity is recovered by right
translation u = V o eta^{-1} (per-node Newton inversion of the interpolated
map) and the spray is integrated in the equivalent kinematic form

    d/dt eta = V
    d/dt V   = (d_t u + grad_u u) o eta  -  Gamma_{eta}(V, V)

where d_t u is the spatial right-hand side and the chart Christoffel term
converts the covariant material acceleration to coordinates.  Volume
preservation det(D eta) e^{2 phi(eta)} / e^{2 phi} = 1 is the invertibility
and mu-preservation witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus as ca
from .dynamics import (INTEGRATORS, LaeProblem, NonFiniteStateError, State,
                       System, frak_f_alpha_interior, integrate, step_count)
from .fields import VectorField
from .interp import BicubicField


NEWTON_TOL = 1e-12      # max-norm residual at which map inversion stops
NEWTON_MAX_ITER = 60    # iterations after which map inversion has stalled


class InversionError(RuntimeError):
    pass


@dataclass
class FlowMap:
    """Nodal positions of the map, lifted continuously in periodic directions."""

    grid: object
    e1: np.ndarray       # eta^1(q) at label nodes
    e2: np.ndarray
    inv_seed: np.ndarray | None = None   # cached (2, nx, ny) inverse labels

    @classmethod
    def identity(cls, grid) -> "FlowMap":
        return cls(grid, grid.X.copy(), grid.Y.copy())

    def displacement(self):
        return self.e1 - self.grid.X, self.e2 - self.grid.Y

    def jacobian_determinant(self) -> np.ndarray:
        """det D eta at the nodes, D eta by stencils; the lift keeps
        displacements periodic."""
        g = self.grid
        d1, d2 = self.displacement()
        return (1.0 + g.ddx(d1)) * (1.0 + g.ddy(d2)) - g.ddy(d1) * g.ddx(d2)

    def check_invertible(self):
        bad = ~(np.isfinite(self.e1) & np.isfinite(self.e2))
        if np.any(bad):
            node = tuple(int(i) for i in np.argwhere(bad)[0])
            raise NonFiniteStateError(f"flow map is not finite at node {node}")
        det = self.jacobian_determinant()
        if np.min(det) <= 0:
            raise InversionError(
                f"orientation lost: min det(D eta) = {np.min(det):.3e}")


@dataclass
class MaterialState:
    eta: FlowMap
    V: VectorField
    t: float = 0.0


def volume_distortion(metric, ms: MaterialState) -> float:
    """max |det(D eta) e^{2 phi(eta)} / e^{2 phi} - 1| over nodes."""
    det = ms.eta.jacobian_determinant()
    phi_at = _at_map(ms.eta, metric.phi)
    ratio = det * np.exp(2.0 * phi_at) / metric.e2phi
    return float(np.max(np.abs(ratio - 1.0)))


# ---------------------------------------------------------------------------
# right translation to the identity
# ---------------------------------------------------------------------------

def _invert_map(eta: FlowMap) -> np.ndarray:
    """Labels q with eta(q) = x for every grid node x, by Newton iteration."""
    g = eta.grid
    disp = BicubicField(g, np.stack(eta.displacement()))
    if eta.inv_seed is not None:
        qx, qy = eta.inv_seed[0].copy(), eta.inv_seed[1].copy()
    else:
        qx, qy = g.X.copy(), g.Y.copy()

    def wrap_x(r):
        return (r + 0.5 * g.Lx) % g.Lx - 0.5 * g.Lx

    def wrap_y(r):
        if g.periodic_y:
            return (r + 0.5 * g.Ly) % g.Ly - 0.5 * g.Ly
        return r

    worst = np.inf
    for _ in range(NEWTON_MAX_ITER):
        (v1, v2), (a11, a21), (a12, a22) = disp.eval_with_grad(*g.fold(qx, qy))
        r1 = wrap_x(qx + v1 - g.X)
        r2 = wrap_y(qy + v2 - g.Y)
        worst = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
        if worst < NEWTON_TOL:
            break
        j11 = 1.0 + a11
        j12 = a12
        j21 = a21
        j22 = 1.0 + a22
        det = j11 * j22 - j12 * j21
        if np.min(np.abs(det)) < 1e-13:
            raise InversionError("Newton Jacobian degenerate")
        qx = qx - (j22 * r1 - j12 * r2) / det
        qy = qy - (-j21 * r1 + j11 * r2) / det
        if not g.periodic_y:
            qy = np.clip(qy, 0.0, g.Ly)
    else:
        bad = np.unravel_index(np.argmax(np.abs(r1) + np.abs(r2)), r1.shape)
        raise InversionError(
            f"map inversion stalled at node {bad}, residual {worst:.3e}")
    eta.inv_seed = np.stack([qx, qy])
    return eta.inv_seed


def pi_r(ms: MaterialState) -> VectorField:
    """Spatial velocity u = V o eta^{-1} on the grid nodes."""
    g = ms.eta.grid
    ms.eta.check_invertible()
    q = _invert_map(ms.eta)
    u1, u2 = BicubicField(g, np.stack(ms.V.arrays())).eval(*g.fold(*q))
    if not g.periodic_y:
        u2[:, 0] = 0.0
        u2[:, -1] = 0.0
    return VectorField.from_arrays(g, u1, u2)


def _at_map(eta: FlowMap, values: np.ndarray) -> np.ndarray:
    """Nodal arrays (..., nx, ny) interpolated at the mapped positions eta(q)."""
    return BicubicField(eta.grid, values).eval(*eta.grid.fold(eta.e1, eta.e2))


def compose_with_map(field: VectorField, eta: FlowMap) -> VectorField:
    """Right translation w o eta by interpolation at the mapped positions."""
    return VectorField.from_arrays(eta.grid, *_at_map(eta, np.stack(field.arrays())))


# ---------------------------------------------------------------------------
# geodesic spray
# ---------------------------------------------------------------------------

def _material_acceleration(problem: LaeProblem, ms: MaterialState) -> VectorField:
    """(d_t u + grad_u u) o eta - Gamma_eta(V, V)."""
    m = problem.metric
    u = pi_r(ms)
    acc = problem.rhs(u) + ca.nabla_along(m, u, u)
    # acc^k with Gamma^k_00, Gamma^k_01, Gamma^k_11 at eta, for k = 1, 2
    gam = m.gamma[:, (0, 0, 1), (0, 1, 1)]
    at = _at_map(ms.eta, np.concatenate([np.stack(acc.arrays())[:, None], gam], axis=1))
    v1, v2 = ms.V.arrays()
    a1, a2 = (a - (g00 * v1 * v1 + 2.0 * g01 * v1 * v2 + g11 * v2 * v2)
              for a, g00, g01, g11 in at)
    return VectorField.from_arrays(ms.eta.grid, a1, a2)


def spray_advance(problem: LaeProblem, ms: MaterialState) -> MaterialState:
    """One step of (d/dt eta, d/dt V) = (V, spray acceleration) by the
    configured integrator; each stage map starts inversion from the latest
    inverse (ms's seed at the first stage), and the new state carries it.
    On a channel each stage map keeps its walls: its wall rows of eta^2 are
    set to the walls' node positions, 0 and Ly, off which the stage's V^2
    there (zero to round-off) would otherwise move them."""
    seed = ms.eta.inv_seed
    g = problem.geo.grid

    def flow_map(e1, e2):
        if not g.periodic_y:
            e2 = e2.copy()
            e2[:, 0], e2[:, -1] = g.y[0], g.y[-1]
        return FlowMap(g, e1, e2, None if seed is None else seed.copy())

    def f(y):
        nonlocal seed
        e1, e2, V = y
        eta = flow_map(e1, e2)
        acc = _material_acceleration(problem, MaterialState(eta, V))
        seed = eta.inv_seed
        return V.c1.data, V.c2.data, acc

    e1, e2, V = INTEGRATORS[problem.cfg.integrator](
        f, (ms.eta.e1, ms.eta.e2, ms.V), problem.cfg.dt)
    fm = flow_map(e1, e2)
    fm.check_invertible()
    return MaterialState(fm, V, ms.t + problem.cfg.dt)


def spray_to(problem: LaeProblem, ms: MaterialState, t: float) -> MaterialState:
    """spray_advance() from ms.t to t on the step_count() schedule, as
    dynamics.integrate() marches the spatial state."""
    for _ in range(step_count(ms.t, t, problem.cfg.dt)):
        ms = spray_advance(problem, ms)
    return ms


# ---------------------------------------------------------------------------
# connector contraction
# ---------------------------------------------------------------------------

def connector_contract(s: System, u: VectorField, v: VectorField) -> VectorField:
    """K(Tu o v) = P(grad_v u + FF(u,v)) from one projection solve.

    The paper's connector, with no caller outside the tests that check it."""
    m = s.metric
    f = frak_f_alpha_interior(m, u, v) * (0.5 * s.alpha**2)
    return s.sp.project(ca.nabla_along(m, v, u), f)


# ---------------------------------------------------------------------------
# commutative-diagram verification
# ---------------------------------------------------------------------------

def commute_check(problem: LaeProblem, u0: VectorField, t: float) -> float:
    """Evolve spatially and materially from u0 to time t; the max-norm of
    their difference relative to that of u0."""
    spatial = integrate(problem, State(u0.copy(), 0.0), t)
    ms = spray_to(problem, MaterialState(FlowMap.identity(problem.geo.grid), u0.copy()), t)
    return (spatial.u - pi_r(ms)).linf() / max(u0.linf(), 1e-300)
