"""Right-hand sides and time integration of the averaged-Euler dynamics.

The evolution of a divergence-free, boundary-respecting velocity u is

    d_t u + P(grad_u u + Fop(u)) = 0          (no-slip / torus transport)
    d_t u + P(La grad_u u + Fop(u)) = 0       (free-slip / mixed transport)

with P the Stokes projector, La the boundary-restoring composite
(1 - a^2 Lop)^{-1}(1 - a^2 Lop), and Fop = Uop + Rop the quadratic operator

    Uop(u) = (1-a^2 Lop)^{-1} a^2 Div(grad u . grad u^t + grad u . grad u
                                      - grad u^t . grad u)
    Rop(u) = (1-a^2 Lop)^{-1} a^2 [ Div(R(., u)u) + Tr R(., u) grad_. u
                                    + Tr R(u, grad_. u) .
                                    - (grad_u Ric)u - grad u^t . Ric u ]

An independent route evaluates the same operator through the bilinear
transport term Dop and the scalar potential F:

    Fop(u) = Dop(u,u) - (1-a^2 Lop)^{-1} a^2 (grad F(u) + grad u^t . Lap_r u)

and the mutual agreement of the two routes is a grid-convergence test, not an
assumption.  Alongside sit the bilinear maps Dop, Bop and the polarization
FFop used by the connector and the bracket machinery.

Setting a = 0 and dropping Fop recovers the incompressible Euler baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus as ca
from .elliptic import (BcRegime, EllipticOperator, GradientRemover,
                       StokesProjector)
from .fields import VectorField
from .geometry import Geometry


class CflError(RuntimeError):
    pass


class NonFiniteStateError(FloatingPointError):
    """A state holds NaN or infinite values."""


@dataclass
class SolverConfig:
    alpha: float
    dt: float
    t_end: float
    integrator: str = "rk4"
    bc: BcRegime | None = None
    cfl_factor: float = 0.5

    def __post_init__(self):
        if self.dt == 0:
            raise ValueError("dt must be nonzero")
        if self.integrator not in ("rk4", "midpoint"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


@dataclass
class State:
    u: VectorField
    t: float = 0.0


# ---------------------------------------------------------------------------
# quadratic operator stack
# ---------------------------------------------------------------------------

def _transport_combination(m, u: VectorField):
    """grad u . grad u^t + grad u . grad u - grad u^t . grad u."""
    du = ca.covariant_derivative(m, u)
    dut = ca.transpose_metric(m, du)
    return du.matmul(dut) + du.matmul(du) - dut.matmul(du)


def _r_alpha_interior(m, u: VectorField) -> VectorField:
    cc = ca.curvature_contractions(m, u, u)
    du = ca.covariant_derivative(m, u)
    dut = ca.transpose_metric(m, du)
    return (cc.div_r + cc.r_grad + cc.r_swap) - cc.ric_rate - dut.apply(cc.ric_v)


def u_alpha(m, op: EllipticOperator, u: VectorField, bc: BcRegime) -> VectorField:
    """Flat-space quadratic term, boundary-respecting by the inverse."""
    if op.alpha == 0.0:
        return VectorField.zeros(u.grid)
    inner = ca.div_11(m, _transport_combination(m, u)) * op.alpha**2
    return op.solve(inner, bc)


def r_alpha(m, op: EllipticOperator, u: VectorField, bc: BcRegime) -> VectorField:
    """Curvature part of the quadratic term (exactly zero on flat metrics)."""
    if op.alpha == 0.0 or m.is_flat:
        return VectorField.zeros(u.grid)
    return op.solve(_r_alpha_interior(m, u) * op.alpha**2, bc)


def f_alpha(m, op: EllipticOperator, u: VectorField, bc: BcRegime) -> VectorField:
    """Uop + Rop with a single elliptic solve."""
    if op.alpha == 0.0:
        return VectorField.zeros(u.grid)
    inner = ca.div_11(m, _transport_combination(m, u))
    if not m.is_flat:
        inner = inner + _r_alpha_interior(m, u)
    return op.solve(inner * op.alpha**2, bc)


def f_alpha_alt(m, op: EllipticOperator, u: VectorField, bc: BcRegime) -> VectorField:
    """Independent route via Dop(u,u), grad F(u) and grad u^t . Lap_r u."""
    if op.alpha == 0.0:
        return VectorField.zeros(u.grid)
    du = ca.covariant_derivative(m, u)
    dut = ca.transpose_metric(m, du)
    trans = dut.apply(ca.ricci_laplacian(m, u))
    inner = ca.gradient(m, ca.F_scalar(m, u)) + trans
    return d_alpha(m, op, u, u, bc) - op.solve(inner * op.alpha**2, bc)


def d_alpha(m, op: EllipticOperator, u: VectorField, v: VectorField,
            bc: BcRegime) -> VectorField:
    """Bilinear transport correction Dop(u, v)."""
    if op.alpha == 0.0:
        return VectorField.zeros(u.grid)
    du = ca.covariant_derivative(m, u)
    dv = ca.covariant_derivative(m, v)
    dut = ca.transpose_metric(m, du)
    inner = ca.div_11(m, dv.matmul(dut) + dv.matmul(du))
    grad_arg = du.matmul(dv).trace()
    if not m.is_flat:
        cc = ca.curvature_contractions(m, u, v)
        inner = inner + cc.div_r + cc.r_grad - cc.ric_rate
        grad_arg = grad_arg + ca.g_pair(m, u, v) * m.K
    inner = inner + ca.gradient(m, grad_arg)
    return op.solve(inner * op.alpha**2, bc)


def b_alpha(m, op: EllipticOperator, sp: StokesProjector, v: VectorField,
            w: VectorField, bc: BcRegime) -> VectorField:
    """Duality partner of the H^1 transport pairing,
    Bop(v, w) = P (1-a^2 Lop)^{-1} (grad w^t . (1 - a^2 Lap_r) v)."""
    dwt = ca.transpose_metric(m, ca.covariant_derivative(m, w))
    z = v if op.alpha == 0.0 else v - ca.ricci_laplacian(m, v) * op.alpha**2
    return sp.project(op.solve(dwt.apply(z), bc))


def frak_f_alpha(m, op: EllipticOperator, u: VectorField, v: VectorField,
                 bc: BcRegime, via: str = "closed") -> VectorField:
    """Symmetric polarization FFop(u, v) of the quadratic operator."""
    if via == "polarization":
        return (f_alpha(m, op, u + v, bc) - f_alpha(m, op, u, bc)
                - f_alpha(m, op, v, bc)) * 0.5
    if via != "closed":
        raise ValueError(via)
    if op.alpha == 0.0:
        return VectorField.zeros(u.grid)
    du = ca.covariant_derivative(m, u)
    dv = ca.covariant_derivative(m, v)
    dut = ca.transpose_metric(m, du)
    dvt = ca.transpose_metric(m, dv)
    trans = dut.apply(ca.ricci_laplacian(m, v)) + dvt.apply(ca.ricci_laplacian(m, u))
    inner = ca.gradient(m, ca.G_scalar(m, u, v)) + trans
    duv = d_alpha(m, op, u, v, bc) + d_alpha(m, op, v, u, bc)
    return (duv - op.solve(inner * op.alpha**2, bc)) * 0.5


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def rhs_dirichlet(m, op: EllipticOperator, sp: StokesProjector,
                  u: VectorField) -> VectorField:
    """-P(grad_u u + Fop(u)); valid when grad_u u stays in the subspace."""
    bc = sp.bc
    adv = ca.nabla_along(m, u, u)
    return -sp.project(adv + f_alpha(m, op, u, bc))


def rhs_mixed(m, op: EllipticOperator, sp: StokesProjector,
              u: VectorField) -> VectorField:
    """-P(La grad_u u + Fop(u)); La restores the free-slip rows."""
    bc = sp.bc
    adv = op.solve(op.apply(ca.nabla_along(m, u, u)), bc)
    return -sp.project(adv + f_alpha(m, op, u, bc))


def rhs_euler(m, sp0: StokesProjector, u: VectorField) -> VectorField:
    """Incompressible Euler baseline, -P0(grad_u u)."""
    return -sp0.project(ca.nabla_along(m, u, u))


def energy(m, alpha: float, u: VectorField) -> float:
    """Reduced Hamiltonian h(u) = (1/2) <u, u>_1."""
    return 0.5 * ca.inner1(m, alpha, u, u)


def eq2_residual(m, op: EllipticOperator, remover: GradientRemover,
                 u: VectorField, dudt: VectorField) -> float:
    """Residual of the transported-momentum formulation.

    Evaluates (1 - a^2 Lap_r) d_t u + grad_u[(1 - a^2 Lap_r) u]
    - a^2 grad u^t . Lap_r u, removes its gradient part, and returns the
    max-norm of the remainder (small iff (u, d_t u) solves the dynamics).
    """
    a2 = op.alpha**2
    mom = u - ca.ricci_laplacian(m, u) * a2
    lhs = (dudt - ca.ricci_laplacian(m, dudt) * a2) + ca.nabla_along(m, u, mom)
    dut = ca.transpose_metric(m, ca.covariant_derivative(m, u))
    lhs = lhs - dut.apply(ca.ricci_laplacian(m, u)) * a2
    return remover.remove_gradient(lhs).linf()


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------

class LaeProblem:
    """Bundles geometry, regime and factorized solvers for one run."""

    def __init__(self, geo: Geometry, cfg: SolverConfig):
        self.geo = geo
        self.cfg = cfg
        self.bc = cfg.bc if cfg.bc is not None else BcRegime(
            "noboundary" if geo.grid.periodic_y else "dirichlet")
        self.op = EllipticOperator(geo, cfg.alpha)
        self.sp = StokesProjector(self.op, self.bc)
        self.newton_tol = 1e-12   # map-inversion tolerance for material runs

    def rhs(self, u: VectorField) -> VectorField:
        m = self.geo.metric
        if self.cfg.alpha == 0.0:
            return rhs_euler(m, self.sp, u)
        if self.bc.uses_l_alpha_transport:
            return rhs_mixed(m, self.op, self.sp, u)
        return rhs_dirichlet(m, self.op, self.sp, u)

    def project(self, u: VectorField) -> VectorField:
        return self.sp.project(u)

    def check_cfl(self, u: VectorField):
        g = self.geo.grid
        speed = max(np.max(np.abs(u.c1.data)) / g.hx,
                    np.max(np.abs(u.c2.data)) / g.hy)
        if not abs(self.cfg.dt) * speed <= self.cfg.cfl_factor:   # NaN fails too
            raise CflError(
                f"dt={self.cfg.dt} exceeds cfl bound "
                f"{self.cfg.cfl_factor / max(speed, 1e-300):.3e} (speed {speed:.3e})")


def _require_finite(state: State):
    u = state.u
    if not (np.all(np.isfinite(u.c1.data)) and np.all(np.isfinite(u.c2.data))):
        raise NonFiniteStateError(f"state at t={state.t} is not finite")


def step(problem: LaeProblem, state: State) -> State:
    """One projected step of the configured integrator.

    A non-finite state raises NonFiniteStateError instead of being carried
    forward; a step that produces one fails the solver residual checks.
    """
    _require_finite(state)
    problem.check_cfl(state.u)
    dt = problem.cfg.dt
    u = state.u
    f = problem.rhs
    if problem.cfg.integrator == "rk4":
        k1 = f(u)
        k2 = f(u + k1 * (0.5 * dt))
        k3 = f(u + k2 * (0.5 * dt))
        k4 = f(u + k3 * dt)
        unew = u + (k1 + (k2 + k3) * 2.0 + k4) * (dt / 6.0)
    else:
        k1 = f(u)
        unew = u + f(u + k1 * (0.5 * dt)) * dt
    return State(problem.project(unew), state.t + dt)


def integrate(problem: LaeProblem, state: State, t_end: float,
              record=None) -> State:
    """March to t_end on the fixed step schedule; optional per-step recorder.

    The number of steps is round((t_end - t)/dt), so resuming from an
    intermediate state reproduces the single-run schedule bit for bit.
    """
    dt = problem.cfg.dt
    nsteps = int(round((t_end - state.t) / dt))
    if nsteps < 0:
        raise ValueError("t_end is not reachable with this step sign")
    if abs(state.t + nsteps * dt - t_end) > 1e-6 * abs(dt):
        raise ValueError(
            f"dt={dt} does not divide the span {t_end - state.t} evenly")
    if record is not None:
        record(state)
    for _ in range(nsteps):
        state = step(problem, state)
        if record is not None:
            record(state)
    return state
