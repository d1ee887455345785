"""The reduced LAE-alpha system, its right-hand sides and time integration.

A System binds one domain, alpha and wall regime to the geometry's
factorized operator (1 - a^2 Lop) and Stokes projector P; every operator
below takes it whole.  The evolution of a velocity u in the phase space
null(C), divergence-free and boundary-respecting, is

    d_t u + P(grad_u u + Fop(u)) = 0

with P the Stokes projector, which lands in null(C) for every input, and
Fop = Uop + Rop the quadratic operator

    Uop(u) = (1-a^2 Lop)^{-1} a^2 Div(grad u . grad u^t + grad u . grad u
                                      - grad u^t . grad u)
    Rop(u) = (1-a^2 Lop)^{-1} a^2 [ Div(R(., u)u) + Tr R(., u) grad_. u
                                    + Tr R(u, grad_. u) .
                                    - (grad_u Ric)u - grad u^t . Ric u ]

An independent route evaluates the same operator through the bilinear
transport term Dop and the scalar potential F:

    Fop(u) = Dop(u,u) - (1-a^2 Lop)^{-1} a^2 (grad F(u) + grad u^t . Lap_r u)

and the mutual agreement of the two routes is a grid-convergence test, not an
assumption.  Fop solves for the diagonal B(u, u) of one bilinear interior B.
Its polarization FFop(u, v), used by the connector and by the tangent of the
flow, solves for B(u, v) + B(v, u), so that tangent is the exact
linearization of the discrete right-hand side; f_alpha_alt stays the
independent route.  Alongside sit the bilinear maps Dop and Bop of the
bracket machinery.  Div is linear, so B, its polarization and the source of
Dop each sum their (1,1)-tensors, curvature's w -> R(w, u)v among them, and
take one Div of the sum.

Every projected right-hand side is one projection solve,
StokesProjector.project(v, f) = P(v + (1 - a^2 Lop)^{-1} f): the transport
term is v, and the solves of Fop, Dop and Bop enter as the sources they
solve for.  rhs() is the one right-hand side for every regime and alpha.
LaeProblem is the System with a time-stepping configuration.  A step ends
with the integrator's result: every stage output of rhs() lies in range(P),
so from a state in range(P) no projection after the step is needed, and a
state off its constraints (StokesProjector.constraints) raises
InadmissibleStateError.  Each integrator has a
reverse step beside it (REVERSE_STEPS), the transpose of its stage rule on a
linear right-hand side, for adjoint sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus as ca
from .elliptic import BcRegime, EllipticOperator, StokesProjector
from .fields import VectorField
from .geometry import Geometry


class CflError(RuntimeError):
    pass


class NonFiniteStateError(FloatingPointError):
    """A state holds NaN or infinite values."""


class InadmissibleStateError(ValueError):
    """A state's constraint residual exceeds DIVERGENCE_WINDOW."""


# |C u|_inf / |u|_inf a step accepts, C = StokesProjector.constraints (the
# configured_run_divergence window)
DIVERGENCE_WINDOW = 1e-8


@dataclass
class SolverConfig:
    alpha: float
    dt: float
    t_end: float
    bc: BcRegime
    integrator: str = "rk4"
    cfl_factor: float = 0.5

    def __post_init__(self):
        if self.dt == 0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be nonzero and finite, got {self.dt!r}")
        if not np.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end!r}")
        if not 0 < self.cfl_factor < np.inf:             # NaN fails too
            raise ValueError(f"cfl_factor must be positive and finite, got {self.cfl_factor!r}")
        if not 0 <= self.alpha < np.inf:                 # NaN fails too
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha!r}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")


@dataclass
class State:
    u: VectorField
    t: float = 0.0


class System:
    """The reduced system of one (geometry, alpha, regime).

    Holds the metric, the operator (1 - a^2 Lop) and the Stokes projector of
    the regime; their factorizations live in the geometry's store, so
    Systems on one geometry object share them.
    """

    def __init__(self, geo: Geometry, alpha: float, bc: BcRegime):
        self.geo = geo
        self.alpha = float(alpha)
        self.bc = bc
        self.metric = geo.metric
        self.op = EllipticOperator(geo, alpha)
        self.sp = StokesProjector(self.op, bc)

    def inner1(self, u: VectorField, v: VectorField) -> float:
        return ca.inner1(self.metric, self.alpha, u, v)


# ---------------------------------------------------------------------------
# quadratic operator stack
# ---------------------------------------------------------------------------

def _bilinear_parts(m, u, v, du, dv):
    """(S, r) with B(u, v) = Div S + r: S the (1,1)-tensor

        S = grad u . grad v^t + grad u . grad v - grad u^t . grad v + R(., u)v

    and r the remaining vector terms of B.  du, dv are grad u, grad v."""
    cc = ca.curvature_contractions(m, u, v, dv)
    dut = du.transpose()
    S = du.matmul(dv.transpose()) + du.matmul(dv) - dut.matmul(dv) + cc.r_tensor
    return S, (cc.r_grad + cc.r_swap) - cc.ric_rate - dut.apply(cc.ric_v)


def _quadratic_interior(m, u: VectorField, du=None) -> VectorField:
    """The field B(u, u) of the quadratic operator,
    Fop(u) = (1-a^2 Lop)^{-1} a^2 B(u, u), where

        B(u, v) = Div(grad u . grad v^t + grad u . grad v - grad u^t . grad v
                      + R(., u)v)
                  + Tr R(., u) grad_. v + Tr R(u, grad_. v) .
                  - (grad_u Ric)v - grad u^t . Ric v

    Div is linear, so the four (1,1)-tensors are summed first and take one
    Div.  du, when given, is grad u as calculus.covariant_derivative()
    computes it; grad u is built once.
    """
    du = ca.covariant_derivative(m, u) if du is None else du
    S, r = _bilinear_parts(m, u, u, du, du)
    return ca.div_11(m, S) + r


def f_alpha(s: System, u: VectorField) -> VectorField:
    """Uop + Rop with a single elliptic solve."""
    return s.op.solve(_quadratic_interior(s.metric, u) * s.alpha**2, s.bc)


def f_alpha_alt(s: System, u: VectorField) -> VectorField:
    """Independent route via Dop(u,u), grad F(u) and grad u^t . Lap_r u."""
    m = s.metric
    du = ca.covariant_derivative(m, u)
    dut = du.transpose()
    trans = dut.apply(ca.ricci_laplacian(m, u))
    inner = ca.gradient(m, ca.F_scalar(m, u)) + trans
    return d_alpha(s, u, u) - s.op.solve(inner * s.alpha**2, s.bc)


def d_alpha(s: System, u: VectorField, v: VectorField) -> VectorField:
    """Bilinear transport correction Dop(u, v)."""
    return s.op.solve(d_alpha_source(s, u, v), s.bc)


def d_alpha_source(s: System, u: VectorField, v: VectorField) -> VectorField:
    """The field Dop(u, v) solves for; zero at a = 0.  Its (1,1)-tensors,
    curvature's among them, take one Div."""
    m = s.metric
    du = ca.covariant_derivative(m, u)
    dv = ca.covariant_derivative(m, v)
    dut = du.transpose()
    cc = ca.curvature_contractions(m, u, v, dv)
    inner = ca.div_11(m, dv.matmul(dut) + dv.matmul(du) + cc.r_tensor)
    inner = inner + cc.r_grad - cc.ric_rate
    grad_arg = du.matmul(dv).trace() + ca.g_pair(m, u, v) * m.K
    return (inner + ca.gradient(m, grad_arg)) * s.alpha**2


def b_alpha(s: System, v: VectorField, w: VectorField) -> VectorField:
    """Duality partner of the H^1 transport pairing,
    Bop(v, w) = P (1-a^2 Lop)^{-1} (grad w^t . (1 - a^2 Lap_r) v).

    The paper's operator, with no caller outside the tests that check it."""
    return s.sp.project(None, b_alpha_source(s, v, w))


def b_alpha_source(s: System, v: VectorField, w: VectorField) -> VectorField:
    """The source grad w^t . (1 - a^2 Lap_r) v that Bop(v, w) projects."""
    m = s.metric
    dwt = ca.covariant_derivative(m, w).transpose()
    return dwt.apply(v - ca.ricci_laplacian(m, v) * s.alpha**2)


def frak_f_alpha_interior(m, u: VectorField, v: VectorField, du=None, dv=None) -> VectorField:
    """The field 2 FFop(u, v) solves for, B(u, v) + B(v, u): the polarization
    of Fop's own bilinear interior.  Both slots' (1,1)-tensors are summed
    before one Div, and both slots' remaining terms beside it, so at u = v
    every summand doubles exactly and FFop(u, u) is Fop(u) to the bit.

    Linear in each argument, so either may be an unknown recorded on a
    fields.Tape.  du and dv, when given, are grad u and grad v as
    calculus.covariant_derivative() computes them; they are built once, for
    both slots.
    """
    du = ca.covariant_derivative(m, u) if du is None else du
    dv = ca.covariant_derivative(m, v) if dv is None else dv
    s_uv, r_uv = _bilinear_parts(m, u, v, du, dv)
    s_vu, r_vu = _bilinear_parts(m, v, u, dv, du)
    return ca.div_11(m, s_uv + s_vu) + (r_uv + r_vu)


def frak_f_alpha(s: System, u: VectorField, v: VectorField) -> VectorField:
    """Symmetric polarization FFop(u, v) of the quadratic operator, in closed form.

    The paper's operator, with no caller outside the tests that check it."""
    return s.op.solve(frak_f_alpha_interior(s.metric, u, v) * s.alpha**2, s.bc) * 0.5


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def rhs(s: System, u: VectorField) -> VectorField:
    """-P(grad_u u + Fop(u)) from one projection solve.  grad u is computed once."""
    m = s.metric
    du = ca.covariant_derivative(m, u)
    return -s.sp.project(du.apply(u), _quadratic_interior(m, u, du) * s.alpha**2)


def energy(m, alpha: float, u: VectorField) -> float:
    """Reduced Hamiltonian h(u) = (1/2) <u, u>_1."""
    return 0.5 * ca.inner1(m, alpha, u, u)


def eq2_residual(s: System, u: VectorField, dudt: VectorField) -> float:
    """Residual of the transported-momentum formulation, a torus measure.

    Evaluates (1 - a^2 Lap_r) d_t u + grad_u[(1 - a^2 Lap_r) u]
    - a^2 grad u^t . Lap_r u, removes its gradient part with the a = 0 Stokes
    projector (the Leray projector), and returns the max-norm of the remainder
    (small iff (u, d_t u) solves the dynamics).  Only on the torus is that
    projector the removal of gradients: on a channel its wall rows also
    constrain the remainder, so a channel geometry raises ValueError.
    """
    if s.geo.walls:
        raise ValueError("eq2_residual is a torus measure; the geometry has walls")
    m, a2 = s.metric, s.alpha**2
    mom = u - ca.ricci_laplacian(m, u) * a2
    lhs = (dudt - ca.ricci_laplacian(m, dudt) * a2) + ca.nabla_along(m, u, mom)
    dut = ca.covariant_derivative(m, u).transpose()
    lhs = lhs - dut.apply(ca.ricci_laplacian(m, u)) * a2
    return System(s.geo, 0.0, BcRegime()).sp.project(lhs).linf()


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------

class LaeProblem(System):
    """The System of a run's configuration, with its time-stepping settings."""

    def __init__(self, geo: Geometry, cfg: SolverConfig):
        super().__init__(geo, cfg.alpha, cfg.bc)
        self.cfg = cfg

    def rhs(self, u: VectorField) -> VectorField:
        return rhs(self, u)

    def check_cfl(self, u: VectorField):
        g = self.geo.grid
        speed = max(np.max(np.abs(u.c1.data)) / g.hx,
                    np.max(np.abs(u.c2.data)) / g.hy)
        if not abs(self.cfg.dt) * speed <= self.cfg.cfl_factor:   # NaN fails too
            raise CflError(
                f"dt={self.cfg.dt} exceeds cfl bound "
                f"{self.cfg.cfl_factor / max(speed, 1e-300):.3e} (speed {speed:.3e})")

    def check_constraints(self, u: VectorField):
        res, scale = np.max(np.abs(self.sp.constraints @ u.flat())), u.linf()
        if res > DIVERGENCE_WINDOW * scale:
            raise InadmissibleStateError(
                f"relative constraint residual {res / scale:.3e} exceeds "
                f"{DIVERGENCE_WINDOW:.0e}")


def _shifted(y: tuple, k: tuple, c: float) -> tuple:
    return tuple(a + b * c for a, b in zip(y, k))


def rk4(f, y: tuple, dt: float) -> tuple:
    """One classical Runge-Kutta step of y' = f(y).

    y and f(y) are equal-length tuples of fields or arrays, marched part by
    part with the same stage weights.
    """
    k1 = f(y)
    k2 = f(_shifted(y, k1, 0.5 * dt))
    k3 = f(_shifted(y, k2, 0.5 * dt))
    k4 = f(_shifted(y, k3, dt))
    return tuple(a + (b1 + (b2 + b3) * 2.0 + b4) * (dt / 6.0)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def midpoint(f, y: tuple, dt: float) -> tuple:
    """One explicit midpoint step of y' = f(y), over tuples as rk4()."""
    return _shifted(y, f(_shifted(y, f(y), 0.5 * dt)), dt)


INTEGRATORS = {"rk4": rk4, "midpoint": midpoint}


def rk4_reverse(jt, z, dt: float):
    """The transpose of one rk4 step of a linear y' = J_s y, applied to z.

    J_s is the map the step's stage s evaluates (s = 0..3, in the order rk4
    calls f), and jt(s, x) applies its transpose.
    """
    q4 = jt(3, z * (dt / 6.0))
    q3 = jt(2, z * (dt / 3.0) + q4 * dt)
    q2 = jt(1, z * (dt / 3.0) + q3 * (0.5 * dt))
    q1 = jt(0, z * (dt / 6.0) + q2 * (0.5 * dt))
    return z + q1 + q2 + q3 + q4


def midpoint_reverse(jt, z, dt: float):
    """The transpose of one midpoint step of a linear y' = J_s y, as rk4_reverse()."""
    q2 = jt(1, z * dt)
    return z + q2 + jt(0, q2 * (0.5 * dt))


# the transpose of each integrator's step, under the same name
REVERSE_STEPS = {"rk4": rk4_reverse, "midpoint": midpoint_reverse}


def step_count(t0: float, t_end: float, dt: float) -> int:
    """Number of dt steps from t0 to t_end; ValueError unless dt divides the span.

    The count is round((t_end - t0)/dt), so resuming from an intermediate
    state reproduces the single-run schedule bit for bit.
    """
    nsteps = int(round((t_end - t0) / dt))
    if nsteps < 0:
        raise ValueError("t_end is not reachable with this step sign")
    if abs(t0 + nsteps * dt - t_end) > 1e-6 * abs(dt):
        raise ValueError(f"dt={dt} does not divide the span {t_end - t0} evenly")
    return nsteps


def step(problem: LaeProblem, state: State) -> State:
    """One step of the configured integrator."""
    return guarded_step(problem, state, lambda y: (problem.rhs(y[0]),))


def guarded_step(problem: LaeProblem, state: State, f) -> State:
    """step() of y' = f(y), f the right-hand side or a recorder around it.

    The step ends with the integrator's result, not projected again: each
    stage output of rhs() lies in range(P), so from a state in range(P) the
    step equals P after the step in exact arithmetic.  A non-finite state
    raises NonFiniteStateError, a dt past the CFL bound CflError, and then a
    state whose |C u|_inf / |u|_inf exceeds DIVERGENCE_WINDOW, C the
    projector's constraints, InadmissibleStateError; a step that produces a
    non-finite state fails a solve's check.
    """
    u = state.u
    if not (np.all(np.isfinite(u.c1.data)) and np.all(np.isfinite(u.c2.data))):
        raise NonFiniteStateError(f"state at t={state.t} is not finite")
    problem.check_cfl(u)
    problem.check_constraints(u)
    dt = problem.cfg.dt
    (u,) = INTEGRATORS[problem.cfg.integrator](f, (u,), dt)
    return State(u, state.t + dt)


def integrate(problem: LaeProblem, state: State, t_end: float,
              record=None) -> State:
    """March to t_end on the step_count() schedule; optional per-step recorder."""
    nsteps = step_count(state.t, t_end, problem.cfg.dt)
    if record is not None:
        record(state)
    for _ in range(nsteps):
        state = step(problem, state)
        if record is not None:
            record(state)
    return state
