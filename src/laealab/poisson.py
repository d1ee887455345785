"""Lie-Poisson structure on the discrete constrained velocity space.

The bracket on functionals of a divergence-free, boundary-respecting field is

    {f, g}(u) = < u, [dg(u), df(u)] >_1

with df the H^1 functional derivative.  Observables form a closed catalog
(linear, quadratic with self-adjoint kernels, the Hamiltonian, and products)
so that df and its derivative Ddf are available in closed form; that is what
the derivative-of-bracket formula, the Jacobi residual and the flow checks
need.  The material-side functional derivatives (vertical and horizontal) and
the Poisson-map checks for the right translation and for the flows live here
as well; the flow check is a discrete adjoint (see flow_pullback).  The
bracket's context ctx is any dynamics.System with the problem's geometry,
alpha and regime; a PoissonContext is one that adds gram_matrix().
"""

from __future__ import annotations

import numpy as np

from . import calculus as ca
from . import dynamics as dy
from . import material as mt
from .fields import Tape, VectorField
from .grid import matvec_last
from .samples import random_vector

QUADRATIC_KINDS = ("smooth", "cutoff")


class PoissonContext(dy.System):
    """The System brackets are taken on, with its H^1 Gram matrix."""

    def gram_matrix(self):
        """Sparse matrix W with u^T W v = <u, v>_1 (same stencils).

        W is built with the factored phase-space system it belongs to and
        stored with it (StokesProjector.phase_space), so every context on
        the geometry shares both and a flow check factors nothing.
        """
        return self.sp.phase_space().gram


# ---------------------------------------------------------------------------
# observable catalog
# ---------------------------------------------------------------------------

class Observable:
    """Functional with closed-form value, derivative and second derivative."""

    def value(self, u: VectorField) -> float:
        raise NotImplementedError

    def diff(self, u: VectorField) -> VectorField:
        raise NotImplementedError

    def ddiff(self, u: VectorField, v: VectorField) -> VectorField:
        raise NotImplementedError


class LinearObservable(Observable):
    """f(u) = <w, u>_1 with w = P w0, P the Stokes projector of ctx.

    P lands in the phase space null(C) for every w0, so w lies in it on every
    regime at every alpha.
    """

    def __init__(self, ctx: dy.System, w: VectorField):
        self.ctx = ctx
        self.w = ctx.sp.project(w)

    @classmethod
    def seeded(cls, ctx: dy.System, seed: int) -> "LinearObservable":
        """The observable of random_vector(grid, seed, kmax=1)."""
        return cls(ctx, random_vector(ctx.geo.grid, seed=seed, kmax=1))

    def value(self, u):
        return self.ctx.inner1(self.w, u)

    def diff(self, u):
        return self.w

    def ddiff(self, u, v):
        return VectorField.zeros(u.grid)


class QuadraticObservable(Observable):
    """f(u) = (1/2) <A u, u>_1 for a self-adjoint smoothing kernel A.

    kind 'smooth' uses A = P (1 - a^2 Lop)^{-1}; kind 'cutoff' composes a
    fixed multiplication field chi before the smoothing, A = P (1-a^2 Lop)^{-1}
    M_chi, which is H^1-self-adjoint because <A u, v>_1 = <chi u, v>_0.
    """

    def __init__(self, ctx: dy.System, kind: str = "smooth"):
        self.ctx = ctx
        self.kind = kind
        if kind not in QUADRATIC_KINDS:
            raise ValueError(kind)
        if kind == "cutoff":
            g = ctx.geo.grid
            self.chi = 1.0 + 0.5 * np.sin(2 * np.pi * g.X / g.Lx) \
                * np.sin(np.pi * g.Y / g.Ly)

    def apply_kernel(self, u: VectorField) -> VectorField:
        ctx = self.ctx
        if self.kind == "cutoff":
            u = VectorField(u.grid, u.c1 * self.chi, u.c2 * self.chi)
        return ctx.sp.project(None, u)

    def value(self, u):
        return 0.5 * self.ctx.inner1(self.apply_kernel(u), u)

    def diff(self, u):
        return self.apply_kernel(u)

    def ddiff(self, u, v):
        return self.apply_kernel(v)


class HamiltonianObservable(Observable):
    """h(u) = (1/2) <u, u>_1, with dh(u) = u."""

    def __init__(self, ctx: dy.System):
        self.ctx = ctx

    def value(self, u):
        return 0.5 * self.ctx.inner1(u, u)

    def diff(self, u):
        return u

    def ddiff(self, u, v):
        return v


class ProductObservable(Observable):
    def __init__(self, ctx: dy.System, f: Observable, g: Observable):
        self.ctx = ctx
        self.f = f
        self.g = g

    def value(self, u):
        return self.f.value(u) * self.g.value(u)

    def diff(self, u):
        return self.f.diff(u) * self.g.value(u) + self.g.diff(u) * self.f.value(u)

    def ddiff(self, u, v):
        ctx = self.ctx
        return (self.f.ddiff(u, v) * self.g.value(u)
                + self.f.diff(u) * ctx.inner1(self.g.diff(u), v)
                + self.g.diff(u) * ctx.inner1(self.f.diff(u), v)
                + self.g.ddiff(u, v) * self.f.value(u))


# ---------------------------------------------------------------------------
# bracket and its functional derivative
# ---------------------------------------------------------------------------

def bracket(ctx: dy.System, f: Observable, g: Observable,
            u: VectorField) -> float:
    """{f, g}(u) = <u, [dg(u), df(u)]>_1."""
    lie = ca.jacobi_lie_bracket(ctx.metric, g.diff(u), f.diff(u))
    return ctx.inner1(u, lie)


def _transported_argument(ctx: dy.System, df: VectorField,
                          u: VectorField) -> VectorField:
    """P(grad_{df} u + Dop(df, u)) + Bop(u, df) from one projection solve: the
    sources of Dop and Bop add."""
    src = dy.b_alpha_source(ctx, u, df) + dy.d_alpha_source(ctx, df, u)
    return ctx.sp.project(ca.nabla_along(ctx.metric, df, u), src)


def delta_bracket(ctx: dy.System, f: Observable, g: Observable,
                  u: VectorField) -> VectorField:
    """Functional derivative of {f, g} at u, from the closed-form catalog."""
    m = ctx.metric
    df = f.diff(u)
    dg = g.diff(u)
    lead = ctx.sp.project(ca.nabla_along(m, dg, df) - ca.nabla_along(m, df, dg))
    arg_f = _transported_argument(ctx, df, u)
    arg_g = _transported_argument(ctx, dg, u)
    return lead + g.ddiff(u, arg_f) - f.ddiff(u, arg_g)


def _double_bracket(ctx: dy.System, a: Observable, b: Observable,
                    c: Observable, u: VectorField) -> float:
    """{a, {b, c}}(u) with the inner derivative taken in closed form."""
    inner_delta = delta_bracket(ctx, b, c, u)
    lie = ca.jacobi_lie_bracket(ctx.metric, inner_delta, a.diff(u))
    return ctx.inner1(u, lie)


def jacobi_residual(ctx: dy.System, f: Observable, g: Observable,
                    h: Observable, u: VectorField) -> tuple[float, float]:
    """(|{f,{g,h}} + {g,{h,f}} + {h,{f,g}}|(u), the largest term's magnitude).

    The inner derivatives are taken in closed form; the second entry is the
    scale the residual is measured against.
    """
    terms = (_double_bracket(ctx, f, g, h, u),
             _double_bracket(ctx, g, h, f, u),
             _double_bracket(ctx, h, f, g, u))
    return abs(sum(terms)), max(*(abs(t) for t in terms), 1e-300)


# ---------------------------------------------------------------------------
# Hamilton's equations along the flow
# ---------------------------------------------------------------------------

def _require_same_system(problem: dy.LaeProblem, ctx: dy.System):
    """Raise ValueError unless problem and ctx share geometry, alpha and regime."""
    if not (problem.geo is ctx.geo and problem.alpha == ctx.alpha
            and problem.bc == ctx.bc):
        raise ValueError("problem and context differ in geometry, alpha or "
                         "boundary regime")


def hamilton_check(problem: dy.LaeProblem, ctx: dy.System, f: Observable,
                   u0: VectorField, t_end: float) -> dict:
    """Compare d/dt f(u(t)) with {f, h}(u(t)) along the integrated flow; the
    bracket's ctx is any System with problem's geometry, alpha and regime."""
    _require_same_system(problem, ctx)
    ham = HamiltonianObservable(ctx)
    states = []
    dy.integrate(problem, dy.State(u0.copy(), 0.0), t_end,
                 record=lambda s: states.append(s))
    dt = problem.cfg.dt
    devs = []
    scale = 0.0
    for k in range(1, len(states) - 1):
        dfdt = (f.value(states[k + 1].u) - f.value(states[k - 1].u)) / (2 * dt)
        br = bracket(ctx, f, ham, states[k].u)
        devs.append(abs(dfdt - br))
        scale = max(scale, abs(br), abs(dfdt))
    worst = max(devs) if devs else 0.0
    return {"deviation": worst, "scale": scale,
            "relative": worst / scale if scale > 0 else 0.0}


# ---------------------------------------------------------------------------
# material-side functional derivatives
# ---------------------------------------------------------------------------

def vertical_fd(f: Observable, ms: mt.MaterialState) -> VectorField:
    """Vertical derivative of f o pi_R: right-translate df back to eta."""
    u = mt.pi_r(ms)
    return mt.compose_with_map(f.diff(u), ms.eta)


def horizontal_fd(ctx: dy.System, f: Observable,
                  ms: mt.MaterialState) -> VectorField:
    """Horizontal derivative of f o pi_R via the duality operators."""
    u = mt.pi_r(ms)
    df = f.diff(u)
    src = (dy.b_alpha_source(ctx, u, df) - dy.b_alpha_source(ctx, df, u)
           + (dy.d_alpha_source(ctx, df, u) - dy.d_alpha_source(ctx, u, df)))
    # (Bop(u, df) - Bop(df, u) + P(Dop(df, u) - Dop(u, df))) / 2 in one solve
    hor = ctx.sp.project(None, src) * 0.5
    return mt.compose_with_map(hor, ms.eta)


def pi_r_poisson_check(ctx: dy.System, f: Observable, g: Observable,
                       ms: mt.MaterialState) -> dict:
    """Both sides of the right-translation Poisson-map identity."""
    u = mt.pi_r(ms)

    def g1_pair(a_eta: VectorField, b_eta: VectorField) -> float:
        a = mt.pi_r(mt.MaterialState(ms.eta, a_eta))
        b = mt.pi_r(mt.MaterialState(ms.eta, b_eta))
        return ctx.inner1(a, b)

    lhs = (g1_pair(horizontal_fd(ctx, f, ms), vertical_fd(g, ms))
           - g1_pair(vertical_fd(f, ms), horizontal_fd(ctx, g, ms)))
    rhs = bracket(ctx, f, g, u)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "deviation": abs(lhs - rhs) / scale}


# ---------------------------------------------------------------------------
# the flow as a Poisson map
# ---------------------------------------------------------------------------

def _tangent_terms(m, u: VectorField, v: VectorField):
    """The transport term grad_v u + grad_u v and the interior
    B(u, v) + B(v, u) of the tangent at u, both linear in v, from one grad u
    and one grad v."""
    du, dv = ca.covariant_derivative(m, u), ca.covariant_derivative(m, v)
    return du.apply(v) + dv.apply(u), dy.frak_f_alpha_interior(m, u, v, du, dv)


def tangent_rhs(ctx: dy.System, u: VectorField, v: VectorField) -> VectorField:
    """Exact linearization of the right-hand side (the operators are quadratic).

    v may be a batch of tangent directions; u is the one base state.
    """
    t, f = _tangent_terms(ctx.metric, u, v)
    return -ctx.sp.project(t, f * ctx.alpha**2)


def tangent_rhs_transpose(ctx: dy.System, u: VectorField,
                          z: VectorField) -> VectorField:
    """The transpose of v -> tangent_rhs(ctx, u, v), applied to a batch z: the
    local parts, recorded by the code tangent_rhs evaluates, swept back on a
    Tape, the projection solve by its transpose."""
    tape = Tape(ctx.geo.grid)
    v = tape.unknown()
    t, f = _tangent_terms(ctx.metric, u, v)
    y, yf = ctx.sp.project_transpose(-z)
    return tape.transpose(v, [(t, y), (f, yf * ctx.alpha**2)])


def _march_keeping_stages(problem: dy.LaeProblem, u0: VectorField, nsteps: int):
    """(u after nsteps steps of dy.guarded_step, each step's stage states in call order)."""
    stages = []

    def f(y):
        stages[-1].append(y[0])
        return (problem.rhs(y[0]),)

    state = dy.State(u0, 0.0)
    for _ in range(nsteps):
        stages.append([])
        state = dy.guarded_step(problem, state, f)
    return state.u, stages


def _reverse_sweep(ctx: dy.System, integrator: str, stages: list,
                   z: VectorField, dt: float) -> VectorField:
    """The transpose of the tangent steps over stages, applied to z: each
    step's reverse step, as dy.guarded_step ends with the integrator's result."""
    reverse = dy.REVERSE_STEPS[integrator]
    for states in reversed(stages):
        z = reverse(lambda s, x: tangent_rhs_transpose(ctx, states[s], x), z, dt)
    return z


def flow_pullback(problem: dy.LaeProblem, ctx: dy.System, obs: list,
                  u0: VectorField, t: float):
    """(u(t), r, delta, dim) for the time-t flow, one batch member per observable.

    One forward march of u keeps the stage states; one reverse sweep gives
    r = Phi^T W dobs(u(t)), Phi the tangent map of the march and W
    the H^1 Gram matrix, read from the phase-space record of ctx's projector
    (StokesProjector.phase_space), so any System sharing problem's geometry,
    alpha and regime is a valid ctx.  delta holds the pullback derivatives
    d(obs o Flow)(u0), r's representers in the phase space of dimension dim
    (StokesProjector.riesz_representer).
    """
    _require_same_system(problem, ctx)
    dt = problem.cfg.dt
    uT, stages = _march_keeping_stages(problem, u0, dy.step_count(0.0, t, dt))
    W = ctx.sp.phase_space().gram
    dobs = np.stack([o.diff(uT).flat() for o in obs])
    z = VectorField.from_flat(ctx.geo.grid, matvec_last(W, dobs))
    r = _reverse_sweep(ctx, problem.cfg.integrator, stages, z, dt)
    return (uT, r) + ctx.sp.riesz_representer(r)


def flow_poisson_check(problem: dy.LaeProblem, ctx: dy.System,
                       f: Observable, g: Observable, u0: VectorField,
                       t: float) -> dict:
    """Verify that the time-t flow preserves the bracket: compare
    {f o Flow, g o Flow}(u0), from flow_pullback(), with {f, g}(Flow(u0))."""
    uT, _, delta, dim = flow_pullback(problem, ctx, [f, g], u0, t)
    dfF, dgF = (VectorField.from_flat(ctx.geo.grid, d) for d in delta.flat())
    lhs = ctx.inner1(u0, ca.jacobi_lie_bracket(ctx.metric, dgF, dfF))
    rhs = bracket(ctx, f, g, uT)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "deviation": abs(lhs - rhs) / scale,
            "dim": dim, "t": t}
