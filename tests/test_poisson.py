import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp_

import laealab

from laealab import calculus as ca
from laealab import dynamics as dy
from laealab import elliptic as el
from laealab import material as mt
from laealab import poisson as po
from laealab.elliptic import BcRegime, SolveError
from laealab.fields import Tape, VectorField
from laealab.geometry import build_geometry
from laealab.grid import matvec_last
from laealab.orders import fit_order
from laealab.reference import spectral_coordinate_bracket
from laealab.samples import (make_phi_cosx_siny, make_phi_sinusoidal, phi_flat,
                             random_vector)

from domains import DIRICH, MIXED, NEUMANN, TORUS, channel, torus

PHI_T = make_phi_sinusoidal(0.12, 1, 1, 1.0, 1.0)
PHI_C = make_phi_cosx_siny(0.12, 1, 1.0, 1.0)
ALPHA = 0.3


def ctx_torus(n, phi=PHI_T, alpha=ALPHA):
    return po.PoissonContext(torus(n, phi), alpha, BcRegime.from_domain(TORUS))


def ctx_channel(n, spec=MIXED, phi=PHI_C, alpha=ALPHA):
    return po.PoissonContext(channel(n, spec, phi), alpha, BcRegime.from_domain(spec))


def member(ctx, seed, kmax=2, amp=0.5):
    return ctx.sp.project(random_vector(ctx.geo.grid, seed=seed, kmax=kmax, amp=amp))


def trio(ctx):
    f = po.LinearObservable(ctx, random_vector(ctx.geo.grid, seed=101, kmax=2))
    g = po.LinearObservable(ctx, random_vector(ctx.geo.grid, seed=102, kmax=2))
    h = po.QuadraticObservable(ctx, "smooth")
    return f, g, h


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_hamiltonian_derivative_is_identity():
    ctx = ctx_torus(16)
    u = member(ctx, 1)
    ham = po.HamiltonianObservable(ctx)
    assert (ham.diff(u) - u).linf() == 0.0


def test_linear_derivative_is_projector_fixed_point():
    ctx = ctx_torus(16)
    w = member(ctx, 2)      # already in the subspace
    f = po.LinearObservable(ctx, w)
    u = member(ctx, 3)
    assert (f.diff(u) - w).linf() < 1e-8 * max(w.linf(), 1e-12)


def test_gram_matrix_matches_inner1():
    ctx = ctx_torus(16)
    u = random_vector(ctx.geo.grid, seed=4)
    v = random_vector(ctx.geo.grid, seed=5)
    W = ctx.gram_matrix()
    a = float(u.flat() @ (W @ v.flat()))
    b = ctx.inner1(u, v)
    assert abs(a - b) < 1e-11 * max(abs(b), 1.0)


@pytest.mark.parametrize("make", [
    lambda ctx: po.LinearObservable(ctx, random_vector(ctx.geo.grid, seed=6, kmax=2)),
    lambda ctx: po.QuadraticObservable(ctx, "smooth"),
    lambda ctx: po.QuadraticObservable(ctx, "cutoff"),
    lambda ctx: po.HamiltonianObservable(ctx),
    lambda ctx: po.ProductObservable(
        ctx, po.LinearObservable(ctx, random_vector(ctx.geo.grid, seed=7, kmax=2)),
        po.HamiltonianObservable(ctx)),
])
def test_functional_derivative_against_central_differences(make):
    ctx = ctx_torus(20)
    f = make(ctx)
    u = member(ctx, 8)
    v = member(ctx, 9)
    want = ctx.inner1(f.diff(u), v)
    h2 = ctx.geo.grid.h ** 2
    scale = max(abs(want), abs(f.value(u)), 1.0)
    for eps in (1e-3, 1e-4):
        got = (f.value(u + v * eps) - f.value(u - v * eps)) / (2 * eps)
        # central differences are exact on this catalog up to round-off; the
        # quadratic kernels add an O(h^2) self-adjointness defect on curved
        # metrics
        tol = 1e-7 * scale + 0.05 * h2 * scale
        assert abs(got - want) < max(tol, 5e-9), (eps, got, want)


def test_quadratic_kernel_h1_symmetry_quadrature_order():
    hs, errs = [], []
    for n in (16, 32, 64):
        ctx = ctx_torus(n)
        q = po.QuadraticObservable(ctx, "cutoff")
        v = member(ctx, 10, kmax=1)
        w = member(ctx, 11, kmax=1)
        a = ctx.inner1(q.ddiff(None, v), w)
        b = ctx.inner1(q.ddiff(None, w), v)
        hs.append(ctx.geo.grid.h)
        errs.append(abs(a - b) / max(abs(a), 1e-300))
    assert errs[-1] < 1e-3
    assert fit_order(hs, errs) > 1.2


def test_quadratic_kernel_selfadjoint_at_solver_level_flat():
    ctx = ctx_torus(24, phi_flat)
    q = po.QuadraticObservable(ctx, "smooth")
    v = member(ctx, 12)
    w = member(ctx, 13)
    a = ctx.inner1(q.ddiff(None, v), w)
    b = ctx.inner1(q.ddiff(None, w), v)
    assert abs(a - b) < 1e-8 * max(abs(a), 1e-300)


# ---------------------------------------------------------------------------
# bracket algebra
# ---------------------------------------------------------------------------

def test_bracket_antisymmetry_bitwise():
    ctx = ctx_torus(16)
    f, g, _ = trio(ctx)
    u = member(ctx, 14)
    a = po.bracket(ctx, f, g, u)
    b = po.bracket(ctx, g, f, u)
    assert a == -b
    assert po.bracket(ctx, f, f, u) == 0.0


def test_bracket_constant_observable_annihilates():
    ctx = ctx_torus(16)
    z = po.LinearObservable(ctx, VectorField.zeros(ctx.geo.grid))
    g = po.QuadraticObservable(ctx, "smooth")
    u = member(ctx, 15)
    assert po.bracket(ctx, z, g, u) == 0.0


def test_bracket_bilinearity_exact():
    ctx = ctx_torus(16)
    g1 = ctx.geo.grid
    w1 = random_vector(g1, seed=16)
    w2 = random_vector(g1, seed=17)
    u = member(ctx, 18)
    h = po.HamiltonianObservable(ctx)
    fa = po.LinearObservable(ctx, w1)
    fb = po.LinearObservable(ctx, w2)
    fab = po.LinearObservable(ctx, w1 * 2.0 - w2 * 3.0)
    lin = po.bracket(ctx, fab, h, u)
    ref = 2.0 * po.bracket(ctx, fa, h, u) - 3.0 * po.bracket(ctx, fb, h, u)
    assert abs(lin - ref) < 1e-11 * max(abs(ref), 1.0)


def test_leibniz_derivation_property():
    ctx = ctx_torus(20)
    f, g, h = trio(ctx)
    u = member(ctx, 19)
    fg = po.ProductObservable(ctx, f, g)
    lhs = po.bracket(ctx, fg, h, u)
    rhs = po.bracket(ctx, f, h, u) * g.value(u) + f.value(u) * po.bracket(ctx, g, h, u)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) < 1e-12 * scale


def test_bracket_matches_dense_spectral_oracle_flat_torus():
    hs, errs = [], []
    for n in (16, 24, 32):
        ctx = ctx_torus(n, phi_flat)
        f, g, _ = trio(ctx)
        u = member(ctx, 20, kmax=2)
        val = po.bracket(ctx, f, g, u)
        lie = spectral_coordinate_bracket(ctx.geo.grid, g.diff(u), f.diff(u))
        W = ctx.gram_matrix()
        oracle = float(u.flat() @ (W @ lie.flat()))
        hs.append(ctx.geo.grid.h)
        errs.append(abs(val - oracle) / max(abs(oracle), 1e-300))
    assert 1.4 < fit_order(hs, errs) < 3.2, errs


# ---------------------------------------------------------------------------
# derivative of the bracket
# ---------------------------------------------------------------------------

def test_delta_bracket_antisymmetric_under_swap():
    ctx = ctx_torus(16)
    f, g, _ = trio(ctx)
    u = member(ctx, 21)
    a = po.delta_bracket(ctx, f, g, u)
    b = po.delta_bracket(ctx, g, f, u)
    assert (a + b).linf() < 1e-10 * max(a.linf(), 1e-12)
    assert po.delta_bracket(ctx, f, f, u).linf() < 1e-10 * max(a.linf(), 1e-12)


def test_delta_bracket_linear_collapse():
    ctx = ctx_torus(16)
    f, g, _ = trio(ctx)
    u = member(ctx, 22)
    got = po.delta_bracket(ctx, f, g, u)
    m = ctx.metric
    want = ctx.sp.project(ca.nabla_along(m, g.diff(u), f.diff(u))
                          - ca.nabla_along(m, f.diff(u), g.diff(u)))
    assert (got - want).linf() < 1e-11 * max(want.linf(), 1e-12)


@pytest.mark.parametrize("which", ["torus", "mixed"])
def test_delta_bracket_against_central_difference(which):
    hs, errs = [], []
    for n in (16, 24, 32):
        ctx = ctx_torus(n) if which == "torus" else ctx_channel(n)
        fw = random_vector(ctx.geo.grid, seed=23, kmax=1)
        f = po.LinearObservable(ctx, fw)
        g = po.QuadraticObservable(ctx, "smooth")
        u = member(ctx, 24, kmax=1)
        v = member(ctx, 25, kmax=1)
        got = ctx.inner1(po.delta_bracket(ctx, f, g, u), v)
        eps = 1e-4
        fd = (po.bracket(ctx, f, g, u + v * eps)
              - po.bracket(ctx, f, g, u - v * eps)) / (2 * eps)
        hs.append(ctx.geo.grid.h)
        errs.append(abs(got - fd) / max(abs(fd), 1e-300))
    assert errs[-1] < 2e-2, errs
    assert fit_order(hs, errs) > 1.2, errs


# ---------------------------------------------------------------------------
# Jacobi identity
# ---------------------------------------------------------------------------

def test_jacobi_residual_degenerate_pair():
    ctx = ctx_torus(16)
    f, g, _ = trio(ctx)
    u = member(ctx, 26)
    r, _ = po.jacobi_residual(ctx, f, g, f, u)
    full = abs(po.bracket(ctx, f, g, u))
    assert r < 1e-9 * max(full, 1e-300)


def linear_trio(ctx, kmax=1):
    return (po.LinearObservable(ctx, random_vector(ctx.geo.grid, seed=101, kmax=kmax)),
            po.LinearObservable(ctx, random_vector(ctx.geo.grid, seed=102, kmax=kmax)),
            po.LinearObservable(ctx, random_vector(ctx.geo.grid, seed=103, kmax=kmax)))


@pytest.mark.parametrize("which", ["dirichlet", "mixed"])
def test_jacobi_residual_second_order(which):
    spec = DIRICH if which == "dirichlet" else MIXED
    hs, errs = [], []
    for n in (16, 24, 32):
        ctx = ctx_channel(n, spec)
        f, g, h = linear_trio(ctx)
        u = member(ctx, 27, kmax=1)
        residual, scale = po.jacobi_residual(ctx, f, g, h, u)
        hs.append(ctx.geo.grid.h)
        errs.append(residual / scale)
    assert 1.4 < fit_order(hs, errs) < 2.9, errs


def test_jacobi_residual_quadratic_mix_converges_mixed_regime():
    # the smoothing-kernel observables carry slower-onset constants; the
    # residual still decreases steadily toward second order
    hs, errs = [], []
    for n in (16, 32, 64):
        ctx = ctx_channel(n, MIXED)
        f, g, h = trio(ctx)
        u = member(ctx, 27, kmax=1)
        residual, scale = po.jacobi_residual(ctx, f, g, h, u)
        hs.append(ctx.geo.grid.h)
        errs.append(residual / scale)
    assert errs[2] < errs[1] < errs[0], errs
    assert fit_order(hs, errs) > 1.0, errs


def test_jacobi_residual_second_order_torus():
    hs, errs = [], []
    for n in (16, 24, 32):
        ctx = ctx_torus(n)
        f, g, h = trio(ctx)
        u = member(ctx, 28, kmax=1)
        residual, scale = po.jacobi_residual(ctx, f, g, h, u)
        hs.append(ctx.geo.grid.h)
        errs.append(residual / scale)
    assert 1.2 < fit_order(hs, errs) < 3.2, errs


# ---------------------------------------------------------------------------
# Hamilton's equations
# ---------------------------------------------------------------------------

def test_hamilton_check_zero_and_energy():
    ctx = ctx_torus(16)
    geo = ctx.geo
    cfg = dy.SolverConfig(alpha=ctx.alpha, dt=5e-3, t_end=0.05, bc=ctx.bc,
                          cfl_factor=5.0)
    prob = dy.LaeProblem(geo, cfg)
    ham = po.HamiltonianObservable(ctx)
    z = VectorField.zeros(geo.grid)
    rep = po.hamilton_check(prob, ctx, ham, z, 0.05)
    assert rep["deviation"] < 1e-12
    u0 = member(ctx, 29, amp=0.4)
    rep2 = po.hamilton_check(prob, ctx, ham, u0, 0.05)
    # f = h: the bracket side vanishes identically (antisymmetry); the time
    # derivative side reproduces the spatial conservation floor
    assert po.bracket(ctx, ham, ham, u0) == 0.0
    assert rep2["deviation"] < 0.05 * max(ham.value(u0), 1e-300)


def test_checks_reject_a_mismatched_problem_and_context():
    ctx = ctx_torus(8)
    chan = ctx_channel(8)
    f, g, _ = trio(ctx)
    u0 = member(ctx, 40, kmax=1)

    def problem(geo, alpha, bc):
        return dy.LaeProblem(geo, dy.SolverConfig(alpha=alpha, dt=5e-3, t_end=0.01,
                                                  bc=bc, cfl_factor=5.0))

    # each check raises before it evaluates anything
    for prob, c in ((problem(ctx.geo, 0.2, ctx.bc), ctx),                # alpha
                    (problem(ctx_torus(8).geo, ctx.alpha, ctx.bc), ctx),  # geometry
                    (problem(chan.geo, chan.alpha, BcRegime.from_domain(DIRICH)),
                     chan)):                                              # regime
        with pytest.raises(ValueError, match="differ"):
            po.hamilton_check(prob, c, f, u0, 0.01)
        with pytest.raises(ValueError, match="differ"):
            po.flow_poisson_check(prob, c, f, g, u0, 0.01)


def test_hamilton_check_linear_observable_converges():
    hs, errs = [], []
    t = 0.04
    for n, steps in ((16, 8), (24, 12), (32, 16)):
        ctx = ctx_torus(n)
        geo = ctx.geo
        cfg = dy.SolverConfig(alpha=ctx.alpha, dt=t / steps, t_end=t, bc=ctx.bc,
                              cfl_factor=5.0)
        prob = dy.LaeProblem(geo, cfg)
        f = po.LinearObservable(ctx, random_vector(geo.grid, seed=30, kmax=1))
        u0 = member(ctx, 31, kmax=1, amp=0.5)
        rep = po.hamilton_check(prob, ctx, f, u0, t)
        hs.append(geo.grid.h)
        errs.append(rep["relative"] + 1e-16)
    assert fit_order(hs, errs) > 1.5, errs


# ---------------------------------------------------------------------------
# material-side derivatives and the Poisson-map checks
# ---------------------------------------------------------------------------

def test_vertical_fd_at_identity():
    ctx = ctx_torus(16)
    f, _, _ = trio(ctx)
    u = member(ctx, 32)
    ms = mt.MaterialState(mt.FlowMap.identity(ctx.geo.grid), u.copy())
    v = po.vertical_fd(f, ms)
    assert (v - f.diff(u)).linf() < 1e-9 * max(v.linf(), 1e-12)


def test_horizontal_fd_of_hamiltonian_vanishes():
    ctx = ctx_torus(16)
    ham = po.HamiltonianObservable(ctx)
    u = member(ctx, 33)
    ms = mt.MaterialState(mt.FlowMap.identity(ctx.geo.grid), u.copy())
    h = po.horizontal_fd(ctx, ham, ms)
    assert h.linf() < 1e-9 * max(u.linf(), 1e-12)


def test_pi_r_poisson_check_identity_map():
    ctx = ctx_torus(20)
    f, g, _ = trio(ctx)
    u = member(ctx, 34, kmax=1)
    ms = mt.MaterialState(mt.FlowMap.identity(ctx.geo.grid), u.copy())
    rep = po.pi_r_poisson_check(ctx, f, g, ms)
    assert rep["deviation"] < 0.15, rep


def test_pi_r_poisson_check_f_equals_g():
    ctx = ctx_torus(16)
    f, _, _ = trio(ctx)
    u = member(ctx, 35)
    ms = mt.MaterialState(mt.FlowMap.identity(ctx.geo.grid), u.copy())
    rep = po.pi_r_poisson_check(ctx, f, f, ms)
    assert abs(rep["lhs"]) < 1e-10 and abs(rep["rhs"]) < 1e-25


def test_pi_r_poisson_check_converges_under_refinement():
    t_map = 0.1
    hs, devs = [], []
    for n, steps in ((16, 8), (24, 12), (32, 16)):
        ctx = ctx_torus(n)
        geo = ctx.geo
        cfg = dy.SolverConfig(alpha=ctx.alpha, dt=t_map / steps, t_end=t_map,
                              bc=ctx.bc, cfl_factor=5.0)
        prob = dy.LaeProblem(geo, cfg)
        carrier = ctx.sp.project(random_vector(geo.grid, seed=36, kmax=1, amp=0.4))
        ms = mt.MaterialState(mt.FlowMap.identity(geo.grid), carrier.copy())
        for _ in range(steps):
            ms = mt.spray_advance(prob, ms)
        V = mt.compose_with_map(member(ctx, 37, kmax=1), ms.eta)
        state = mt.MaterialState(ms.eta, V)
        f, g, _ = trio(ctx)
        rep = po.pi_r_poisson_check(ctx, f, g, state)
        hs.append(geo.grid.h)
        devs.append(rep["deviation"] + 1e-16)
    assert devs[-1] < devs[0], devs
    assert fit_order(hs, devs) > 0.8, devs


def test_flow_poisson_check_t0_exact():
    ctx = ctx_torus(16)
    geo = ctx.geo
    cfg = dy.SolverConfig(alpha=ctx.alpha, dt=5e-3, t_end=0.0, bc=ctx.bc,
                          cfl_factor=5.0)
    prob = dy.LaeProblem(geo, cfg)
    f, g, _ = trio(ctx)
    u0 = member(ctx, 38, kmax=1, amp=0.4)
    rep = po.flow_poisson_check(prob, ctx, f, g, u0, 0.0)
    assert rep["deviation"] < 1e-8, rep


@pytest.mark.parametrize("spec", [MIXED, DIRICH, NEUMANN], ids=["mixed", "dirichlet", "neumann"])
def test_channel_flow_pullback_is_exact_at_t0(spec):
    # P lands in null(C) for every input, so a LinearObservable's w does
    # too, and at t = 0 the pullback derivative, w's representer in null(C),
    # is w itself.  Asserted on the derivative, not on the deviation: for
    # these seeds {f, g}(u0) is round-off on two regimes
    ctx = ctx_channel(16, spec)
    prob = dy.LaeProblem(ctx.geo, dy.SolverConfig(alpha=ctx.alpha, dt=5e-3, t_end=0.0,
                                                  bc=ctx.bc, cfl_factor=5.0))
    f = po.LinearObservable.seeded(ctx, 101)
    w = f.w.flat()
    assert np.linalg.norm(ctx.sp.constraints @ w) <= 1e-12 * np.linalg.norm(w)
    _, _, delta, _ = po.flow_pullback(prob, ctx, [f], member(ctx, 38, kmax=1, amp=0.4), 0.0)
    assert np.linalg.norm(delta.flat()[0] - w) <= 1e-12 * np.linalg.norm(w)


def test_flow_poisson_check_small_time_16():
    ctx = ctx_torus(16)
    geo = ctx.geo
    cfg = dy.SolverConfig(alpha=ctx.alpha, dt=5e-3, t_end=0.05, bc=ctx.bc,
                          cfl_factor=5.0)
    prob = dy.LaeProblem(geo, cfg)
    f, g, _ = trio(ctx)
    u0 = member(ctx, 39, kmax=1, amp=0.4)
    rep = po.flow_poisson_check(prob, ctx, f, g, u0, 0.05)
    assert rep["deviation"] < 5e-3, rep


def test_flow_poisson_check_rejects_an_uneven_or_negative_time():
    ctx = ctx_torus(8)
    cfg = dy.SolverConfig(alpha=ctx.alpha, dt=5e-3, t_end=0.05, bc=ctx.bc,
                          cfl_factor=5.0)
    prob = dy.LaeProblem(ctx.geo, cfg)
    f, g, _ = trio(ctx)
    u0 = member(ctx, 39, kmax=1, amp=0.4)
    with pytest.raises(ValueError, match="divide"):
        po.flow_poisson_check(prob, ctx, f, g, u0, 0.052)
    with pytest.raises(ValueError, match="reachable"):
        po.flow_poisson_check(prob, ctx, f, g, u0, -0.01)


def _guard_case(dt, cfl_factor):
    ctx = ctx_torus(12)
    cfg = dy.SolverConfig(alpha=ctx.alpha, dt=dt, t_end=dt, bc=ctx.bc,
                          cfl_factor=cfl_factor)
    return dy.LaeProblem(ctx.geo, cfg), ctx, member(ctx, 39, kmax=1, amp=0.4)


def test_flow_poisson_check_raises_cfl_error_as_a_step_does():
    prob, ctx, u0 = _guard_case(0.05, 0.01)
    f, g, _ = trio(ctx)
    with pytest.raises(dy.CflError):
        po.flow_poisson_check(prob, ctx, f, g, u0, 0.05)


def test_flow_poisson_check_refuses_a_non_finite_state_as_a_step_does():
    prob, ctx, u0 = _guard_case(5e-3, 5.0)
    u0.c1.data[3, 4] = np.nan
    f, g, _ = trio(ctx)
    with pytest.raises(dy.NonFiniteStateError):
        po.flow_poisson_check(prob, ctx, f, g, u0, 5e-3)


def test_flow_poisson_check_follows_the_midpoint_integrator():
    # the flow check linearizes the trajectory that integrate() produces
    ctx = ctx_torus(12)
    cfg = dy.SolverConfig(alpha=ctx.alpha, dt=5e-3, t_end=0.01, bc=ctx.bc,
                          integrator="midpoint", cfl_factor=5.0)
    prob = dy.LaeProblem(ctx.geo, cfg)
    f, g, _ = trio(ctx)
    u0 = member(ctx, 39, kmax=1, amp=0.4)
    rep = po.flow_poisson_check(prob, ctx, f, g, u0, 0.01)
    uT = dy.integrate(prob, dy.State(u0.copy(), 0.0), 0.01).u
    assert rep["rhs"] == po.bracket(ctx, f, g, uT)


def test_flow_checks_factor_nothing_once_the_gram_matrix_is_built(monkeypatch):
    ctx = ctx_torus(12)
    cfg = dy.SolverConfig(alpha=ctx.alpha, dt=5e-3, t_end=0.01, bc=ctx.bc,
                          cfl_factor=5.0)
    prob = dy.LaeProblem(ctx.geo, cfg)
    f, g, _ = trio(ctx)
    u0 = member(ctx, 39, kmax=1, amp=0.4)
    ctx.gram_matrix()
    built = []
    real = el._Factorization.of
    monkeypatch.setattr(el._Factorization, "of",
                        lambda *args: built.append(args) or real(*args))
    reps = [po.flow_poisson_check(prob, ctx, f, g, u0, 0.01) for _ in range(2)]
    assert built == [] and reps[0] == reps[1]
    # a second context on the geometry shares the stored phase space
    other = po.PoissonContext(ctx.geo, ctx.alpha, ctx.bc)
    assert other.gram_matrix() is ctx.gram_matrix() and built == []


@pytest.mark.parametrize("spec,ny,phi", [(TORUS, 12, PHI_T), (MIXED, 13, PHI_C)],
                         ids=["torus", "mixed"])
def test_flow_poisson_check_takes_a_plain_system_as_its_context(spec, ny, phi):
    # W is read from the projector's stored phase space, so a System that
    # never calls gram_matrix() gives a PoissonContext's bits
    reps = []
    for make in (po.PoissonContext, dy.System):
        geo = build_geometry(spec, 12, ny, phi)
        ctx = make(geo, ALPHA, BcRegime.from_domain(spec))
        prob = dy.LaeProblem(geo, dy.SolverConfig(alpha=ALPHA, dt=5e-3, t_end=0.01,
                                                  bc=ctx.bc, cfl_factor=5.0))
        f, g, _ = trio(ctx)
        u0 = member(ctx, 39, kmax=1, amp=0.4)
        reps.append(po.flow_poisson_check(prob, ctx, f, g, u0, 0.01))
    assert reps[0] == reps[1]


@pytest.mark.parametrize("spec,nx,ny,phi", [(TORUS, 12, 12, PHI_T), (MIXED, 12, 13, PHI_C)],
                         ids=["torus", "mixed"])
def test_stored_riesz_saddle_matches_a_fresh_factorization(spec, nx, ny, phi):
    # the stored factors belong to the stored W: a phase space built afresh
    # (the stream-function system) gives the stored one's bits, and the
    # saddle [[W, C^T], [C, 0]], built explicitly from the stored W, agrees
    # to round-off
    ctx = _context(spec, nx, ny, phi)
    ps = ctx.sp.phase_space()
    assert ps.gram is ctx.gram_matrix()
    r = _random_batch(ctx.geo.grid, 370)
    d, _ = ctx.sp.riesz_representer(r)
    fresh = ctx.sp._phase_space()
    assert fresh.system.fac is not ps.system.fac and (fresh.gram != ps.gram).nnz == 0
    assert np.array_equal(d.flat(), fresh.system.solve(r.flat(), "fresh riesz system"))
    saddle = el._Saddle(el._phase_saddle(ctx.geo, ps.gram, ctx.bc),
                        el._constraints(ctx.geo, ctx.bc))
    ref = saddle.solve(r.flat(), "explicit riesz saddle")
    err = np.linalg.norm(d.flat() - ref, axis=-1) / np.linalg.norm(ref, axis=-1)
    assert err.max() <= 1e-10


# ---------------------------------------------------------------------------
# the batch axis: a batch of fields gives each member its own bits
# ---------------------------------------------------------------------------

# on the 48x49 channel a multi-column SuperLU call differs from per-column
# calls in the last bits, in the elliptic solve and the projection alike
BATCH_CASES = [(TORUS, 16, 16, PHI_T), (MIXED, 12, 13, PHI_C), (MIXED, 48, 49, PHI_C)]


def _batch(grid, fields):
    return VectorField.from_arrays(grid, np.stack([v.c1.data for v in fields]),
                                   np.stack([v.c2.data for v in fields]))


def _members_equal(batched, singles):
    return all(np.array_equal(batched.c1.data[k], v.c1.data)
               and np.array_equal(batched.c2.data[k], v.c2.data)
               for k, v in enumerate(singles))


@pytest.mark.parametrize("spec,nx,ny,phi", BATCH_CASES)
def test_batched_operations_equal_per_field_bit_for_bit(spec, nx, ny, phi):
    geo = build_geometry(spec, nx, ny, phi)
    ctx = po.PoissonContext(geo, ALPHA, BcRegime.from_domain(spec))
    grid = geo.grid
    # eight members: a multi-column SuperLU solve differs from
    # column-by-column solves from four on
    vs = [random_vector(grid, seed=200 + k, kmax=2) for k in range(8)]
    T = _batch(grid, vs)
    a = T.c1.data
    assert np.array_equal(grid.ddx(a), np.stack([grid.ddx(x) for x in a]))
    assert np.array_equal(grid.ddy(a), np.stack([grid.ddy(x) for x in a]))
    assert np.array_equal(VectorField.from_flat(grid, T.flat()).c2.data, T.c2.data)
    assert _members_equal(ctx.op.solve(T, ctx.bc), [ctx.op.solve(v, ctx.bc) for v in vs])
    assert _members_equal(ctx.sp.project(T), [ctx.sp.project(v) for v in vs])
    # the channel case runs the BC rows and the La-on-transport solve
    u = member(ctx, 210, kmax=1, amp=0.4)
    ws = [ctx.sp.project(v) for v in vs]
    assert _members_equal(po.tangent_rhs(ctx, u, _batch(grid, ws)),
                          [po.tangent_rhs(ctx, u, w) for w in ws])


def test_a_non_finite_batch_member_fails_the_solve():
    ctx = ctx_channel(12)
    grid = ctx.geo.grid
    T = _batch(grid, [random_vector(grid, seed=220 + k) for k in range(3)])
    T.c1.data[1, 3, 4] = np.nan
    with pytest.raises(SolveError, match="batch member 1"):
        ctx.op.solve(T, ctx.bc)
    with pytest.raises(SolveError, match="batch member 1"):
        ctx.sp.project(T)


# ---------------------------------------------------------------------------
# the adjoint flow check: transposes, and the forward march as its oracle
# ---------------------------------------------------------------------------

def _and_at_alpha_zero(cases, ids):
    """pytest params: each case at ALPHA under its id, then at alpha 0 under
    its id with -alpha0, the alpha appended to the case's arguments."""
    return ([pytest.param(*c, ALPHA, id=i) for c, i in zip(cases, ids)]
            + [pytest.param(*c, 0.0, id=f"{i}-alpha0") for c, i in zip(cases, ids)])


@pytest.mark.parametrize("spec,alpha", _and_at_alpha_zero(
    [(TORUS,), (DIRICH,), (NEUMANN,), (MIXED,)], ["curved_torus", "dirichlet", "neumann", "mixed"]))
def test_tangent_rhs_is_the_exact_linearization_of_rhs(spec, alpha):
    # rhs is quadratic, so its central difference is exact up to round-off
    ctx = ctx_torus(16, alpha=alpha) if spec is TORUS else ctx_channel(16, spec, alpha=alpha)
    u = member(ctx, 39, kmax=1, amp=0.4)
    v = member(ctx, 40, kmax=1, amp=0.4)
    eps = 1e-3
    fd = (dy.rhs(ctx, u + v * eps) - dy.rhs(ctx, u - v * eps)) * (0.5 / eps)
    tangent = po.tangent_rhs(ctx, u, v)
    assert (tangent - fd).linf() <= 1e-9 * tangent.linf()


TRANSPOSE_CASES = [(TORUS, 12, 12, PHI_T), (MIXED, 12, 13, PHI_C),
                   (DIRICH, 12, 13, PHI_C), (NEUMANN, 12, 13, PHI_C)]


def _context(spec, nx, ny, phi, alpha=ALPHA):
    return po.PoissonContext(build_geometry(spec, nx, ny, phi), alpha,
                             BcRegime.from_domain(spec))


def _pairing(a, b):
    """Per-member dot products of two batches of fields."""
    return np.sum(a.flat() * b.flat(), axis=-1)


def _assert_transpose(apply, apply_t, v, w):
    """<w, A v> = <A^T w, v> member by member, to 1e-12 relative."""
    lhs, rhs = _pairing(w, apply(v)), _pairing(apply_t(w), v)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(np.abs(lhs), np.abs(rhs))), \
        (lhs, rhs)


def _random_batch(grid, seed):
    return _batch(grid, [random_vector(grid, seed=seed + k, kmax=2) for k in range(3)])


@pytest.mark.parametrize("spec,nx,ny,phi,alpha", _and_at_alpha_zero(
    TRANSPOSE_CASES, [f"spec{k}-{c[1]}-{c[2]}-phi" for k, c in enumerate(TRANSPOSE_CASES)]))
def test_transposes_pass_the_dot_product_test(spec, nx, ny, phi, alpha):
    ctx = _context(spec, nx, ny, phi, alpha)
    grid, m, bc = ctx.geo.grid, ctx.metric, ctx.bc
    v, w = _random_batch(grid, 300), _random_batch(grid, 310)
    u = member(ctx, 320, kmax=2, amp=0.5)
    _assert_transpose(ctx.sp.project, lambda y: ctx.sp.project_transpose(y)[0], v, w)
    _assert_transpose(lambda x: ctx.sp.project(None, x),
                      lambda y: ctx.sp.project_transpose(y)[1], v, w)
    _assert_transpose(lambda x: po.tangent_rhs(ctx, u, x),
                      lambda y: po.tangent_rhs_transpose(ctx, u, y), v, w)

    # the taped local part: both outputs of one tape, swept back together
    def local(x):
        return (ca.nabla_along(m, x, u) + ca.nabla_along(m, u, x),
                dy.frak_f_alpha_interior(m, u, x))

    tape = Tape(grid)
    x = tape.unknown()
    recorded = local(x)
    w2 = _random_batch(grid, 330)
    lhs = _pairing(w, local(v)[0]) + _pairing(w2, local(v)[1])
    rhs = _pairing(tape.transpose(x, list(zip(recorded, (w, w2)))), v)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(lhs)), (lhs, rhs)


def test_the_tangent_tape_at_16_stays_under_320_nodes(monkeypatch):
    # one Div per bilinear interior and grad u, grad v built once: the curved
    # 16^2 torus tangent records 309 nodes (451 with a Div per tensor and
    # grad v recorded twice); a size guard, not a timing
    sizes = []

    class CountingTape(Tape):
        def transpose(self, unknown, seeds):
            sizes.append(len(self.nodes))
            return super().transpose(unknown, seeds)

    monkeypatch.setattr(po, "Tape", CountingTape)
    ctx = ctx_torus(16)
    u = member(ctx, 39, kmax=1, amp=0.4)
    po.tangent_rhs_transpose(ctx, u, _random_batch(ctx.geo.grid, 360))
    assert len(sizes) == 1 and sizes[0] <= 320, sizes


@pytest.mark.parametrize("spec,nx,ny,phi", TRANSPOSE_CASES[:2], ids=["torus", "mixed"])
def test_a_tape_reads_out_a_matrix_and_its_transpose(spec, nx, ny, phi):
    # one recording per operator, read out forward (assembled) and backward
    ctx = _context(spec, nx, ny, phi)
    grid, m = ctx.geo.grid, ctx.metric
    u = member(ctx, 340, kmax=2, amp=0.5)
    tape = Tape(grid)
    x = tape.unknown()
    D = ca.def_tensor(m, x)
    outputs = [ca.l_operator(m, x), VectorField(grid, D[0, 0], D[0, 1]),
               VectorField(grid, D[1, 0], D[1, 1]), dy.frak_f_alpha_interior(m, u, x)]
    w = _random_batch(grid, 350)
    for out in outputs:
        M = sp_.vstack(tape.matrices(out.comps()))
        via_mat = matvec_last(M.T.tocsr(), w.flat())
        via_sweep = tape.transpose(x, [(out, w)]).flat()
        scale = np.max(np.abs(via_sweep), axis=-1, keepdims=True)
        assert np.all(np.abs(via_mat - via_sweep) <= 1e-13 * scale)


def test_a_tape_refuses_what_is_not_linear():
    grid = ctx_torus(8).geo.grid
    x = Tape(grid).unknown()
    known = random_vector(grid, seed=1)
    with pytest.raises(TypeError, match="not linear"):
        x.c1 + known.c1
    with pytest.raises(TypeError, match="not linear"):
        known.c1 - x.c1
    with pytest.raises(TypeError, match="not linear"):
        x.c1 * x.c2


@pytest.mark.parametrize("integrator", sorted(dy.INTEGRATORS))
def test_reverse_step_is_the_transpose_of_the_forward_step(integrator):
    # a linear f whose map differs per stage, so the stage order is tested too
    rng = np.random.default_rng(7)
    maps = rng.normal(size=(4, 6, 6))
    calls = iter(range(4))
    v, w, dt = rng.normal(size=6), rng.normal(size=6), 0.1
    (fwd,) = dy.INTEGRATORS[integrator](lambda y: (maps[next(calls)] @ y[0],), (v,), dt)
    back = dy.REVERSE_STEPS[integrator](lambda s, z: maps[s].T @ z, w, dt)
    assert abs(w @ fwd - back @ v) <= 1e-14 * abs(w @ fwd)


@pytest.mark.parametrize("integrator", sorted(dy.INTEGRATORS))
@pytest.mark.parametrize("spec,nx,ny,phi", TRANSPOSE_CASES)
def test_reverse_sweep_is_the_transpose_of_a_projected_tangent_step(
        spec, nx, ny, phi, integrator):
    ctx = _context(spec, nx, ny, phi)
    prob = dy.LaeProblem(ctx.geo, dy.SolverConfig(
        alpha=ctx.alpha, dt=5e-3, t_end=5e-3, bc=ctx.bc, integrator=integrator,
        cfl_factor=5.0))
    u = member(ctx, 340, kmax=1, amp=0.4)
    _, stages = po._march_keeping_stages(prob, u, 1)

    def step(T):
        return _tangent_march(prob, ctx, u, T, 1)[1]

    _assert_transpose(step, lambda z: po._reverse_sweep(ctx, integrator, stages, z, 5e-3),
                      _random_batch(ctx.geo.grid, 350), _random_batch(ctx.geo.grid, 360))


def _tangent_march(prob, ctx, u0, T, nsteps):
    """The forward march of (u, T) with the step's map, T the tangent
    directions as one batched field."""
    def f_rhs(y):
        u, T = y
        return prob.rhs(u), po.tangent_rhs(ctx, u, T)

    y = (u0.copy(), T)
    for _ in range(nsteps):
        y = dy.INTEGRATORS[prob.cfg.integrator](f_rhs, y, prob.cfg.dt)
    return y


def _svd_basis(ctx):
    """Dense orthonormal basis of null([D; R]), the phase space, by SVD."""
    A, idx = ctx.op.matrix(ctx.bc)
    C = np.vstack([ctx.sp.D.toarray(), A.tocsr()[idx, :].toarray()])
    _, s, vt = np.linalg.svd(C)
    return vt[int(np.sum(s > max(C.shape) * np.finfo(float).eps * s[0])):].T


@pytest.mark.parametrize("spec,nx,ny,phi,integrator,dim", [
    (TORUS, 12, 12, PHI_T, "rk4", 148),
    (TORUS, 16, 16, PHI_T, "rk4", 260),
    (TORUS, 12, 12, PHI_T, "midpoint", 148),
    (MIXED, 12, 13, PHI_C, "rk4", 112),
])
def test_adjoint_flow_check_matches_the_forward_tangent_march(spec, nx, ny, phi,
                                                              integrator, dim):
    # oracle: march every direction of an SVD basis B forward, then take the
    # pullback derivatives through the dense Gram matrix B^T W B
    ctx = _context(spec, nx, ny, phi)
    grid, t = ctx.geo.grid, 0.01
    prob = dy.LaeProblem(ctx.geo, dy.SolverConfig(
        alpha=ctx.alpha, dt=5e-3, t_end=t, bc=ctx.bc, integrator=integrator,
        cfl_factor=5.0))
    f, g, _ = trio(ctx)
    u0 = member(ctx, 39, kmax=1, amp=0.4)
    B = _svd_basis(ctx)
    uT, T = _tangent_march(prob, ctx, u0, VectorField.from_flat(grid, B.T.copy()),
                           dy.step_count(0.0, t, prob.cfg.dt))
    W = ctx.gram_matrix()
    r_old = np.stack([T.flat() @ (W @ o.diff(uT).flat()) for o in (f, g)])
    delta_old = np.linalg.solve(B.T @ (W @ B), r_old.T).T @ B.T
    dF = [VectorField.from_flat(grid, d) for d in delta_old]
    lhs_old = ctx.inner1(u0, ca.jacobi_lie_bracket(ctx.metric, dF[1], dF[0]))

    _, r, delta, got_dim = po.flow_pullback(prob, ctx, [f, g], u0, t)
    rep = po.flow_poisson_check(prob, ctx, f, g, u0, t)
    assert got_dim == rep["dim"] == B.shape[1] == dim
    assert np.max(np.abs(r.flat() @ B - r_old)) <= 1e-10 * np.max(np.abs(r_old))
    assert np.max(np.abs(delta.flat() - delta_old)) <= 1e-10 * np.max(np.abs(delta_old))
    assert abs(rep["lhs"] - lhs_old) <= 1e-10 * abs(lhs_old)
    assert rep["rhs"] == po.bracket(ctx, f, g, uT)


_FLOW_CHECK_16 = """
from laealab import dynamics as dy, poisson as po
from laealab.elliptic import BcRegime
from laealab.geometry import DomainSpec, build_geometry
from laealab.samples import make_phi_sinusoidal, random_vector
spec = DomainSpec("torus", 1.0, 1.0)
geo = build_geometry(spec, 16, 16, make_phi_sinusoidal(0.12, 1, 1, 1.0, 1.0))
ctx = po.PoissonContext(geo, 0.3, BcRegime.from_domain(spec))
prob = dy.LaeProblem(geo, dy.SolverConfig(alpha=0.3, dt=5e-3, t_end=0.05, bc=ctx.bc,
                                          cfl_factor=5.0))
f = po.LinearObservable(ctx, random_vector(geo.grid, seed=101, kmax=2))
g = po.LinearObservable(ctx, random_vector(geo.grid, seed=102, kmax=2))
u0 = ctx.sp.project(random_vector(geo.grid, seed=39, kmax=1, amp=0.4))
rep = po.flow_poisson_check(prob, ctx, f, g, u0, 0.05)
print(repr((rep["lhs"], rep["rhs"], rep["deviation"], rep["dim"])))
"""


def test_flow_poisson_check_does_not_depend_on_the_blas_thread_count():
    # the flow check makes no dense LAPACK call, so its report must be the
    # same with one and with two BLAS threads (the small_time_16 case)
    src = str(Path(laealab.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _FLOW_CHECK_16], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1] and outs[0].startswith("(")
