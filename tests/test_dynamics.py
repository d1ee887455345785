import numpy as np
import pytest

from laealab import calculus as ca
from laealab import dynamics as dy
from laealab import elliptic as el
from laealab import material as mt
from laealab import poisson as po
from laealab.elliptic import BcRegime, SolveError, l_alpha
from laealab.fields import VectorField
from laealab.orders import fit_order
from laealab.reference import leray_fft, polarized_f_alpha
from laealab.samples import eigenfield, phi_flat, random_vector, taylor_green_like

from domains import DIRICH, MIXED, NEUMANN, TORUS, channel, torus

BC_T = BcRegime.from_domain(TORUS)
BC_M = BcRegime.from_domain(MIXED)


def divfree_sample(s, seed, kmax=2):
    return s.sp.project(random_vector(s.geo.grid, seed=seed, kmax=kmax))


def sigma(k, h):
    return np.sin(k * h) / h


# ---------------------------------------------------------------------------
# quadratic operators, flat-torus discrete symbols
# ---------------------------------------------------------------------------

def test_f_alpha_flat_shear_both_paths_discrete_symbols():
    alpha = 0.35
    A = 0.8
    hs, e_main, e_alt, e_cross = [], [], [], []
    for n in (16, 32, 64):
        geo = torus(n, phi_flat)
        g = geo.grid
        s = dy.System(geo, alpha, BC_T)
        u = eigenfield(g, amp=A)
        s1, s2 = sigma(2 * np.pi, g.hy), sigma(4 * np.pi, g.hy)
        den = 1 + 2 * alpha**2 * s2**2
        main = dy.f_alpha(s, u)
        alt = dy.f_alpha_alt(s, u)
        w_main = alpha**2 * A**2 * s1**2 * s2 / 2.0 / den
        w_alt = alpha**2 * A**2 * (s1**2 * s2 / 4.0 + s1**3 / 2.0) / den
        assert np.max(np.abs(main.c2.data - w_main * np.sin(4 * np.pi * g.Y))) < 1e-10
        assert np.max(np.abs(alt.c2.data - w_alt * np.sin(4 * np.pi * g.Y))) < 1e-10
        hs.append(g.h)
        e_cross.append((main - alt).linf())
    assert 1.6 < fit_order(hs, e_cross) < 2.4


def test_f_alpha_zero_field():
    s = dy.System(channel(16), 0.3, BC_M)
    z = VectorField.zeros(s.geo.grid)
    assert dy.f_alpha(s, z).linf() == 0.0
    assert dy.f_alpha_alt(s, z).linf() == 0.0
    # and at a = 0 the quadratic term vanishes for any input
    u = random_vector(s.geo.grid, seed=1)
    assert dy.f_alpha(dy.System(s.geo, 0.0, BC_M), u).linf() == 0.0


@pytest.mark.parametrize("case", ["torus", "channel"])
def test_f_alpha_cross_validation_converges(case):
    alpha = 0.3
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n) if case == "torus" else channel(n)
        bc = BC_T if case == "torus" else BC_M
        s = dy.System(geo, alpha, bc)
        u = divfree_sample(s, seed=5, kmax=1)
        a = dy.f_alpha(s, u)
        b = dy.f_alpha_alt(s, u)
        hs.append(geo.grid.h)
        errs.append((a - b).linf() / max(a.linf(), 1e-300))
    assert 1.4 < fit_order(hs, errs) < 2.8, errs


# ---------------------------------------------------------------------------
# bilinear maps
# ---------------------------------------------------------------------------

def test_d_alpha_bilinear_scaling_exact():
    geo = torus(20)
    s = dy.System(geo, 0.3, BC_T)
    u = random_vector(geo.grid, seed=6)
    v = random_vector(geo.grid, seed=7)
    a = dy.d_alpha(s, u * 2.0, v)
    b = dy.d_alpha(s, u, v) * 2.0
    assert (a - b).linf() < 1e-11 * max(b.linf(), 1e-12)


@pytest.mark.parametrize("case", ["torus", "channel"])
def test_transport_identity_for_d_alpha(case):
    # (1-a^2 Lop)^{-1} grad_u[(1-a^2 Lap_r)v] = La(grad_u v) + Dop(u,v),
    # La = (1-a^2 Lop)^{-1}(1-a^2 Lop) the identity on the torus, the right
    # side taken as one solve
    alpha = 0.3
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n) if case == "torus" else channel(n)
        m = geo.metric
        bc = BC_T if case == "torus" else BC_M
        s = dy.System(geo, alpha, bc)
        u = divfree_sample(s, seed=8, kmax=1)
        v = divfree_sample(s, seed=9, kmax=1)
        mom = v - ca.ricci_laplacian(m, v) * alpha**2
        lhs = s.op.solve(ca.nabla_along(m, u, mom), bc)
        rhs = s.op.solve(s.op.apply(ca.nabla_along(m, u, v)) + dy.d_alpha_source(s, u, v), bc)
        hs.append(geo.grid.h)
        errs.append((lhs - rhs).linf() / max(lhs.linf(), 1e-300))
    assert 1.4 < fit_order(hs, errs) < 2.8, errs


def test_b_alpha_zero_w():
    geo = torus(16)
    v = random_vector(geo.grid, seed=10)
    out = dy.b_alpha(dy.System(geo, 0.3, BC_T), v, VectorField.zeros(geo.grid))
    assert out.linf() < 1e-12


def test_b_alpha_duality():
    # <(1 - a^2 Lap_r)v, grad_u w>_0 = <Bop(v,w), u>_1 for u in the subspace
    alpha = 0.3
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n)
        m = geo.metric
        s = dy.System(geo, alpha, BC_T)
        u = divfree_sample(s, seed=11, kmax=1)
        v = divfree_sample(s, seed=12, kmax=1)
        w = random_vector(geo.grid, seed=13, kmax=1)
        mom = v - ca.ricci_laplacian(m, v) * alpha**2
        lhs = ca.inner0(m, mom, ca.nabla_along(m, u, w))
        rhs = ca.inner1(m, alpha, dy.b_alpha(s, v, w), u)
        hs.append(geo.grid.h)
        errs.append(abs(lhs - rhs) / max(abs(lhs), 1e-300))
    assert 1.4 < fit_order(hs, errs) < 2.8, errs


def test_b_alpha_alpha_zero_is_leray_of_transposed_transport():
    geo = torus(24, phi_flat)
    m = geo.metric
    v = random_vector(geo.grid, seed=14)
    w = random_vector(geo.grid, seed=15)
    got = dy.b_alpha(dy.System(geo, 0.0, BC_T), v, w)
    dwt = ca.covariant_derivative(m, w).transpose()
    want = leray_fft(geo.grid, dwt.apply(v))
    assert (got - want).linf() < 1e-8 * max(want.linf(), 1.0)


def test_frak_f_symmetry_and_degeneracies():
    geo = torus(20)
    s = dy.System(geo, 0.3, BC_T)
    u = random_vector(geo.grid, seed=16)
    v = random_vector(geo.grid, seed=17)
    z = VectorField.zeros(geo.grid)
    a = dy.frak_f_alpha(s, u, v)
    b = dy.frak_f_alpha(s, v, u)
    assert (a - b).linf() < 1e-11 * max(a.linf(), 1e-12)
    assert dy.frak_f_alpha(s, u, z).linf() < 1e-11 * max(a.linf(), 1e-12)


def test_frak_f_quadratic_diagonal_and_polarization_route():
    # FFop polarizes Fop's own bilinear interior: its diagonal is Fop to the
    # bit, and it agrees with the polarization of Fop to round-off
    alpha = 0.3
    for n in (16, 32, 64):
        s = dy.System(torus(n), alpha, BC_T)
        u = random_vector(s.geo.grid, seed=18, kmax=1)
        v = random_vector(s.geo.grid, seed=19, kmax=1)
        assert np.array_equal(dy.frak_f_alpha(s, u, u).flat(), dy.f_alpha(s, u).flat())
        closed = dy.frak_f_alpha(s, u, v)
        polar = polarized_f_alpha(s, u, v)
        assert (closed - polar).linf() <= 1e-9 * closed.linf(), n
    # and the polarization route is exactly quadratic: FF(u,u) == F(u)
    s = dy.System(torus(24), alpha, BC_T)
    u = random_vector(s.geo.grid, seed=20)
    pf = polarized_f_alpha(s, u, u)
    fa = dy.f_alpha(s, u)
    assert (pf - fa).linf() < 1e-9 * max(fa.linf(), 1e-12)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_zero_field():
    s = dy.System(channel(16), 0.3, BC_M)
    assert dy.rhs(s, VectorField.zeros(s.geo.grid)).linf() < 1e-14


def test_rhs_eigenfield_is_steady_flat_torus():
    s = dy.System(torus(32, phi_flat), 0.35, BC_T)
    r = dy.rhs(s, eigenfield(s.geo.grid, amp=0.8))
    assert r.linf() < 1e-9


def test_rhs_quadratic_homogeneity_flat():
    s = dy.System(torus(24, phi_flat), 0.3, BC_T)
    u = s.sp.project(random_vector(s.geo.grid, seed=21))
    lam = 1.7
    a = dy.rhs(s, u * lam)
    b = dy.rhs(s, u) * lam**2
    assert (a - b).linf() < 1e-9 * max(b.linf(), 1e-12)


def test_rhs_variants_coincide_on_torus():
    s = dy.System(torus(24), 0.3, BC_T)
    u = s.sp.project(random_vector(s.geo.grid, seed=22))
    a = dy.rhs(s, u)
    # the NoBoundary regime takes the plain transport; the La composite
    # applied by hand must agree at solver level
    la = l_alpha(s.op, ca.nabla_along(s.metric, u, u), BC_T)
    b = -s.sp.project(la + dy.f_alpha(s, u))
    assert (a - b).linf() < 1e-8 * max(a.linf(), 1e-12)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("spec", [MIXED, DIRICH, NEUMANN], ids=["mixed", "dirichlet", "neumann"])
def test_projected_right_hand_sides_match_the_la_route(spec, n):
    # P lands in null(C) for every input, so each right-hand side hands P its
    # transport term t as it is; the route it replaced carried t onto the BC
    # rows first, La t = (1 - a^2 Lop)^{-1} A t, A the assembled interior,
    # as the source of P(None, A t + f)
    s = dy.System(channel(n, spec), 0.3, BcRegime.from_domain(spec))
    m, a2 = s.metric, s.alpha**2
    u = s.sp.project(random_vector(s.geo.grid, seed=3))
    v = s.sp.project(random_vector(s.geo.grid, seed=4))

    def la_route(t, f):
        return s.sp.project(None, s.op.apply(t) + f)

    tangent = ca.nabla_along(m, v, u) + ca.nabla_along(m, u, v)
    pairs = [(dy.rhs(s, u), -la_route(ca.nabla_along(m, u, u),
                                      dy.frak_f_alpha_interior(m, u, u) * (0.5 * a2))),
             (po.tangent_rhs(s, u, v), -la_route(tangent, dy.frak_f_alpha_interior(m, u, v) * a2)),
             (mt.connector_contract(s, u, v),
              la_route(ca.nabla_along(m, v, u), dy.frak_f_alpha_interior(m, u, v) * (0.5 * a2)))]
    for got, old in pairs:
        assert (got - old).linf() < 1e-12 * old.linf()


@pytest.mark.parametrize("case", ["torus", "channel", "dirichlet", "neumann"])
def test_rhs_at_alpha_zero_is_euler(case):
    # alpha is only a coefficient: at a = 0 the assembled (1 - a^2 Lop) is
    # the identity and each source is exact zeros, the same projection
    # right-hand side as no source, so each operator reduces to P of its
    # Euler counterpart to the bit, P landing in null([D; R]) on a channel
    # ("channel" is the mixed one)
    spec = {"torus": TORUS, "channel": MIXED, "dirichlet": DIRICH, "neumann": NEUMANN}[case]
    geo = torus(24) if case == "torus" else channel(24, spec)
    s0 = dy.System(geo, 0.0, BcRegime.from_domain(spec))
    m, P = geo.metric, s0.sp.project
    u = P(random_vector(geo.grid, seed=28, kmax=1))
    v = P(random_vector(geo.grid, seed=29, kmax=1))
    pairs = [(dy.rhs(s0, u), -P(ca.nabla_along(m, u, u))),
             (po.tangent_rhs(s0, u, v), -P(ca.nabla_along(m, v, u) + ca.nabla_along(m, u, v))),
             (mt.connector_contract(s0, u, v), P(ca.nabla_along(m, v, u)))]
    for got, euler in pairs:
        assert np.array_equal(got.flat(), euler.flat())


def test_rhs_outputs_live_in_the_constraint_space():
    s = dy.System(channel(24), 0.3, BC_M)
    u = s.sp.project(l_alpha(s.op, random_vector(s.geo.grid, seed=23), BC_M))
    r = dy.rhs(s, u)
    assert ca.divergence(s.metric, r).linf() < 1e-9 * max(r.linf(), 1e-12)
    assert np.max(np.abs(r.c1.data[:, 0])) < 1e-10   # dirichlet wall
    assert np.max(np.abs(r.c2.data[:, 0])) < 1e-10
    assert np.max(np.abs(r.c2.data[:, -1])) < 1e-10  # tangency at neumann wall


def test_alpha_sweep_rhs_approaches_euler_quadratically():
    geo = torus(24)
    s0 = dy.System(geo, 0.0, BC_T)
    u = s0.sp.project(random_vector(geo.grid, seed=24, kmax=1))
    base = dy.rhs(s0, u)
    alphas = (0.02, 0.01, 0.005)
    errs = [(dy.rhs(dy.System(geo, a, BC_T), u) - base).linf() for a in alphas]
    order = fit_order(alphas, errs)
    assert 1.7 < order < 2.3, (errs, order)


# ---------------------------------------------------------------------------
# transported-momentum residual
# ---------------------------------------------------------------------------

def test_eq2_residual_zero_state():
    s = dy.System(torus(16), 0.3, BC_T)
    z = VectorField.zeros(s.geo.grid)
    assert dy.eq2_residual(s, z, z) == 0.0


def test_eq2_residual_on_produced_rhs_converges():
    alpha = 0.3
    hs, errs = [], []
    for n in (16, 32, 64):
        s = dy.System(torus(n), alpha, BC_T)
        u = s.sp.project(random_vector(s.geo.grid, seed=25, kmax=1))
        hs.append(s.geo.grid.h)
        errs.append(dy.eq2_residual(s, u, dy.rhs(s, u)) / max(u.linf(), 1e-300))
    assert 1.4 < fit_order(hs, errs) < 2.8, errs


def test_eq2_residual_negative_control():
    s = dy.System(torus(32), 0.3, BC_T)
    u = s.sp.project(random_vector(s.geo.grid, seed=26, kmax=2))
    good = dy.eq2_residual(s, u, dy.rhs(s, u))
    bad = dy.eq2_residual(s, u, VectorField.zeros(s.geo.grid))
    assert bad > 10 * good


def test_eq2_residual_refuses_a_channel():
    # on a channel the alpha = 0 projector also carries its input onto the
    # wall rows, so it does more than remove the gradient part
    s = dy.System(channel(12), 0.3, BC_M)
    z = VectorField.zeros(s.geo.grid)
    with pytest.raises(ValueError, match="torus"):
        dy.eq2_residual(s, z, z)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_solver_config_requires_a_regime():
    # without one, a channel problem used to fall back to a regime with no
    # wall conditions and fail later with a KeyError
    with pytest.raises(TypeError):
        dy.SolverConfig(alpha=0.3, dt=1e-3, t_end=0.01)


def test_step_keeps_zero_field_fixed():
    geo = torus(16)
    cfg = dy.SolverConfig(alpha=0.3, dt=1e-2, t_end=1e-2, bc=BC_T)
    prob = dy.LaeProblem(geo, cfg)
    s = dy.step(prob, dy.State(VectorField.zeros(geo.grid), 0.0))
    assert s.u.linf() < 1e-14
    assert s.t == 1e-2


def _projection_solves_per_step(case, integrator, monkeypatch):
    """(solves with the projection's factorization, the stream-function
    system on every regime, and solves with other factors) of one step from
    an admissible u."""
    geo = torus(16) if case == "torus" else channel(16)
    cfg = dy.SolverConfig(alpha=0.3, dt=5e-3, t_end=5e-3, integrator=integrator,
                          bc=BC_T if case == "torus" else BC_M)
    prob = dy.LaeProblem(geo, cfg)
    prob.op.factor(cfg.bc)
    u = prob.sp.project(random_vector(geo.grid, seed=29, kmax=1)) * 0.5
    calls = []
    real = el._Factorization.solve

    def counting(fac, *args):
        calls.append(fac)
        return real(fac, *args)

    monkeypatch.setattr(el._Factorization, "solve", counting)
    dy.step(prob, dy.State(u, 0.0))
    projection = sum(f is prob.sp.system.fac for f in calls)
    return projection, len(calls) - projection


@pytest.mark.parametrize("case", ["torus", "channel"])
def test_rk4_step_is_four_saddle_solves(case, monkeypatch):
    # each stage's right-hand side is one projection solve (the
    # stream-function system), with the solves of Fop and La folded in, and
    # the step ends with the integrator's result, not projected again
    assert _projection_solves_per_step(case, "rk4", monkeypatch) == (4, 0)


@pytest.mark.parametrize("case", ["torus", "channel"])
def test_midpoint_step_is_two_saddle_solves(case, monkeypatch):
    assert _projection_solves_per_step(case, "midpoint", monkeypatch) == (2, 0)


@pytest.mark.parametrize("case", ["torus", "channel"])
def test_step_refuses_a_divergent_state(case):
    # the step no longer projects its result, so a state it cannot carry
    # fails loudly instead of having its divergence removed
    geo = torus(16) if case == "torus" else channel(16)
    bc = BC_T if case == "torus" else BC_M
    prob = dy.LaeProblem(geo, dy.SolverConfig(alpha=0.3, dt=5e-3, t_end=5e-3, bc=bc))
    raw = random_vector(geo.grid, seed=29, kmax=1) * 0.5
    with pytest.raises(dy.InadmissibleStateError, match="relative constraint residual"):
        dy.step(prob, dy.State(raw, 0.0))
    with pytest.raises(dy.InadmissibleStateError):
        dy.integrate(prob, dy.State(raw, 0.0), 5e-3)
    dy.step(prob, dy.State(prob.sp.project(raw), 0.0))


@pytest.mark.parametrize("spec", [MIXED, DIRICH, NEUMANN], ids=["mixed", "dirichlet", "neumann"])
def test_step_refuses_a_divergence_free_state_off_the_wall_rows(spec):
    # the x-independent shear u = (0.5 (1 + y), 0) is divergence-free on the
    # flat channel but breaks every regime's BC rows, and the guard checks
    # all of C = [D; R]
    geo = channel(16, spec, phi_flat)
    bc = BcRegime.from_domain(spec)
    grid = geo.grid
    u0 = VectorField.from_arrays(grid, 0.5 * (1.0 + grid.Y), np.zeros_like(grid.Y))
    prob = dy.LaeProblem(geo, dy.SolverConfig(alpha=0.3, dt=5e-3, t_end=1.5e-2, bc=bc))
    assert np.linalg.norm(prob.sp.D @ u0.flat()) < 1e-12 * np.linalg.norm(u0.flat())
    with pytest.raises(dy.InadmissibleStateError, match="relative constraint residual"):
        dy.integrate(prob, dy.State(u0, 0.0), 1.5e-2)


def test_cfl_violation_raises():
    geo = torus(16)
    cfg = dy.SolverConfig(alpha=0.3, dt=0.5, t_end=1.0, bc=BC_T)
    prob = dy.LaeProblem(geo, cfg)
    u = eigenfield(geo.grid, amp=1.0)
    with pytest.raises(dy.CflError):
        dy.step(prob, dy.State(u, 0.0))


def test_nan_state_fails_loudly():
    # one NaN node in an 8^2 torus state used to integrate silently to t_end
    geo = torus(8)
    cfg = dy.SolverConfig(alpha=0.3, dt=1e-2, t_end=0.1, bc=BC_T, cfl_factor=5.0)
    prob = dy.LaeProblem(geo, cfg)
    u = prob.sp.project(taylor_green_like(geo.grid, amp=0.3))
    u.c1.data[3, 4] = np.nan
    with pytest.raises(dy.NonFiniteStateError):
        dy.integrate(prob, dy.State(u, 0.0), 0.1)
    with pytest.raises(dy.CflError):
        prob.check_cfl(u)
    with pytest.raises(SolveError):
        prob.op.solve(u, BC_T)
    with pytest.raises(SolveError):
        prob.sp.project(u)


def test_energy_basics():
    geo = torus(20)
    m = geo.metric
    u = random_vector(geo.grid, seed=27)
    assert dy.energy(m, 0.3, u) > 0
    assert dy.energy(m, 0.3, VectorField.zeros(geo.grid)) == 0.0
    assert abs(dy.energy(m, 0.3, u) - 0.5 * ca.inner1(m, 0.3, u, u)) == 0.0


def run_to(geo, alpha, u0, dt, T, integrator="rk4"):
    cfg = dy.SolverConfig(alpha=alpha, dt=dt, t_end=T, integrator=integrator,
                          bc=BC_T, cfl_factor=5.0)
    prob = dy.LaeProblem(geo, cfg)
    return dy.integrate(prob, dy.State(u0, 0.0), T)


def test_energy_drift_fourth_order_in_dt():
    # the drift splits into a dt-independent spatial floor plus the
    # integrator branch; differencing against a fine-dt reference isolates
    # the branch, which must decay at fourth order
    geo = torus(24)
    alpha = 0.2
    u0 = dy.System(geo, alpha, BC_T).sp.project(
        random_vector(geo.grid, seed=28, kmax=2, amp=0.6))
    e0 = dy.energy(geo.metric, alpha, u0)
    T = 0.6
    ref = run_to(geo, alpha, u0, T / 480, T)
    eref = dy.energy(geo.metric, alpha, ref.u)
    dts = [T / m for m in (13, 18, 25, 35)]
    errs = [abs(dy.energy(geo.metric, alpha, run_to(geo, alpha, u0, dt, T).u)
                - eref) / e0 for dt in dts]
    order = fit_order(dts, errs)
    assert 3.5 < order < 5.0, (errs, order)


def test_energy_drift_floor_decreases_with_h():
    alpha = 0.3
    floors, hs = [], []
    for n in (16, 24, 32):
        geo = torus(n)
        raw = (taylor_green_like(geo.grid, amp=0.4)
               + random_vector(geo.grid, seed=28, kmax=2, amp=0.1))
        u0 = dy.System(geo, alpha, BC_T).sp.project(raw)
        e0 = dy.energy(geo.metric, alpha, u0)
        fin = run_to(geo, alpha, u0, 2e-3, 0.2)
        floors.append(abs(dy.energy(geo.metric, alpha, fin.u) - e0) / e0)
        hs.append(geo.grid.h)
    assert 1.3 < fit_order(hs, floors) < 2.8, floors


def test_reversibility_smoke():
    geo = torus(24)
    alpha = 0.3
    u0 = dy.System(geo, alpha, BC_T).sp.project(taylor_green_like(geo.grid, amp=0.08))
    cfg_f = dy.SolverConfig(alpha=alpha, dt=1e-2, t_end=0.2, bc=BC_T)
    prob_f = dy.LaeProblem(geo, cfg_f)
    fwd = dy.integrate(prob_f, dy.State(u0, 0.0), 0.2)
    cfg_b = dy.SolverConfig(alpha=alpha, dt=-1e-2, t_end=0.0, bc=BC_T)
    prob_b = dy.LaeProblem(geo, cfg_b)
    back = dy.integrate(prob_b, fwd, 0.0)
    assert (back.u - u0).linf() < 1e-6 * max(u0.linf(), 1e-300)


def test_midpoint_integrator_second_order():
    geo = torus(16)
    alpha = 0.2
    u0 = dy.System(geo, alpha, BC_T).sp.project(
        random_vector(geo.grid, seed=28, kmax=2, amp=0.6))
    T = 0.4
    ref = run_to(geo, alpha, u0, T / 400, T)
    dts = [T / m for m in (25, 35, 50, 70)]
    errs = [(run_to(geo, alpha, u0, dt, T, integrator="midpoint").u - ref.u).linf()
            for dt in dts]
    order = fit_order(dts, errs)
    assert 1.5 < order < 2.6, (errs, order)
