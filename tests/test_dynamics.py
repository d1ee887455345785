import numpy as np
import pytest

from laealab import calculus as ca
from laealab import dynamics as dy
from laealab.elliptic import (BcRegime, EllipticOperator, GradientRemover,
                              SolveError, StokesProjector, l_alpha)
from laealab.fields import VectorField
from laealab.geometry import DomainSpec, build_geometry
from laealab.orders import fit_order
from laealab.reference import leray_fft
from laealab.samples import (eigenfield, make_phi_cosx_siny, make_phi_sinusoidal,
                             phi_flat, random_vector, taylor_green_like)

TORUS = DomainSpec("torus", 1.0, 1.0)
MIXED = DomainSpec("channel", 1.0, 1.0,
                   wall_roles={"y0": "dirichlet", "yL": "neumann"})
PHI_T = make_phi_sinusoidal(0.15, 1, 1, 1.0, 1.0)
PHI_C = make_phi_cosx_siny(0.15, 1, 1.0, 1.0)
BC_T = BcRegime.from_domain(TORUS)
BC_M = BcRegime.from_domain(MIXED)


def torus(n, phi=PHI_T):
    return build_geometry(TORUS, n, n, phi)


def channel(n, phi=PHI_C):
    return build_geometry(MIXED, n, n + 1, phi)


def machinery(geo, alpha, bc):
    op = EllipticOperator(geo, alpha)
    sp = StokesProjector(op, bc)
    return op, sp


def divfree_sample(geo, op, sp, bc, seed, kmax=2):
    raw = random_vector(geo.grid, seed=seed, kmax=kmax)
    if bc.has_boundary and op.alpha > 0:
        raw = l_alpha(op, raw, bc)
    return sp.project(raw)


def sigma(k, h):
    return np.sin(k * h) / h


# ---------------------------------------------------------------------------
# quadratic operators, flat-torus discrete symbols
# ---------------------------------------------------------------------------

def test_u_alpha_zero_inputs():
    geo = torus(16, phi_flat)
    m = geo.metric
    op, sp = machinery(geo, 0.3, BC_T)
    assert dy.u_alpha(m, op, VectorField.zeros(geo.grid), BC_T).linf() == 0.0
    op0 = EllipticOperator(geo, 0.0)
    u = random_vector(geo.grid, seed=1)
    assert dy.u_alpha(m, op0, u, BC_T).linf() == 0.0


def test_u_alpha_flat_shear_symbol():
    geo = torus(32, phi_flat)
    g, m = geo.grid, geo.metric
    alpha = 0.35
    op, sp = machinery(geo, alpha, BC_T)
    A = 0.8
    u = eigenfield(g, amp=A)
    s1 = sigma(2 * np.pi, g.hy)
    s2 = sigma(4 * np.pi, g.hy)
    what = alpha**2 * A**2 * s1**2 * s2 / 2.0 / (1 + 2 * alpha**2 * s2**2)
    got = dy.u_alpha(m, op, u, BC_T)
    want2 = what * np.sin(4 * np.pi * g.Y)
    assert np.max(np.abs(got.c2.data - want2)) < 1e-10 * max(abs(what), 1e-10)
    assert np.max(np.abs(got.c1.data)) < 1e-12
    # continuum value approached at O(h^2)
    cont = alpha**2 * A**2 * (2 * np.pi)**2 * (4 * np.pi) / 2.0 \
        / (1 + 2 * alpha**2 * (4 * np.pi)**2)
    assert abs(what - cont) < 0.05 * abs(cont)


def test_r_alpha_flat_exactly_zero_and_alpha_zero():
    geo = torus(16, phi_flat)
    m = geo.metric
    op, _ = machinery(geo, 0.3, BC_T)
    u = random_vector(geo.grid, seed=2)
    assert dy.r_alpha(m, op, u, BC_T).linf() == 0.0
    geo_c = torus(16)
    op0 = EllipticOperator(geo_c, 0.0)
    assert dy.r_alpha(geo_c.metric, op0, u, BC_T).linf() == 0.0


def test_r_alpha_matches_termwise_assembly():
    geo = torus(24)
    m = geo.metric
    alpha = 0.3
    op, _ = machinery(geo, alpha, BC_T)
    u = random_vector(geo.grid, seed=3, kmax=2)
    got = dy.r_alpha(m, op, u, BC_T)
    cc = ca.curvature_contractions(m, u, u)
    du = ca.covariant_derivative(m, u)
    dut = ca.transpose_metric(m, du)
    inner = (cc.div_r + cc.r_grad + cc.r_swap) - cc.ric_rate - dut.apply(cc.ric_v)
    ref = op.solve(inner * alpha**2, BC_T)
    assert (got - ref).linf() < 1e-12 * max(ref.linf(), 1e-12)


def test_f_alpha_flat_shear_both_paths_discrete_symbols():
    alpha = 0.35
    A = 0.8
    hs, e_main, e_alt, e_cross = [], [], [], []
    for n in (16, 32, 64):
        geo = torus(n, phi_flat)
        g, m = geo.grid, geo.metric
        op, _ = machinery(geo, alpha, BC_T)
        u = eigenfield(g, amp=A)
        s1, s2 = sigma(2 * np.pi, g.hy), sigma(4 * np.pi, g.hy)
        den = 1 + 2 * alpha**2 * s2**2
        main = dy.f_alpha(m, op, u, BC_T)
        alt = dy.f_alpha_alt(m, op, u, BC_T)
        w_main = alpha**2 * A**2 * s1**2 * s2 / 2.0 / den
        w_alt = alpha**2 * A**2 * (s1**2 * s2 / 4.0 + s1**3 / 2.0) / den
        assert np.max(np.abs(main.c2.data - w_main * np.sin(4 * np.pi * g.Y))) < 1e-10
        assert np.max(np.abs(alt.c2.data - w_alt * np.sin(4 * np.pi * g.Y))) < 1e-10
        hs.append(g.h)
        e_cross.append((main - alt).linf())
    assert 1.6 < fit_order(hs, e_cross) < 2.4


def test_f_alpha_zero_field():
    geo = channel(16)
    op, _ = machinery(geo, 0.3, BC_M)
    z = VectorField.zeros(geo.grid)
    assert dy.f_alpha(geo.metric, op, z, BC_M).linf() == 0.0
    assert dy.f_alpha_alt(geo.metric, op, z, BC_M).linf() == 0.0


@pytest.mark.parametrize("case", ["torus", "channel"])
def test_f_alpha_cross_validation_converges(case):
    alpha = 0.3
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n) if case == "torus" else channel(n)
        bc = BC_T if case == "torus" else BC_M
        op, sp = machinery(geo, alpha, bc)
        u = divfree_sample(geo, op, sp, bc, seed=5, kmax=1)
        a = dy.f_alpha(geo.metric, op, u, bc)
        b = dy.f_alpha_alt(geo.metric, op, u, bc)
        hs.append(geo.grid.h)
        errs.append((a - b).linf() / max(a.linf(), 1e-300))
    assert 1.4 < fit_order(hs, errs) < 2.8, errs


# ---------------------------------------------------------------------------
# bilinear maps
# ---------------------------------------------------------------------------

def test_d_alpha_bilinear_scaling_exact():
    geo = torus(20)
    m = geo.metric
    op, _ = machinery(geo, 0.3, BC_T)
    u = random_vector(geo.grid, seed=6)
    v = random_vector(geo.grid, seed=7)
    a = dy.d_alpha(m, op, u * 2.0, v, BC_T)
    b = dy.d_alpha(m, op, u, v, BC_T) * 2.0
    assert (a - b).linf() < 1e-11 * max(b.linf(), 1e-12)


@pytest.mark.parametrize("case", ["torus", "channel"])
def test_transport_identity_for_d_alpha(case):
    # (1-a^2 Lop)^{-1} grad_u[(1-a^2 Lap_r)v] = T(grad_u v) + Dop(u,v)
    # with T = identity (no-slip/torus) or the La composite (free-slip/mixed)
    alpha = 0.3
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n) if case == "torus" else channel(n)
        m = geo.metric
        bc = BC_T if case == "torus" else BC_M
        op, sp = machinery(geo, alpha, bc)
        u = divfree_sample(geo, op, sp, bc, seed=8, kmax=1)
        v = divfree_sample(geo, op, sp, bc, seed=9, kmax=1)
        mom = v - ca.ricci_laplacian(m, v) * alpha**2
        lhs = op.solve(ca.nabla_along(m, u, mom), bc)
        adv = ca.nabla_along(m, u, v)
        if bc.uses_l_alpha_transport:
            adv = op.solve(op.apply(adv), bc)
        rhs = adv + dy.d_alpha(m, op, u, v, bc)
        hs.append(geo.grid.h)
        errs.append((lhs - rhs).linf() / max(lhs.linf(), 1e-300))
    assert 1.4 < fit_order(hs, errs) < 2.8, errs


def test_b_alpha_zero_w():
    geo = torus(16)
    op, sp = machinery(geo, 0.3, BC_T)
    v = random_vector(geo.grid, seed=10)
    out = dy.b_alpha(geo.metric, op, sp, v, VectorField.zeros(geo.grid), BC_T)
    assert out.linf() < 1e-12


def test_b_alpha_duality():
    # <(1 - a^2 Lap_r)v, grad_u w>_0 = <Bop(v,w), u>_1 for u in the subspace
    alpha = 0.3
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n)
        m = geo.metric
        op, sp = machinery(geo, alpha, BC_T)
        u = divfree_sample(geo, op, sp, BC_T, seed=11, kmax=1)
        v = divfree_sample(geo, op, sp, BC_T, seed=12, kmax=1)
        w = random_vector(geo.grid, seed=13, kmax=1)
        mom = v - ca.ricci_laplacian(m, v) * alpha**2
        lhs = ca.inner0(m, mom, ca.nabla_along(m, u, w))
        rhs = ca.inner1(m, alpha, dy.b_alpha(m, op, sp, v, w, BC_T), u)
        hs.append(geo.grid.h)
        errs.append(abs(lhs - rhs) / max(abs(lhs), 1e-300))
    assert 1.4 < fit_order(hs, errs) < 2.8, errs


def test_b_alpha_alpha_zero_is_leray_of_transposed_transport():
    geo = torus(24, phi_flat)
    m = geo.metric
    op0 = EllipticOperator(geo, 0.0)
    sp0 = StokesProjector(op0, BC_T)
    v = random_vector(geo.grid, seed=14)
    w = random_vector(geo.grid, seed=15)
    got = dy.b_alpha(m, op0, sp0, v, w, BC_T)
    dwt = ca.transpose_metric(m, ca.covariant_derivative(m, w))
    want = leray_fft(geo.grid, dwt.apply(v))
    assert (got - want).linf() < 1e-8 * max(want.linf(), 1.0)


def test_frak_f_symmetry_and_degeneracies():
    geo = torus(20)
    m = geo.metric
    op, _ = machinery(geo, 0.3, BC_T)
    u = random_vector(geo.grid, seed=16)
    v = random_vector(geo.grid, seed=17)
    z = VectorField.zeros(geo.grid)
    a = dy.frak_f_alpha(m, op, u, v, BC_T)
    b = dy.frak_f_alpha(m, op, v, u, BC_T)
    assert (a - b).linf() < 1e-11 * max(a.linf(), 1e-12)
    assert dy.frak_f_alpha(m, op, u, z, BC_T).linf() < 1e-11 * max(a.linf(), 1e-12)


def test_frak_f_quadratic_diagonal_and_polarization_route():
    alpha = 0.3
    hs, e_diag, e_routes = [], [], []
    for n in (16, 32, 64):
        geo = torus(n)
        m = geo.metric
        op, _ = machinery(geo, alpha, BC_T)
        u = random_vector(geo.grid, seed=18, kmax=1)
        v = random_vector(geo.grid, seed=19, kmax=1)
        closed = dy.frak_f_alpha(m, op, u, v, BC_T, via="closed")
        polar = dy.frak_f_alpha(m, op, u, v, BC_T, via="polarization")
        diag = dy.frak_f_alpha(m, op, u, u, BC_T, via="closed")
        fa = dy.f_alpha(m, op, u, BC_T)
        hs.append(geo.grid.h)
        e_routes.append((closed - polar).linf() / max(closed.linf(), 1e-300))
        e_diag.append((diag - fa).linf() / max(fa.linf(), 1e-300))
    # the polarization of a quadratic map recovers the map on the diagonal
    assert 1.4 < fit_order(hs, e_diag) < 2.8, e_diag
    assert 1.4 < fit_order(hs, e_routes) < 2.8, e_routes
    # and the polarization route is exactly quadratic: FF(u,u) == F(u)
    geo = torus(24)
    op, _ = machinery(geo, alpha, BC_T)
    u = random_vector(geo.grid, seed=20)
    pf = dy.frak_f_alpha(geo.metric, op, u, u, BC_T, via="polarization")
    fa = dy.f_alpha(geo.metric, op, u, BC_T)
    assert (pf - fa).linf() < 1e-9 * max(fa.linf(), 1e-12)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_zero_field():
    geo = channel(16)
    op, sp = machinery(geo, 0.3, BC_M)
    z = VectorField.zeros(geo.grid)
    assert dy.rhs_mixed(geo.metric, op, sp, z).linf() < 1e-14


def test_rhs_eigenfield_is_steady_flat_torus():
    geo = torus(32, phi_flat)
    op, sp = machinery(geo, 0.35, BC_T)
    u = eigenfield(geo.grid, amp=0.8)
    r = dy.rhs_dirichlet(geo.metric, op, sp, u)
    assert r.linf() < 1e-9


def test_rhs_quadratic_homogeneity_flat():
    geo = torus(24, phi_flat)
    op, sp = machinery(geo, 0.3, BC_T)
    u = sp.project(random_vector(geo.grid, seed=21))
    lam = 1.7
    a = dy.rhs_dirichlet(geo.metric, op, sp, u * lam)
    b = dy.rhs_dirichlet(geo.metric, op, sp, u) * lam**2
    assert (a - b).linf() < 1e-9 * max(b.linf(), 1e-12)


def test_rhs_variants_coincide_on_torus():
    geo = torus(24)
    op, sp = machinery(geo, 0.3, BC_T)
    u = sp.project(random_vector(geo.grid, seed=22))
    a = dy.rhs_dirichlet(geo.metric, op, sp, u)
    b = dy.rhs_mixed(geo.metric, op, sp, u)
    assert (a - b).linf() < 1e-8 * max(a.linf(), 1e-12)


def test_rhs_outputs_live_in_the_constraint_space():
    geo = channel(24)
    m = geo.metric
    op, sp = machinery(geo, 0.3, BC_M)
    u = sp.project(l_alpha(op, random_vector(geo.grid, seed=23), BC_M))
    r = dy.rhs_mixed(m, op, sp, u)
    assert ca.divergence(m, r).linf() < 1e-9 * max(r.linf(), 1e-12)
    assert np.max(np.abs(r.c1.data[:, 0])) < 1e-10   # dirichlet wall
    assert np.max(np.abs(r.c2.data[:, 0])) < 1e-10
    assert np.max(np.abs(r.c2.data[:, -1])) < 1e-10  # tangency at neumann wall


def test_alpha_sweep_rhs_approaches_euler_quadratically():
    geo = torus(24)
    m = geo.metric
    op0 = EllipticOperator(geo, 0.0)
    sp0 = StokesProjector(op0, BC_T)
    u = sp0.project(random_vector(geo.grid, seed=24, kmax=1))
    base = dy.rhs_euler(m, sp0, u)
    alphas = (0.02, 0.01, 0.005)
    errs = []
    for a in alphas:
        op, sp = machinery(geo, a, BC_T)
        errs.append((dy.rhs_dirichlet(m, op, sp, u) - base).linf())
    order = fit_order(alphas, errs)
    assert 1.7 < order < 2.3, (errs, order)


# ---------------------------------------------------------------------------
# transported-momentum residual
# ---------------------------------------------------------------------------

def test_eq2_residual_zero_state():
    geo = torus(16)
    op = EllipticOperator(geo, 0.3)
    gr = GradientRemover(geo)
    z = VectorField.zeros(geo.grid)
    assert dy.eq2_residual(geo.metric, op, gr, z, z) == 0.0


def test_eq2_residual_on_produced_rhs_converges():
    alpha = 0.3
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n)
        m = geo.metric
        op, sp = machinery(geo, alpha, BC_T)
        gr = GradientRemover(geo)
        u = sp.project(random_vector(geo.grid, seed=25, kmax=1))
        dudt = dy.rhs_dirichlet(m, op, sp, u)
        hs.append(geo.grid.h)
        errs.append(dy.eq2_residual(m, op, gr, u, dudt) / max(u.linf(), 1e-300))
    assert 1.4 < fit_order(hs, errs) < 2.8, errs


def test_eq2_residual_negative_control():
    geo = torus(32)
    m = geo.metric
    alpha = 0.3
    op, sp = machinery(geo, alpha, BC_T)
    gr = GradientRemover(geo)
    u = sp.project(random_vector(geo.grid, seed=26, kmax=2))
    dudt = dy.rhs_dirichlet(m, op, sp, u)
    good = dy.eq2_residual(m, op, gr, u, dudt)
    bad = dy.eq2_residual(m, op, gr, u, VectorField.zeros(geo.grid))
    assert bad > 10 * good


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_step_keeps_zero_field_fixed():
    geo = torus(16)
    cfg = dy.SolverConfig(alpha=0.3, dt=1e-2, t_end=1e-2, bc=BC_T)
    prob = dy.LaeProblem(geo, cfg)
    s = dy.step(prob, dy.State(VectorField.zeros(geo.grid), 0.0))
    assert s.u.linf() < 1e-14
    assert s.t == 1e-2


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
    op, sp = machinery(geo, alpha, BC_T)
    u0 = sp.project(random_vector(geo.grid, seed=28, kmax=2, amp=0.6))
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
        op, sp = machinery(geo, alpha, BC_T)
        u0 = sp.project(taylor_green_like(geo.grid, amp=0.4)
                        + random_vector(geo.grid, seed=28, kmax=2, amp=0.1))
        e0 = dy.energy(geo.metric, alpha, u0)
        fin = run_to(geo, alpha, u0, 2e-3, 0.2)
        floors.append(abs(dy.energy(geo.metric, alpha, fin.u) - e0) / e0)
        hs.append(geo.grid.h)
    assert 1.3 < fit_order(hs, floors) < 2.8, floors


def test_reversibility_smoke():
    geo = torus(24)
    alpha = 0.3
    op, sp = machinery(geo, alpha, BC_T)
    u0 = sp.project(taylor_green_like(geo.grid, amp=0.08))
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
    op, sp = machinery(geo, alpha, BC_T)
    u0 = sp.project(random_vector(geo.grid, seed=28, kmax=2, amp=0.6))
    T = 0.4
    ref = run_to(geo, alpha, u0, T / 400, T)
    dts = [T / m for m in (25, 35, 50, 70)]
    errs = [(run_to(geo, alpha, u0, dt, T, integrator="midpoint").u - ref.u).linf()
            for dt in dts]
    order = fit_order(dts, errs)
    assert 1.5 < order < 2.6, (errs, order)
