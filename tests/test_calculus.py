import numpy as np
import pytest

from laealab import calculus as ca
from laealab.fields import VectorField
from laealab.geometry import DomainSpec, build_geometry
from laealab.orders import fit_order
from laealab.reference import (covariant_derivative_o4, curvature_traces_frame_loop,
                               hodge_exterior)
from laealab.samples import (make_phi_cosx_siny, make_phi_sinusoidal, phi_flat,
                             random_vector)

TORUS = DomainSpec("torus", 1.0, 1.0)
CHANNEL = DomainSpec("channel", 1.0, 1.0,
                     wall_roles={"y0": "dirichlet", "yL": "neumann"})
PHI_T = make_phi_sinusoidal(0.15, 1, 1, 1.0, 1.0)
PHI_C = make_phi_cosx_siny(0.15, 1, 1.0, 1.0)


def torus(n, phi=PHI_T):
    return build_geometry(TORUS, n, n, phi)


def channel(n, phi=PHI_C):
    return build_geometry(CHANNEL, n, n + 1, phi)


def eigen_u(g):
    return VectorField.from_arrays(
        g, np.sin(2 * np.pi * g.Y), np.zeros((g.nx, g.ny)))


def sigma(k, h):
    """Symbol of the centered first derivative on mode sin(k y)."""
    return np.sin(k * h) / h


# ---------------------------------------------------------------------------
# covariant derivative
# ---------------------------------------------------------------------------

def test_flat_constant_field_has_zero_gradient():
    geo = torus(16, phi_flat)
    u = VectorField.from_arrays(geo.grid, np.full((16, 16), 1.7),
                                np.full((16, 16), -0.3))
    du = ca.covariant_derivative(geo.metric, u)
    for i in range(2):
        for j in range(2):
            assert not du[i, j].data.any()


def test_flat_shear_gradient_single_entry():
    geo = torus(32, phi_flat)
    g = geo.grid
    du = ca.covariant_derivative(geo.metric, eigen_u(g))
    expected = sigma(2 * np.pi, g.hy) * np.cos(2 * np.pi * g.Y)
    assert np.max(np.abs(du[0, 1].data - expected)) < 1e-12
    assert np.max(np.abs(du[0, 1].data - 2 * np.pi * np.cos(2 * np.pi * g.Y))) < 0.05
    assert not du[0, 0].data.any() and not du[1, 0].data.any() and not du[1, 1].data.any()


def test_covariant_derivative_vs_fourth_order_oracle():
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n)
        u = random_vector(geo.grid, seed=7, kmax=3)
        a = ca.covariant_derivative(geo.metric, u)
        b = covariant_derivative_o4(geo.metric, u)
        err = max(np.max(np.abs(a[i, j].data - b[i, j].data))
                  for i in range(2) for j in range(2))
        hs.append(geo.grid.h)
        errs.append(err)
    assert 1.6 < fit_order(hs, errs) < 2.4


# ---------------------------------------------------------------------------
# deformation tensor
# ---------------------------------------------------------------------------

def test_def_tensor_of_zero_is_zero():
    geo = channel(16)
    d = ca.def_tensor(geo.metric, VectorField.zeros(geo.grid))
    assert all(not d[i, j].data.any() for i in range(2) for j in range(2))


def test_windowed_rotation_is_killing_in_the_window():
    geo = torus(32, phi_flat)
    g = geo.grid
    r2 = (g.X - 0.5) ** 2 + (g.Y - 0.5) ** 2
    r = np.sqrt(r2)
    t = np.clip((r - 0.22) / 0.16, 0.0, 1.0)
    win = 1.0 - t * t * (3 - 2 * t)   # exactly 1 inside r < 0.22, 0 outside r > 0.38
    u = VectorField.from_arrays(g, -(g.Y - 0.5) * win, (g.X - 0.5) * win)
    d = ca.def_tensor(geo.metric, u)
    inner = r2 < 0.15 ** 2
    worst = max(np.max(np.abs(d[i, j].data[inner])) for i in range(2) for j in range(2))
    assert worst < 1e-12


def test_def_tensor_is_g_symmetric_pointwise():
    geo = torus(24)
    m = geo.metric
    u = random_vector(geo.grid, seed=3)
    a = random_vector(geo.grid, seed=4)
    b = random_vector(geo.grid, seed=5)
    d = ca.def_tensor(m, u)
    lhs = ca.g_pair(m, d.apply(a), b).data
    rhs = ca.g_pair(m, a, d.apply(b)).data
    scale = np.max(np.abs(lhs)) + 1e-30
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

def test_hodge_flat_eigenfield():
    geo = torus(32, phi_flat)
    g = geo.grid
    u = eigen_u(g)
    lap = ca.hodge_laplacian(geo.metric, u)
    s = sigma(2 * np.pi, g.hy)
    assert np.max(np.abs(lap.c1.data + s * s * np.sin(2 * np.pi * g.Y))) < 1e-10
    assert np.max(np.abs(lap.c2.data)) < 1e-12
    assert np.max(np.abs(lap.c1.data + (2 * np.pi) ** 2 * np.sin(2 * np.pi * g.Y))) < 0.6


def test_hodge_of_zero_is_zero():
    geo = channel(16)
    lap = ca.hodge_laplacian(geo.metric, VectorField.zeros(geo.grid))
    assert lap.linf() == 0.0


def test_weitzenboeck_form_equals_exterior_calculus_flat():
    geo = torus(24, phi_flat)
    u = random_vector(geo.grid, seed=11)
    a = ca.hodge_laplacian(geo.metric, u)
    b = hodge_exterior(geo.metric, u)
    assert (a - b).linf() < 1e-10


@pytest.mark.parametrize("case", ["torus", "channel"])
def test_weitzenboeck_vs_exterior_oracle_curved(case):
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n) if case == "torus" else channel(n)
        u = random_vector(geo.grid, seed=13, kmax=3)
        a = ca.hodge_laplacian(geo.metric, u)
        b = hodge_exterior(geo.metric, u)
        hs.append(geo.grid.h)
        errs.append((a - b).linf())
    assert 1.5 < fit_order(hs, errs) < 2.6


def test_l_operator_flat_is_lap_plus_grad_div():
    geo = torus(24, phi_flat)
    m = geo.metric
    u = random_vector(geo.grid, seed=2)
    lop = ca.l_operator(m, u)
    ref = ca.hodge_laplacian(m, u) + ca.gradient(m, ca.divergence(m, u))
    assert (lop - ref).linf() < 1e-12 * max(lop.linf(), 1.0)


def test_l_operator_divfree_eigenfield_reduces_to_laplacian():
    geo = torus(32, phi_flat)
    u = eigen_u(geo.grid)
    assert (ca.l_operator(geo.metric, u) - ca.hodge_laplacian(geo.metric, u)).linf() < 1e-11


def test_l_operator_linearity():
    geo = channel(16)
    m = geo.metric
    u = random_vector(geo.grid, seed=21)
    v = random_vector(geo.grid, seed=22)
    lin = ca.l_operator(m, u * 2.0 + v * (-3.0))
    ref = ca.l_operator(m, u) * 2.0 + ca.l_operator(m, v) * (-3.0)
    assert (lin - ref).linf() < 1e-11 * max(ref.linf(), 1.0)


# ---------------------------------------------------------------------------
# tensor divergence
# ---------------------------------------------------------------------------

def test_div11_zero():
    geo = channel(16)
    z = ca.ScalarField if False else None
    S = ca.covariant_derivative(geo.metric, VectorField.zeros(geo.grid))
    assert ca.div_11(geo.metric, S).linf() == 0.0


def test_div11_flat_gradient_gives_componentwise_laplacian():
    geo = torus(24, phi_flat)
    g = geo.grid
    u = random_vector(g, seed=8)
    got = ca.div_11(geo.metric, ca.covariant_derivative(geo.metric, u))
    lap0 = VectorField.from_arrays(
        g, g.ddx(g.ddx(u.c1.data)) + g.ddy(g.ddy(u.c1.data)),
        g.ddx(g.ddx(u.c2.data)) + g.ddy(g.ddy(u.c2.data)))
    assert (got - lap0).linf() < 1e-11 * max(lap0.linf(), 1.0)


@pytest.mark.parametrize("case", ["torus", "channel"])
def test_divnabla_identity(case):
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n) if case == "torus" else channel(n)
        m = geo.metric
        u = random_vector(geo.grid, seed=31, kmax=2)
        v = random_vector(geo.grid, seed=32, kmax=2)
        lhs = ca.divergence(m, ca.nabla_along(m, v, u))
        du = ca.covariant_derivative(m, u)
        dv = ca.covariant_derivative(m, v)
        rhs = (du.matmul(dv).trace() + ca.g_pair(m, u, v) * m.K
               + ca.g_pair(m, ca.gradient(m, ca.divergence(m, u)), v))
        hs.append(geo.grid.h)
        errs.append((lhs - rhs).linf())
    assert 1.5 < fit_order(hs, errs) < 2.6


# ---------------------------------------------------------------------------
# Jacobi-Lie bracket
# ---------------------------------------------------------------------------

def test_bracket_of_field_with_itself_vanishes():
    geo = torus(16)
    u = random_vector(geo.grid, seed=41)
    b = ca.jacobi_lie_bracket(geo.metric, u, u, form="coordinate")
    assert b.linf() == 0.0


def test_bracket_covariant_equals_coordinate():
    geo = channel(20)
    u = random_vector(geo.grid, seed=42)
    v = random_vector(geo.grid, seed=43)
    a = ca.jacobi_lie_bracket(geo.metric, u, v, form="covariant")
    b = ca.jacobi_lie_bracket(geo.metric, u, v, form="coordinate")
    assert (a - b).linf() < 1e-12 * max(b.linf(), 1.0)


def test_bracket_antisymmetry_exact():
    geo = torus(16)
    u = random_vector(geo.grid, seed=44)
    v = random_vector(geo.grid, seed=45)
    a = ca.jacobi_lie_bracket(geo.metric, u, v, form="coordinate")
    b = ca.jacobi_lie_bracket(geo.metric, v, u, form="coordinate")
    assert np.array_equal(a.c1.data, -b.c1.data)
    assert np.array_equal(a.c2.data, -b.c2.data)


def test_bracket_jacobi_identity_converges():
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n, phi_flat)
        m = geo.metric
        u = random_vector(geo.grid, seed=46, kmax=2)
        v = random_vector(geo.grid, seed=47, kmax=2)
        w = random_vector(geo.grid, seed=48, kmax=2)
        jac = (ca.jacobi_lie_bracket(m, u, ca.jacobi_lie_bracket(m, v, w))
               + ca.jacobi_lie_bracket(m, v, ca.jacobi_lie_bracket(m, w, u))
               + ca.jacobi_lie_bracket(m, w, ca.jacobi_lie_bracket(m, u, v)))
        hs.append(geo.grid.h)
        errs.append(jac.linf())
    assert 1.5 < fit_order(hs, errs) < 2.6


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_inner0_positive_definite():
    geo = channel(16)
    u = random_vector(geo.grid, seed=51)
    assert ca.inner0(geo.metric, u, u) > 0
    assert ca.inner0(geo.metric, VectorField.zeros(geo.grid),
                     VectorField.zeros(geo.grid)) == 0.0


def test_inner_products_flat_eigenfield_analytic():
    geo = torus(32, phi_flat)
    g = geo.grid
    u = eigen_u(g)
    v0 = ca.inner0(geo.metric, u, u)
    assert abs(v0 - 0.5) < 1e-13
    assert abs(ca.inner1(geo.metric, 0.0, u, u) - 0.5) < 1e-13
    s = sigma(2 * np.pi, g.hy)
    v1 = ca.inner1(geo.metric, 1.0, u, u)
    assert abs(v1 - (0.5 + 0.5 * s * s)) < 1e-12
    assert abs(v1 - (0.5 + 2 * np.pi ** 2)) < 0.3


# ---------------------------------------------------------------------------
# curvature contractions and scalar potentials
# ---------------------------------------------------------------------------

def test_curvature_contractions_flat_all_zero():
    geo = channel(16, phi_flat)
    u = random_vector(geo.grid, seed=61)
    v = random_vector(geo.grid, seed=62)
    cc = ca.curvature_contractions(geo.metric, u, v)
    for fld in (cc.div_r, cc.r_grad, cc.r_swap, cc.ric_rate, cc.ric_v):
        assert fld.linf() == 0.0


def test_curvature_contractions_linear_in_v():
    geo = torus(20)
    u = random_vector(geo.grid, seed=63)
    v = random_vector(geo.grid, seed=64)
    a = ca.curvature_contractions(geo.metric, u, v * 2.0)
    b = ca.curvature_contractions(geo.metric, u, v)
    for x, y in ((a.div_r, b.div_r), (a.r_grad, b.r_grad), (a.r_swap, b.r_swap),
                 (a.ric_rate, b.ric_rate), (a.ric_v, b.ric_v)):
        assert (x - y * 2.0).linf() < 1e-12 * max(x.linf(), 1e-10)


def test_curvature_traces_match_frame_loop_oracle():
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n)
        u = random_vector(geo.grid, seed=65, kmax=2)
        v = random_vector(geo.grid, seed=66, kmax=2)
        cc = ca.curvature_contractions(geo.metric, u, v)
        div_r_o, r_grad_o = curvature_traces_frame_loop(geo.metric, u, v)
        err = max((cc.div_r - div_r_o).linf(), (cc.r_grad - r_grad_o).linf())
        hs.append(geo.grid.h)
        errs.append(err)
    assert 1.5 < fit_order(hs, errs) < 2.6


def test_grad_square_decomposition_of_transported_laplacian():
    # grad(u)^t . Lap_r u  ==  Div(grad u^t grad u) - Tr R(u, grad_. u).
    #                          + grad(u)^t Ric u - (1/2) grad Tr g(grad_. u, grad_. u)
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n)
        m = geo.metric
        u = random_vector(geo.grid, seed=67, kmax=2)
        du = ca.covariant_derivative(m, u)
        dut = ca.transpose_metric(m, du)
        lhs = dut.apply(ca.ricci_laplacian(m, u))
        cc = ca.curvature_contractions(m, u, u)
        frob = ca.gbar_pair(m, du, du)
        rhs = (ca.div_11(m, dut.matmul(du)) - cc.r_swap
               + dut.apply(cc.ric_v) - ca.gradient(m, frob) * 0.5)
        hs.append(geo.grid.h)
        errs.append((lhs - rhs).linf())
    assert 1.5 < fit_order(hs, errs) < 2.6


def test_F_scalar_flat_eigenfield_analytic():
    geo = torus(32, phi_flat)
    g = geo.grid
    u = eigen_u(g)
    s = sigma(2 * np.pi, g.hy)
    F = ca.F_scalar(geo.metric, u)
    expected = 0.5 * (s * np.cos(2 * np.pi * g.Y)) ** 2
    assert np.max(np.abs(F.data - expected)) < 1e-11
    cont = 0.5 * (2 * np.pi * np.cos(2 * np.pi * g.Y)) ** 2
    assert np.max(np.abs(F.data - cont)) < 0.5


def test_F_of_zero_and_G_polarization_algebra():
    geo = channel(16)
    m = geo.metric
    z = VectorField.zeros(geo.grid)
    u = random_vector(geo.grid, seed=71)
    v = random_vector(geo.grid, seed=72)
    assert ca.F_scalar(m, z).linf() == 0.0
    assert ca.G_scalar(m, u, z).linf() < 1e-13 * max(ca.F_scalar(m, u).linf(), 1.0)
    guv = ca.G_scalar(m, u, v)
    gvu = ca.G_scalar(m, v, u)
    assert np.max(np.abs(guv.data - gvu.data)) < 1e-12 * max(np.max(np.abs(guv.data)), 1.0)
    guu = ca.G_scalar(m, u, u)
    assert np.max(np.abs(guu.data - 2 * ca.F_scalar(m, u).data)) \
        < 1e-12 * max(np.max(np.abs(guu.data)), 1.0)


# ---------------------------------------------------------------------------
# integration by parts with the boundary term
# ---------------------------------------------------------------------------

def wall_boundary_integral(geo, u, v):
    """Integral over both walls of g((grad_n u)^tan + S_n(u), v) d(mu_boundary)."""
    m = geo.metric
    total = 0.0
    du = ca.covariant_derivative(m, u)
    for w in geo.boundary.walls:
        j = w.j
        emphi = np.exp(-m.phi[:, j])
        # grad_n u with n = sign e^{-phi} d_y: components n^j (grad u)^i_j
        gnu1 = w.normal_sign * emphi * du[0, 1].data[:, j]
        s_term = w.s_weingarten * u.c1.data[:, j]
        e2 = m.e2phi[:, j]
        integrand = e2 * (gnu1 + s_term) * v.c1.data[:, j]
        total += float(np.sum(w.mu_weights * integrand))
    return total


def test_def_integration_by_parts_with_boundary_term():
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = channel(n)
        m = geo.metric
        u = random_vector(geo.grid, seed=81, kmax=1)
        v = random_vector(geo.grid, seed=82, kmax=1)
        lhs = -2.0 * ca.inner0_tensor(m, ca.def_tensor(m, u), ca.def_tensor(m, v))
        rhs = ca.inner0(m, ca.l_operator(m, u), v) - wall_boundary_integral(geo, u, v)
        hs.append(geo.grid.h)
        errs.append(abs(lhs - rhs))
    assert 1.5 < fit_order(hs, errs) < 2.8


def test_def_integration_by_parts_torus_no_boundary():
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n)
        m = geo.metric
        u = random_vector(geo.grid, seed=83, kmax=2)
        v = random_vector(geo.grid, seed=84, kmax=2)
        lhs = -2.0 * ca.inner0_tensor(m, ca.def_tensor(m, u), ca.def_tensor(m, v))
        rhs = ca.inner0(m, ca.l_operator(m, u), v)
        hs.append(geo.grid.h)
        errs.append(abs(lhs - rhs))
    assert 1.5 < fit_order(hs, errs) < 2.8


def test_h1_pairing_equals_l2_of_helmholtz_operator_torus():
    # <u,v>_1 = <(1 - a^2 Lop) u, v>_0; exact on the flat torus, O(h^2) curved
    alpha = 0.35
    geo = build_geometry(TORUS, 24, 24, phi_flat)
    m = geo.metric
    u = random_vector(geo.grid, seed=85, kmax=2)
    v = random_vector(geo.grid, seed=86, kmax=2)
    lhs = ca.inner1(m, alpha, u, v)
    rhs = ca.inner0(m, u - ca.l_operator(m, u) * alpha**2, v)
    assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), 1.0)

    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n)
        m = geo.metric
        u = random_vector(geo.grid, seed=87, kmax=2)
        v = random_vector(geo.grid, seed=88, kmax=2)
        lhs = ca.inner1(m, alpha, u, v)
        rhs = ca.inner0(m, u - ca.l_operator(m, u) * alpha**2, v)
        hs.append(geo.grid.h)
        errs.append(abs(lhs - rhs))
    assert 1.5 < fit_order(hs, errs) < 2.8
