import numpy as np
import pytest
import scipy.sparse as sp

from laealab import calculus as ca
from laealab import dynamics as dy
from laealab import elliptic as el
from laealab.elliptic import (BcRegime, EllipticOperator, SolveError,
                              StokesProjector, l_alpha)
from laealab.fields import ScalarField, VectorField
from laealab.geometry import build_geometry
from laealab.orders import fit_order
from laealab.reference import leray_fft
from laealab.samples import eigenfield, phi_flat, random_scalar, random_vector

from domains import DIRICH, MIXED, NEUMANN, PHI_C, PHI_T, REGIMES, TORUS, channel, torus


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_alpha_zero_is_identity():
    geo = torus(16)
    op = EllipticOperator(geo, 0.0)
    u = random_vector(geo.grid, seed=1)
    assert (op.apply(u) - u).linf() == 0.0


@pytest.mark.parametrize("make_geo", [torus, channel], ids=["torus", "mixed"])
def test_alpha_zero_assembles_the_identity_and_the_mass_matrix(make_geo):
    # alpha is only a coefficient: at a = 0 the general assembly is the
    # identity and the mass matrix in structure and data, since sparse
    # addition drops the zeros of 0 * L
    geo = make_geo(24)
    m = geo.metric
    q0 = (m.quad_mu() * m.e2phi).ravel()
    identity = sp.identity(2 * geo.grid.n_nodes, format="csr")
    mass = sp.block_diag([sp.diags(q0), sp.diags(q0)]).tocsr()
    pairs = ((EllipticOperator(geo, 0.0).interior, identity), (el._assemble_gram(geo, 0.0), mass))
    for got, want in pairs:
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def test_apply_flat_eigenfield_symbol():
    geo = torus(32, phi_flat)
    g = geo.grid
    op = EllipticOperator(geo, 0.4)
    u = eigenfield(g)
    s = np.sin(2 * np.pi * g.hy) / g.hy
    got = op.apply(u)
    want = (1 + 0.4**2 * s * s)
    assert np.max(np.abs(got.c1.data - want * u.c1.data)) < 1e-11
    assert np.max(np.abs(got.c1.data - (1 + 0.4**2 * 4 * np.pi**2) * u.c1.data)) < 0.1


def test_apply_linearity():
    geo = channel(16)
    op = EllipticOperator(geo, 0.3)
    u = random_vector(geo.grid, seed=2)
    v = random_vector(geo.grid, seed=3)
    lin = op.apply(u * 2.0 - v * 0.5)
    ref = op.apply(u) * 2.0 - op.apply(v) * 0.5
    assert (lin - ref).linf() < 1e-11 * max(ref.linf(), 1.0)


def test_assembled_matrix_matches_pointwise_apply():
    # apply() is the assembled interior; the pointwise operator is its oracle
    geo = channel(20)
    op = EllipticOperator(geo, 0.27)
    u = random_vector(geo.grid, seed=4)
    pointwise = u - ca.l_operator(geo.metric, u) * 0.27**2
    via_mat = op.apply(u)
    assert (via_mat - pointwise).linf() < 1e-13 * max(pointwise.linf(), 1.0)
    v = random_vector(geo.grid, seed=5)
    batch = op.apply(VectorField.from_flat(geo.grid, np.stack([u.flat(), v.flat()])))
    assert np.array_equal(batch.flat(), np.stack([via_mat.flat(), op.apply(v).flat()]))


@pytest.mark.parametrize("geo,spec", [(torus(12), TORUS), (channel(12), MIXED)],
                         ids=["torus", "mixed"])
def test_assembled_divergence_and_gradient_match_pointwise(geo, spec):
    # the regime's record's D is the divergence, and the saddle's G the
    # gradient off the wall rows idx and zero on them
    g, m = geo.grid, geo.metric
    con = el._constraints(geo, BcRegime.from_domain(spec))
    u, p = random_vector(g, seed=5), random_scalar(g, seed=6)
    div = ca.divergence(m, u).data
    via_mat = (con.D @ u.flat()).reshape(g.shape)
    assert np.max(np.abs(via_mat - div)) < 1e-13 * np.max(np.abs(div))
    grad = ca.gradient(m, ScalarField(g, p)).flat()
    via_mat = el._assemble_gradient(geo, con.idx) @ p.ravel()
    rest = np.setdiff1d(np.arange(2 * g.n_nodes), con.idx)
    assert not via_mat[con.idx].any()
    assert np.max(np.abs(via_mat[rest] - grad[rest])) < 1e-13 * np.max(np.abs(grad))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_zero_gives_zero():
    geo = channel(16)
    op = EllipticOperator(geo, 0.3)
    bc = BcRegime.from_domain(MIXED)
    u = op.solve(VectorField.zeros(geo.grid), bc)
    assert u.linf() < 1e-14


def test_solve_flat_torus_eigenfield():
    geo = torus(32, phi_flat)
    g = geo.grid
    op = EllipticOperator(geo, 0.4)
    bc = BcRegime.from_domain(TORUS)
    s = np.sin(2 * np.pi * g.hy) / g.hy
    f = eigenfield(g) * (1 + 0.4**2 * s * s)
    u = op.solve(f, bc)
    assert (u - eigenfield(g)).linf() < 1e-10


def wall_profile(cond0: str, condL: str, y: np.ndarray) -> np.ndarray:
    """Cubic/quartic profiles honoring value/slope wall conditions, with
    nonvanishing third derivative at the walls (no superconvergence)."""
    key = (cond0, condL)
    if key == ("dirichlet", "dirichlet"):
        return y * (1 - y) * (y + 2) / 2
    if key == ("dirichlet", "neumann"):
        return 3 * y**2 - 2 * y**3
    if key == ("neumann", "dirichlet"):
        return 1 - 3 * y**2 + 2 * y**3
    return y**2 * (1 - y) ** 2


@pytest.mark.parametrize("spec", [MIXED, DIRICH, NEUMANN])
def test_manufactured_solution_second_order(spec):
    bc = BcRegime.from_domain(spec)
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = channel(n, spec)
        g = geo.grid
        q = wall_profile(spec.wall_roles["y0"], spec.wall_roles["yL"], g.Y)
        r = g.Y * (1 - g.Y) * (g.Y + 2) / 2
        ustar = VectorField.from_arrays(
            g, np.sin(2 * np.pi * g.X) * q, 0.7 * np.cos(2 * np.pi * g.X) * r)
        op = EllipticOperator(geo, 0.3)
        f = op.apply(ustar)
        u = op.solve(f, bc)
        hs.append(g.h)
        errs.append((u - ustar).linf() / ustar.linf())
    if bc.variant == "dirichlet":
        # value-interpolation rows are met exactly, so the discrete round
        # trip reproduces u* to factorization round-off
        assert errs[-1] < 1e-10
    else:
        assert 1.5 < fit_order(hs, errs) < 2.6, (errs, fit_order(hs, errs))


def test_roundtrip_solve_after_apply_on_subspace_fields():
    geo = channel(24)
    bc = BcRegime.from_domain(MIXED)
    op = EllipticOperator(geo, 0.35)
    w = random_vector(geo.grid, seed=5)
    u = l_alpha(op, w, bc)         # now BC-satisfying
    u2 = op.solve(op.apply(u), bc)
    assert (u2 - u).linf() < 1e-10 * max(u.linf(), 1.0)


def test_roundtrip_apply_after_solve_interior():
    geo = channel(24)
    bc = BcRegime.from_domain(MIXED)
    op = EllipticOperator(geo, 0.35)
    f = random_vector(geo.grid, seed=6)
    u = op.solve(f, bc)
    g = op.apply(u)
    interior = np.ones((geo.grid.nx, geo.grid.ny), dtype=bool)
    interior[:, 0] = interior[:, -1] = False
    err = max(np.max(np.abs((g.c1.data - f.c1.data)[interior])),
              np.max(np.abs((g.c2.data - f.c2.data)[interior])))
    assert err < 1e-10 * max(f.linf(), 1.0)


def test_solve_output_satisfies_bc_rows_exactly():
    geo = channel(16)
    bc = BcRegime.from_domain(MIXED)
    op = EllipticOperator(geo, 0.3)
    u = op.solve(random_vector(geo.grid, seed=7), bc)
    # dirichlet wall y0: both components vanish
    assert np.max(np.abs(u.c1.data[:, 0])) < 1e-12
    assert np.max(np.abs(u.c2.data[:, 0])) < 1e-12
    # neumann wall yL: tangency
    assert np.max(np.abs(u.c2.data[:, -1])) < 1e-12


# ---------------------------------------------------------------------------
# L^alpha composite
# ---------------------------------------------------------------------------

def test_l_alpha_identity_on_torus():
    geo = torus(20)
    bc = BcRegime.from_domain(TORUS)
    op = EllipticOperator(geo, 0.3)
    v = random_vector(geo.grid, seed=8)
    assert (l_alpha(op, v, bc) - v).linf() < 1e-9 * max(v.linf(), 1.0)


def test_l_alpha_fixed_point_and_idempotence():
    geo = channel(20)
    bc = BcRegime.from_domain(MIXED)
    op = EllipticOperator(geo, 0.3)
    v = random_vector(geo.grid, seed=9)
    lv = l_alpha(op, v, bc)
    assert (l_alpha(op, lv, bc) - lv).linf() < 1e-9 * max(lv.linf(), 1.0)
    # a field violating the neumann row is moved
    raw = random_vector(geo.grid, seed=10)
    assert (l_alpha(op, raw, bc) - raw).linf() > 1e-3 * raw.linf()


# ---------------------------------------------------------------------------
# Stokes projector
# ---------------------------------------------------------------------------

def projector(geo, spec, alpha):
    bc = BcRegime.from_domain(spec)
    op = EllipticOperator(geo, alpha)
    return StokesProjector(op, bc), op, bc


def test_projection_fixes_divergence_free_subspace_fields():
    geo = channel(20)
    sp_, op, bc = projector(geo, MIXED, 0.3)
    v = sp_.project(l_alpha(op, random_vector(geo.grid, seed=11), bc))
    again = sp_.project(v)
    assert (again - v).linf() < 1e-8 * max(v.linf(), 1.0)


def test_projection_annihilates_gradient_summand():
    geo = channel(20)
    sp_, op, bc = projector(geo, MIXED, 0.3)
    q = random_scalar(geo.grid, seed=12)
    q = q - np.sum(geo.metric.quad_mu() * q) / np.sum(geo.metric.quad_mu())
    gq = ca.gradient(geo.metric, ScalarField(geo.grid, q))
    v = op.solve(gq, bc)
    pv = sp_.project(v)
    assert pv.linf() < 1e-8 * max(v.linf(), 1e-300)


def test_projection_divergence_small_independent_of_h():
    for n in (16, 32):
        geo = channel(n)
        sp_, op, bc = projector(geo, MIXED, 0.3)
        v = l_alpha(op, random_vector(geo.grid, seed=13), bc)
        pv = sp_.project(v)
        div = ca.divergence(geo.metric, pv).linf()
        assert div < 1e-9 * max(pv.linf(), 1.0)


def test_projection_idempotent_all_regimes():
    for spec in (MIXED, DIRICH, NEUMANN):
        geo = channel(16, spec)
        sp_, op, bc = projector(geo, spec, 0.3)
        v = l_alpha(op, random_vector(geo.grid, seed=14), bc)
        p1 = sp_.project(v)
        p2 = sp_.project(p1)
        assert (p2 - p1).linf() < 1e-8 * max(p1.linf(), 1.0)
    geo = torus(16)
    sp_, op, bc = projector(geo, TORUS, 0.3)
    v = random_vector(geo.grid, seed=15)
    p1 = sp_.project(v)
    p2 = sp_.project(p1)
    assert (p2 - p1).linf() < 1e-8 * max(p1.linf(), 1.0)


WALLED = [(MIXED, "mixed"), (DIRICH, "dirichlet"), (NEUMANN, "neumann")]


@pytest.mark.parametrize("spec,alpha", [pytest.param(s, 0.3, id=i) for s, i in WALLED]
                         + [pytest.param(s, 0.0, id=f"{i}-alpha0") for s, i in WALLED])
def test_projection_lands_in_the_phase_space_for_every_input(spec, alpha):
    # a raw w violates the BC rows R; P w satisfies them and the divergence,
    # C = [D; R], and P P = P, at every alpha
    for n in (16, 32):
        geo = channel(n, spec)
        sp_, _, _ = projector(geo, spec, alpha)
        assert sp_.constraints.shape[0] == geo.grid.n_nodes + sp_.bc_idx.size
        w = random_vector(geo.grid, seed=16, kmax=2)
        pw = sp_.project(w)
        R = el._constraints(geo, sp_.bc).R
        assert np.linalg.norm(R @ w.flat()) > 1e-3 * np.linalg.norm(w.flat())
        assert np.linalg.norm(sp_.constraints @ pw.flat()) <= 1e-12 * np.linalg.norm(pw.flat())
        assert (sp_.project(pw) - pw).linf() <= 1e-12 * pw.linf()


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("spec", [TORUS, MIXED, DIRICH, NEUMANN],
                         ids=["torus", "mixed", "dirichlet", "neumann"])
def test_projection_with_a_source_matches_the_composed_oracle(spec, alpha):
    # project(v, f) = P(v + (1 - a^2 Lop)^{-1} f) from one solve,
    # against the elliptic solve followed by P
    geo = torus(16) if spec is TORUS else channel(16, spec)
    sp_, op, bc = projector(geo, spec, alpha)
    grid = geo.grid
    vs = [random_vector(grid, seed=40 + k, kmax=2) for k in range(3)]
    fs = [random_vector(grid, seed=50 + k, kmax=2) for k in range(3)]
    singles = [sp_.project(v, f) for v, f in zip(vs, fs)]
    for got, v, f in zip(singles, vs, fs):
        oracle = sp_.project(v + op.solve(f, bc))
        assert (got - oracle).linf() <= 1e-10 * oracle.linf()
        only = sp_.project(None, f)
        oracle = sp_.project(op.solve(f, bc))
        assert (only - oracle).linf() <= 1e-10 * oracle.linf()

    def batch(fields):
        return VectorField.from_arrays(grid, np.stack([x.c1.data for x in fields]),
                                       np.stack([x.c2.data for x in fields]))

    batched = sp_.project(batch(vs), batch(fs))
    for k, single in enumerate(singles):        # each member gets its own bits
        assert np.array_equal(batched.c1.data[k], single.c1.data)
        assert np.array_equal(batched.c2.data[k], single.c2.data)

    # the transposed solve, in v and in f, by the dot-product identity, each
    # cotangent against its own pairing: the two halves can cancel in the sum
    v, f, z = batch(vs), batch(fs), batch([random_vector(grid, seed=60 + k, kmax=2)
                                            for k in range(3)])
    zv, zf = sp_.project_transpose(z)

    def pair(a, b):
        return np.sum(a.flat() * b.flat(), axis=-1)

    for lhs, rhs in ((pair(z, sp_.project(v)), pair(zv, v)),
                     (pair(z, sp_.project(None, f)), pair(zf, f))):
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(lhs)), (lhs, rhs)

    # and component by component against the dense transpose of project()
    unit = VectorField.from_flat(grid, np.eye(2 * grid.n_nodes))
    for got, dense in ((zv, sp_.project(unit)), (zf, sp_.project(None, unit))):
        want = z.flat() @ dense.flat().T
        assert np.abs(got.flat() - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# every regime projects on the stream function; its bordered saddle, built
# explicitly, is the oracle
# ---------------------------------------------------------------------------

def _relative(got, ref):
    """Largest relative difference over the members along the last axis."""
    return np.max(np.linalg.norm(got - ref, axis=-1) / np.linalg.norm(ref, axis=-1))


def _matches_the_bordered_saddle(geo, spec, alpha):
    """The projector's dim, once project (v, f, both, and batches),
    project_transpose and riesz_representer have matched the explicit
    saddles' to 1e-10."""
    bc, grid = BcRegime.from_domain(spec), geo.grid
    op = EllipticOperator(geo, alpha)
    sp_ = StokesProjector(op, bc)
    con = el._constraints(geo, bc)
    saddle = el._Saddle(el._stokes_saddle(op, bc), con)

    def batch(seed):
        fields = [random_vector(grid, seed=seed + k, kmax=2) for k in range(3)]
        return VectorField.from_arrays(grid, np.stack([x.c1.data for x in fields]),
                                       np.stack([x.c2.data for x in fields]))

    v, f, vb, fb = (random_vector(grid, seed=70, kmax=2), random_vector(grid, seed=71, kmax=2),
                    batch(72), batch(75))
    for vv, ff in ((v, None), (None, f), (v, f), (vb, None), (None, fb), (vb, f), (v, fb)):
        got = sp_.project(vv, ff).flat()
        ref = saddle.project(*(None if x is None else x.flat() for x in (vv, ff)))
        assert _relative(got, ref) <= 1e-10
    z = batch(78).flat()
    for got, ref in zip(sp_.project_transpose(VectorField.from_flat(grid, z)),
                        saddle.project_transpose(z)):
        assert _relative(got.flat(), ref) <= 1e-10

    ps = sp_.phase_space()
    riesz = el._Saddle(el._phase_saddle(geo, ps.gram, bc), con)
    d, dim = sp_.riesz_representer(fb)
    assert _relative(d.flat(), riesz.solve(fb.flat(), "riesz saddle")) <= 1e-10
    return sp_, dim


@pytest.mark.parametrize("alpha", [0.3, 0.0])
@pytest.mark.parametrize("phi", [PHI_T, phi_flat], ids=["curved", "flat"])
@pytest.mark.parametrize("nx,ny", [(8, 8), (9, 9), (15, 16), (32, 32)],
                         ids=["8x8", "9x9", "15x16", "32x32"])
def test_torus_projection_matches_the_bordered_saddle(nx, ny, phi, alpha):
    geo = build_geometry(TORUS, nx, ny, phi)
    sp_, dim = _matches_the_bordered_saddle(geo, TORUS, alpha)
    # n + k: the stream function less its k modes, and the 2k mode fields
    k = el._gradient_kernel_modes(geo.grid).shape[1]
    assert dim == sp_.basis.shape[1] - k == geo.grid.n_nodes + k


@pytest.mark.parametrize("alpha", [0.3, 0.0])
@pytest.mark.parametrize("phi", [PHI_C, phi_flat], ids=["curved", "flat"])
@pytest.mark.parametrize("nx,ny", [(8, 9), (9, 10), (15, 16), (32, 33)],
                         ids=["8x9", "9x10", "15x16", "32x33"])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_channel_projection_matches_the_bordered_saddle(regime, nx, ny, phi, alpha):
    # odd nx has no sawtooth mode, so one x-mode per wall and one shear
    spec = REGIMES[regime]
    geo = build_geometry(spec, nx, ny, phi)
    sp_, dim = _matches_the_bordered_saddle(geo, spec, alpha)
    # null(C)'s dimension 2n - (rows of C - k), C's rank deficiency k the
    # gradient-kernel modes: the free stream function and two wall modes
    # per x-mode, the x-modes' shears less the stream function's x-modes
    n, k = geo.grid.n_nodes, el._gradient_kernel_modes(geo.grid).shape[1]
    ks = 2 - nx % 2
    assert dim == 2 * n - (sp_.constraints.shape[0] - k) == sp_.basis.shape[1] - ks
    assert dim == nx * (ny - 4) + 2 * ks


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_torus_projection_is_divergence_free_to_round_off(n, alpha):
    # the basis B is divergence-free by construction, so D P v is round-off
    # of the basis alone (3.7e-14 at 64^2; the saddle gives 1.0e-12)
    geo = torus(n)
    sp_, _, _ = projector(geo, TORUS, alpha)
    v = random_vector(geo.grid, seed=80, kmax=3)
    assert np.abs(sp_.D @ sp_.project(v).flat()).max() <= 1e-12 * v.linf()


def test_dy_cokernel_spans_the_kernel_of_the_wall_closed_dy_transpose():
    # kappa is exact in binary, and the channel's test kernel chi = s kappa
    # rests on it
    for ny in range(8, 14):
        dy1 = build_geometry(MIXED, 8, ny, phi_flat).grid.DY[:ny, :ny].toarray()
        kappa = el._dy_cokernel(ny)
        assert np.abs(dy1.T @ kappa).max() <= 1e-13 * np.abs(dy1).max()
        assert np.linalg.matrix_rank(dy1) == ny - 1


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("alpha", [0.3, 0.0])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_channel_projection_lands_in_null_c_to_round_off(regime, n, alpha):
    # the trial basis B is divergence-free and satisfies the wall rows by
    # construction, so D P v and R P v are round-off of the basis alone
    # (at most 2.3e-13 and 5.4e-13 of |v| at 64x65; the saddle gives up to
    # 5.4e-12 and 6.4e-14 at alpha 0.3)
    spec = REGIMES[regime]
    geo = channel(n, spec)
    sp_, _, _ = projector(geo, spec, alpha)
    v = random_vector(geo.grid, seed=80, kmax=3)
    pv = sp_.project(v).flat()
    assert np.abs(sp_.D @ pv).max() <= 1e-12 * v.linf()
    assert np.abs(el._constraints(geo, sp_.bc).R @ pv).max() <= 1e-12 * v.linf()


def test_h1_orthogonality_flat_torus_solver_level():
    geo = torus(24, phi_flat)
    alpha = 0.3
    sp_, op, bc = projector(geo, TORUS, alpha)
    v = random_vector(geo.grid, seed=16)
    pv = sp_.project(v)
    w = v - pv
    m = geo.metric
    val = abs(ca.inner1(m, alpha, pv, w))
    den = np.sqrt(ca.inner1(m, alpha, pv, pv)) * np.sqrt(ca.inner1(m, alpha, w, w)) + 1e-300
    assert val / den < 1e-8


def test_h1_self_adjointness_flat_torus_solver_level():
    geo = torus(24, phi_flat)
    alpha = 0.3
    sp_, op, bc = projector(geo, TORUS, alpha)
    m = geo.metric
    v = random_vector(geo.grid, seed=17)
    w = random_vector(geo.grid, seed=18)
    pv = sp_.project(v)
    pw = sp_.project(w)
    a = ca.inner1(m, alpha, pv, w)
    b = ca.inner1(m, alpha, v, pw)
    assert abs(a - b) / (abs(a) + abs(b) + 1e-300) < 1e-8


def test_h1_orthogonality_defect_converges_on_curved_channel():
    alpha = 0.3
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = channel(n)
        sp_, op, bc = projector(geo, MIXED, alpha)
        v = l_alpha(op, random_vector(geo.grid, seed=19, kmax=1), bc)
        pv = sp_.project(v)
        w = v - pv
        m = geo.metric
        num = abs(ca.inner1(m, alpha, pv, w))
        den = (np.sqrt(ca.inner1(m, alpha, pv, pv))
               * np.sqrt(max(ca.inner1(m, alpha, w, w), 1e-300)) + 1e-300)
        hs.append(geo.grid.h)
        errs.append(num / den + 1e-16)
    assert 1.3 < fit_order(hs, errs) < 3.0, errs


def test_alpha_zero_limit_matches_fft_leray_oracle():
    # On the flat torus, Lop commutes with grad, so the projector is
    # alpha-independent and must match the FFT Leray oracle at solver level
    # for every alpha, the alpha = 0 construction included.
    geo = torus(32, phi_flat)
    v = random_vector(geo.grid, seed=20)
    oracle = leray_fft(geo.grid, v)
    for a in (0.0, 0.05, 0.3):
        spa, opa, _ = projector(geo, TORUS, a)
        assert (spa.project(v) - oracle).linf() \
            < 1e-8 * max(oracle.linf(), 1.0)


def test_alpha_to_zero_quadratic_on_curved_torus():
    geo = torus(24)
    v = random_vector(geo.grid, seed=23)
    sp0, _, _ = projector(geo, TORUS, 0.0)
    base = sp0.project(v)
    alphas = (0.05, 0.025, 0.0125)
    errs = []
    for a in alphas:
        spa, _, _ = projector(geo, TORUS, a)
        errs.append((spa.project(v) - base).linf())
    order = fit_order(alphas, errs)
    assert 1.6 < order < 2.4, (errs, order)


def test_projection_is_continuous_at_alpha_zero_on_a_no_slip_channel():
    # P lands in null([D; R]) at a = 0 as at a > 0, so P_a v -> P_0 v,
    # quadratically in a
    geo = channel(16, DIRICH)
    v = random_vector(geo.grid, seed=3, kmax=1) * 0.5
    base = projector(geo, DIRICH, 0.0)[0].project(v)
    alphas = (0.02, 0.01, 0.005)
    errs = [(projector(geo, DIRICH, a)[0].project(v) - base).linf() / base.linf()
            for a in alphas]
    assert errs[0] > errs[1] > errs[2], errs
    order = fit_order(alphas, errs)
    assert 1.5 <= order <= 2.5, (errs, order)


@pytest.mark.parametrize("spec", [MIXED, DIRICH, NEUMANN], ids=["mixed", "dirichlet", "neumann"])
def test_solve_at_alpha_zero_lands_on_the_bc_subspace(spec):
    # solve takes its general path at alpha = 0 too, so x satisfies the
    # regime's BC rows R as at alpha > 0
    geo = channel(8, spec)
    sp_, op, bc = projector(geo, spec, 0.0)
    x = op.solve(random_vector(geo.grid, seed=24, kmax=2), bc)
    assert np.abs(el._constraints(geo, bc).R @ x.flat()).max() <= 1e-12 * x.linf()


@pytest.mark.parametrize("phi", [PHI_T, phi_flat], ids=["curved", "flat"])
def test_solve_and_project_at_alpha_zero_on_the_torus(phi):
    # on the torus (1 - a^2 Lop) is the identity at alpha = 0: solve returns
    # f bit for bit, and a source joins v
    geo = torus(8, phi)
    sp_, op, bc = projector(geo, TORUS, 0.0)
    v, f = (random_vector(geo.grid, seed=s, kmax=2) for s in (25, 26))
    assert np.array_equal(op.solve(f, bc).flat(), f.flat())
    for got, want in ((sp_.project(v, f), sp_.project(v + f)),
                      (sp_.project(None, f), sp_.project(f))):
        assert (got - want).linf() <= 1e-14 * want.linf()


# ---------------------------------------------------------------------------
# the alpha = 0 projector on the torus
# ---------------------------------------------------------------------------

def test_alpha_zero_torus_projector_kills_pure_gradients():
    geo = torus(24)
    leray, _, _ = projector(geo, TORUS, 0.0)
    q = random_scalar(geo.grid, seed=21)
    gq = ca.gradient(geo.metric, ScalarField(geo.grid, q))
    r = leray.project(gq)
    assert r.linf() < 1e-9 * max(gq.linf(), 1.0)


def test_alpha_zero_torus_projector_preserves_divergence_free_part():
    geo = torus(24, phi_flat)
    u = leray_fft(geo.grid, random_vector(geo.grid, seed=22))
    leray, _, _ = projector(geo, TORUS, 0.0)
    r = leray.project(u)
    assert (r - u).linf() < 1e-8 * max(u.linf(), 1.0)


def test_alpha_zero_torus_projector_fails_loudly_on_a_non_finite_input():
    geo = torus(12, phi_flat)
    w = random_vector(geo.grid, seed=22)
    w.c1.data[3, 5] = np.nan
    leray, _, _ = projector(geo, TORUS, 0.0)
    with pytest.raises(SolveError, match="stokes composite"):
        leray.project(w)


# ---------------------------------------------------------------------------
# regime and geometry must agree on the walls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_geo,bc_spec", ((channel, TORUS), (torus, MIXED)),
                         ids=("torus_regime_on_channel", "mixed_regime_on_torus"))
def test_regime_must_name_the_geometry_walls(make_geo, bc_spec):
    geo = make_geo(12)
    bc = BcRegime.from_domain(bc_spec)
    with pytest.raises(ValueError, match=r"regime .* does not fit a geometry with walls"):
        EllipticOperator(geo, 0.3).matrix(bc)
    with pytest.raises(ValueError, match="does not fit"):
        dy.LaeProblem(geo, dy.SolverConfig(alpha=0.3, dt=5e-3, t_end=0.05, bc=bc))
