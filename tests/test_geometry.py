import numpy as np
import pytest
import scipy.sparse as sp

from laealab.geometry import DomainSpec, build_geometry
from laealab.grid import Grid, matvec_last
from laealab.orders import fit_order
from laealab.reference import christoffels_from_metric, gaussian_curvature_o4
from laealab.samples import make_phi_sinusoidal, phi_flat

from domains import MIXED, TORUS


def test_flat_torus_curvature_and_christoffels_exactly_zero():
    geo = build_geometry(TORUS, 16, 16, phi_flat)
    assert not geo.metric.gamma.any()
    assert not geo.metric.K.any()
    assert np.array_equal(geo.metric.e2phi, np.ones((16, 16)))   # g = e^{2 phi} flat
    assert geo.walls == ()


def test_flat_channel_straight_walls_have_zero_shape_operator():
    geo = build_geometry(MIXED, 16, 17, phi_flat)
    assert [(w.name, w.j) for w in geo.walls] == [("y0", 0), ("yL", 16)]
    for w in geo.walls:
        assert not w.s_weingarten.any()


def test_curvature_matches_high_order_oracle_at_second_order():
    errs, hs = [], []
    for n in (16, 32, 64):
        geo = build_geometry(TORUS, n, n, make_phi_sinusoidal(0.1, 1, 1, 1.0, 1.0))
        err = np.max(np.abs(geo.metric.K - gaussian_curvature_o4(geo.metric)))
        errs.append(err)
        hs.append(geo.grid.h)
    assert 1.6 < fit_order(hs, errs) < 2.4


def test_christoffel_closed_form_vs_metric_differences():
    errs, hs = [], []
    for n in (16, 32, 64):
        geo = build_geometry(TORUS, n, n, make_phi_sinusoidal(0.2, 1, 1, 1.0, 1.0))
        err = np.max(np.abs(geo.metric.gamma - christoffels_from_metric(geo.metric)))
        errs.append(err)
        hs.append(geo.grid.h)
    assert 1.6 < fit_order(hs, errs) < 2.4


@pytest.mark.parametrize("spec,ny", [(TORUS, 24), (MIXED, 25)], ids=["torus", "channel"])
def test_christoffels_equal_their_closed_form_exactly(spec, ny):
    # Gamma^k_ij = phi_i delta^k_j + phi_j delta^k_i - delta_ij phi^k
    m = build_geometry(spec, 24, ny, make_phi_sinusoidal(0.2, 1, 1, 1.0, 1.0)).metric
    d = (m.phix, m.phiy)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                want = (k == j) * d[i] + (k == i) * d[j] - (i == j) * d[k]
                assert np.array_equal(m.gamma[k, i, j], want)


def test_gauss_bonnet_torus_flux_vanishes():
    geo = build_geometry(TORUS, 24, 24, make_phi_sinusoidal(0.15, 2, 1, 1.0, 1.0))
    total = np.sum(geo.grid.weights * geo.metric.K * geo.metric.e2phi)
    assert abs(total) < 1e-12


def test_weingarten_matches_covariant_derivative_of_normal():
    def phi(X, Y):
        return 0.2 * np.cos(2 * np.pi * X) * (np.cos(np.pi * Y) + np.sin(np.pi * Y))

    hs, errs = [], []
    for n in (16, 32, 64):
        ny = n + 1
        geo = build_geometry(MIXED, n, ny, phi)
        g, m = geo.grid, geo.metric
        u1 = np.cos(2 * np.pi * g.X)
        worst = 0.0
        for w in geo.walls:
            # the outward unit normal n^y d_y from the wall's side and e^{-phi}
            ny_field = (-1.0 if w.name == "y0" else 1.0) * np.exp(-m.phi)
            n2 = ny_field[:, w.j]
            # -grad_u n, tangential component, via nodal Christoffels
            dn2 = (g.DX @ ny_field.ravel()).reshape(m.phi.shape)[:, w.j]
            oracle1 = -(u1[:, w.j] * (m.gamma[0, 0, 1][:, w.j] * n2))
            oracle2 = -(u1[:, w.j] * (dn2 + m.gamma[1, 0, 1][:, w.j] * n2))
            worst = max(worst, np.max(np.abs(w.s_weingarten * u1[:, w.j] - oracle1)))
            worst = max(worst, np.max(np.abs(oracle2)))  # shape operator is tangent
        hs.append(g.h)
        errs.append(max(worst, 1e-16))
    # tangential part agrees to round-off, normal defect converges away
    assert errs[-1] < 1e-3
    assert fit_order(hs, errs) > 1.5


def test_fold_wraps_periodic_axes_and_clips_channel_walls():
    torus = Grid(8, 8, 2.0, 1.0, periodic_y=True)
    channel = Grid(8, 9, 2.0, 1.0, periodic_y=False)
    qx, qy = np.array([-0.5, 2.5, 1.0]), np.array([-0.25, 1.5, 0.5])
    fx, fy = torus.fold(qx, qy)
    assert np.array_equal(fx, [1.5, 0.5, 1.0]) and np.array_equal(fy, [0.75, 0.5, 0.5])
    fx, fy = channel.fold(qx, qy)
    assert np.array_equal(fx, [1.5, 0.5, 1.0]) and np.array_equal(fy, [0.0, 1.0, 0.5])
    for g in (torus, channel):         # positions in the chart come back bit for bit
        fx, fy = g.fold(g.X + 0.3 * g.hx, g.Y)
        assert np.array_equal(fx, g.X + 0.3 * g.hx) and np.array_equal(fy, g.Y)


def test_torus_rejects_nonperiodic_phi():
    with pytest.raises(ValueError):
        build_geometry(TORUS, 16, 16, lambda X, Y: 0.1 * X)


def test_geometry_is_deterministic():
    phi = make_phi_sinusoidal(0.1, 1, 2, 1.0, 1.0)
    a = build_geometry(TORUS, 16, 16, phi)
    b = build_geometry(TORUS, 16, 16, phi)
    assert np.array_equal(a.metric.gamma, b.metric.gamma)
    assert np.array_equal(a.metric.K, b.metric.K)


def test_matvec_last_takes_an_empty_last_axis():
    # a regime with no wall rows applies its empty R and R^T to batches
    R = sp.csr_matrix((0, 10))
    assert matvec_last(R, np.ones((3, 10))).shape == (3, 0)
    out = matvec_last(R.T.tocsr(), np.ones((3, 0)))
    assert out.shape == (3, 10) and not out.any()


def test_small_grids_rejected():
    with pytest.raises(ValueError):
        build_geometry(TORUS, 4, 16, phi_flat)


def test_channel_needs_wall_roles():
    with pytest.raises(ValueError):
        DomainSpec("channel", 1.0, 1.0)


def test_domain_spec_is_hashable_and_keeps_its_roles():
    roles = {"yL": "neumann", "y0": "dirichlet"}
    a = DomainSpec("channel", 1.0, 1.0, wall_roles=roles)
    b = DomainSpec("channel", 1.0, 1.0,
                   wall_roles={"y0": "dirichlet", "yL": "neumann"})
    roles["yL"] = "dirichlet"          # the spec holds its own copy
    assert a == b and hash(a) == hash(b)
    assert a.wall_roles == {"y0": "dirichlet", "yL": "neumann"}
    assert len({a, b, MIXED, TORUS, DomainSpec("torus", 1.0, 1.0)}) == 2
