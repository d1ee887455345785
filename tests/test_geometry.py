import numpy as np
import pytest

from laealab.geometry import DomainSpec, build_geometry, weingarten_apply
from laealab.fields import VectorField
from laealab.orders import fit_order
from laealab.reference import christoffels_from_metric, gaussian_curvature_o4
from laealab.samples import (make_phi_cosx_siny, make_phi_sinusoidal, phi_flat)

TORUS = DomainSpec("torus", 1.0, 1.0)
CHANNEL = DomainSpec("channel", 1.0, 1.0,
                     wall_roles={"y0": "dirichlet", "yL": "neumann"})


def test_flat_torus_curvature_and_christoffels_exactly_zero():
    geo = build_geometry(TORUS, 16, 16, phi_flat)
    assert not geo.metric.gamma.any()
    assert not geo.metric.K.any()
    g11, g12, g21, g22 = geo.metric.metric_tensor()
    assert np.array_equal(g11, np.ones((16, 16)))
    assert not g12.any() and not g21.any()


def test_flat_channel_straight_walls_have_zero_shape_operator():
    geo = build_geometry(CHANNEL, 16, 17, phi_flat)
    for w in geo.boundary.walls:
        assert not w.s_weingarten.any()
    u = VectorField.from_arrays(geo.grid, np.ones((16, 17)), np.zeros((16, 17)))
    vals = weingarten_apply(geo.boundary, u)
    assert not vals["y0"].any() and not vals["yL"].any()


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
        geo = build_geometry(CHANNEL, n, ny, phi)
        g, m = geo.grid, geo.metric
        u = VectorField.from_arrays(g, np.cos(2 * np.pi * g.X), np.zeros((n, ny)))
        got = weingarten_apply(geo.boundary, u)
        worst = 0.0
        for w in geo.boundary.walls:
            emphi = np.exp(-m.phi[:, w.j])
            n2 = w.normal_sign * emphi
            # -grad_u n, tangential component, via nodal Christoffels
            dn2 = (g.DX @ np.broadcast_to(
                (w.normal_sign * np.exp(-m.phi))[:, :], m.phi.shape).ravel()
            ).reshape(m.phi.shape)[:, w.j]
            oracle1 = -(u.c1.data[:, w.j] * (m.gamma[0, 0, 1][:, w.j] * n2))
            oracle2 = -(u.c1.data[:, w.j] * (dn2 + m.gamma[1, 0, 1][:, w.j] * n2))
            worst = max(worst, np.max(np.abs(got[w.name][0] - oracle1)))
            worst = max(worst, np.max(np.abs(oracle2)))  # shape operator is tangent
        hs.append(g.h)
        errs.append(max(worst, 1e-16))
    # tangential part agrees to round-off, normal defect converges away
    assert errs[-1] < 1e-3
    assert fit_order(hs, errs) > 1.5


def test_weingarten_rejects_non_tangent_fields():
    geo = build_geometry(CHANNEL, 16, 17, phi_flat)
    u = VectorField.from_arrays(geo.grid, np.zeros((16, 17)), np.ones((16, 17)))
    with pytest.raises(ValueError):
        weingarten_apply(geo.boundary, u)


def test_zero_field_maps_to_zero():
    geo = build_geometry(CHANNEL, 16, 17, make_phi_cosx_siny(0.2, 1, 1.0, 1.0))
    u = VectorField.zeros(geo.grid)
    vals = weingarten_apply(geo.boundary, u)
    assert not vals["y0"].any() and not vals["yL"].any()


def test_torus_rejects_nonperiodic_phi():
    with pytest.raises(ValueError):
        build_geometry(TORUS, 16, 16, lambda X, Y: 0.1 * X)


def test_geometry_is_deterministic():
    phi = make_phi_sinusoidal(0.1, 1, 2, 1.0, 1.0)
    a = build_geometry(TORUS, 16, 16, phi)
    b = build_geometry(TORUS, 16, 16, phi)
    assert np.array_equal(a.metric.gamma, b.metric.gamma)
    assert np.array_equal(a.metric.K, b.metric.K)


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
    assert len({a, b, CHANNEL, TORUS, DomainSpec("torus", 1.0, 1.0)}) == 2
