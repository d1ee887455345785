import numpy as np
import pytest

from laealab import calculus as ca
from laealab import dynamics as dy
from laealab import material as mt
from laealab.elliptic import BcRegime
from laealab.fields import VectorField
from laealab.geometry import DomainSpec, build_geometry
from laealab.interp import BicubicField, _kernel, _kernel_deriv
from laealab.orders import fit_order
from laealab.reference import gamma0_pointwise, polarized_f_alpha
from laealab.samples import eigenfield, make_phi_cosx_siny, phi_flat, random_vector

from domains import MIXED, TORUS, channel, torus

BC_T = BcRegime.from_domain(TORUS)


def problem(geo, alpha=0.25, dt=1e-2, t_end=1.0, cfl=5.0, bc=BC_T):
    cfg = dy.SolverConfig(alpha=alpha, dt=dt, t_end=t_end, bc=bc, cfl_factor=cfl)
    return dy.LaeProblem(geo, cfg)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# the one-field interpolation path as it was before the batch axis, kept as
# the oracle of the batched one: masked kernels, one gather per stencil node,
# one interpolant per field
# ---------------------------------------------------------------------------

def masked_kernel(t):
    at = np.abs(t)
    out = np.zeros_like(at)
    m1 = at <= 1.0
    m2 = (at > 1.0) & (at < 2.0)
    out[m1] = (1.5 * at[m1] - 2.5) * at[m1] * at[m1] + 1.0
    out[m2] = ((-0.5 * at[m2] + 2.5) * at[m2] - 4.0) * at[m2] + 2.0
    return out


def masked_kernel_deriv(t):
    at = np.abs(t)
    s = np.sign(t)
    out = np.zeros_like(at)
    m1 = at <= 1.0
    m2 = (at > 1.0) & (at < 2.0)
    out[m1] = s[m1] * (4.5 * at[m1] - 5.0) * at[m1]
    out[m2] = s[m2] * ((-1.5 * at[m2] + 5.0) * at[m2] - 4.0)
    return out


class OneField:
    """Interpolant of one nodal (nx, ny) array."""

    def __init__(self, grid, values):
        self.grid = grid
        F = np.asarray(values, dtype=float)
        if grid.periodic_y:
            self.F, self.joff = F, 0
        else:
            nx, ny = F.shape
            out = np.empty((nx, ny + 4))
            out[:, 2:-2] = F
            out[:, 1] = 4 * F[:, 0] - 6 * F[:, 1] + 4 * F[:, 2] - F[:, 3]
            out[:, 0] = 4 * out[:, 1] - 6 * F[:, 0] + 4 * F[:, 1] - F[:, 2]
            out[:, -2] = 4 * F[:, -1] - 6 * F[:, -2] + 4 * F[:, -3] - F[:, -4]
            out[:, -1] = 4 * out[:, -2] - 6 * F[:, -1] + 4 * F[:, -2] - F[:, -3]
            self.F, self.joff = out, 2

    def _prepare(self, qx, qy):
        g = self.grid
        fx = np.asarray(qx) / g.hx
        fy = np.asarray(qy) / g.hy
        ix = np.floor(fx).astype(np.int64)
        iy = np.floor(fy).astype(np.int64)
        tx, ty = fx - ix, fy - iy
        if not g.periodic_y:
            iy = np.clip(iy, -1, g.ny - 1)
            ty = fy - iy
        vals = []
        for b in range(-1, 3):
            jb = iy + b
            if g.periodic_y:
                jb = np.mod(jb, g.ny)
            else:
                jb = np.clip(jb + self.joff, 0, self.F.shape[1] - 1)
            vals.append([self.F[np.mod(ix + a, g.nx), jb] for a in range(-1, 3)])
        return tx, ty, vals

    def eval(self, qx, qy):
        return self.eval_with_grad(qx, qy)[0]

    def eval_with_grad(self, qx, qy):
        g = self.grid
        tx, ty, vals = self._prepare(qx, qy)
        wx = [masked_kernel(tx - a) for a in range(-1, 3)]
        wy = [masked_kernel(ty - b) for b in range(-1, 3)]
        dwx = [masked_kernel_deriv(tx - a) / g.hx for a in range(-1, 3)]
        dwy = [masked_kernel_deriv(ty - b) / g.hy for b in range(-1, 3)]
        out = np.zeros_like(tx, dtype=float)
        dx = np.zeros_like(out)
        dy = np.zeros_like(out)
        for b in range(4):
            row = np.zeros_like(out)
            drow = np.zeros_like(out)
            for a in range(4):
                row += wx[a] * vals[b][a]
                drow += dwx[a] * vals[b][a]
            out += wy[b] * row
            dx += wy[b] * drow
            dy += dwy[b] * row
        return out, dx, dy


def one_field_invert_map(eta):
    g = eta.grid
    d1, d2 = eta.displacement()
    i1, i2 = OneField(g, d1), OneField(g, d2)
    if eta.inv_seed is not None:
        qx, qy = eta.inv_seed[0].copy(), eta.inv_seed[1].copy()
    else:
        qx, qy = g.X.copy(), g.Y.copy()
    wrap_x = lambda r: (r + 0.5 * g.Lx) % g.Lx - 0.5 * g.Lx
    wrap_y = ((lambda r: (r + 0.5 * g.Ly) % g.Ly - 0.5 * g.Ly) if g.periodic_y
              else (lambda r: r))
    for _ in range(mt.NEWTON_MAX_ITER):
        qyw = np.mod(qy, g.Ly) if g.periodic_y else qy
        v1, a11, a12 = i1.eval_with_grad(np.mod(qx, g.Lx), qyw)
        v2, a21, a22 = i2.eval_with_grad(np.mod(qx, g.Lx), qyw)
        r1 = wrap_x(qx + v1 - g.X)
        r2 = wrap_y(qy + v2 - g.Y)
        if max(np.max(np.abs(r1)), np.max(np.abs(r2))) < mt.NEWTON_TOL:
            break
        j11, j12, j21, j22 = 1.0 + a11, a12, a21, 1.0 + a22
        det = j11 * j22 - j12 * j21
        qx = qx - (j22 * r1 - j12 * r2) / det
        qy = qy - (-j21 * r1 + j11 * r2) / det
        if not g.periodic_y:
            qy = np.clip(qy, 0.0, g.Ly)
    else:
        raise mt.InversionError("the one-field oracle did not converge")
    eta.inv_seed = np.stack([qx, qy])
    return eta.inv_seed


def one_field_material_acceleration(problem, ms):
    g = problem.geo.grid
    m = problem.geo.metric
    q = one_field_invert_map(ms.eta)
    qx = np.mod(q[0], g.Lx)
    qy = np.mod(q[1], g.Ly) if g.periodic_y else q[1]
    u1 = OneField(g, ms.V.c1.data).eval(qx, qy)
    u2 = OneField(g, ms.V.c2.data).eval(qx, qy)
    if not g.periodic_y:
        u2[:, 0] = 0.0
        u2[:, -1] = 0.0
    u = VectorField.from_arrays(g, u1, u2)
    acc = problem.rhs(u) + ca.nabla_along(m, u, u)
    px = np.mod(ms.eta.e1, g.Lx)
    py = np.mod(ms.eta.e2, g.Ly) if g.periodic_y else np.clip(ms.eta.e2, 0.0, g.Ly)
    w1 = OneField(g, acc.c1.data).eval(px, py)
    w2 = OneField(g, acc.c2.data).eval(px, py)
    v1, v2 = ms.V.arrays()
    chris = np.zeros((2, g.nx, g.ny))
    for k in range(2):
        g00 = OneField(g, m.gamma[k, 0, 0]).eval(px, py)
        g01 = OneField(g, m.gamma[k, 0, 1]).eval(px, py)
        g11 = OneField(g, m.gamma[k, 1, 1]).eval(px, py)
        chris[k] = g00 * v1 * v1 + 2.0 * g01 * v1 * v2 + g11 * v2 * v2
    return VectorField.from_arrays(g, w1 - chris[0], w2 - chris[1])


# ---------------------------------------------------------------------------
# interpolation building block
# ---------------------------------------------------------------------------

def test_interpolation_exact_at_nodes():
    geo = torus(16)
    g = geo.grid
    F = np.sin(2 * np.pi * g.X) * np.cos(2 * np.pi * g.Y)
    itp = BicubicField(g, F)
    got = itp.eval(g.X, g.Y)
    assert np.max(np.abs(got - F)) < 1e-14


def test_interpolation_third_order_torus():
    rng = np.random.default_rng(0)
    qx = rng.uniform(0, 1, 500)
    qy = rng.uniform(0, 1, 500)
    f = lambda x, y: np.sin(2 * np.pi * x + 0.3) * np.cos(4 * np.pi * y)
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n, phi_flat)
        g = geo.grid
        itp = BicubicField(g, f(g.X, g.Y))
        errs.append(np.max(np.abs(itp.eval(qx, qy) - f(qx, qy))))
        hs.append(g.h)
    assert 2.6 < fit_order(hs, errs) < 3.6


def test_interpolation_third_order_channel_to_the_wall():
    rng = np.random.default_rng(1)
    qx = rng.uniform(0, 1, 400)
    qy = rng.uniform(0, 1, 400) ** 2        # cluster near the wall
    f = lambda x, y: np.sin(2 * np.pi * x) * np.exp(y) + y**3
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = channel(n, phi=phi_flat)
        g = geo.grid
        itp = BicubicField(g, f(g.X, g.Y))
        errs.append(np.max(np.abs(itp.eval(qx, qy) - f(qx, qy))))
        hs.append(g.h)
    assert 2.6 < fit_order(hs, errs) < 3.8


def test_interpolation_gradient_second_order():
    f = lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    fx = lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    rng = np.random.default_rng(2)
    qx = rng.uniform(0, 1, 300)
    qy = rng.uniform(0, 1, 300)
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n, phi_flat)
        g = geo.grid
        itp = BicubicField(g, f(g.X, g.Y))
        _, dx, _ = itp.eval_with_grad(qx, qy)
        errs.append(np.max(np.abs(dx - fx(qx, qy))))
        hs.append(g.h)
    assert 1.6 < fit_order(hs, errs) < 3.2


def test_branch_free_kernels_equal_the_masked_ones_bit_for_bit():
    one_minus = np.nextafter(1.0, 0.0)
    two_minus = np.nextafter(2.0, 0.0)
    special = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, one_minus, -one_minus,
                        np.nextafter(1.0, 2.0), two_minus, -two_minus, 2.5, -3.0])
    t = np.concatenate([special,
                        np.random.default_rng(15).uniform(-2.5, 2.5, 4000)])
    t = t.reshape(1, -1, 1)
    assert same_bits(_kernel(t), masked_kernel(t))
    assert same_bits(_kernel_deriv(t), masked_kernel_deriv(t))


def query_points(g, rng):
    """Nodes, the seam qx = Lx, both y ends qy = 0 and qy = Ly, and random
    points, as a (2, m) array of queries."""
    k = 24
    qx = np.concatenate([g.X.ravel(), np.full(k, g.Lx), rng.uniform(0, g.Lx, 3 * k)])
    qy = np.concatenate([g.Y.ravel(), rng.uniform(0, g.Ly, k), np.zeros(k),
                         np.full(k, g.Ly), rng.uniform(0, g.Ly, k)])
    return qx.reshape(2, -1), qy.reshape(2, -1)


@pytest.mark.parametrize("batch", [(2,), (2, 3)])
@pytest.mark.parametrize("which", ["torus", "mixed"])
def test_a_stacked_interpolant_equals_per_field_evaluation_bit_for_bit(which, batch):
    geo = torus(16) if which == "torus" else channel(16, phi=phi_flat)
    g = geo.grid
    rng = np.random.default_rng(16)
    qx, qy = query_points(g, rng)
    F = rng.standard_normal(batch + g.shape)
    stacked = BicubicField(g, F)
    got = stacked.eval(qx, qy)
    got_d = stacked.eval_with_grad(qx, qy)
    assert got.shape == batch + qx.shape
    for idx in np.ndindex(*batch):
        one = BicubicField(g, F[idx])
        old = OneField(g, F[idx])
        assert same_bits(got[idx], one.eval(qx, qy))
        assert same_bits(got[idx], old.eval(qx, qy))
        for a, b, c in zip(got_d, one.eval_with_grad(qx, qy), old.eval_with_grad(qx, qy)):
            assert same_bits(a[idx], b) and same_bits(a[idx], c)


# ---------------------------------------------------------------------------
# right translation
# ---------------------------------------------------------------------------

def test_pi_r_at_identity_is_exact():
    geo = torus(16)
    V = random_vector(geo.grid, seed=3)
    ms = mt.MaterialState(mt.FlowMap.identity(geo.grid), V)
    u = mt.pi_r(ms)
    assert (u - V).linf() < 1e-12


def test_pi_r_recovers_composed_field_under_translation():
    hs, errs = [], []
    shift = (0.213, 0.117)
    w_fn = lambda X, Y: np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    for n in (16, 32, 64):
        geo = torus(n, phi_flat)
        g = geo.grid
        eta = mt.FlowMap(g, g.X + shift[0], g.Y + shift[1])
        # V = w o eta sampled at labels
        V = VectorField.from_arrays(g, w_fn(g.X + shift[0], g.Y + shift[1]),
                                    np.zeros((n, n)))
        u = mt.pi_r(mt.MaterialState(eta, V))
        errs.append(np.max(np.abs(u.c1.data - w_fn(g.X, g.Y))))
        hs.append(g.h)
    assert 2.4 < fit_order(hs, errs) < 3.8


def test_pi_r_round_trip_composition():
    hs, errs = [], []
    for n in (16, 32, 64):
        geo = torus(n, phi_flat)
        g = geo.grid
        # a genuinely warped volume-ish map: identity + small smooth field
        d1 = 0.08 * np.sin(2 * np.pi * g.Y)
        d2 = 0.06 * np.sin(2 * np.pi * g.X)
        eta = mt.FlowMap(g, g.X + d1, g.Y + d2)
        u = random_vector(g, seed=4, kmax=2)
        u_comp = mt.compose_with_map(u, eta)
        back = mt.pi_r(mt.MaterialState(eta, u_comp))
        errs.append((back - u).linf())
        hs.append(g.h)
    assert 2.3 < fit_order(hs, errs) < 3.8


def test_inversion_reports_failure_for_degenerate_maps():
    geo = torus(16, phi_flat)
    g = geo.grid
    eta = mt.FlowMap(g, g.X - 1.2 * np.sin(2 * np.pi * g.X) / (2 * np.pi), g.Y.copy())
    ms = mt.MaterialState(eta, VectorField.zeros(g))
    with pytest.raises(mt.InversionError):
        mt.pi_r(ms)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_map_fails_before_any_newton_iteration(bad, monkeypatch):
    geo = torus(16)
    g = geo.grid
    eta = mt.FlowMap.identity(g)
    eta.e1[2, 2] = bad
    calls = []
    monkeypatch.setattr(mt, "_invert_map", lambda *a, **k: calls.append(a))
    with pytest.raises(dy.NonFiniteStateError, match=r"node \(2, 2\)"):
        mt.pi_r(mt.MaterialState(eta, random_vector(g, seed=3)))
    assert calls == []


# ---------------------------------------------------------------------------
# spray
# ---------------------------------------------------------------------------

def test_zero_velocity_freezes_the_map():
    geo = torus(16)
    prob = problem(geo, dt=1e-2)
    ms = mt.MaterialState(mt.FlowMap.identity(geo.grid), VectorField.zeros(geo.grid))
    out = mt.spray_advance(prob, ms)
    assert np.max(np.abs(out.eta.e1 - geo.grid.X)) < 1e-13
    assert np.max(np.abs(out.eta.e2 - geo.grid.Y)) < 1e-13
    assert out.V.linf() < 1e-12


def test_spray_to_marches_from_the_state_time_on_the_step_schedule():
    geo = torus(16)
    prob = problem(geo, dt=5e-3)
    u0 = prob.sp.project(random_vector(geo.grid, seed=18, kmax=1, amp=0.4))
    ms = mt.MaterialState(mt.FlowMap.identity(geo.grid), u0.copy())
    stepped = ms
    for _ in range(3):
        stepped = mt.spray_advance(prob, stepped)
    resumed = mt.spray_to(prob, mt.spray_to(prob, ms, 5e-3), 1.5e-2)
    assert mt.spray_to(prob, ms, 0.0) is ms
    for got in (mt.spray_to(prob, ms, 1.5e-2), resumed):
        assert got.t == stepped.t
        for a, b in zip((got.eta.e1, got.eta.e2, *got.V.arrays()),
                        (stepped.eta.e1, stepped.eta.e2, *stepped.V.arrays())):
            assert same_bits(a, b)
    with pytest.raises(ValueError, match="does not divide"):
        mt.spray_to(prob, ms, 7e-3)


def test_eigenfield_spray_is_steady_shear():
    geo = torus(32, phi_flat)
    prob = problem(geo, alpha=0.35, dt=5e-3)
    u0 = eigenfield(geo.grid, amp=0.8)
    ms = mt.MaterialState(mt.FlowMap.identity(geo.grid), u0.copy())
    for _ in range(20):
        ms = mt.spray_advance(prob, ms)
    t = ms.t
    # labels move along their own streamlines, u(t) stays u0
    assert np.max(np.abs(ms.eta.e2 - geo.grid.Y)) < 1e-8
    expected_e1 = geo.grid.X + t * u0.c1.data
    assert np.max(np.abs(ms.eta.e1 - expected_e1)) < 1e-7
    u_now = mt.pi_r(ms)
    assert (u_now - u0).linf() < 1e-6
    assert mt.volume_distortion(geo.metric, ms) < 1e-9


@pytest.mark.parametrize("which", ["curved torus", "flat mixed channel"])
def test_spray_equals_the_one_field_path_bit_for_bit(which, monkeypatch):
    if which == "curved torus":
        geo = torus(16)
        prob = problem(geo, dt=5e-3)
    else:
        geo = channel(16, phi=phi_flat)
        prob = problem(geo, dt=5e-3, bc=BcRegime.from_domain(MIXED))
    g = geo.grid
    u0 = prob.sp.project(random_vector(g, seed=17, kmax=2, amp=0.4))

    def march():
        ms = mt.MaterialState(mt.FlowMap.identity(g), u0.copy())
        for _ in range(3):
            ms = mt.spray_advance(prob, ms)
        return ms

    got = march()
    # a stage acceleration's last bits rarely reach the state, so compare it too
    acc = mt._material_acceleration(prob, got)
    monkeypatch.setattr(mt, "_material_acceleration", one_field_material_acceleration)
    want = march()
    for a, b in zip((got.eta.e1, got.eta.e2, *got.V.arrays(), *acc.arrays()),
                    (want.eta.e1, want.eta.e2, *want.V.arrays(),
                     *one_field_material_acceleration(prob, want).arrays())):
        assert same_bits(a, b)
    assert np.max(np.abs(got.eta.e1 - g.X)) > 1e-3      # the map moved


def test_spray_advances_the_newton_seed(monkeypatch):
    """Each stage's inversion starts from the latest inverse: 2.65 Newton
    iterations per pi_r here, against 3.6 when every stage starts from the
    step's first map."""
    geo = torus(32)
    prob = problem(geo, alpha=0.3, dt=5e-3)
    u0 = prob.sp.project(random_vector(geo.grid, seed=1, kmax=2, amp=0.4))
    calls = {"newton": 0, "pi_r": 0}
    real_grad, real_pi_r = BicubicField.eval_with_grad, mt.pi_r

    def counted_grad(self, *args):
        calls["newton"] += 1
        return real_grad(self, *args)

    def counted_pi_r(ms):
        calls["pi_r"] += 1
        return real_pi_r(ms)

    monkeypatch.setattr(BicubicField, "eval_with_grad", counted_grad)
    monkeypatch.setattr(mt, "pi_r", counted_pi_r)
    ms = mt.MaterialState(mt.FlowMap.identity(geo.grid), u0.copy())
    for _ in range(10):
        ms = mt.spray_advance(prob, ms)
    assert calls["pi_r"] == 40 and calls["newton"] / calls["pi_r"] <= 3.0
    assert ms.eta.inv_seed is not None


def test_material_energy_conserved_along_spray():
    geo = torus(24)
    alpha = 0.25
    prob = problem(geo, alpha=alpha, dt=5e-3)
    u0 = prob.sp.project(random_vector(geo.grid, seed=5, kmax=2, amp=0.4))
    ms = mt.MaterialState(mt.FlowMap.identity(geo.grid), u0.copy())
    e0 = dy.energy(geo.metric, alpha, mt.pi_r(ms))
    for _ in range(20):
        ms = mt.spray_advance(prob, ms)
    e1 = dy.energy(geo.metric, alpha, mt.pi_r(ms))
    assert abs(e1 - e0) / e0 < 5e-3


def compose_with_integer_shift(g, fm, V, s):
    """(eta o sigma, V o sigma) for the label shift sigma(q) = q + s hx e_x,
    keeping the continuous lift: eta(q + s hx) = X(q) + s hx + d1(q + s hx)."""
    d1 = fm.e1 - g.X
    d2 = fm.e2 - g.Y
    e1 = g.X + s * g.hx + np.roll(d1, -s, axis=0)
    e2 = g.Y + np.roll(d2, -s, axis=0)
    Vs = VectorField.from_arrays(g, np.roll(V.c1.data, -s, axis=0),
                                 np.roll(V.c2.data, -s, axis=0))
    return mt.FlowMap(g, e1, e2), Vs


def test_right_equivariance_under_integer_shifts():
    geo = torus(16, phi_flat)
    prob = problem(geo, alpha=0.25, dt=1e-2)
    g = geo.grid
    u0 = prob.sp.project(random_vector(g, seed=6, kmax=2, amp=0.4))
    shift = 5
    ms = mt.MaterialState(mt.FlowMap.identity(g), u0.copy())
    out = mt.spray_advance(prob, ms)
    out_composed_eta, out_composed_V = compose_with_integer_shift(
        g, out.eta, out.V, shift)

    eta_s, V_s = compose_with_integer_shift(g, mt.FlowMap.identity(g), u0, shift)
    out_s = mt.spray_advance(prob, mt.MaterialState(eta_s, V_s))
    assert np.max(np.abs(out_s.eta.e1 - out_composed_eta.e1)) < 1e-10
    assert np.max(np.abs(out_s.eta.e2 - out_composed_eta.e2)) < 1e-10
    assert (out_s.V - out_composed_V).linf() < 1e-10


def test_volume_preserved_along_generic_spray():
    geo = torus(24)
    prob = problem(geo, alpha=0.25, dt=5e-3)
    u0 = prob.sp.project(random_vector(geo.grid, seed=7, kmax=2, amp=0.3))
    ms = mt.MaterialState(mt.FlowMap.identity(geo.grid), u0.copy())
    for _ in range(20):
        ms = mt.spray_advance(prob, ms)
    assert mt.volume_distortion(geo.metric, ms) < 5e-3


@pytest.mark.parametrize("walls", [("dirichlet", "dirichlet"), ("neumann", "neumann"),
                                   ("dirichlet", "neumann")], ids=["dirichlet", "neumann", "mixed"])
def test_channel_spray_keeps_its_walls(walls):
    # without the stage maps' walls pinned, Newton stalls at a free-slip wall
    # node in step 0 (residual ~2e-10 against NEWTON_TOL)
    spec = DomainSpec("channel", 1.0, 1.0, wall_roles=dict(zip(("y0", "yL"), walls)))
    geo = build_geometry(spec, 16, 17, make_phi_cosx_siny(0.12, 1, 1.0, 1.0))
    g = geo.grid
    prob = problem(geo, alpha=0.3, dt=5e-3, bc=BcRegime.from_domain(spec))
    u0 = prob.sp.project(random_vector(g, seed=3, kmax=1, amp=0.4))
    ms = mt.MaterialState(mt.FlowMap.identity(g), u0.copy())
    for _ in range(10):
        ms = mt.spray_advance(prob, ms)
    assert np.all(ms.eta.e2[:, 0] == g.y[0]) and np.all(ms.eta.e2[:, -1] == g.y[-1])
    assert 0.0 < mt.volume_distortion(geo.metric, ms) < 1e-3
    assert np.max(np.abs(ms.eta.e1 - g.X)) > 1e-3      # the map moved


# ---------------------------------------------------------------------------
# connector contraction
# ---------------------------------------------------------------------------

def test_connector_vanishes_on_zero_field():
    s = dy.System(torus(16), 0.3, BC_T)
    v = random_vector(s.geo.grid, seed=8)
    out = mt.connector_contract(s, VectorField.zeros(s.geo.grid), v)
    assert out.linf() < 1e-12


def test_connector_regime_formulas_coincide_on_torus():
    s = dy.System(torus(20), 0.3, BC_T)
    m, op, sp = s.metric, s.op, s.sp
    u = sp.project(random_vector(s.geo.grid, seed=9, kmax=2))
    v = sp.project(random_vector(s.geo.grid, seed=10, kmax=2))
    plain = sp.project(ca.nabla_along(m, v, u) + dy.frak_f_alpha(s, u, v))
    composite = mt.connector_contract(s, u, v)
    # the NoBoundary regime takes the plain branch; the composite transport
    # applied by hand must agree at solver level
    la = op.solve(op.apply(ca.nabla_along(m, v, u)), BC_T)
    alt = sp.project(la + dy.frak_f_alpha(s, u, v))
    assert (plain - composite).linf() < 1e-12
    assert (alt - composite).linf() < 1e-7 * max(composite.linf(), 1e-12)


def test_connector_against_christoffel_split_oracle():
    # oracle: split grad_v u into the coordinate derivative plus the
    # pointwise Christoffel map, and build FF by polarization; the two routes
    # are the same discrete operator, so they agree to round-off on every
    # level (an order fitted to round-off-sized differences measures noise)
    errs = []
    for n in (16, 24, 32):
        s = dy.System(torus(n), 0.3, BC_T)
        m, g, sp = s.metric, s.geo.grid, s.sp
        u = sp.project(random_vector(g, seed=11, kmax=2))
        v = sp.project(random_vector(g, seed=12, kmax=2))
        got = mt.connector_contract(s, u, v)
        du_coord = VectorField(g, u.c1.dx() * v.c1 + u.c1.dy() * v.c2,
                               u.c2.dx() * v.c1 + u.c2.dy() * v.c2)
        oracle = sp.project(du_coord + gamma0_pointwise(m, u, v)
                            + polarized_f_alpha(s, u, v))
        errs.append((got - oracle).linf() / max(got.linf(), 1e-300))
    assert max(errs) < 1e-12, errs


# ---------------------------------------------------------------------------
# the commutative diagram
# ---------------------------------------------------------------------------

def test_commute_check_trivial_cases():
    geo = torus(16)
    prob = problem(geo, dt=1e-2)
    u0 = prob.sp.project(random_vector(geo.grid, seed=13, kmax=2, amp=0.3))
    assert mt.commute_check(prob, u0, 0.0) < 1e-13
    assert mt.commute_check(prob, VectorField.zeros(geo.grid), 0.05) < 1e-12


def test_commute_check_converges_under_joint_refinement():
    hs, ds = [], []
    t = 0.1
    for n, msteps in ((16, 8), (24, 12), (32, 16)):
        geo = torus(n)
        prob = problem(geo, alpha=0.25, dt=t / msteps)
        u0 = prob.sp.project(random_vector(geo.grid, seed=14, kmax=1, amp=0.5))
        hs.append(geo.grid.h)
        ds.append(mt.commute_check(prob, u0, t))
    order = fit_order(hs, ds)
    assert order > 1.4, (ds, order)
