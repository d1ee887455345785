"""Independent reference implementations used by the verification suites.

Everything here recomputes a quantity through a different route than the
production operators so that agreement is evidence, not tautology:

* Hodge Laplacian through exterior calculus, -[(d delta + delta d) u_flat]_sharp,
  never touching Christoffel symbols.
* Christoffel symbols from finite differences of the metric components.
* Gaussian curvature from fourth-order stencils on phi.
* Fourth-order covariant derivative (periodic grids).
* Discrete Leray projector on the flat torus by FFT diagonalization of the
  same centered stencils.
* Curvature traces by explicit summation over the orthonormal frame
  e_i = e^{-phi} d_i instead of the closed-form contractions.
* The Jacobi-Lie bracket through covariant derivatives, Christoffel terms
  and all, against the coordinate form.
* The polarization FFop of the quadratic operator from three evaluations of
  Fop, against the closed form.
"""

from __future__ import annotations

import numpy as np

from .calculus import covariant_derivative, g_pair, nabla_along
from .dynamics import System, f_alpha
from .fields import ScalarField, Tensor11Field, VectorField
from .geometry import ConformalMetric
from .grid import Grid


# ---------------------------------------------------------------------------
# exterior-calculus Hodge Laplacian
# ---------------------------------------------------------------------------

def hodge_exterior(m: ConformalMetric, u: VectorField) -> VectorField:
    """-[(d delta + delta d) u_flat]_sharp on components.

    With u_flat = a dx + b dy (a = e^{2 phi} u1, b = e^{2 phi} u2):
        delta u_flat = -e^{-2 phi} (d_x a + d_y b)
        d u_flat     = (d_x b - d_y a) dx dy
    and the 2-D Hodge star sends dx -> dy, dy -> -dx, dx dy -> e^{-2 phi}.
    """
    g = m.grid
    a = m.e2phi * u.c1.data
    b = m.e2phi * u.c2.data
    s = -m.em2phi * (g.ddx(a) + g.ddy(b))          # delta(u_flat), a scalar
    f = g.ddx(b) - g.ddy(a)                        # d(u_flat) coefficient
    ef = m.em2phi * f
    # (d delta + delta d) u_flat = (d_x s + d_y(ef)) dx + (d_y s - d_x(ef)) dy
    comp_x = g.ddx(s) + g.ddy(ef)
    comp_y = g.ddy(s) - g.ddx(ef)
    return VectorField.from_arrays(g, -m.em2phi * comp_x, -m.em2phi * comp_y)


# ---------------------------------------------------------------------------
# Christoffels from the metric components
# ---------------------------------------------------------------------------

def christoffels_from_metric(m: ConformalMetric) -> np.ndarray:
    """Gamma^k_ij = (1/2) g^{kl} (d_i g_lj + d_j g_il - d_l g_ij), by stencils on g."""
    g = m.grid
    e2 = m.e2phi
    dg = (g.ddx(e2), g.ddy(e2))   # d_m (e^{2 phi})
    ginv = m.em2phi
    out = np.zeros((2, 2, 2, g.nx, g.ny))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                val = np.zeros_like(e2)
                if k == j:
                    val = val + dg[i]
                if k == i:
                    val = val + dg[j]
                if i == j:
                    val = val - dg[k]
                out[k, i, j] = 0.5 * ginv * val
    return out


# ---------------------------------------------------------------------------
# fourth-order stencils (periodic directions only)
# ---------------------------------------------------------------------------

def _ddx4_periodic(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    r = np.roll
    return (-r(a, -2, axis) + 8 * r(a, -1, axis) - 8 * r(a, 1, axis) + r(a, 2, axis)) / (12 * h)


def covariant_derivative_o4(m: ConformalMetric, u: VectorField) -> Tensor11Field:
    """(grad u) with fourth-order derivatives of u and phi; torus grids only."""
    g = m.grid
    if not g.periodic_y:
        raise ValueError("fourth-order oracle is periodic-only")
    phix = _ddx4_periodic(m.phi, g.hx, 0)
    phiy = _ddx4_periodic(m.phi, g.hy, 1)
    d = (phix, phiy)
    comps = u.arrays()
    t = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            du = _ddx4_periodic(comps[i], g.hx if j == 0 else g.hy, j)
            gam = [np.zeros_like(phix), np.zeros_like(phix)]
            # Gamma^i_jk = d^i_j phi_k + d^i_k phi_j - d_jk phi_i
            for k in range(2):
                if i == j:
                    gam[k] = gam[k] + d[k]
                if i == k:
                    gam[k] = gam[k] + d[j]
                if j == k:
                    gam[k] = gam[k] - d[i]
            t[i][j] = ScalarField(g, du + gam[0] * comps[0] + gam[1] * comps[1])
    return Tensor11Field(g, t[0][0], t[0][1], t[1][0], t[1][1])


def gaussian_curvature_o4(m: ConformalMetric) -> np.ndarray:
    """K = -e^{-2 phi} Lap0 phi with fourth-order second-derivative stencils."""
    g = m.grid
    if not g.periodic_y:
        raise ValueError("fourth-order oracle is periodic-only")

    def d2(a, h, axis):
        r = np.roll
        return (-r(a, -2, axis) + 16 * r(a, -1, axis) - 30 * a
                + 16 * r(a, 1, axis) - r(a, 2, axis)) / (12 * h * h)

    lap = d2(m.phi, g.hx, 0) + d2(m.phi, g.hy, 1)
    return -m.em2phi * lap


# ---------------------------------------------------------------------------
# flat-torus Leray projector by FFT
# ---------------------------------------------------------------------------

def leray_fft(grid: Grid, v: VectorField) -> VectorField:
    """Discrete Leray projection on the flat torus.

    Diagonalizes the centered first-derivative stencils: mode (kx, ky) has
    symbol i s with s = (sin(kx hx)/hx, sin(ky hy)/hy).  Modes with s = 0 are
    annihilated by the discrete divergence and are left untouched.
    """
    if not grid.periodic_y:
        raise ValueError("leray_fft needs a torus grid")
    kx = 2 * np.pi * np.fft.fftfreq(grid.nx, d=grid.hx)
    ky = 2 * np.pi * np.fft.fftfreq(grid.ny, d=grid.hy)
    sx = (np.sin(kx * grid.hx) / grid.hx)[:, None]
    sy = (np.sin(ky * grid.hy) / grid.hy)[None, :]
    v1 = np.fft.fft2(v.c1.data)
    v2 = np.fft.fft2(v.c2.data)
    s2 = sx**2 + sy**2
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(s2 > 0, (sx * v1 + sy * v2) / np.where(s2 > 0, s2, 1.0), 0.0)
    p1 = v1 - sx * coef
    p2 = v2 - sy * coef
    return VectorField.from_arrays(grid, np.real(np.fft.ifft2(p1)),
                                   np.real(np.fft.ifft2(p2)))


def spectral_coordinate_bracket(grid: Grid, u: VectorField, v: VectorField) -> VectorField:
    """[u, v] on the flat torus with FFT derivatives (independent of stencils)."""
    if not grid.periodic_y:
        raise ValueError("spectral bracket needs a torus grid")
    kx = 2j * np.pi * np.fft.fftfreq(grid.nx, d=grid.hx)
    ky = 2j * np.pi * np.fft.fftfreq(grid.ny, d=grid.hy)

    def dx(a):
        return np.real(np.fft.ifft2(kx[:, None] * np.fft.fft2(a)))

    def dy(a):
        return np.real(np.fft.ifft2(ky[None, :] * np.fft.fft2(a)))

    u1, u2 = u.arrays()
    v1, v2 = v.arrays()
    b1 = u1 * dx(v1) + u2 * dy(v1) - (v1 * dx(u1) + v2 * dy(u1))
    b2 = u1 * dx(v2) + u2 * dy(v2) - (v1 * dx(u2) + v2 * dy(u2))
    return VectorField.from_arrays(grid, b1, b2)


# ---------------------------------------------------------------------------
# frame-loop curvature traces
# ---------------------------------------------------------------------------

def _riemann_apply(m: ConformalMetric, a: VectorField, b: VectorField,
                   c: VectorField) -> VectorField:
    """R(a,b)c = K (g(b,c) a - g(a,c) b)."""
    gbc = g_pair(m, b, c)
    gac = g_pair(m, a, c)
    return VectorField(m.grid, (a.c1 * gbc - b.c1 * gac) * m.K,
                       (a.c2 * gbc - b.c2 * gac) * m.K)


def curvature_traces_frame_loop(m: ConformalMetric, u: VectorField, v: VectorField):
    """(Div of w -> R(w,u)v, Tr R(.,u) grad_. v) by explicit e_i summation."""
    grid = m.grid
    emphi = np.exp(-m.phi)
    zeros = np.zeros_like(emphi)
    frame = [VectorField.from_arrays(grid, emphi, zeros),
             VectorField.from_arrays(grid, zeros, emphi)]

    div_r = VectorField.zeros(grid)
    r_grad = VectorField.zeros(grid)
    for ei in frame:
        # grad_{e_i} e_i, needed to correct the non-parallel frame
        dei = covariant_derivative(m, ei)
        nabla_ei_ei = dei.apply(ei)
        X = _riemann_apply(m, ei, u, v)           # T(e_i) with T(w) = R(w,u)v
        dX = covariant_derivative(m, X)
        div_r = div_r + dX.apply(ei) - _riemann_apply(m, nabla_ei_ei, u, v)
        r_grad = r_grad + _riemann_apply(m, ei, u, nabla_along(m, ei, v))
    return div_r, r_grad


def gamma0_pointwise(m: ConformalMetric, u: VectorField, v: VectorField) -> VectorField:
    """Christoffel map Gamma^k_ij u^i v^j as a vector field."""
    g = m.gamma
    u1, u2 = u.arrays()
    v1, v2 = v.arrays()
    out = []
    for k in range(2):
        out.append(g[k, 0, 0] * u1 * v1 + g[k, 0, 1] * u1 * v2
                   + g[k, 1, 0] * u2 * v1 + g[k, 1, 1] * u2 * v2)
    return VectorField.from_arrays(m.grid, out[0], out[1])


# ---------------------------------------------------------------------------
# covariant Jacobi-Lie bracket, polarization of the quadratic operator
# ---------------------------------------------------------------------------

def covariant_lie_bracket(m: ConformalMetric, u: VectorField, v: VectorField) -> VectorField:
    """[u, v] = grad_u v - grad_v u with covariant derivatives."""
    return nabla_along(m, u, v) - nabla_along(m, v, u)


def polarized_f_alpha(s: System, u: VectorField, v: VectorField) -> VectorField:
    """FFop(u, v) = (Fop(u + v) - Fop(u) - Fop(v)) / 2."""
    return (f_alpha(s, u + v) - f_alpha(s, u) - f_alpha(s, v)) * 0.5
