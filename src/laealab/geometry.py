"""Computational domains carrying a 2-D conformal metric g = e^{2*phi} * flat.

For conformal metrics every curvature object has a closed form in terms of
the log-factor phi:

    Gamma^k_ij = d_i(phi) delta^k_j + d_j(phi) delta^k_i - delta_ij d^k(phi)
    K          = -e^{-2 phi} Lap0(phi)        (Gaussian curvature, flat Lap0)
    Ricci      = K g,   Ric operator = K Id
    sqrt(det g) = e^{2 phi}

The channel walls sit at y = 0 and y = Ly.  With straight walls the outward
unit normal is -+ e^{-phi} d_y and the shape operator of the wall acts on the
unit tangent as multiplication by s = -+ e^{-phi} d_y(phi), which vanishes
identically for phi == 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import VectorField
from .grid import Grid

SEAM_TOL = 1e-12


@dataclass(frozen=True)
class DomainSpec:
    """Domain kind plus physical extents and per-wall condition tags.

    wall_roles maps 'y0' / 'yL' to 'dirichlet' or 'neumann' (channel only).
    The spec keeps its own copy of the mapping and hashes it as a sorted
    tuple, so equal specs hash equally and can key caches.
    """

    kind: str
    Lx: float
    Ly: float
    wall_roles: dict | None = None

    def __post_init__(self):
        if self.kind not in ("torus", "channel"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.Lx <= 0 or self.Ly <= 0:
            raise ValueError("domain lengths must be positive")
        if self.kind == "channel":
            roles = self.wall_roles or {}
            if set(roles) != {"y0", "yL"}:
                raise ValueError("channel needs wall_roles for 'y0' and 'yL'")
            for w, r in roles.items():
                if r not in ("dirichlet", "neumann"):
                    raise ValueError(f"wall {w}: bad role {r!r}")
            object.__setattr__(self, "wall_roles", dict(roles))
        elif self.wall_roles is not None:
            raise ValueError("torus takes no wall_roles")

    def __hash__(self):
        roles = tuple(sorted(self.wall_roles.items())) if self.wall_roles else None
        return hash((self.kind, self.Lx, self.Ly, roles))

    @property
    def periodic_y(self) -> bool:
        return self.kind == "torus"


class ConformalMetric:
    """Cached geometry of g = e^{2 phi} (dx^2 + dy^2) on a grid.

    Attributes (all nodal ndarrays unless noted):
        phi, e2phi, em2phi : conformal data; sqrt(det g) = e2phi
        phix, phiy         : first derivatives of phi (grid stencils)
        gamma              : (2,2,2,nx,ny) Christoffel symbols Gamma^k_ij
        K, Kx, Ky          : Gaussian curvature and its coordinate derivatives
        phi_fn             : the analytic phi callable, kept for off-node use
    """

    def __init__(self, grid: Grid, phi_values: np.ndarray,
                 phi_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None):
        self.grid = grid
        self.phi = np.asarray(phi_values, dtype=np.float64)
        if self.phi.shape != (grid.nx, grid.ny):
            raise ValueError("phi samples do not match the grid")
        self.phi_fn = phi_fn
        self.e2phi = np.exp(2.0 * self.phi)
        self.em2phi = np.exp(-2.0 * self.phi)
        self.phix = grid.ddx(self.phi)
        self.phiy = grid.ddy(self.phi)

        g = np.zeros((2, 2, 2, grid.nx, grid.ny))
        d = (self.phix, self.phiy)
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    val = np.zeros_like(self.phi)
                    if k == i:
                        val = val + d[j]
                    if k == j:
                        val = val + d[i]
                    if i == j:
                        val = val - d[k]
                    g[k, i, j] = val
        self.gamma = g

        lap0_phi = grid.ddx(self.phix) + grid.ddy(self.phiy)
        self.K = -self.em2phi * lap0_phi
        self.Kx = grid.ddx(self.K)
        self.Ky = grid.ddy(self.K)

    @property
    def is_flat(self) -> bool:
        return not np.any(self.phi)

    def metric_tensor(self):
        """g_ij arrays: (g11, g12, g21, g22) = e^{2 phi} (1, 0, 0, 1)."""
        z = np.zeros_like(self.e2phi)
        return (self.e2phi, z, z.copy(), self.e2phi.copy())

    def quad_mu(self) -> np.ndarray:
        """Quadrature weights against the Riemannian area element."""
        return self.grid.weights * self.e2phi


@dataclass
class Wall:
    name: str            # 'y0' or 'yL'
    j: int               # node row index
    normal_sign: float   # n = normal_sign * e^{-phi} d_y (outward)
    ephi: np.ndarray     # e^{phi} restricted to the wall, shape (nx,)
    s_weingarten: np.ndarray  # S_n(tau) = s * tau on the unit tangent
    phix: np.ndarray     # d_x phi on the wall
    phiy: np.ndarray     # d_y phi on the wall
    mu_weights: np.ndarray    # boundary quadrature weights (arc length)


@dataclass
class BoundaryData:
    walls: list = field(default_factory=list)

    def wall(self, name: str) -> Wall:
        for w in self.walls:
            if w.name == name:
                return w
        raise KeyError(name)


@dataclass(eq=False)
class Geometry:
    """Grid, metric and walls, plus the store of the sparse artifacts built on them.

    ``factors`` maps (kind, alpha, BcRegime) keys to the matrices and
    factorizations that elliptic.py assembles for this geometry, so every
    EllipticOperator and StokesProjector on the same geometry object shares
    them.  It holds only arrays, sparse matrices and SuperLU objects, never
    anything that points back at the geometry: dropping the last reference to
    the geometry frees its factorizations by reference counting alone.
    """

    grid: Grid
    metric: ConformalMetric
    boundary: BoundaryData
    factors: dict = field(default_factory=dict, repr=False)


def _check_periodic(phi_fn, grid: Grid, spec: DomainSpec):
    yprobe = grid.y
    left = np.asarray(phi_fn(np.zeros_like(yprobe), yprobe), dtype=float)
    right = np.asarray(phi_fn(np.full_like(yprobe, spec.Lx), yprobe), dtype=float)
    if np.max(np.abs(left - right)) > SEAM_TOL:
        raise ValueError("phi is not periodic across the x seam")
    if spec.kind == "torus":
        xprobe = grid.x
        bot = np.asarray(phi_fn(xprobe, np.zeros_like(xprobe)), dtype=float)
        top = np.asarray(phi_fn(xprobe, np.full_like(xprobe, spec.Ly)), dtype=float)
        if np.max(np.abs(bot - top)) > SEAM_TOL:
            raise ValueError("phi is not periodic across the y seam")


def build_geometry(spec: DomainSpec, nx: int, ny: int,
                   phi: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Geometry:
    """Construct grid, conformal metric and boundary data for a domain."""
    grid = Grid(nx, ny, spec.Lx, spec.Ly, periodic_y=spec.periodic_y)
    _check_periodic(phi, grid, spec)
    phi_values = np.asarray(phi(grid.X, grid.Y), dtype=np.float64)
    if phi_values.shape != (nx, ny):
        phi_values = np.broadcast_to(phi_values, (nx, ny)).copy()
    metric = ConformalMetric(grid, phi_values, phi_fn=phi)

    bd = BoundaryData()
    if spec.kind == "channel":
        for name, j, sign in (("y0", 0, -1.0), ("yL", ny - 1, +1.0)):
            ephi = np.exp(metric.phi[:, j])
            phix = metric.phix[:, j]
            phiy = metric.phiy[:, j]
            # S_n(u) = -grad_u n; on a straight wall of a conformal metric
            # this reduces to multiplication by -sign * e^{-phi} d_y(phi).
            s = -sign * np.exp(-metric.phi[:, j]) * phiy
            mu_w = grid.wx * ephi
            bd.walls.append(Wall(name, j, sign, ephi, s, phix, phiy, mu_w))
    return Geometry(grid, metric, bd)


def weingarten_apply(bd: BoundaryData, u: VectorField, tol: float = 1e-8) -> dict:
    """Shape-operator action S_n(u) on wall-tangent fields, per wall.

    Returns {wall name: (2, nx) array}.  Rejects fields whose normal
    component at wall nodes exceeds tol relative to the field scale.
    """
    out = {}
    scale = max(u.linf(), 1e-300)
    for w in bd.walls:
        u1 = u.c1.data[:, w.j]
        u2 = u.c2.data[:, w.j]
        # normal component in g: g(u, n) = normal_sign * e^{phi} u2
        normal_part = np.max(np.abs(w.ephi * u2))
        if normal_part > tol * scale:
            raise ValueError(
                f"field has normal component {normal_part:.3e} at wall {w.name}")
        vals = np.zeros((2, u.grid.nx))
        vals[0] = w.s_weingarten * u1
        out[w.name] = vals
    return out
