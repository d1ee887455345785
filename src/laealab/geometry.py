"""Computational domains carrying a 2-D conformal metric g = e^{2*phi} * flat.

For conformal metrics every curvature object has a closed form in terms of
the log-factor phi:

    Gamma^k_ij = d_i(phi) delta^k_j + d_j(phi) delta^k_i - delta_ij d^k(phi)
    K          = -e^{-2 phi} Lap0(phi)        (Gaussian curvature, flat Lap0)
    Ricci      = K g,   Ric operator = K Id
    sqrt(det g) = e^{2 phi}

The channel walls sit at y = 0 and y = Ly; a Geometry keeps them as
geo.walls, one Wall each (none on the torus).  With straight walls the outward
unit normal is Wall.normal d_y, Wall.normal = -+ e^{-phi} along the wall row,
and the shape operator of the wall acts on the unit tangent as multiplication
by Wall.s_weingarten = -Wall.normal d_y(phi), which vanishes identically for
phi == 0.  Positions off the grid's nodes are put into the chart by Grid.fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
        if not (0 < self.Lx < np.inf and 0 < self.Ly < np.inf):
            raise ValueError(f"domain lengths must be positive and finite, got "
                             f"Lx = {self.Lx}, Ly = {self.Ly}")
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
    """

    def __init__(self, grid: Grid, phi_values: np.ndarray):
        self.grid = grid
        self.phi = np.asarray(phi_values, dtype=np.float64)
        if self.phi.shape != (grid.nx, grid.ny):
            raise ValueError("phi samples do not match the grid")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("phi samples are not finite")
        self.e2phi = np.exp(2.0 * self.phi)
        self.em2phi = np.exp(-2.0 * self.phi)
        self.phix = grid.ddx(self.phi)
        self.phiy = grid.ddy(self.phi)

        px, py = self.phix, self.phiy          # gamma[k, i, j], the closed form above
        self.gamma = np.array([[[px, py], [py, -px]],
                               [[-py, px], [px, py]]])

        lap0_phi = grid.ddx(self.phix) + grid.ddy(self.phiy)
        self.K = -self.em2phi * lap0_phi
        self.Kx = grid.ddx(self.K)
        self.Ky = grid.ddy(self.K)

    def quad_mu(self) -> np.ndarray:
        """Quadrature weights against the Riemannian area element."""
        return self.grid.weights * self.e2phi


@dataclass
class Wall:
    name: str            # 'y0' or 'yL'
    j: int               # node row index
    normal: np.ndarray   # n^y = -+ e^{-phi} on the row: the outward unit normal n^y d_y
    s_weingarten: np.ndarray  # S_n(tau) = s * tau on the unit tangent
    mu_weights: np.ndarray    # boundary quadrature weights (arc length)


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
    walls: tuple         # one Wall per channel wall, y0 then yL; () on the torus
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
    """Construct grid, conformal metric and walls for a domain."""
    grid = Grid(nx, ny, spec.Lx, spec.Ly, periodic_y=spec.periodic_y)
    _check_periodic(phi, grid, spec)
    phi_values = np.asarray(phi(grid.X, grid.Y), dtype=np.float64)
    if phi_values.shape != (nx, ny):
        phi_values = np.broadcast_to(phi_values, (nx, ny)).copy()
    metric = ConformalMetric(grid, phi_values)

    walls = []
    if spec.kind == "channel":
        for name, j, sign in (("y0", 0, -1.0), ("yL", ny - 1, +1.0)):
            # S_n(u) = -grad_u n; on a straight wall of a conformal metric this
            # reduces to multiplication by -n^y d_y(phi).
            normal = sign * np.exp(-metric.phi[:, j])
            walls.append(Wall(name, j, normal, -normal * metric.phiy[:, j],
                              grid.wx * np.exp(metric.phi[:, j])))
    return Geometry(grid, metric, tuple(walls))
