"""Uniform structured grids on the flat chart of a 2-D torus or channel.

Two domain kinds are supported:

* torus:   periodic in x and y, nodes x_i = i*hx (i < nx), y_j = j*hy (j < ny),
           hx = Lx/nx, hy = Ly/ny.
* channel: periodic in x, walls at y = 0 and y = Ly, hy = Ly/(ny-1) with the
           wall nodes included.

All differentiation goes through two cached sparse matrices DX, DY acting on
flattened (nx, ny) node arrays (C order); a leading batch axis, (..., nx, ny),
is differentiated by one sparse matmat.  Their transposes DXT, DYT, which
adjoint sweeps apply, are built on first use.  Interior rows are centered
second-order stencils; wall rows of DY use a one-sided 4-point stencil (third
order) so that composed second derivatives stay second-order accurate up to
the walls.  Quadrature is the rectangle rule in periodic directions and the
trapezoid rule across the channel.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp

MIN_NODES = 8           # the fewest nodes a grid takes along either axis


def _d1_periodic(n: int, h: float) -> sp.csr_matrix:
    i = np.arange(n)
    c = np.full(n, 1.0 / (2.0 * h))
    return sp.csr_matrix((np.r_[-c, c], (np.r_[i, i], np.r_[(i - 1) % n, (i + 1) % n])),
                         shape=(n, n))


def _d1_wall(n: int, h: float) -> sp.csr_matrix:
    """Centered differences inside, 4-point one-sided rows at both walls.

    The wall closure (-2, 7/2, -2, 1/2)/h is chosen so its truncation error
    +h^2/6 f''' matches the interior centered stencil; the error profile then
    stays smooth across the wall and composed second derivatives remain
    second-order accurate up to the boundary.
    """
    i = np.arange(1, n - 1)
    c = np.full(n - 2, 1.0 / (2.0 * h))
    w = np.array([-2.0, 3.5, -2.0, 0.5]) / h
    rows = np.r_[i, i, [0] * 4, [n - 1] * 4]
    cols = np.r_[i - 1, i + 1, 0:4, n - 4:n]
    return sp.csr_matrix((np.r_[-c, c, w, -w[::-1]], (rows, cols)), shape=(n, n))


def require_unbatched(a: np.ndarray):
    """ValueError if a carries a batch axis (ndim > 2).

    Reductions sum over the whole array, so a batch would be summed into one
    scalar across its members instead of giving one value per member.
    """
    if np.ndim(a) > 2:
        raise ValueError(f"reduction over a batch of shape {np.shape(a)}; "
                         "reduce each member separately")


def matvec_last(M, a: np.ndarray) -> np.ndarray:
    """M applied along the last axis of a (..., m).

    One sparse matvec for a vector; one sparse matmat for a batch.  Both sum
    each row's products in the same order, so every vector of a batch gets
    the bits it would get alone.
    """
    if a.ndim == 1:
        return M @ a
    cols = M @ a.reshape(math.prod(a.shape[:-1]), a.shape[-1]).T
    return np.ascontiguousarray(cols.T).reshape(a.shape[:-1] + (M.shape[0],))


class Grid:
    """Node coordinates, sparse derivative operators and quadrature weights."""

    def __init__(self, nx: int, ny: int, Lx: float, Ly: float, periodic_y: bool):
        if nx < MIN_NODES or ny < MIN_NODES:
            raise ValueError(f"need nx, ny >= {MIN_NODES} (got {nx}, {ny})")
        self.nx, self.ny = nx, ny
        self.shape = (nx, ny)
        self.Lx, self.Ly = float(Lx), float(Ly)
        self.periodic_y = periodic_y
        self.hx = self.Lx / nx
        self.hy = self.Ly / ny if periodic_y else self.Ly / (ny - 1)
        self.x = self.hx * np.arange(nx)
        self.y = self.hy * np.arange(ny)
        self.X, self.Y = np.meshgrid(self.x, self.y, indexing="ij")

        dx1 = _d1_periodic(nx, self.hx)
        dy1 = _d1_periodic(ny, self.hy) if periodic_y else _d1_wall(ny, self.hy)
        self.DX = sp.kron(dx1, sp.identity(ny), format="csr")
        self.DY = sp.kron(sp.identity(nx), dy1, format="csr")

        wx = np.full(nx, self.hx)
        if periodic_y:
            wy = np.full(ny, self.hy)
        else:
            wy = np.full(ny, self.hy)
            wy[0] = wy[-1] = 0.5 * self.hy
        self.wx, self.wy = wx, wy
        self.weights = np.outer(wx, wy)

    # -- derivative application on (..., nx, ny) arrays ------------------------

    def ddx(self, a: np.ndarray) -> np.ndarray:
        if a.ndim == 2:
            return (self.DX @ a.ravel()).reshape(self.shape)
        return self._batched(self.DX, a)

    def ddy(self, a: np.ndarray) -> np.ndarray:
        if a.ndim == 2:
            return (self.DY @ a.ravel()).reshape(self.shape)
        return self._batched(self.DY, a)

    def _batched(self, D, a: np.ndarray) -> np.ndarray:
        return matvec_last(D, a.reshape(a.shape[:-2] + (-1,))).reshape(a.shape)

    @cached_property
    def DXT(self) -> sp.csr_matrix:
        """DX^T as CSR, built on first use (Tape.transpose reads it)."""
        return self.DX.T.tocsr()

    @cached_property
    def DYT(self) -> sp.csr_matrix:
        """DY^T as CSR, built on first use."""
        return self.DY.T.tocsr()

    # -- helpers -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def h(self) -> float:
        return max(self.hx, self.hy)

    def wall_flat_indices(self, wall: str) -> np.ndarray:
        """Flat node indices of a wall row ('y0' or 'yL'), channel only."""
        if self.periodic_y:
            raise ValueError("torus grid has no walls")
        j = 0 if wall == "y0" else self.ny - 1
        return np.arange(self.nx) * self.ny + j

    def fold(self, qx: np.ndarray, qy: np.ndarray):
        """Positions (qx, qy) put into the chart: x modulo Lx, and y modulo Ly
        on the torus or clipped to [0, Ly] on a channel."""
        qy = np.mod(qy, self.Ly) if self.periodic_y else np.clip(qy, 0.0, self.Ly)
        return np.mod(qx, self.Lx), qy

    def __repr__(self) -> str:
        kind = "torus" if self.periodic_y else "channel"
        return f"Grid({kind} {self.nx}x{self.ny}, Lx={self.Lx}, Ly={self.Ly})"
