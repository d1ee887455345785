"""Bicubic (cubic-convolution) interpolation of nodal fields.

Keys' kernel with a = -1/2 is third-order accurate and C^1; its derivative
supplies the Jacobians needed by Newton inversion of flow maps.  Periodic
directions wrap; across channel walls the array is extended by two ghost rows
of cubic extrapolation so accuracy is preserved up to the boundary.

The values may carry a batch axis, (..., nx, ny), with the wall extension
along the last axis.  The members share every query point: each call locates
its points, computes the kernel weights and builds the 4 x 4 stencil's flat
gather indices once, gathers all members with one ``np.take`` and returns
(..., *q.shape).  Each member gets the arithmetic it would get alone, so a
batch equals per-field evaluation bit for bit; a single field is a batch of
none.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


def _kernel(t: np.ndarray) -> np.ndarray:
    at = np.abs(t)
    inner = (1.5 * at - 2.5) * at * at + 1.0
    outer = ((-0.5 * at + 2.5) * at - 4.0) * at + 2.0
    return np.where(at <= 1.0, inner, np.where(at < 2.0, outer, 0.0))


def _kernel_deriv(t: np.ndarray) -> np.ndarray:
    at = np.abs(t)
    s = np.sign(t)
    inner = s * (4.5 * at - 5.0) * at
    outer = s * ((-1.5 * at + 5.0) * at - 4.0)
    return np.where(at <= 1.0, inner, np.where(at < 2.0, outer, 0.0))


def _extend_wall(F: np.ndarray) -> np.ndarray:
    """Two ghost rows of cubic extrapolation on each wall side (last axis)."""
    out = np.empty(F.shape[:-1] + (F.shape[-1] + 4,))
    out[..., 2:-2] = F
    out[..., 1] = 4 * F[..., 0] - 6 * F[..., 1] + 4 * F[..., 2] - F[..., 3]
    out[..., 0] = 4 * out[..., 1] - 6 * F[..., 0] + 4 * F[..., 1] - F[..., 2]
    out[..., -2] = 4 * F[..., -1] - 6 * F[..., -2] + 4 * F[..., -3] - F[..., -4]
    out[..., -1] = 4 * out[..., -2] - 6 * F[..., -1] + 4 * F[..., -2] - F[..., -3]
    return out


class BicubicField:
    """Interpolant of nodal arrays of shape (..., nx, ny) on a Grid."""

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        F = np.asarray(values, dtype=float)
        if not grid.periodic_y:
            F = _extend_wall(F)
        self.batch = F.shape[:-2]
        self.ny = F.shape[-1]              # columns of the (extended) array
        self.F = F.reshape(-1, grid.nx * self.ny)

    def _stencil(self, qx, qy):
        """Kernel arguments tx - a and ty - b, (4, *q.shape), and the values
        vals[:, b, a], (members, 4, 4, *q.shape), of every query's stencil
        a, b = -1..2."""
        g = self.grid
        fx = np.asarray(qx) / g.hx
        fy = np.asarray(qy) / g.hy
        off = np.arange(-1, 3).reshape((4,) + (1,) * fx.ndim)
        ix = np.floor(fx).astype(np.int64)
        iy = np.floor(fy).astype(np.int64)
        tx = fx - ix
        if g.periodic_y:
            ty = fy - iy
            cols = np.mod(iy + off, g.ny)
        else:
            # clamp so the 4-point y-stencil stays inside the extended array
            iy = np.clip(iy, -1, g.ny - 1)
            ty = fy - iy
            cols = np.clip(iy + off + 2, 0, self.ny - 1)
        rows = np.mod(ix + off, g.nx) * self.ny
        vals = np.take(self.F, cols[:, None] + rows[None, :], axis=1)
        return tx - off, ty - off, vals

    def _shaped(self, out):
        return out.reshape(self.batch + out.shape[1:])

    def eval(self, qx, qy):
        sx, sy, vals = self._stencil(qx, qy)
        wx = _kernel(sx)
        wy = _kernel(sy)
        out = np.zeros_like(vals[:, 0, 0])
        for b in range(4):
            row = np.zeros_like(out)
            for a in range(4):
                row += wx[a] * vals[:, b, a]
            out += wy[b] * row
        return self._shaped(out)

    def eval_with_grad(self, qx, qy):
        g = self.grid
        sx, sy, vals = self._stencil(qx, qy)
        wx = _kernel(sx)
        wy = _kernel(sy)
        dwx = _kernel_deriv(sx) / g.hx
        dwy = _kernel_deriv(sy) / g.hy
        out = np.zeros_like(vals[:, 0, 0])
        dx = np.zeros_like(out)
        dy = np.zeros_like(out)
        for b in range(4):
            row = np.zeros_like(out)
            drow = np.zeros_like(out)
            for a in range(4):
                row += wx[a] * vals[:, b, a]
                drow += dwx[a] * vals[:, b, a]
            out += wy[b] * row
            dx += wy[b] * drow
            dy += dwy[b] * row
        return self._shaped(out), self._shaped(dx), self._shaped(dy)
