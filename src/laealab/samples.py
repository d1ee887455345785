"""Reproducible band-limited test fields.

Fields are trig polynomials with a fixed coefficient table drawn from a
seeded generator, so the same continuum function is sampled on every grid of
a refinement ladder.  Wavenumbers are capped well below the coarsest grid's
Nyquist band (kmax <= nx/4 for the coarsest ladder member).

On the channel, y-profiles are sin(pi m y / Ly) for components that must
vanish at the walls and cos(pi m y / Ly) otherwise, which keeps the samples
smooth up to the boundary without assuming periodicity in y.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import VectorField
from .grid import Grid


def _trig_scalar_torus(grid: Grid, rng: np.random.Generator, kmax: int,
                       amp: float) -> np.ndarray:
    out = np.zeros((grid.nx, grid.ny))
    tx = 2 * np.pi * grid.X / grid.Lx
    ty = 2 * np.pi * grid.Y / grid.Ly
    for kx in range(0, kmax + 1):
        for ky in range(0, kmax + 1):
            if kx == 0 and ky == 0:
                continue
            a, b, c, dcoef = rng.normal(size=4) / (1 + kx * kx + ky * ky)
            out += a * np.cos(kx * tx) * np.cos(ky * ty)
            out += b * np.cos(kx * tx) * np.sin(ky * ty)
            out += c * np.sin(kx * tx) * np.cos(ky * ty)
            out += dcoef * np.sin(kx * tx) * np.sin(ky * ty)
    m = np.max(np.abs(out))
    return amp * out / m if m > 0 else out


def _trig_scalar_channel(grid: Grid, rng: np.random.Generator, kmax: int,
                         amp: float, vanish_at_walls: bool) -> np.ndarray:
    out = np.zeros((grid.nx, grid.ny))
    tx = 2 * np.pi * grid.X / grid.Lx
    ty = np.pi * grid.Y / grid.Ly
    for kx in range(0, kmax + 1):
        for ky in range(1, kmax + 1):
            a, b = rng.normal(size=2) / (1 + kx * kx + ky * ky)
            prof = np.sin(ky * ty) if vanish_at_walls else np.cos(ky * ty)
            out += a * np.cos(kx * tx) * prof
            out += b * np.sin(kx * tx) * prof
    m = np.max(np.abs(out))
    return amp * out / m if m > 0 else out


def random_scalar(grid: Grid, seed: int, kmax: int = 3, amp: float = 1.0,
                  vanish_at_walls: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if grid.periodic_y:
        return _trig_scalar_torus(grid, rng, kmax, amp)
    return _trig_scalar_channel(grid, rng, kmax, amp, vanish_at_walls)


def random_vector(grid: Grid, seed: int, kmax: int = 3, amp: float = 1.0) -> VectorField:
    """Band-limited vector field; on the channel u2 vanishes at the walls."""
    rng = np.random.default_rng(seed)
    if grid.periodic_y:
        a1 = _trig_scalar_torus(grid, rng, kmax, amp)
        a2 = _trig_scalar_torus(grid, rng, kmax, amp)
    else:
        a1 = _trig_scalar_channel(grid, rng, kmax, amp, vanish_at_walls=False)
        a2 = _trig_scalar_channel(grid, rng, kmax, amp, vanish_at_walls=True)
    return VectorField.from_arrays(grid, a1, a2)


# -- named initial-condition presets ----------------------------------------

def eigenfield(grid: Grid, amp: float = 1.0) -> VectorField:
    """Steady shear mode (amp sin(2 pi y / Ly), 0)."""
    a1 = amp * np.sin(2 * np.pi * grid.Y / grid.Ly)
    return VectorField.from_arrays(grid, a1, np.zeros_like(a1))


def taylor_green_like(grid: Grid, amp: float = 1.0) -> VectorField:
    """Divergence-free cellular field on the torus, max amplitude = amp."""
    tx = 2 * np.pi * grid.X / grid.Lx
    ty = 2 * np.pi * grid.Y / grid.Ly
    a1 = np.sin(tx) * np.cos(ty) / grid.Ly
    a2 = -np.cos(tx) * np.sin(ty) / grid.Lx
    scale = amp / max(np.max(np.abs(a1)), np.max(np.abs(a2)))
    return VectorField.from_arrays(grid, scale * a1, scale * a2)


def phi_flat(X, Y):
    return np.zeros_like(X)


# The phi factories are memoized: equal preset arguments give the same
# callable, which is what the suites key shared geometries by.  The closures
# are immutable and there are only as many as distinct presets.
@lru_cache(maxsize=None)
def make_phi_sinusoidal(amp: float, kx: int, ky: int, Lx: float, Ly: float):
    def phi(X, Y):
        return amp * np.sin(2 * np.pi * kx * X / Lx) * np.sin(2 * np.pi * ky * Y / Ly)
    return phi


@lru_cache(maxsize=None)
def make_phi_cosx(amp: float, k: int, Lx: float):
    def phi(X, Y):
        return amp * np.cos(2 * np.pi * k * X / Lx) + 0.0 * Y
    return phi


@lru_cache(maxsize=None)
def make_phi_cosx_siny(amp: float, k: int, Lx: float, Ly: float):
    """x-periodic, y-dependent factor with nonzero slope at channel walls."""
    def phi(X, Y):
        return amp * np.cos(2 * np.pi * k * X / Lx) * np.sin(np.pi * Y / Ly)
    return phi
