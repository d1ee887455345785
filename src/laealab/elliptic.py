"""Boundary-condition-aware elliptic solves.

The operator (1 - a^2 Lop) is assembled once per (geometry, alpha) by feeding
operator-backed components through the same calculus code that evaluates it
pointwise, so application and assembly agree to the last bit.  Per regime,
wall-node equations are replaced by interpolation rows:

    dirichlet wall : u1 = 0, u2 = 0
    neumann wall   : u2 = 0 (tangency) and the tangential free-slip row
                     [grad_n u]^tan + S_n(u^tan) = 0, with a one-sided
                     second-order normal derivative and the shape-operator term

and the factorized system realizes the inverse mapping arbitrary fields onto
the boundary-condition subspace.

The Stokes projector is the composite P v = v - (1 - a^2 Lop)^{-1} grad p,
where the zero-mean potential p solves div((1 - a^2 Lop)^{-1} grad p) = div v.
It is solved as one sparse saddle system in (w, p, lam):

    A w - G p            = 0      (BC rows of A paired with zeroed rows of G)
    div w + mu lam       = div v  (mu absorbs the quadrature incompatibility)
    sum(mu p)            = 0      (gauge)

so that w = (1 - a^2 Lop)^{-1} grad p exactly and div(v - w) sits at the
factorization's residual level, independent of h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import calculus as ca
from .fields import OpScalar, ScalarField, VectorField, op_vector_unknown
from .geometry import Geometry

_WALLS = ("y0", "yL")


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class BcRegime:
    """Boundary regime: which condition each wall carries.

    variant is one of 'noboundary', 'dirichlet', 'neumann', 'mixed'; for the
    wall-bearing variants wall_conditions maps 'y0'/'yL' to the condition.
    """

    variant: str
    wall_conditions: tuple = ()

    @classmethod
    def from_domain(cls, spec) -> "BcRegime":
        if spec.kind == "torus":
            return cls("noboundary")
        roles = tuple(sorted(spec.wall_roles.items()))
        kinds = set(spec.wall_roles.values())
        if kinds == {"dirichlet"}:
            return cls("dirichlet", roles)
        if kinds == {"neumann"}:
            return cls("neumann", roles)
        return cls("mixed", roles)

    def condition(self, wall: str) -> str:
        for w, c in self.wall_conditions:
            if w == wall:
                return c
        raise KeyError(wall)

    @property
    def has_boundary(self) -> bool:
        return self.variant != "noboundary"

    @property
    def uses_l_alpha_transport(self) -> bool:
        """Whether grad_u v leaves the subspace (free-slip rows present)."""
        return self.variant in ("neumann", "mixed")


def _oneside_dy_row(grid, j: int):
    """(node offsets, coefficients) of the one-sided second-order d/dy at row j."""
    h = grid.hy
    if j == 0:
        return (0, 1, 2), (-3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h))
    return (j, j - 1, j - 2), (3.0 / (2 * h), -4.0 / (2 * h), 1.0 / (2 * h))


def _stored(geo: Geometry, key, build):
    """geo.factors[key], built by build() on first use.

    Keys are (kind, alpha, BcRegime), with None where the artifact does not
    depend on alpha or on the regime.  Values must not refer back to the
    geometry (see Geometry).
    """
    store = geo.factors
    if key not in store:
        store[key] = build()
    return store[key]


def _assemble_interior(geo: Geometry, alpha: float):
    if alpha == 0.0:
        return sp.identity(2 * geo.grid.n_nodes, format="csr")
    lop = ca.l_operator(geo.metric, op_vector_unknown(geo.grid))
    L = sp.vstack([lop.c1.mat, lop.c2.mat], format="csr")
    return (sp.identity(2 * geo.grid.n_nodes) - alpha**2 * L).tocsr()


class EllipticOperator:
    """(1 - alpha^2 Lop) with per-regime boundary rows and factorizations.

    A thin view over the geometry's store: operators built on the same
    geometry object with the same alpha share the assembled matrix, the
    BC-substituted matrices and their LUs.
    """

    def __init__(self, geo: Geometry, alpha: float):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.geo = geo
        self.alpha = float(alpha)
        self.n = geo.grid.n_nodes
        self.interior = _stored(geo, ("interior", self.alpha, None),
                                lambda: _assemble_interior(geo, self.alpha))

    # -- pointwise application (no boundary rows) ----------------------------

    def apply(self, u: VectorField) -> VectorField:
        if self.alpha == 0.0:
            return u.copy()
        return u - ca.l_operator(self.geo.metric, u) * self.alpha**2

    # -- boundary rows --------------------------------------------------------

    def _bc_rows(self, bc: BcRegime):
        """(row indices, replacement rows as sparse matrix over 2N unknowns)."""
        geo = self.geo
        grid, metric, bdata = geo.grid, geo.metric, geo.boundary
        rows, cols, vals, row_idx = [], [], [], []
        cursor = 0
        for w in bdata.walls:
            cond = bc.condition(w.name)
            flat = grid.wall_flat_indices(w.name)
            emphi = np.exp(-metric.phi[:, w.j])
            if cond == "dirichlet":
                for comp in (0, 1):
                    for k, nf in enumerate(flat):
                        row_idx.append(comp * self.n + nf)
                        rows.append(cursor)
                        cols.append(comp * self.n + nf)
                        vals.append(1.0)
                        cursor += 1
            else:
                # tangency rows u2 = 0
                for nf in flat:
                    row_idx.append(self.n + nf)
                    rows.append(cursor)
                    cols.append(self.n + nf)
                    vals.append(1.0)
                    cursor += 1
                # free-slip rows on the u1 equations:
                # sign e^{-phi} [dy u1 + G^1_21 u1 + G^1_22 u2] + s u1 = 0
                offs, coefs = _oneside_dy_row(grid, w.j)
                g121 = metric.gamma[0, 1, 0][:, w.j]   # Gamma^1_{y x}
                g122 = metric.gamma[0, 1, 1][:, w.j]   # Gamma^1_{y y}
                for k in range(grid.nx):
                    r = cursor
                    cursor += 1
                    row_idx.append(flat[k])
                    pref = w.normal_sign * emphi[k]
                    for off, cf in zip(offs, coefs):
                        rows.append(r)
                        cols.append(k * grid.ny + off)
                        vals.append(pref * cf)
                    rows.append(r)
                    cols.append(flat[k])
                    vals.append(pref * g121[k] + w.s_weingarten[k])
                    rows.append(r)
                    cols.append(self.n + flat[k])
                    vals.append(pref * g122[k])
        repl = sp.csr_matrix((vals, (rows, cols)), shape=(cursor, 2 * self.n))
        return np.asarray(row_idx, dtype=int), repl

    def matrix(self, bc: BcRegime):
        """(BC-row-substituted system matrix, substituted row indices)."""
        return _stored(self.geo, ("matrix", self.alpha, bc),
                       lambda: self._substituted(bc))

    def _substituted(self, bc: BcRegime):
        if not bc.has_boundary:
            return self.interior, np.zeros(0, dtype=int)
        idx, repl = self._bc_rows(bc)
        A = self.interior.tolil()
        A[idx, :] = repl
        return A.tocsc(), idx

    def factor(self, bc: BcRegime):
        """(SuperLU of matrix(bc), substituted row indices)."""
        return _stored(self.geo, ("lu", self.alpha, bc), lambda: self._factorize(bc))

    def _factorize(self, bc: BcRegime):
        A, idx = self.matrix(bc)
        try:
            lu = spla.splu(A.tocsc())
        except RuntimeError as e:
            raise SolveError(f"singular assembly for regime {bc.variant}: {e}")
        return lu, idx

    def solve(self, f: VectorField, bc: BcRegime) -> VectorField:
        if self.alpha == 0.0:
            return f.copy()
        lu, idx = self.factor(bc)
        rhs = f.flat()
        if idx.size:
            rhs[idx] = 0.0
        x = lu.solve(rhs)
        A, _ = self.matrix(bc)
        res = np.linalg.norm(A @ x - rhs)
        scale = np.linalg.norm(rhs) + 1e-300
        if not res <= 1e-8 * scale:              # NaN fails too
            raise SolveError(f"direct solve residual {res / scale:.3e}")
        return VectorField.from_flat(self.geo.grid, x)


def helmholtz_apply(op: EllipticOperator, u: VectorField) -> VectorField:
    """(1 - alpha^2 Lop) u, pointwise, no boundary rows."""
    return op.apply(u)


def helmholtz_solve(op: EllipticOperator, f: VectorField, bc: BcRegime) -> VectorField:
    """(1 - alpha^2 Lop)^{-1} f mapped into the regime's boundary subspace."""
    return op.solve(f, bc)


def l_alpha(op: EllipticOperator, v: VectorField, bc: BcRegime) -> VectorField:
    """Composite (1 - a^2 Lop)^{-1} (1 - a^2 Lop) v; identity on the subspace."""
    return op.solve(op.apply(v), bc)


def _gradient_kernel_modes(grid, with_y_parity: bool) -> np.ndarray:
    """Nodal basis of the discrete-gradient null space of the pressure.

    Centered stencils on even periodic extents annihilate Nyquist sawtooth
    modes in addition to constants; with zeroed wall rows the y-parity modes
    join the kernel on the channel as well.  Returned as columns (n, k).
    """
    nx, ny = grid.nx, grid.ny
    ii, jj = np.arange(nx), np.arange(ny)
    modes = [np.ones((nx, ny))]
    if nx % 2 == 0:
        modes.append(np.outer((-1.0) ** ii, np.ones(ny)))
    if with_y_parity and (not grid.periodic_y or ny % 2 == 0):
        modes.append(np.outer(np.ones(nx), (-1.0) ** jj))
        if nx % 2 == 0:
            modes.append(np.outer((-1.0) ** ii, (-1.0) ** jj))
    return np.stack([m.ravel() for m in modes], axis=1)


def _divergence(geo: Geometry):
    """Sparse divergence over the stacked unknowns, (n, 2n)."""
    return ca.divergence(geo.metric, op_vector_unknown(geo.grid)).mat


def _gradient(geo: Geometry, bc_idx: np.ndarray):
    """Sparse gradient of the pressure, (2n, n), zero on the BC rows."""
    n = geo.grid.n_nodes
    gradp = ca.gradient(geo.metric, OpScalar(geo.grid, sp.identity(n, format="csr")))
    G = sp.vstack([gradp.c1.mat, gradp.c2.mat], format="csr")
    if bc_idx.size:
        G = G.tolil()
        G[bc_idx, :] = 0.0
        G = G.tocsr()
    return G


class StokesProjector:
    """H^1-orthogonal projection onto divergence-free, BC-satisfying fields.

    A thin view over the geometry's store: projectors for the same (alpha,
    regime) on the same geometry object share one saddle factorization.
    """

    def __init__(self, op: EllipticOperator, bc: BcRegime):
        self.op = op
        self.bc = bc
        geo = op.geo
        self.n = geo.grid.n_nodes
        self.mu = geo.metric.quad_mu().ravel()
        self.D = _stored(geo, ("divergence", None, None), lambda: _divergence(geo))
        self.S, self.lu, self.k = _stored(geo, ("saddle", op.alpha, bc), self._factorize)

    def _factorize(self):
        """(saddle matrix, its SuperLU, number of gauge columns)."""
        op, bc, n, mu = self.op, self.bc, self.n, self.mu
        geo = op.geo
        A, bc_idx = op.matrix(bc)
        G = _stored(geo, ("gradient", None, bc), lambda: _gradient(geo, bc_idx))

        # gauge away the whole discrete-gradient kernel (constants and the
        # sawtooth modes), with matching slack columns in the divergence rows
        modes = _gradient_kernel_modes(geo.grid, with_y_parity=True)
        Z = sp.csr_matrix(mu[:, None] * modes)
        k = modes.shape[1]

        top = sp.hstack([A, -G, sp.csr_matrix((2 * n, k))])
        mid = sp.hstack([self.D, sp.csr_matrix((n, n)), Z])
        bot = sp.hstack([sp.csr_matrix((k, 2 * n)), Z.T, sp.csr_matrix((k, k))])
        S = sp.vstack([top, mid, bot]).tocsc()
        try:
            lu = spla.splu(S)
        except RuntimeError as e:
            raise SolveError(f"stokes saddle factorization failed: {e}")
        return S, lu, k

    def project(self, v: VectorField, return_parts: bool = False):
        n, k = self.n, self.k
        rhs = np.zeros(3 * n + k)
        rhs[2 * n:3 * n] = self.D @ v.flat()
        x = self.lu.solve(rhs)
        res = np.linalg.norm(self.S @ x - rhs)
        scale = np.linalg.norm(rhs) + 1e-300
        if not res <= 1e-7 * scale:              # NaN fails too
            raise SolveError(f"stokes composite residual {res / scale:.3e}")
        w = VectorField.from_flat(self.op.geo.grid, x[:2 * n])
        out = v - w
        if return_parts:
            p = x[2 * n:3 * n].reshape(self.op.geo.grid.nx, self.op.geo.grid.ny)
            return out, w, p
        return out


def stokes_project(sp_: StokesProjector, v: VectorField, bc: BcRegime) -> VectorField:
    if bc != sp_.bc:
        raise ValueError("projector was factorized for a different regime")
    return sp_.project(v)


class GradientRemover:
    """Least-squares removal of the metric-gradient part of a field.

    Solves div(grad p) = div w with the regime's natural normal-derivative
    matching at walls (or periodicity), zero-mean gauge, and returns
    w - grad p.  Used to measure how close a field is to a pure pressure
    gradient.
    """

    def __init__(self, geo: Geometry):
        self.geo = geo
        grid, metric = geo.grid, geo.metric
        n = grid.n_nodes
        self.n = n
        pop = OpScalar(grid, sp.identity(n, format="csr"))
        lap = ca.divergence(metric, ca.gradient(metric, pop))
        A = lap.mat.tolil()
        mu = metric.quad_mu().ravel()
        self.bc_rows = []
        if not grid.periodic_y:
            for w in geo.boundary.walls:
                offs, coefs = _oneside_dy_row(grid, w.j)
                flat = grid.wall_flat_indices(w.name)
                for k in range(grid.nx):
                    A.rows[flat[k]] = [k * grid.ny + o for o in offs]
                    A.data[flat[k]] = list(coefs)
                self.bc_rows.append((w, flat))
        # one-sided wall rows exclude the y-parity sawtooth from the kernel
        modes = _gradient_kernel_modes(grid, with_y_parity=grid.periodic_y)
        Z = sp.csr_matrix(mu[:, None] * modes)
        k = modes.shape[1]
        self.k = k
        S = sp.vstack([
            sp.hstack([A.tocsr(), Z]),
            sp.hstack([Z.T, sp.csr_matrix((k, k))]),
        ]).tocsc()
        self.lu = spla.splu(S)
        self.mu = mu

    def remove_gradient(self, w: VectorField) -> VectorField:
        grid, metric = self.geo.grid, self.geo.metric
        rhs = np.zeros(self.n + self.k)
        rhs[:self.n] = ca.divergence(metric, w).data.ravel()
        for wall, flat in self.bc_rows:
            # match (grad p) . normal = w . normal: dy p = e^{2 phi} w2
            rhs[flat] = metric.e2phi[:, wall.j] * w.c2.data[:, wall.j]
        x = self.lu.solve(rhs)
        p = ScalarField(grid, x[:self.n].reshape(grid.nx, grid.ny))
        return w - ca.gradient(metric, p)
