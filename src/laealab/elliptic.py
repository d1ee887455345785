"""Boundary-condition-aware elliptic solves.

(1 - a^2 Lop), the divergence and the pressure gradient are assembled from
the calculus code that applies them, recorded on a fields.Tape, so
application and assembly agree to round-off.  A regime is its wall rows,
which replace the wall nodes' equations:

    dirichlet wall : u1 = 0, u2 = 0
    neumann wall   : u2 = 0 (tangency) and the tangential free-slip row
                     [grad_n u]^tan + S_n(u^tan) = 0, with a one-sided
                     second-order normal derivative and the shape-operator term

and the factorized system realizes the inverse mapping arbitrary fields onto
the boundary-condition subspace.  The regime's wall rows R, the rows idx
they replace, the divergence D and C = [D; R] are one record, Constraints,
stored once per (geometry, regime) and shared by every alpha.  The torus is
the regime with no walls: its idx and R are empty, and every path runs on
it unchanged.

The Stokes projector P maps every field into the phase space null(C), A
below being (1 - a^2 Lop) with its rows idx replaced by R.  On a field with
R v = 0 it is the composite P v = v - A^{-1} grad p, where the zero-mean
potential p solves div(A^{-1} grad p) = div v.  Any other v it first
carries onto the BC subspace by La = A^{-1} (1 - a^2 Lop), which keeps the
interior rows of (1 - a^2 Lop) v: P v = P La v for every v, an oblique
projection.  The saddle's first block is A, so a source f there gives
P(v + A^{-1} f) from the same one solve (block elimination), as v + w from
the sparse saddle system in (w, p, lam):

    A w - G p            = f        (G the pressure gradient, zero on the
                                     BC rows, where -R v takes f's place)
    div w + mu lam       = -div v   (mu absorbs the quadrature incompatibility)
    sum(mu p)            = 0        (gauge)

so that v + w = La v + A^{-1} (f + grad p), f's BC rows read as zero, since
La v - v = A^{-1} [0; -R v]; R(v + w) = 0 and div(v + w) sit at the
factorization's residual level, independent of h.  Every projected
right-hand side of the dynamics, the bracket and the connector is one such
solve, its transport term passed as v, its residual held to 1e-8 as the
elliptic solve's is.  At a = 0 on the torus the composite is the identity
and P is the discrete Leray projector: P v is v less its gradient part,
which is how gradient parts are removed elsewhere.  On a channel at a = 0
the composite is the identity only on the BC subspace.

alpha is a coefficient and nothing else: it enters only as a^2, in
(1 - a^2 Lop) and the H^1 Gram matrix, and P lands in null(C) at every
alpha, a = 0 included.  At a = 0 on a channel that is null([D; R]), the
a -> 0 limit of the family on a fixed grid.

The phase space of the flow check is null(C), the record's C.  Its saddle
is [[W, C^T], [C, 0]], W the H^1 Gram matrix.

Neither saddle is factored.  On every regime both are replaced by their
null-space reduction (Benzi, Golub & Liesen, Acta Numerica 14 (2005), sec.
6), a system on the discrete stream function.  The record carries a trial
basis B of null(C) (Constraints.B) and a test basis T of {t : t_idx = 0,
G^T t = 0}, the tests that see neither the BC rows nor p: T^T (A u - G p) =
T^T A u.  So the saddle's u = v + w is exactly B a with

    K a = T^T (A v + f),    K = T^T A B,

f's BC rows ignored because T vanishes on them.  K is bordered by the
kernels of B's coefficients (as rows) and of T's (as columns), which fix
the stream function's gauge.  The projection lands in null(C) by
construction, to round-off in B alone.  Its transpose is (A^T y, y), y = T
K^{-T} B^T z, and the phase space's solve is B (B^T W B)^{-1} B^T r,
bordered by B's kernel on both sides.  One _StreamFunction serves every
regime; the saddles (_stokes_saddle, _phase_saddle) are built only as the
reference the tests hold it to.  The reduced systems fill 2.28M L+U on the
curved 64^2 torus and 1.62M on the 64x65 channels, against 7.58M and 5.83M
for the saddles under the same dissection order.

On the torus B = [curl | H], (2n, n + 2k): curl psi = e^{-2 phi} (DY psi,
-DX psi), which D annihilates because DX and DY commute, and the 2k fields
e^{-2 phi} s e_i of the k gradient-kernel modes s.  With M = diag(quad_mu
e^{2 phi}) per component, summation by parts without wall terms gives G^T M
= -diag(quad_mu) D, so null(G^T) = M null(D) and T = M B.  The border is
the modes s on both sides.

On a channel the wall rows break that adjointness (on the 8x9 mixed channel
rank D = n - 2 but rank G = n - 4), so T is built from G^T's own kernel
instead of as M B.  Let s be the x-modes, the constant and, for even nx,
the sawtooth: the kernel of the periodic centred d/dx.

    B = curl psi, psi on each wall row a combination of s (so u2 = 0 there,
        the tangency row) and psi on rows 1 and ny - 2 eliminated node by
        node through the wall's u1 row of R (u1 = 0 or free slip), whose
        coefficient on it is nonzero; and the shears e^{-2 phi} (s f, 0),
        f the unit vector of the middle row.  A shear is in null(C) but is
        no curl: f is outside the range of the wall-closed d/dy, since
        kappa . f != 0, kappa the tapered y-sawtooth that spans the kernel
        of its transpose.  The torus's H is dropped: e^{-2 phi} e_1 is the
        curl of y.
    T = e^{2 phi} (DY^T chi, -DX^T chi), chi on each wall row a combination
        of s and chi on rows 1 and ny - 2 fixed by (DY^T chi) = 0 at the
        wall node; and the shears e^{2 phi} (s f, 0), outside the range of
        DY^T since f sums to 1.  Each vanishes on every wall row, and G^T T
        = 0 because DX and DY commute.

K's unknowns are the stream function on the free rows 2 to ny - 3, then
two wall amplitudes and one shear per x-mode; the border is psi = s (B's
kernel) and chi = s kappa (T's).

The lab factors three systems: the BC-substituted (1 - a^2 Lop) and the
two stream-function systems.  Each is one record, (SuperLU, permutation,
matrix, row scaling), whose solve holds every right-hand side's residual
against the unpermuted, unscaled matrix; its transpose solve uses the same
factors and holds the residual against the transposed matrix, which gives
the transpose of the projection, in v and in the source.  Each is ordered
by nested dissection of the grid's nodes (on the torus the two wrap-around
seams first): a node's unknowns, its u1 and u2 or its stream function, in
its node's place, and the stream function's mode, wall and shear unknowns
and border rows last; that is the one ordering on every grid.  A channel's
elliptic LU is balanced first (_balance): its BC rows are scaled by powers
of two toward the interior's largest entry, which keeps their pivots large
enough that SuperLU swaps no row.  The stream-function systems have no BC
rows and the torus elliptic LU none, so they are factored as they are.  The
reference saddles are factored by a plain splu, under SuperLU's own COLAMD
order and unbalanced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import calculus as ca
from .fields import Tape, VectorField
from .geometry import Geometry
from .grid import matvec_last

_ND_LEAF = 64          # boxes of at most this many nodes keep their natural order
_ND_PIVOT = 0.01       # SuperLU's diag_pivot_thresh under the dissection order
_SCALED_PIVOT = 0.1    # ... for a balanced matrix (_balance)
_EMPTY = np.zeros(0, dtype=int)


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class BcRegime:
    """Boundary regime: the condition, 'dirichlet' or 'neumann', that each
    wall carries, as sorted (wall, condition) pairs.  The torus is
    BcRegime(), the regime with no walls.

    variant names the regime: 'noboundary', 'dirichlet' or 'neumann' where
    every wall carries that condition, else 'mixed'.
    """

    wall_conditions: tuple = ()

    @classmethod
    def from_domain(cls, spec) -> "BcRegime":
        return cls(tuple(sorted((spec.wall_roles or {}).items())))

    @property
    def variant(self) -> str:
        kinds = {c for _, c in self.wall_conditions}
        if len(kinds) == 1:
            return kinds.pop()
        return "mixed" if kinds else "noboundary"

    @property
    def has_boundary(self) -> bool:
        return bool(self.wall_conditions)


def _oneside_dy_row(grid, j: int):
    """(node offsets, coefficients) of the one-sided second-order d/dy at row j."""
    h = grid.hy
    if j == 0:
        return (0, 1, 2), (-3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h))
    return (j, j - 1, j - 2), (3.0 / (2 * h), -4.0 / (2 * h), 1.0 / (2 * h))


def _stored(geo: Geometry, key, build):
    """geo.factors[key], built by build() on first use.

    Keys are (kind, alpha, BcRegime), with None where the artifact does not
    depend on alpha or on the regime: a regime's Constraints are keyed by
    the regime alone, at every alpha.  The nodes' dissection order is keyed
    by the stencil reach in the regime's place.  Values must not refer back
    to the geometry (see Geometry).
    """
    store = geo.factors
    if key not in store:
        store[key] = build()
    return store[key]


def _reach(M, grid, nodes: np.ndarray):
    """(rx, ry): the largest x and y node distance that M's node unknowns couple.

    Unknown r < nodes.size belongs to node nodes[r] (the unknowns after them
    are the stream function's mode, wall and shear unknowns and border rows,
    and do not count); distances wrap around the periodic directions only.
    """
    nx, ny = grid.nx, grid.ny
    C = M.tocoo()
    keep = (C.row < nodes.size) & (C.col < nodes.size)
    r, c = nodes[C.row[keep]], nodes[C.col[keep]]
    di = np.abs(r // ny - c // ny)
    dj = np.abs(r % ny - c % ny)
    if grid.periodic_y:
        dj = np.minimum(dj, ny - dj)
    return int(np.minimum(di, nx - di).max()), int(dj.max())


def _dissection(nx: int, ny: int, rx: int, ry: int, periodic_y: bool) -> list[np.ndarray]:
    """Nested-dissection groups of the nodes of an nx x ny grid, periodic in x
    and, on the torus, in y: the leaf boxes and separator bands, each in its
    natural order, in elimination order.

    Recursive coordinate bisection (George 1973): a box is cut by a band of
    separator nodes, as wide as the stencil's reach across it, and its two
    halves are ordered before the band.  A box that wraps around in a
    direction is cut along both of its seams at once, and each seam's band
    is one group.  Each box is cut along the axis with the smaller separator
    (ties cut the y axis, which fills less on the curved torus); boxes of at
    most _ND_LEAF nodes, or too thin to cut, are leaves.
    """
    out = []

    def nodes(i0, i1, j0, j1):
        out.append((np.arange(i0, i1)[:, None] * ny + np.arange(j0, j1)).ravel())

    def cut(lo, hi, wraps, reach):
        """(halves, bands) of [lo, hi) along one axis."""
        if wraps:
            mid = (lo + reach + hi) // 2
            return (((lo + reach, mid), (mid + reach, hi)),
                    ((lo, lo + reach), (mid, mid + reach)))
        mid = (lo + hi - reach) // 2
        return ((lo, mid), (mid + reach, hi)), ((mid, mid + reach),)

    def box(i0, i1, j0, j1, px, py):
        wx, wy = i1 - i0, j1 - j0
        sx = rx * wy * (1 + px) if wx > (1 + px) * rx + 1 else np.inf
        sy = ry * wx * (1 + py) if wy > (1 + py) * ry + 1 else np.inf
        if wx * wy <= _ND_LEAF or min(sx, sy) == np.inf:
            nodes(i0, i1, j0, j1)
        elif sx < sy:
            halves, bands = cut(i0, i1, px, rx)
            for a, b in halves:
                box(a, b, j0, j1, False, py)
            for a, b in bands:
                nodes(a, b, j0, j1)
        else:
            halves, bands = cut(j0, j1, py, ry)
            for a, b in halves:
                box(i0, i1, a, b, px, False)
            for a, b in bands:
                nodes(i0, i1, a, b)

    box(0, nx, 0, ny, True, periodic_y)
    return out


def _balance(M, bc_rows: np.ndarray):
    """rows, the power-of-two row scaling that balances M before it is
    factored, or None.

    bc_rows are M's rows that carry boundary conditions.  A BC row's pivot
    is at most its own largest entry, 1 for a Dirichlet or tangency row and
    about 2/h for a free-slip row, against |A|, the largest entry of the
    other rows (1,676 at alpha 0.3 on the 64x65 channel).  So where |A|
    outweighs them SuperLU takes small pivots at _ND_PIVOT: it swaps rows
    past them, which adds fill.

    Each BC row is scaled alone by the power of two nearest |A| over its
    largest entry, never below 1.  Every scale is a power of two, so scaling
    rounds nothing, and a balanced M is pivoted at _SCALED_PIVOT.  None
    where every scale would be 1 (no BC rows, as on the torus).
    """
    if not bc_rows.size:
        return None
    V = abs(M.tocsr())
    interior = np.ones(M.shape[0], dtype=bool)
    interior[bc_rows] = False
    e = np.round(np.log2(V[interior].max() / V[bc_rows].max(axis=1).toarray().ravel()))
    rows = np.ones(M.shape[0])
    rows[bc_rows] = 2.0 ** np.maximum(e, 0.0)
    return None if (rows == 1.0).all() else rows


class _Factorization(NamedTuple):
    """A factorized matrix: lu is SuperLU of (R matrix)[perm][:, perm], perm
    the dissection order of of() (the identity for the reference saddles)
    and R = diag(rows) its balancing (_balance); rows None is R = 1."""

    lu: spla.SuperLU
    perm: np.ndarray
    matrix: sp.spmatrix
    rows: np.ndarray | None = None

    @classmethod
    def of(cls, geo: Geometry, M, what: str, nodes: np.ndarray,
           bc_rows: np.ndarray = _EMPTY) -> "_Factorization":
        """The factorization of M, whose unknown r < nodes.size belongs to
        node nodes[r], the unknowns past nodes.size (the stream function's
        mode, wall and shear unknowns and border rows) to none, and whose
        rows bc_rows carry boundary conditions.

        On every grid M is factored as M[perm][:, perm] under SuperLU's
        NATURAL column order.  perm takes the node unknowns in the
        nested-dissection order of their nodes, a node's u1 before its u2,
        and the unknowns past nodes.size last, in order: the elliptic LU gets
        the node-interleaved dissection order, and a stream-function system
        the dissection order of its unknowns' nodes.  M is balanced first
        where its interior outweighs its BC rows (_balance).  The groups are
        built once per geometry and reach and stored with the
        factorizations.  A singular M raises SolveError, its message
        prefixed by what.
        """
        grid = geo.grid
        reach = _reach(M, grid, nodes)
        groups = _stored(geo, ("dissection", None, reach), lambda: _dissection(
            grid.nx, grid.ny, *reach, grid.periodic_y))
        rank = np.empty(grid.n_nodes, dtype=int)
        rank[np.concatenate(groups)] = np.arange(grid.n_nodes)
        # each group is contiguous in rank, and a stable sort keeps a node's u1 before its u2
        perm = np.r_[np.argsort(rank[nodes], kind="stable"), np.arange(nodes.size, M.shape[0])]
        rows = _balance(M, bc_rows)
        S = M if rows is None else sp.diags(rows) @ M
        try:
            lu = spla.splu(S.tocsr()[perm][:, perm].tocsc(), permc_spec="NATURAL",
                           diag_pivot_thresh=_ND_PIVOT if rows is None else _SCALED_PIVOT)
        except RuntimeError as e:
            raise SolveError(f"{what}: {e}")
        return cls(lu, perm, M, rows)

    def solve(self, rhs: np.ndarray, tol: float, what: str) -> np.ndarray:
        """The solution of matrix x = b for each right-hand side b along rhs's last axis.

        The batch is permuted in and out with one fancy index each.  One
        SuperLU call per right-hand side, so a batch member gets the bits it
        would get alone.  With scipy 1.17.1 on one OpenBLAS thread a
        multi-column call matches per-column calls on the 16^2 torus and the
        12x13 channel, but from 4 columns on an untransposed one differs in
        the last bits on larger grids, depending on the right-hand sides:
        the elliptic LU from the 24^2 torus on, the Stokes stream-function
        system on the 48^2 torus and the 40x41 to 64x65 mixed channels.
        Each residual against the unpermuted matrix is held to tol on its own,
        so one bad member fails the batch.
        """
        return self._solve(rhs, tol, what, "N")

    def solve_transpose(self, rhs: np.ndarray, tol: float, what: str) -> np.ndarray:
        """As solve(), for matrix^T x = b: the same factors under the same
        permutation, each residual held against matrix^T.  With R the row
        scaling, matrix^T x = b is (R matrix)^T y = b with x = R y, so the
        solution is scaled instead of the right-hand side."""
        return self._solve(rhs, tol, what, "T")

    def _solve(self, rhs, tol, what, trans):
        lu, perm, A, rows = self
        scale_in, scale_out = (rows, None) if trans == "N" else (None, rows)
        A = A if trans == "N" else A.T
        b = (rhs if scale_in is None else rhs * scale_in)[..., perm]
        if b.ndim == 1:
            x = lu.solve(b, trans)
        else:
            x = np.stack([lu.solve(c, trans)
                          for c in b.reshape(-1, b.shape[-1])]).reshape(b.shape)
        y, x = x, np.empty_like(x)
        x[..., perm] = y
        if scale_out is not None:
            x *= scale_out
        if rhs.ndim == 1:
            res, norm = np.linalg.norm(A @ x - rhs), np.linalg.norm(rhs) + 1e-300
        else:
            res = np.linalg.norm(matvec_last(A, x) - rhs, axis=-1)
            norm = np.linalg.norm(rhs, axis=-1) + 1e-300
        ok = res <= tol * norm                          # NaN fails too
        # a lone bool is tested as it is: np.all costs microseconds per solve
        if not (ok.all() if rhs.ndim > 1 else ok):
            j = int(np.argmin(np.ravel(ok)))
            raise SolveError(f"{what} residual {np.ravel(res / norm)[j]:.3e}"
                             + (f" (batch member {j})" if rhs.ndim > 1 else ""))
        return x


def _replace_rows(M, idx, R):
    """M with its rows idx replaced by the rows of R, in order (M itself if idx is empty)."""
    if not idx.size:
        return M
    keep = np.ones(M.shape[0])
    keep[idx] = 0.0
    P = sp.csr_matrix((np.ones(idx.size), (idx, np.arange(idx.size))),
                      shape=(M.shape[0], idx.size))
    return sp.diags(keep) @ M + P @ R


def _bordered(K, cols: np.ndarray, rows: np.ndarray):
    """CSC [[K, cols], [rows^T, 0]], K bordered by the dense columns cols and rows."""
    return sp.bmat([[K, sp.csr_matrix(cols)], [sp.csr_matrix(rows).T, None]], format="csc")


def _assemble_interior(geo: Geometry, alpha: float):
    tape = Tape(geo.grid)
    lop = ca.l_operator(geo.metric, tape.unknown())
    L = sp.vstack(tape.matrices(lop.comps()), format="csr")
    return (sp.identity(2 * geo.grid.n_nodes) - alpha**2 * L).tocsr()


def _assemble_gram(geo: Geometry, alpha: float):
    """Sparse W with u^T W v = <u, v>_1, the symmetric-gradient part recorded
    on a fields.Tape."""
    m = geo.metric
    q0 = (m.quad_mu() * m.e2phi).ravel()
    W = sp.block_diag([sp.diags(q0), sp.diags(q0)]).tocsr()
    tape = Tape(geo.grid)
    D = ca.def_tensor(m, tape.unknown())
    qbar = sp.diags(m.quad_mu().ravel())
    for B in tape.matrices([D[i, j] for i in range(2) for j in range(2)]):
        W = W + 2 * alpha**2 * (B.T @ qbar @ B)
    return W.tocsr()


class Constraints(NamedTuple):
    """The constraints of one (geometry, regime), shared by every alpha.

    R holds the regime's wall rows, which replace the velocity rows idx of
    (1 - a^2 Lop); D is the divergence, (n, 2n); and C = [D; R].  The
    torus's regime has no walls, so its idx and R are empty and C is D.

    B is the trial basis of null(C) that projections are solved on, T their
    test basis, a basis of {t : t_idx = 0, G^T t = 0}, G the pressure
    gradient (_assemble_gradient; module docstring);
    kernel and test_kernel (dense, one column per mode) span the kernels of
    B's and T's coefficients, and nodes[r] is the node of the stream
    function's unknown r, the coefficients past nodes.size having none.
    """

    idx: np.ndarray
    R: sp.csr_matrix
    D: sp.csr_matrix
    C: sp.csr_matrix
    B: sp.csr_matrix
    T: sp.csr_matrix
    kernel: np.ndarray
    test_kernel: np.ndarray
    nodes: np.ndarray


def _constraints(geo: Geometry, bc: BcRegime) -> Constraints:
    """The stored Constraints of (geo, bc), built on first use."""
    return _stored(geo, ("constraints", None, bc), lambda: _build_constraints(geo, bc))


def _build_constraints(geo: Geometry, bc: BcRegime) -> Constraints:
    walls = tuple(w.name for w in geo.walls)
    if tuple(w for w, _ in bc.wall_conditions) != walls:
        raise ValueError(f"regime {bc.variant} {bc.wall_conditions} does not fit "
                         f"a geometry with walls {walls}")
    grid, metric, n = geo.grid, geo.metric, geo.grid.n_nodes
    conditions = dict(bc.wall_conditions)
    idx, blocks = [_EMPTY], [sp.csr_matrix((0, 2 * n))]

    def rows(at, cols, vals):
        """Wall rows for the velocity rows at, with entries vals[c][k] at columns cols[c][k]."""
        idx.append(at)
        r = np.repeat(np.arange(at.size), len(cols))
        c, v = np.stack(cols, axis=1).ravel(), np.stack(vals, axis=1).ravel()
        blocks.append(sp.csr_matrix((v, (r, c)), shape=(at.size, 2 * n)))

    for w in geo.walls:
        flat = grid.wall_flat_indices(w.name)
        if conditions[w.name] == "dirichlet":             # u1 = 0, u2 = 0
            unit = np.concatenate([flat, n + flat])
            rows(unit, [unit], [np.ones(unit.size)])
            continue
        rows(n + flat, [n + flat], [np.ones(flat.size)])   # tangency u2 = 0
        # free-slip rows on the u1 equations:
        # n^y [dy u1 + G^1_21 u1 + G^1_22 u2] + s u1 = 0
        offs, coefs = _oneside_dy_row(grid, w.j)
        g121 = metric.gamma[0, 1, 0][:, w.j]   # Gamma^1_{y x}
        g122 = metric.gamma[0, 1, 1][:, w.j]   # Gamma^1_{y y}
        rows(flat, [flat - w.j + off for off in offs] + [flat, n + flat],
             [w.normal * cf for cf in coefs]
             + [w.normal * g121 + w.s_weingarten, w.normal * g122])
    idx, R = np.concatenate(idx), sp.vstack(blocks, format="csr")
    R.eliminate_zeros()
    tape = Tape(grid)
    D = tape.matrices([ca.divergence(metric, tape.unknown())])[0]
    bases = _channel_bases(geo, idx, R) if idx.size else _torus_bases(geo)
    return Constraints(idx, R, D, sp.vstack([D, R], format="csr"), *bases)


def _assemble_gradient(geo: Geometry, idx: np.ndarray):
    """The pressure gradient G, (2n, n), zero on the rows idx."""
    tape = Tape(geo.grid)
    G = sp.vstack(tape.matrices(ca.gradient(geo.metric, tape.scalar()).comps()), format="csr")
    return _replace_rows(G, idx, sp.csr_matrix((idx.size, geo.grid.n_nodes)))


def _x_modes(nx: int) -> np.ndarray:
    """(nx, ks): the kernel of the periodic centred d/dx, the constant and,
    for even nx, the sawtooth."""
    modes = [np.ones(nx)]
    if nx % 2 == 0:
        modes.append((-1.0) ** np.arange(nx))
    return np.stack(modes, axis=1)


def _dy_cokernel(ny: int) -> np.ndarray:
    """kappa, which spans the kernel of dy1^T for a channel's d/dy dy1
    (centred inside, grid._d1_wall's one-sided rows at the walls): the
    y-sawtooth, tapered to 7/8, 1/2 and 1/8 over the three rows at each wall."""
    taper = np.ones(ny)
    taper[:3] = taper[:-4:-1] = (1 / 8, 1 / 2, 7 / 8)
    return (-1.0) ** np.arange(ny) * taper


def _torus_bases(geo: Geometry):
    """The torus's (B, T, kernel, test_kernel, nodes): B = [curl | H], (2n,
    n + 2k), a basis of null(D), and T = M B.

    curl psi = e^{-2 phi} (DY psi, -DX psi), which D annihilates because DX
    and DY commute; its kernel is the k gradient-kernel modes s, the stream
    function's kernel and T's.  H holds the 2k fields e^{-2 phi} s e_i,
    which D annihilates because DX s = DY s = 0.  So B spans the (n - k) +
    2k = n + k dimensions of null(D).
    """
    grid, m = geo.grid, geo.metric
    em = sp.diags(m.em2phi.ravel())
    s = _gradient_kernel_modes(grid)
    modes, zero = em @ s, np.zeros_like(s)
    B = sp.bmat([[em @ grid.DY, modes, zero], [-(em @ grid.DX), zero, modes]], format="csr")
    M = sp.diags(np.tile((m.quad_mu() * m.e2phi).ravel(), 2))
    kernel = np.r_[s, np.zeros((2 * s.shape[1], s.shape[1]))]
    return B, (M @ B).tocsr(), kernel, kernel, np.arange(grid.n_nodes)


def _channel_bases(geo: Geometry, idx: np.ndarray, R):
    """A channel's (B, T, kernel, test_kernel, nodes) (module docstring).

    The coefficients are the stream function on the free nodes, rows 2 to
    ny - 3, in natural order, then each wall's ks mode amplitudes, y0's
    then yL's, then ks shear amplitudes.  B = [curl E | e^{-2 phi} S] and T
    = [e^{2 phi} (DY^T, -DX^T) F | e^{2 phi} S], S the shears s (x) f, f
    the unit vector of the middle row.  E and F map the coefficients to the
    nodes: the wall's modes on each wall row, and rows 1 and ny - 2 filled
    node by node, by E so that the wall's u1 row of R holds, by F so that
    DY^T chi vanishes at the wall node.
    """
    grid, m = geo.grid, geo.metric
    nx, ny, n = grid.nx, grid.ny, grid.n_nodes
    s = _x_modes(nx)
    ks = s.shape[1]
    i, j = np.divmod(np.arange(n), ny)
    free = np.flatnonzero((j >= 2) & (j <= ny - 3))
    wall = np.flatnonzero((j == 0) | (j == ny - 1))
    nf = free.size
    first = nf + ks * (j[wall] > 0)                     # the wall's first mode amplitude
    E0 = sp.csr_matrix((np.r_[np.ones(nf), s[i[wall]].ravel()],
                        (np.r_[free, np.repeat(wall, ks)],
                         np.r_[np.arange(nf), (first[:, None] + np.arange(ks)).ravel()])),
                       shape=(n, nf + 2 * ks))
    at = idx[idx < n]                                   # the wall nodes' u1 rows
    beside = at + np.where(at % ny == 0, 1, -1)

    def eliminated(rows):
        """E0 with rows beside filled so that rows @ out = 0, row r by its entry at beside[r]."""
        pivots = np.asarray(rows[np.arange(at.size), beside]).ravel()
        P = sp.csr_matrix((-1.0 / pivots, (beside, np.arange(at.size))), shape=(n, at.size))
        return (E0 + P @ (rows @ E0)).tocsr()

    em, e2 = sp.diags(m.em2phi.ravel()), sp.diags(m.e2phi.ravel())
    E = eliminated((R[idx < n] @ sp.vstack([em @ grid.DY, -(em @ grid.DX)])).tocsr())
    F = eliminated(grid.DYT[at])
    S = sp.kron(s, np.eye(ny)[:, ny // 2:ny // 2 + 1], format="csr")
    B = sp.bmat([[em @ grid.DY @ E, em @ S], [-(em @ grid.DX @ E), None]], format="csr")
    T = sp.bmat([[e2 @ grid.DYT @ F, e2 @ S], [-(e2 @ grid.DXT @ F), None]], format="csr")
    kappa, eye, shears = _dy_cokernel(ny), np.eye(ks), np.zeros((ks, ks))
    kernel = np.r_[s[i[free]], eye, eye, shears]
    test_kernel = np.r_[s[i[free]] * kappa[j[free], None], kappa[0] * eye, kappa[-1] * eye,
                        shears]
    return B, T, kernel, test_kernel, free


class EllipticOperator:
    """(1 - alpha^2 Lop) with per-regime boundary rows and factorizations.

    A thin view over the geometry's store: operators built on the same
    geometry object with the same alpha share the assembled matrix, the
    BC-substituted matrices and their LUs.
    """

    def __init__(self, geo: Geometry, alpha: float):
        if not 0 <= alpha < np.inf:                      # NaN fails too
            raise ValueError(f"alpha must be nonnegative and finite, got {alpha!r}")
        self.geo = geo
        self.alpha = float(alpha)
        self.n = geo.grid.n_nodes
        self.interior = _stored(geo, ("interior", self.alpha, None),
                                lambda: _assemble_interior(geo, self.alpha))

    # -- application (no boundary rows) -------------------------------------

    def apply(self, u: VectorField) -> VectorField:
        """(1 - a^2 Lop) u by the assembled interior; u may be a batch."""
        return VectorField.from_flat(self.geo.grid, matvec_last(self.interior, u.flat()))

    # -- boundary rows --------------------------------------------------------

    def matrix(self, bc: BcRegime):
        """(BC-row-substituted system matrix, substituted row indices)."""
        con = _constraints(self.geo, bc)
        return _stored(self.geo, ("matrix", self.alpha, bc),
                       lambda: _replace_rows(self.interior, con.idx, con.R)), con.idx

    def factor(self, bc: BcRegime) -> _Factorization:
        """The _Factorization of matrix(bc), balanced against its BC rows."""
        A, bc_idx = self.matrix(bc)
        return _stored(self.geo, ("lu", self.alpha, bc), lambda: _Factorization.of(
            self.geo, A, f"singular assembly for regime {bc.variant}",
            np.tile(np.arange(self.n), 2), bc_rows=bc_idx))

    def solve(self, f: VectorField, bc: BcRegime) -> VectorField:
        """(1 - a^2 Lop)^{-1} f onto the regime's BC subspace, at every alpha;
        f may be a batch."""
        fac = self.factor(bc)
        rhs = f.flat()
        rhs[..., _constraints(self.geo, bc).idx] = 0.0
        return VectorField.from_flat(self.geo.grid, fac.solve(rhs, 1e-8, "direct solve"))


def l_alpha(op: EllipticOperator, v: VectorField, bc: BcRegime) -> VectorField:
    """Composite (1 - a^2 Lop)^{-1} (1 - a^2 Lop) v; identity on the subspace."""
    return op.solve(op.apply(v), bc)


def _gradient_kernel_modes(grid) -> np.ndarray:
    """Nodal basis of the discrete-gradient null space of the pressure.

    Centered stencils on even periodic extents annihilate Nyquist sawtooth
    modes in addition to constants; with zeroed wall rows the y-parity modes
    join the kernel on the channel as well.  Returned as columns (n, k).
    """
    ny = grid.ny
    ys = [np.ones(ny)]
    if not grid.periodic_y or ny % 2 == 0:
        ys.append((-1.0) ** np.arange(ny))
    return np.stack([np.outer(x, y).ravel() for y in ys for x in _x_modes(grid.nx).T], axis=1)


class _Saddle(NamedTuple):
    """The reference constrained solve that tests compare the stream
    function's against: fac factors a saddle [[X, .], [C, 0]], X on the 2n
    velocities, bordered by k gauge columns (_stokes_saddle, _phase_saddle);
    con is the regime's Constraints."""

    fac: _Factorization
    con: Constraints

    def solve(self, r: np.ndarray, what: str) -> np.ndarray:
        """The velocities of the saddle's solution for [r; 0], for each r
        along the last axis."""
        n2 = r.shape[-1]
        rhs = np.zeros(r.shape[:-1] + self.fac.matrix.shape[:1])
        rhs[..., :n2] = r
        return self.fac.solve(rhs, 1e-8, what)[..., :n2]

    def project(self, vf, ff) -> np.ndarray:
        """The Stokes saddle solved for [f with -R v in its BC rows; -div v;
        0], and v + w (StokesProjector.project)."""
        D, R, idx = self.con.D, self.con.R, self.con.idx
        n = D.shape[0]
        batch = np.broadcast_shapes(*(x.shape[:-1] for x in (vf, ff) if x is not None))
        rhs = np.zeros(batch + self.fac.matrix.shape[:1])
        if ff is not None:
            rhs[..., :2 * n] = ff
            rhs[..., idx] = 0.0
        if vf is not None:
            rhs[..., 2 * n:3 * n] = -matvec_last(D, vf)
            rhs[..., idx] = -matvec_last(R, vf)
        w = self.fac.solve(rhs, 1e-8, "stokes composite")[..., :2 * n]
        return w if vf is None else vf + w

    def project_transpose(self, zf) -> tuple[np.ndarray, np.ndarray]:
        """One transposed saddle solve, whose divergence rows and BC rows of
        the first block give v's cotangent, and whose first block with the
        BC rows zeroed is f's."""
        D, R, idx = self.con.D, self.con.R, self.con.idx
        n = D.shape[0]
        rhs = np.zeros(zf.shape[:-1] + self.fac.matrix.shape[:1])
        rhs[..., :2 * n] = zf
        x = self.fac.solve_transpose(rhs, 1e-8, "transposed stokes composite")
        yv = zf - matvec_last(D.T, x[..., 2 * n:3 * n])
        yv -= matvec_last(R.T, x[..., idx])
        yf = x[..., :2 * n]
        yf[..., idx] = 0.0
        return yv, yf


class _StreamFunction(NamedTuple):
    """The constrained solve on the stream function, on every regime: fac
    factors K = T^T X B, B the trial basis of null(C) and T the test basis
    (M B on the torus, B for the phase space), bordered by the kernels of
    T's and B's coefficients (module docstring)."""

    fac: _Factorization
    B: sp.csr_matrix
    T: sp.csr_matrix
    X: sp.csr_matrix

    def _through(self, solve, into, out, r, what):
        """out x for each r along the last axis, x the first columns of
        solve([into^T r; 0]), the border rows' right-hand side zero."""
        nb = into.shape[1]
        rhs = np.zeros(r.shape[:-1] + self.fac.matrix.shape[:1])
        rhs[..., :nb] = matvec_last(into.T, r)
        return matvec_last(out, solve(rhs, 1e-8, what)[..., :nb])

    def solve(self, r: np.ndarray, what: str) -> np.ndarray:
        """B K^{-1} T^T r, the member u of null(C) with T^T (X u - r) = 0,
        for each r along the last axis."""
        return self._through(self.fac.solve, self.T, self.B, r, what)

    def project(self, vf, ff) -> np.ndarray:
        """solve(X v + f) (StokesProjector.project)."""
        r = ff
        if vf is not None:
            r = matvec_last(self.X, vf) if ff is None else matvec_last(self.X, vf) + ff
        return self.solve(r, "stokes composite")

    def project_transpose(self, zf) -> tuple[np.ndarray, np.ndarray]:
        """(X^T y, y), y = T K^{-T} B^T z."""
        y = self._through(self.fac.solve_transpose, self.B, self.T, zf,
                          "transposed stokes composite")
        return matvec_last(self.X.T, y), y


def _stokes_saddle(op: EllipticOperator, bc: BcRegime) -> _Factorization:
    """The factorization of (op, bc)'s Stokes saddle (module docstring),
    bordered by gauge columns on the whole discrete-gradient kernel
    (constants and the sawtooth modes), with matching slack columns in the
    divergence rows: the reference the stream function's projection
    reproduces, factored by a plain splu (COLAMD, unbalanced)."""
    geo, n = op.geo, op.n
    con = _constraints(geo, bc)
    A, _ = op.matrix(bc)
    K = sp.bmat([[A, -_assemble_gradient(geo, con.idx)], [con.D, sp.csr_matrix((n, n))]])
    S = _gauge_bordered(geo, K)
    return _Factorization(spla.splu(S), np.arange(S.shape[0]), S)


def _phase_saddle(geo: Geometry, W, bc: BcRegime) -> _Factorization:
    """The factorization of [[W, C^T], [C, 0]], bordered by k gauge columns
    and factored as the Stokes saddle is: the reference for the phase
    space's reduction."""
    con = _constraints(geo, bc)
    S = _gauge_bordered(geo, sp.bmat([[W, con.C.T], [con.C, None]]))
    return _Factorization(spla.splu(S), np.arange(S.shape[0]), S)


def _gauge_bordered(geo: Geometry, K):
    """K bordered by the gauge columns mu s, s the gradient-kernel modes, in
    its rows 2n to 3n and in matching rows: they fix the pressure kernel
    exactly and give the constrained rows a matching slack."""
    mu, modes = geo.metric.quad_mu().ravel(), _gradient_kernel_modes(geo.grid)
    gauge = np.zeros((K.shape[0], modes.shape[1]))
    gauge[2 * mu.size:3 * mu.size] = mu[:, None] * modes
    return _bordered(K, gauge, gauge)


def _stream_function(geo: Geometry, X, con: Constraints, T, border,
                     what: str) -> _StreamFunction:
    """The _StreamFunction of first block X, con's trial basis B and test
    basis T, whose coefficients' kernel is border: K = T^T X B bordered by
    the columns border and the rows con.kernel, its unknowns ordered by
    their nodes (con.nodes) and the rest last."""
    S = _bordered((T.T @ X @ con.B).tocsr(), border, con.kernel)
    return _StreamFunction(_Factorization.of(geo, S, what, con.nodes), con.B, T, X)


class PhaseSpace(NamedTuple):
    """The phase space null(C) of one (geometry, alpha, regime), C = [D; R]
    the divergence and the regime's BC rows.

    gram is the H^1 Gram matrix W, with u^T W v = <u, v>_1 (same stencils);
    system its constrained solve, B^T W B on the stream function, bordered
    by the kernel of B's coefficients on both sides; dim is null(C)'s
    dimension, the columns of B less that kernel's (n + k on the torus).
    W and its factorization are built together and stored as one record,
    so the factors always belong to that W.
    """

    gram: sp.csr_matrix
    system: _StreamFunction
    dim: int


class StokesProjector:
    """Projection onto the phase space null(C), C = [D; R] the divergence and
    the regime's wall rows R, at every alpha.

    H^1-orthogonal on fields that satisfy the wall rows; any other field v
    it projects as La v, La = (1 - a^2 Lop)^{-1} (1 - a^2 Lop) (module
    docstring), so P P = P and R P v = 0 for every v.  A thin view over the
    geometry's store: bc_idx, D, constraints (C) and basis (B) are fields
    of the regime's one Constraints record, and projectors for the
    same (alpha, regime) on the same geometry object share one
    factorization, system: the Stokes saddle's reduction to the stream
    function, on every regime.
    """

    def __init__(self, op: EllipticOperator, bc: BcRegime):
        self.op = op
        self.bc = bc
        geo = op.geo
        self.n = geo.grid.n_nodes
        con = _constraints(geo, bc)
        self.bc_idx, self.D, self.constraints, self.basis = con.idx, con.D, con.C, con.B
        self.system = _stored(geo, ("projection", op.alpha, bc), self._factorize)

    @property
    def lu(self):
        """SuperLU of the projection's factorization."""
        return self.system.fac.lu

    def _factorize(self) -> _StreamFunction:
        con = _constraints(self.op.geo, self.bc)
        return _stream_function(self.op.geo, self.op.interior, con, con.T, con.test_kernel,
                                "stokes stream-function factorization failed")

    def project(self, v: VectorField | None, f: VectorField | None = None) -> VectorField:
        """P(v + (1 - a^2 Lop)^{-1} f) from one solve; v None is the zero
        field, f None no source, and either may be a batch (..., nx, ny),
        solved member by member.

        It is B a, K a = T^T (A v + f) (module docstring): in null(C)
        whether or not v satisfies the BC rows, at every alpha.
        """
        vf, ff = (None if x is None else x.flat() for x in (v, f))
        return VectorField.from_flat(self.op.geo.grid, self.system.project(vf, ff))

    def project_transpose(self, z: VectorField) -> tuple[VectorField, VectorField]:
        """The transpose of project() applied to z, as the pair of cotangents
        (P^T z, of f), from one transposed solve; z may be a batch."""
        grid = self.op.geo.grid
        yv, yf = self.system.project_transpose(z.flat())
        return VectorField.from_flat(grid, yv), VectorField.from_flat(grid, yf)

    def phase_space(self) -> PhaseSpace:
        """The stored PhaseSpace of this (alpha, regime), built on first use."""
        return _stored(self.op.geo, ("phase_space", self.op.alpha, self.bc),
                       self._phase_space)

    def _phase_space(self) -> PhaseSpace:
        geo = self.op.geo
        con = _constraints(geo, self.bc)
        W = _assemble_gram(geo, self.op.alpha)
        system = _stream_function(geo, W, con, con.B, con.kernel,
                                  "riesz stream-function factorization failed")
        return PhaseSpace(W, system, con.B.shape[1] - con.kernel.shape[1])

    def riesz_representer(self, r: VectorField):
        """(d, dim): for each member of the batch r, the member d of null(C)
        with <d, c>_W = <r, c> for every c in null(C), W the H^1 Gram
        matrix; dim is null(C)'s dimension.

        One solve with the stored phase space's system (phase_space()),
        which is factored once per (geometry, alpha, regime) together with
        its W.
        """
        ps = self.phase_space()
        d = ps.system.solve(r.flat(), "riesz saddle")
        return VectorField.from_flat(self.op.geo.grid, d), ps.dim
