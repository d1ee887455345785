"""Grid-sampled fields, and a tape that records linear maps of them.

``ScalarField`` wraps an (nx, ny) array of binary64 node values, or a batch of
them, (..., nx, ny): every pointwise operation and derivative acts on each
member as it would alone, bit for bit, by broadcasting.

``TapeScalar`` is the other scalar backend: it records the same operations
(+, -, scaling by coefficient arrays, d/dx, d/dy) on a ``Tape`` instead of
evaluating them, so one linear expression is evaluated or recorded from the
same source line.  The tape reads the recorded map out as sparse matrices
(matrices(): the elliptic operators and the H^1 Gram matrix) or applies its
transpose to a batch of cotangents without assembling it (transpose()), both
through the grid's DX/DY matrices, as pointwise evaluation does.

``VectorField`` holds contravariant components (u1, u2); ``Tensor11Field``
holds mixed components T[i][j] = T^i_j.  The containers are generic over the
scalar backend.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .grid import Grid, matvec_last


class ScalarField:
    __slots__ = ("grid", "data")

    def __init__(self, grid: Grid, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.shape != grid.shape and data.shape[-2:] != grid.shape:
            raise ValueError(f"shape {data.shape} != grid {grid.shape}")
        self.grid = grid
        self.data = data

    def dx(self) -> "ScalarField":
        return ScalarField(self.grid, self.grid.ddx(self.data))

    def dy(self) -> "ScalarField":
        return ScalarField(self.grid, self.grid.ddy(self.data))

    def __add__(self, other):
        return ScalarField(self.grid, self.data + _raw(other))

    def __sub__(self, other):
        return ScalarField(self.grid, self.data - _raw(other))

    def __neg__(self):
        return ScalarField(self.grid, -self.data)

    def __mul__(self, w):
        return ScalarField(self.grid, self.data * _raw(w))

    __rmul__ = __mul__

    def linf(self) -> float:
        return float(np.max(np.abs(self.data)))


def _raw(v):
    if isinstance(v, ScalarField):
        return v.data
    return v


_LEAF, _DX, _DY, _ADD, _SUB, _SCALE = range(6)


class Tape:
    """A record of linear operations on tape scalars, read out forward as
    sparse matrices or backward as a transpose.

    unknown() gives a vector field of two fresh leaves and scalar() one; an
    expression built from them with +, -, scaling by coefficients, d/dx and
    d/dy appends one node (kind, argument, second argument or coefficient)
    per operation.  The unknowns of the recorded map are the leaves' node
    values, leaf by leaf in the order they were made.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.nodes = []

    def push(self, kind: int, a, b=None) -> "TapeScalar":
        self.nodes.append((kind, a, b))
        return TapeScalar(self, len(self.nodes) - 1)

    def unknown(self) -> "VectorField":
        return VectorField(self.grid, self.scalar(), self.scalar())

    def scalar(self) -> "TapeScalar":
        return self.push(_LEAF, None)

    def _node(self, c) -> int:
        if not isinstance(c, TapeScalar) or c.tape is not self:
            raise TypeError("an output is not recorded on this tape")
        return c.node

    def matrices(self, outputs) -> list:
        """The recorded map of each output scalar, as a CSR matrix over the
        unknowns: one forward walk applies each needed node's operation to
        its arguments' matrices, dropping each matrix after its last use."""
        nodes, grid = self.nodes, self.grid
        want = [self._node(c) for c in outputs]
        reads = [() if k == _LEAF else (a, b) if k in (_ADD, _SUB) else (a,)
                 for k, a, b in nodes]
        last = [-1] * len(nodes)        # the last needed node that reads each node
        for i in want:
            last[i] = len(nodes)
        for i in range(len(nodes) - 1, -1, -1):
            for j in reads[i] if last[i] >= 0 else ():
                last[j] = max(last[j], i)
        eye = sp.identity(grid.n_nodes, format="csr")
        leaves = [i for i, node in enumerate(nodes) if node[0] == _LEAF]
        mats = [None] * len(nodes)
        for i, (kind, a, b) in enumerate(nodes):
            if last[i] < 0:
                continue
            if kind == _LEAF:
                M = sp.hstack([eye if j == i else sp.csr_matrix(eye.shape) for j in leaves],
                              format="csr")
            elif kind in (_DX, _DY):
                M = (grid.DX if kind == _DX else grid.DY) @ mats[a]
            elif kind in (_ADD, _SUB):
                M = mats[a] + mats[b] if kind == _ADD else mats[a] - mats[b]
            else:
                M = float(b) * mats[a] if np.ndim(b) == 0 else sp.diags(np.ravel(b)) @ mats[a]
            mats[i] = M.tocsr()
            for j in reads[i]:
                if last[j] == i:
                    mats[j] = None
        return [mats[i] for i in want]

    def transpose(self, unknown: "VectorField", seeds) -> "VectorField":
        """The transpose of the recorded map, applied to cotangent batches.

        seeds pairs each recorded output field with its cotangent, a batch of
        fields (..., nx, ny); the result is the batch of cotangents of
        unknown, summed over the seeds.  One backward walk skips each node
        that no output reaches before unpacking it, adds each reached node's
        cotangent into its arguments' inline (no call per node) and
        differentiates through the grid's DX^T and DY^T, built once per grid.
        """
        nodes, adj = self.nodes, [None] * len(self.nodes)
        for out, bar in seeds:
            for c, g in zip(out.comps(), bar.comps()):
                i = self._node(c)
                adj[i] = g.data if adj[i] is None else adj[i] + g.data
        grid = self.grid
        for i in range(len(nodes) - 1, -1, -1):
            g = adj[i]
            if g is None:
                continue
            kind, a, b = nodes[i]
            if kind == _LEAF:
                continue
            adj[i] = None
            if kind == _SCALE:
                g = g * b
            elif kind == _DX or kind == _DY:
                flat = g.reshape(g.shape[:-2] + (-1,))
                g = matvec_last(grid.DXT if kind == _DX else grid.DYT, flat).reshape(g.shape)
            ga = adj[a]
            adj[a] = g if ga is None else ga + g
            if kind == _ADD:
                gb = adj[b]
                adj[b] = g if gb is None else gb + g
            elif kind == _SUB:
                gb = adj[b]
                adj[b] = -g if gb is None else gb - g
        shape = next(b.c1.data.shape for _, b in seeds)
        return VectorField.from_arrays(
            grid, *(np.zeros(shape) if adj[c.node] is None else adj[c.node]
                    for c in unknown.comps()))


class TapeScalar(ScalarField):
    """A scalar recorded on a Tape, linear in the tape's unknowns.

    It subclasses ScalarField only so that Python tries its reflected
    operators first: ScalarField * TapeScalar records a scaling without any
    test in ScalarField's own operators.  It holds no data.
    """

    __slots__ = ("tape", "node")
    __array_ufunc__ = None          # ndarray * TapeScalar defers to __rmul__

    def __init__(self, tape: Tape, node: int):
        self.grid = tape.grid
        self.tape = tape
        self.node = node

    def dx(self) -> "TapeScalar":
        return self.tape.push(_DX, self.node)

    def dy(self) -> "TapeScalar":
        return self.tape.push(_DY, self.node)

    def _linear(self, other) -> int:
        if not isinstance(other, TapeScalar) or other.tape is not self.tape:
            raise TypeError("sum of a tape scalar and a known field is not linear")
        return other.node

    def __add__(self, other):
        return self.tape.push(_ADD, self.node, self._linear(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.tape.push(_SUB, self.node, self._linear(other))

    def __rsub__(self, other):
        return self.tape.push(_SUB, self._linear(other), self.node)

    def __neg__(self):
        return self.tape.push(_SCALE, self.node, -1.0)

    def __mul__(self, w):
        if isinstance(w, TapeScalar):
            raise TypeError("product of two tape scalars is not linear")
        w = _raw(w)
        if np.ndim(w) > 2:
            raise ValueError(f"a tape takes one coefficient field, not a batch "
                             f"of shape {np.shape(w)}")
        return self.tape.push(_SCALE, self.node, w)

    __rmul__ = __mul__


class VectorField:
    __slots__ = ("grid", "c1", "c2")

    def __init__(self, grid: Grid, c1, c2):
        self.grid = grid
        self.c1 = c1
        self.c2 = c2

    @classmethod
    def from_arrays(cls, grid: Grid, a1: np.ndarray, a2: np.ndarray) -> "VectorField":
        return cls(grid, ScalarField(grid, a1), ScalarField(grid, a2))

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        z = np.zeros((grid.nx, grid.ny))
        return cls.from_arrays(grid, z, z.copy())

    def comps(self):
        return (self.c1, self.c2)

    def arrays(self):
        return (self.c1.data, self.c2.data)

    def flat(self) -> np.ndarray:
        """Stacked DOF vector (u1 nodes, then u2 nodes), (..., 2n) for a batch."""
        a1 = self.c1.data
        return np.concatenate([a1, self.c2.data], axis=-2).reshape(a1.shape[:-2] + (-1,))

    @classmethod
    def from_flat(cls, grid: Grid, v: np.ndarray) -> "VectorField":
        """Inverse of flat(): (..., 2n) to a field, batched over the leading axes."""
        w = v.reshape(v.shape[:-1] + (2 * grid.nx, grid.ny))
        return cls.from_arrays(grid, w[..., :grid.nx, :], w[..., grid.nx:, :])

    def __add__(self, other):
        return VectorField(self.grid, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other):
        return VectorField(self.grid, self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self):
        return VectorField(self.grid, -self.c1, -self.c2)

    def __mul__(self, w):
        return VectorField(self.grid, self.c1 * w, self.c2 * w)

    __rmul__ = __mul__

    def linf(self) -> float:
        return max(self.c1.linf(), self.c2.linf())

    def copy(self) -> "VectorField":
        return VectorField.from_arrays(self.grid, self.c1.data.copy(), self.c2.data.copy())


class Tensor11Field:
    """Mixed (1,1)-tensor with components t[i][j] = T^i_j."""

    __slots__ = ("grid", "t")

    def __init__(self, grid: Grid, t11, t12, t21, t22):
        self.grid = grid
        self.t = ((t11, t12), (t21, t22))

    def __getitem__(self, ij):
        i, j = ij
        return self.t[i][j]

    def transpose(self) -> "Tensor11Field":
        """T with its off-diagonal components swapped: for a conformal metric
        the metric transpose g^{ik} g_{jl} T^l_k is T^j_i."""
        a = self.t
        return Tensor11Field(self.grid, a[0][0], a[1][0], a[0][1], a[1][1])

    def apply(self, v: VectorField) -> VectorField:
        """T(v), components T^i_j v^j."""
        return VectorField(self.grid,
                           self.t[0][0] * v.c1 + self.t[0][1] * v.c2,
                           self.t[1][0] * v.c1 + self.t[1][1] * v.c2)

    def matmul(self, other: "Tensor11Field") -> "Tensor11Field":
        """Composition (self . other)^i_j = self^i_k other^k_j."""
        a, b = self.t, other.t
        return Tensor11Field(
            self.grid,
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        )

    def __add__(self, other):
        a, b = self.t, other.t
        return Tensor11Field(self.grid, a[0][0] + b[0][0], a[0][1] + b[0][1],
                             a[1][0] + b[1][0], a[1][1] + b[1][1])

    def __sub__(self, other):
        a, b = self.t, other.t
        return Tensor11Field(self.grid, a[0][0] - b[0][0], a[0][1] - b[0][1],
                             a[1][0] - b[1][0], a[1][1] - b[1][1])

    def __mul__(self, w):
        a = self.t
        return Tensor11Field(self.grid, a[0][0] * w, a[0][1] * w, a[1][0] * w, a[1][1] * w)

    __rmul__ = __mul__

    def trace(self):
        return self.t[0][0] + self.t[1][1]

    def linf(self) -> float:
        return max(c.linf() for row in self.t for c in row)
