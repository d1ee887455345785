"""The geometry-owned store of matrices and factorizations.

Solvers on the same geometry object share one factorization per (alpha,
regime); a fresh geometry builds its own, with bit-identical results.  A
suite run factorizes each distinct matrix once, and its factorizations are
freed when the run ends.  The elliptic LU and the stream-function systems,
on the torus and on channels of every size, are ordered by nested
dissection under SuperLU's NATURAL column order, a channel's elliptic LU
balanced by one power-of-two scaling of its BC rows, and agree with COLAMD
factorizations to round-off.  Every regime projects on the stream function,
and its Stokes saddle, built explicitly and factored under COLAMD, is the
reference: the stream-function system fills less than it.
"""

import gc
import hashlib
import weakref
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from laealab import dynamics as dy
from laealab import elliptic as el
from laealab import poisson as po
from laealab import suites
from laealab.config import ExperimentConfig
from laealab.elliptic import BcRegime, EllipticOperator, StokesProjector, l_alpha
from laealab.fields import VectorField
from laealab.geometry import build_geometry
from laealab.samples import phi_flat, random_vector
from laealab.suites import run_suite

from domains import DIRICH, MIXED, PHI_C, PHI_T, REGIMES, TORUS

CASES = ((TORUS, 12, PHI_T), (MIXED, 13, PHI_C))


def _digest(A) -> str:
    C = A.tocsc(copy=True)
    C.sort_indices()
    h = hashlib.sha256(repr(C.shape).encode())
    for arr in (C.indptr, C.indices, C.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Splu(NamedTuple):
    """One splu call: its matrix's digest and the options it was given."""

    digest: str
    permc_spec: str | None
    pivot: float | None


@pytest.fixture
def factorized(monkeypatch):
    """Every splu call made while the test runs, in order, as Splu records."""
    calls = []
    real = el.spla.splu

    def recording(A, *args, **kwargs):
        calls.append(Splu(_digest(A), kwargs.get("permc_spec"), kwargs.get("diag_pivot_thresh")))
        return real(A, *args, **kwargs)

    monkeypatch.setattr(el.spla, "splu", recording)
    return calls


@pytest.mark.parametrize("spec,ny,phi", CASES)
def test_shared_solvers_match_a_fresh_geometry_bit_for_bit(spec, ny, phi):
    bc = BcRegime.from_domain(spec)
    geo = build_geometry(spec, 12, ny, phi)
    op1 = EllipticOperator(geo, 0.3)
    sp1 = StokesProjector(op1, bc)
    op2 = EllipticOperator(geo, 0.3)
    sp2 = StokesProjector(op2, bc)
    assert op2.factor(bc)[0] is op1.factor(bc)[0]
    assert sp2.lu is sp1.lu

    fresh = build_geometry(spec, 12, ny, phi)
    op3 = EllipticOperator(fresh, 0.3)
    sp3 = StokesProjector(op3, bc)
    assert op3.factor(bc)[0] is not op1.factor(bc)[0]
    assert sp3.lu is not sp1.lu

    f = random_vector(geo.grid, seed=5, kmax=2)
    ref_solve = op1.solve(f, bc)
    ref_proj = sp1.project(l_alpha(op1, f, bc))
    for op, sp_ in ((op2, sp2), (op3, sp3)):
        for a, b in ((op.solve(f, bc), ref_solve),
                     (sp_.project(l_alpha(op, f, bc)), ref_proj)):
            assert np.array_equal(a.c1.data, b.c1.data)
            assert np.array_equal(a.c2.data, b.c2.data)


def test_store_keys_on_alpha_and_regime():
    geo = build_geometry(MIXED, 12, 13, PHI_C)
    bc = BcRegime.from_domain(MIXED)
    dirich = BcRegime.from_domain(DIRICH)
    base = StokesProjector(EllipticOperator(geo, 0.3), bc)
    assert StokesProjector(EllipticOperator(geo, 0.2), bc).lu is not base.lu
    assert StokesProjector(EllipticOperator(geo, 0.3), dirich).lu is not base.lu
    assert StokesProjector(EllipticOperator(geo, 0.3), bc).lu is base.lu


def test_a_regime_stores_one_constraints_record_for_every_alpha():
    geo = build_geometry(MIXED, 12, 13, PHI_C)
    bc = BcRegime.from_domain(MIXED)
    at0, at3 = (StokesProjector(EllipticOperator(geo, a), bc) for a in (0.0, 0.3))
    for sp_ in (at0, at3):
        sp_.phase_space()
    kinds = [kind for kind, _, _ in geo.factors]
    assert kinds.count("constraints") == 1
    assert not {"divergence", "bc_rows", "gradient"} & set(kinds)
    assert at0.constraints is at3.constraints
    assert at0.constraints is geo.factors["constraints", None, bc].C


def test_problem_and_poisson_context_share_factorizations(factorized):
    geo = build_geometry(TORUS, 12, 12, PHI_T)
    bc = BcRegime.from_domain(TORUS)
    prob = dy.LaeProblem(geo, dy.SolverConfig(alpha=0.3, dt=5e-3, t_end=0.05, bc=bc))
    built = len(factorized)
    ctx = po.PoissonContext(geo, 0.3, bc)
    assert ctx.sp.lu is prob.sp.lu
    assert len(factorized) == built


def test_run_system_and_problem_share_one_geometry_and_saddle(factorized):
    cfg = ExperimentConfig.defaults()
    run = suites.Run(cfg, (12,))
    s = run.system("mixed", 12)
    prob = run.problem("mixed", 12, 5e-3, 0.05)
    assert prob.geo is s.geo and prob.sp.lu is s.sp.lu
    assert len(factorized) == 1                   # the one projection system
    # a second Run builds its own geometry and factors the same matrix again
    other = suites.Run(cfg, (12,)).system("mixed", 12)
    assert other.geo is not s.geo and other.sp.lu is not s.sp.lu
    assert len(factorized) == 2 and factorized[1] == factorized[0]


def test_elliptic_suite_factorizes_each_matrix_once(factorized):
    # 7 projection systems and 3 elliptic LUs: the Dirichlet and Neumann 8x9
    # channels need no elliptic LU, their admissible fields being one
    # projection with a source
    run_suite(ExperimentConfig.defaults(), "elliptic", (8, 12, 16))
    assert factorized
    assert len(factorized) == len(set(factorized)) == 10


def test_consecutive_suite_runs_build_their_own_factorizations(factorized):
    cfg = ExperimentConfig.defaults()
    run_suite(cfg, "elliptic", (8, 12, 16))
    first = list(factorized)
    run_suite(cfg, "elliptic", (8, 12, 16))
    assert first and factorized[len(first):] == first


def test_suite_run_frees_its_geometries_without_gc(monkeypatch):
    built = []
    real = suites.build_geometry

    def recording(*args, **kwargs):
        geo = real(*args, **kwargs)
        built.append(weakref.ref(geo))
        return geo

    monkeypatch.setattr(suites, "build_geometry", recording)
    gc.disable()
    try:
        run_suite(ExperimentConfig.defaults(), "elliptic", (8, 12, 16))
        assert built and all(r() is None for r in built)
    finally:
        gc.enable()


def test_dropped_problem_frees_its_factorizations_without_gc():
    # reference counting alone frees every stored matrix once the solves
    # have run, the constraints' CSR transposes included: none of them may
    # refer to itself
    gc.disable()
    try:
        for spec, phi, ny in ((TORUS, PHI_T, 8), (MIXED, PHI_C, 9)):
            geo = build_geometry(spec, 8, ny, phi)
            bc = BcRegime.from_domain(spec)
            prob = dy.LaeProblem(geo, dy.SolverConfig(alpha=0.3, dt=5e-3, t_end=0.05, bc=bc))
            v = random_vector(geo.grid, seed=1)
            prob.op.solve(v, bc)
            prob.sp.project(v)
            prob.sp.project_transpose(v)
            con = el._constraints(geo, bc)
            refs = [weakref.ref(x) for x in (
                prob.op, prob.sp, geo, prob.op.factor(bc).matrix, prob.sp.system.fac.matrix,
                con.B, con.T, con.Bt, con.Tt)]
            del prob, geo, con
            assert all(r() is None for r in refs), spec.kind
    finally:
        gc.enable()


def _reference_solutions(op, sp_, bc, f):
    """op.solve and sp_.project of f through a default (COLAMD) splu of the
    unpermuted stored elliptic matrix, and through the Stokes saddle's own
    factorization, a COLAMD splu too."""
    grid, n = op.geo.grid, op.geo.grid.n_nodes
    A, idx = op.matrix(bc)
    rhs = f.flat()
    rhs[idx] = 0.0
    solved = VectorField.from_flat(grid, spla.splu(A.tocsc()).solve(rhs))

    saddle = el._stokes_saddle(op, bc)
    rhs = np.zeros(saddle.matrix.shape[0])
    rhs[2 * n:3 * n] = el._constraints(op.geo, bc).D @ f.flat()
    rhs[idx] = A[idx] @ f.flat()
    projected = f - VectorField.from_flat(grid, saddle.lu.solve(rhs)[:2 * n])
    return solved, projected


def _solutions(op, sp_, bc, f):
    return op.solve(f, bc), sp_.project(f)


def _assert_permutation(fac, trailing: int):
    """fac.perm holds every unknown exactly once, its last trailing unknowns
    last and in order."""
    p, size = fac.perm, fac.matrix.shape[0]
    assert np.array_equal(np.sort(p), np.arange(size))
    assert np.array_equal(p[size - trailing:], np.arange(size - trailing, size))


def _groups(geo, fac, nodes: np.ndarray):
    """The nested-dissection groups that ordered fac, from the reach of its
    matrix's unknowns at nodes."""
    grid = geo.grid
    reach = el._reach(fac.matrix, grid, nodes)
    return el._dissection(grid.nx, grid.ny, *reach, grid.periodic_y)


def _assert_matches_colamd(op, sp_, bc, f):
    for got, ref in zip(_solutions(op, sp_, bc, f), _reference_solutions(op, sp_, bc, f)):
        err = np.linalg.norm(got.flat() - ref.flat()) / np.linalg.norm(ref.flat())
        assert err <= 1e-12


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("phi", [PHI_T, phi_flat], ids=["curved", "flat"])
@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_torus_dissection_order_matches_colamd(n, phi, alpha):
    geo = build_geometry(TORUS, n, n, phi)
    bc = BcRegime.from_domain(TORUS)
    op = EllipticOperator(geo, alpha)
    sp_ = StokesProjector(op, bc)
    # every unknown exactly once; the stream function's modes and gauge rows last
    _assert_permutation(op.factor(bc), 0)
    stream = sp_.system.fac
    _assert_permutation(stream, stream.matrix.shape[0] - sp_.n)
    assert np.array_equal(stream.perm[:sp_.n],
                          np.concatenate(_groups(geo, stream, np.arange(sp_.n))))
    _assert_matches_colamd(op, sp_, bc, random_vector(geo.grid, seed=7, kmax=2))


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("nx", [12, 32, 40])
def test_channel_dissection_order_matches_colamd(nx, regime, factorized):
    """Channels of every size, down to 12x13 and the 32x33 of mixed32_rk4."""
    spec = REGIMES[regime]
    geo, bc = build_geometry(spec, nx, nx + 1, PHI_C), BcRegime.from_domain(spec)
    op = EllipticOperator(geo, 0.3)
    sp_ = StokesProjector(op, bc)
    op.factor(bc)
    assert [c.permc_spec for c in factorized] == ["NATURAL"] * 2
    _assert_permutation(op.factor(bc), 0)
    # the stream function on the free nodes in their dissection order, its
    # wall, shear and border unknowns last
    stream, nodes = sp_.system.fac, el._constraints(geo, bc).nodes
    _assert_permutation(stream, stream.matrix.shape[0] - nodes.size)
    rank = np.empty(sp_.n, dtype=int)
    rank[np.concatenate(_groups(geo, stream, nodes))] = np.arange(sp_.n)
    assert np.array_equal(nodes[stream.perm[:nodes.size]], nodes[np.argsort(rank[nodes])])
    _assert_matches_colamd(op, sp_, bc, random_vector(geo.grid, seed=7, kmax=2))


def test_channel_riesz_representer_matches_colamd():
    """The representer on the stream function matches the COLAMD solve of
    the phase-space saddle, built explicitly, on the curved mixed 40x41
    channel."""
    geo, bc = build_geometry(MIXED, 40, 41, PHI_C), BcRegime.from_domain(MIXED)
    sp_ = StokesProjector(EllipticOperator(geo, 0.3), bc)
    r = random_vector(geo.grid, seed=11, kmax=2)
    d, _ = sp_.riesz_representer(r)
    saddle = el._Saddle(el._phase_saddle(geo, sp_.phase_space().gram, bc),
                        el._constraints(geo, bc))
    ref = saddle.solve(r.flat(), "riesz saddle")
    err = np.linalg.norm(d.flat() - ref) / np.linalg.norm(ref)
    assert err <= 1e-10


def _fill(lu) -> int:
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_torus_stream_function_fills_less_than_its_saddle_and_colamd(alpha):
    # 32^2 curved: 361,816 against the saddle's 2,569,699 at alpha 0.3, and
    # 60,710 against 123,968 at alpha 0
    geo = build_geometry(TORUS, 32, 32, PHI_T)
    op, bc = EllipticOperator(geo, alpha), BcRegime.from_domain(TORUS)
    sp_ = StokesProjector(op, bc)
    assert _fill(sp_.lu) < _fill(el._stokes_saddle(op, bc).lu)
    assert _fill(sp_.lu) < _fill(spla.splu(sp_.system.fac.matrix.tocsc()))


@pytest.mark.parametrize("spec,nx,ny,phi", [(TORUS, 12, 12, PHI_T), (MIXED, 40, 41, PHI_C)],
                         ids=["torus", "mixed"])
def test_elliptic_lu_keeps_the_node_interleaved_dissection_order(spec, nx, ny, phi):
    # each node's u1 and u2 together, in its node's place, so the solves keep their bits
    geo, bc = build_geometry(spec, nx, ny, phi), BcRegime.from_domain(spec)
    n, lu = geo.grid.n_nodes, EllipticOperator(geo, 0.3).factor(bc)
    order = np.concatenate(_groups(geo, lu, np.arange(2 * n) % n))
    assert np.array_equal(lu.perm, (order[:, None] + n * np.arange(2)).ravel())


def test_one_balancing_rule_on_every_grid(factorized):
    def factored(build):
        """build()'s _Factorization and the pivot threshold of its one splu call."""
        del factorized[:]
        fac = build()
        assert len(factorized) == 1
        return fac, factorized[0].pivot

    # the curved mixed 40x41 elliptic LU: each BC row alone by the power of
    # two nearest |A| over the row's largest entry, never below 1, |A| the
    # largest entry of the other rows
    mixed40, mixed = build_geometry(MIXED, 40, 41, PHI_C), BcRegime.from_domain(MIXED)
    op40 = EllipticOperator(mixed40, 0.3)
    fac, pivot = factored(lambda: op40.factor(mixed))
    A, bc_idx = op40.matrix(mixed)
    V = abs(A.tocsr())
    big = V[np.setdiff1d(np.arange(A.shape[0]), bc_idx)].max()
    rows = np.ones(A.shape[0])
    for r in bc_idx:
        rows[r] = max(1.0, 2.0 ** np.round(np.log2(big / V[r].max())))
    assert np.array_equal(fac.rows, rows) and (rows[bc_idx] > 1).any()
    assert pivot == el._SCALED_PIVOT

    # the torus elliptic LU and the stream-function systems of every regime
    # have no BC rows to balance, and are factored as they are
    geo, bc = build_geometry(TORUS, 16, 16, PHI_T), BcRegime.from_domain(TORUS)
    op = EllipticOperator(geo, 0.3)
    for build in (lambda: StokesProjector(op40, mixed).system.fac,
                  lambda: StokesProjector(op40, mixed).phase_space().system.fac,
                  lambda: op.factor(bc), lambda: StokesProjector(op, bc).system.fac,
                  lambda: StokesProjector(op, bc).phase_space().system.fac):
        fac, pivot = factored(build)
        assert fac.rows is None and pivot == el._ND_PIVOT


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_channel_elliptic_lu_moves_no_rows(regime):
    """Balanced, the BC rows' pivots are as large as the interior's, so
    SuperLU keeps the dissection order's diagonal (262-276 rows move unbalanced)."""
    spec = REGIMES[regime]
    geo, bc = build_geometry(spec, 32, 33, PHI_C), BcRegime.from_domain(spec)
    lu = EllipticOperator(geo, 0.3).factor(bc).lu
    assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))


# (L+U of the stream function, of its bordered saddle under COLAMD) on the
# curved 32x33 channels, the stream function the same on all three regimes:
# the projection 230,366 against 1.30M-1.32M at alpha 0.3 and 38,769
# against 152K-153K at alpha 0, the phase space 229,468 against 0.78M-0.87M
# and 45,211 against 140K-151K
STREAM_FILL = {("stokes", 0.3): 255_000, ("stokes", 0.0): 125_000,
               ("phase", 0.3): 360_000, ("phase", 0.0): 125_000}


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_channel_stream_function_fills_less_than_its_saddle(regime, alpha):
    spec = REGIMES[regime]
    geo, bc = build_geometry(spec, 32, 33, PHI_C), BcRegime.from_domain(spec)
    op = EllipticOperator(geo, alpha)
    sp_ = StokesProjector(op, bc)
    ps = sp_.phase_space()
    for kind, stream, saddle in (("stokes", sp_.system.fac, el._stokes_saddle(op, bc)),
                                 ("phase", ps.system.fac, el._phase_saddle(geo, ps.gram, bc))):
        assert _fill(stream.lu) <= STREAM_FILL[kind, alpha]
        assert _fill(stream.lu) < _fill(saddle.lu)
        assert _fill(stream.lu) < _fill(spla.splu(stream.matrix.tocsc()))


@pytest.mark.parametrize("periodic_y", [True, False], ids=["torus", "channel"])
@pytest.mark.parametrize("ny", [9, 13, 41])
@pytest.mark.parametrize("reach", [1, 2])
def test_dissection_orders_every_node_once(periodic_y, ny, reach):
    for nx in (8, 12, 40):
        groups = el._dissection(nx, ny, reach, reach, periodic_y)
        # disjoint groups that together hold every node
        order = np.concatenate(groups)
        assert np.array_equal(np.sort(order), np.arange(nx * ny))
        if not periodic_y and nx < 2 * ny:
            # the top box is cut across y by one band of rows in the middle,
            # not along a seam at the walls
            mid = (ny - reach) // 2
            assert set(order[-nx * reach:] % ny) == set(range(mid, mid + reach))


def test_reach_folds_y_distances_on_the_torus_only():
    for spec, folded in ((TORUS, True), (MIXED, False)):
        grid = build_geometry(spec, 12, 9, phi_flat).grid
        n = grid.n_nodes
        M = sp.coo_matrix(([1.0, 1.0], ([0, n + 1], [7, n + 4 * 9])), shape=(2 * n, 2 * n))
        assert el._reach(M, grid, np.arange(2 * n) % n) == (4, 2 if folded else 7)
