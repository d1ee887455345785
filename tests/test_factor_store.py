"""The geometry-owned store of matrices and factorizations.

Solvers on the same geometry object share one factorization per (alpha,
regime); a fresh geometry builds its own, with bit-identical results.  A
suite run factorizes each distinct matrix once, and its factorizations are
freed when the run ends.  Torus factorizations are ordered by nested
dissection and agree with a COLAMD factorization of the same matrix to
round-off; channel factorizations are COLAMD's, bit for bit.
"""

import gc
import hashlib
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from laealab import dynamics as dy
from laealab import elliptic as el
from laealab import poisson as po
from laealab import suites
from laealab.config import ExperimentConfig
from laealab.elliptic import BcRegime, EllipticOperator, StokesProjector, l_alpha
from laealab.fields import VectorField
from laealab.geometry import DomainSpec, build_geometry
from laealab.samples import make_phi_cosx_siny, make_phi_sinusoidal, phi_flat, random_vector
from laealab.suites import run_suite

TORUS = DomainSpec("torus", 1.0, 1.0)
MIXED = DomainSpec("channel", 1.0, 1.0,
                   wall_roles={"y0": "dirichlet", "yL": "neumann"})
PHI_T = make_phi_sinusoidal(0.15, 1, 1, 1.0, 1.0)
PHI_C = make_phi_cosx_siny(0.15, 1, 1.0, 1.0)
CASES = ((TORUS, 12, PHI_T), (MIXED, 13, PHI_C))


def _digest(A) -> str:
    C = A.tocsc(copy=True)
    C.sort_indices()
    h = hashlib.sha256(repr(C.shape).encode())
    for arr in (C.indptr, C.indices, C.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.fixture
def factorized(monkeypatch):
    """Digest of every matrix handed to splu while the test runs."""
    digests = []
    real = el.spla.splu

    def counting(A, *args, **kwargs):
        digests.append(_digest(A))
        return real(A, *args, **kwargs)

    monkeypatch.setattr(el.spla, "splu", counting)
    return digests


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
    dirich = BcRegime("dirichlet", (("y0", "dirichlet"), ("yL", "dirichlet")))
    base = StokesProjector(EllipticOperator(geo, 0.3), bc)
    assert StokesProjector(EllipticOperator(geo, 0.2), bc).lu is not base.lu
    assert StokesProjector(EllipticOperator(geo, 0.3), dirich).lu is not base.lu
    assert StokesProjector(EllipticOperator(geo, 0.3), bc).lu is base.lu


def test_problem_and_poisson_context_share_factorizations(factorized):
    geo = build_geometry(TORUS, 12, 12, PHI_T)
    bc = BcRegime.from_domain(TORUS)
    prob = dy.LaeProblem(geo, dy.SolverConfig(alpha=0.3, dt=5e-3, t_end=0.05, bc=bc))
    built = len(factorized)
    ctx = po.PoissonContext(geo, 0.3, bc)
    assert ctx.sp.lu is prob.sp.lu
    assert len(factorized) == built


def test_elliptic_suite_factorizes_each_matrix_once(factorized):
    run_suite(ExperimentConfig.defaults(), "elliptic", (8, 12, 16))
    assert factorized
    assert len(factorized) == len(set(factorized)) == 12


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
    gc.disable()
    try:
        geo = build_geometry(TORUS, 8, 8, PHI_T)
        bc = BcRegime.from_domain(TORUS)
        prob = dy.LaeProblem(geo, dy.SolverConfig(alpha=0.3, dt=5e-3, t_end=0.05, bc=bc))
        prob.op.factor(bc)
        refs = [weakref.ref(prob.op), weakref.ref(prob.sp), weakref.ref(geo)]
        del prob, geo
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def _reference_solutions(op, sp_, bc, f):
    """op.solve and sp_.project of f through a default (COLAMD) splu of each
    unpermuted stored matrix."""
    grid, n = op.geo.grid, op.geo.grid.n_nodes
    A, idx = op.matrix(bc)
    rhs = f.flat()
    rhs[idx] = 0.0
    solved = VectorField.from_flat(grid, spla.splu(A.tocsc()).solve(rhs))

    S = sp_.saddle.matrix
    rhs = np.zeros(S.shape[0])
    rhs[2 * n:3 * n] = sp_.D @ f.flat()
    projected = f - VectorField.from_flat(grid, spla.splu(S).solve(rhs)[:2 * n])
    return solved, projected


def _solutions(op, sp_, bc, f):
    return op.solve(f, bc), sp_.project(f)


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("phi", [PHI_T, phi_flat], ids=["curved", "flat"])
@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_torus_dissection_order_matches_colamd(n, phi, alpha):
    geo = build_geometry(TORUS, n, n, phi)
    bc = BcRegime.from_domain(TORUS)
    op = EllipticOperator(geo, alpha)
    sp_ = StokesProjector(op, bc)
    # every unknown exactly once, the gauge rows last
    for fac, k in ((op.factor(bc), 0), (sp_.saddle, sp_.saddle.matrix.shape[0] - 3 * sp_.n)):
        p, size = fac.perm, fac.matrix.shape[0]
        assert np.array_equal(np.sort(p), np.arange(size))
        assert np.array_equal(p[size - k:], np.arange(size - k, size))

    f = random_vector(geo.grid, seed=7, kmax=2)
    for got, ref in zip(_solutions(op, sp_, bc, f), _reference_solutions(op, sp_, bc, f)):
        err = np.linalg.norm(got.flat() - ref.flat()) / np.linalg.norm(ref.flat())
        assert err <= 1e-12


def test_channel_factorizations_stay_colamd(monkeypatch):
    options = []
    real = el.spla.splu

    def recording(A, *args, **kwargs):
        options.append((args, kwargs))
        return real(A, *args, **kwargs)

    monkeypatch.setattr(el.spla, "splu", recording)
    geo = build_geometry(MIXED, 12, 13, PHI_C)
    bc = BcRegime.from_domain(MIXED)
    op = EllipticOperator(geo, 0.3)
    sp_ = StokesProjector(op, bc)
    assert op.factor(bc).perm is None and sp_.saddle.perm is None
    assert options == [((), {})] * 2
    monkeypatch.setattr(el.spla, "splu", real)

    f = random_vector(geo.grid, seed=7, kmax=2)
    for got, ref in zip(_solutions(op, sp_, bc, f), _reference_solutions(op, sp_, bc, f)):
        assert np.array_equal(got.flat(), ref.flat())


def test_torus_saddle_fills_less_than_colamd():
    geo = build_geometry(TORUS, 32, 32, PHI_T)
    bc = BcRegime.from_domain(TORUS)
    sp_ = StokesProjector(EllipticOperator(geo, 0.3), bc)
    colamd = spla.splu(sp_.saddle.matrix)
    assert sp_.lu.L.nnz + sp_.lu.U.nnz < colamd.L.nnz + colamd.U.nnz
