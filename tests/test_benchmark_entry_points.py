"""The benchmark's calls into laealab, run at 8^2.

perfbench/workload.py is imported as it is, with perfbench/ on sys.path for
its own modules, and each workload's set-up, one pass and its checks run on
8^2 grids.  A renamed name or a changed signature that the benchmark calls
fails here, not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("torus64_rk4", "mixed32_rk4", "spray32", "flowcheck16")


@pytest.fixture(scope="module")
def workload():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        mp.setattr(sys, "dont_write_bytecode", True)       # leave perfbench/ as it is
        spec = importlib.util.spec_from_file_location("perfbench_workload",
                                                      BENCH / "workload.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        yield mod


def _run(workload, name):
    cls, _, _, _, channel = workload.WORKLOADS[name]
    wl = cls(8, cls.smoke_units, channel)
    ctx = wl.setup(7, name)
    chunks = []
    out = wl.run_pass(ctx, chunks)
    return wl, ctx, out, chunks


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload, name):
    wl, ctx, out, chunks = _run(workload, name)
    checks, _ = wl.check(ctx, out)
    assert [c[0] for c in checks] == list(wl.CHECKS)
    assert all(ok for _, ok, _, _ in checks), checks
    assert len(chunks) == wl.units and all(units > 0 for units, _ in chunks)
    assert wl.fingerprint(out) == wl.fingerprint(wl.run_pass(ctx, []))
    assert all(v > 0 for v in wl.counts(ctx).values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_pass_after_set_up_factors_nothing(workload, name, monkeypatch):
    # every factorization belongs to set-up, so each pass does the same work
    # (perfbench's traced pass_counts_identical check)
    cls, _, _, _, channel = workload.WORKLOADS[name]
    wl = cls(8, cls.smoke_units, channel)
    ctx = wl.setup(7, name)
    built = []
    real = workload.spla.splu
    monkeypatch.setattr(workload.spla, "splu",
                        lambda *args, **kw: built.append(args) or real(*args, **kw))
    for _ in range(2):
        wl.run_pass(ctx, [])
    assert built == []


@pytest.mark.parametrize("name,span", [("mixed32_rk4", "dynamics.LaeProblem.rhs"),
                                       ("mixed32_rk4", "elliptic.StokesProjector.project"),
                                       ("flowcheck16", "poisson.PoissonContext.gram_matrix"),
                                       ("spray32", "material.pi_r"),
                                       ("spray32", "interp.BicubicField.eval_with_grad"),
                                       ("torus64_rk4", "geometry.build_geometry")])
def test_traced_workload_records_the_spans_the_benchmark_reads(workload, name, span):
    tracer = workload.Tracer().install()
    try:
        _run(workload, name)
    finally:
        tracer.uninstall()
    spans = np.frombuffer(tracer.nid, dtype=np.int32)
    assert np.count_nonzero(spans == tracer.names.index(span)) > 0


@pytest.mark.parametrize("channel", [False, True], ids=["torus", "mixed"])
def test_the_benchmark_u0_is_the_admissible_field(workload, channel):
    # the benchmark builds u0 by its own route, P l_alpha(raw); it must stay
    # the projected field P raw, whatever EllipticOperator.apply becomes
    spec, phi = (workload.MIXED, workload.PHI_C) if channel else (workload.TORUS, workload.PHI_T)
    prob = workload.problem(spec, 8, phi)
    raw = workload.band_limited(prob.geo.grid, np.random.default_rng(7), amp=0.5)
    got = workload.admissible(prob.op, prob.sp, prob.bc, raw)
    want = prob.sp.project(raw)
    assert (got - want).linf() < 1e-12 * want.linf()
