"""One benchmark workload, measured in this process.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --spawn T --out result.json [--traced] [--smoke] [--import-only]

``perfbench/run.py`` starts this script with the BLAS/OpenMP thread counts
pinned and ``src`` on ``PYTHONPATH``; ``--spawn`` is the CLOCK_MONOTONIC
reading taken just before the process was started, so the import time is
measured from process start.  The script

1. imports laealab and stamps the environment;
2. builds the workload's set-up (geometry, operators, every factorization and
   the seeded inputs) ``setups`` times and keeps the last one;
3. repeats the workload's fixed job ("pass") from the same inputs until
   ``--seconds`` have passed, timing each chunk (an RK4 step, a spray step,
   one flow check, one suite run) while, untraced, a reference job runs
   from a timer signal; a pass that raises ends the loop and is
   counted as failed;
4. checks the first pass against the tolerances the repository asserts (a
   check that raises, or has no completed pass to check, is missed), checks
   every later pass is bit-identical to it, and writes a JSON result.

With ``--traced`` the layers are wrapped by ``tracer.Tracer`` before the
set-up, which is then built once, and the result also holds the per-layer
summary of ``layers.summarize``.  Only public laealab entry points are called.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy
import scipy.sparse as sps
import scipy.sparse.linalg as spla

# module attributes, not from-imports, so the tracer's wrappers are called
from laealab import calculus as ca, cli, dynamics as dy, elliptic as el
from laealab import geometry as ge, material as mt, poisson as po
from laealab import samples as sa
from laealab.fields import VectorField

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

from layers import summarize          # noqa: E402  (benchmark-local modules)
from tracer import Tracer             # noqa: E402

ALPHA = 0.3
DT = 5e-3
TORUS = ge.DomainSpec("torus", 1.0, 1.0)
MIXED = ge.DomainSpec("channel", 1.0, 1.0,
                   wall_roles={"y0": "dirichlet", "yL": "neumann"})
# the curved metrics of the verification suites
PHI_T = sa.make_phi_sinusoidal(0.15, 1, 1, 1.0, 1.0)
PHI_C = sa.make_phi_cosx_siny(0.15, 1, 1.0, 1.0)
# the metric of tests/test_poisson.py, for the flow check
PHI_T_POISSON = sa.make_phi_sinusoidal(0.12, 1, 1, 1.0, 1.0)

DIV_TOL = 1e-8          # configured_run_divergence
VOLUME_TOL = 5e-3       # volume_distortion_generic
FLOW_TOL = 5e-3         # test_flow_poisson_check_small_time_16

SUITE_LADDER = {64: "16,32,64", 8: "8,12,16"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# seeded inputs (generated here; laealab only receives the fields)
# ---------------------------------------------------------------------------

def band_limited(grid, rng, amp: float) -> VectorField:
    """Trig-polynomial vector field of wavenumbers <= 1, max amplitude amp.

    On the channel the u2 profiles are sines in y, so u2 vanishes at walls.
    """
    tx = 2 * np.pi * grid.X / grid.Lx
    channel = not grid.periodic_y
    ty = (np.pi if channel else 2 * np.pi) * grid.Y / grid.Ly
    comps = []
    for c in range(2):
        f = np.zeros((grid.nx, grid.ny))
        for kx in range(2):
            for ky in range(1 if channel else 0, 2 + channel):
                if kx == 0 and ky == 0:
                    continue
                a = rng.normal(size=4) / (1 + kx * kx + ky * ky)
                if channel:
                    prof = np.sin(ky * ty) if c == 1 else np.cos(ky * ty)
                    f += (a[0] * np.cos(kx * tx) + a[1] * np.sin(kx * tx)) * prof
                else:
                    f += (a[0] * np.cos(kx * tx) * np.cos(ky * ty)
                          + a[1] * np.cos(kx * tx) * np.sin(ky * ty)
                          + a[2] * np.sin(kx * tx) * np.cos(ky * ty)
                          + a[3] * np.sin(kx * tx) * np.sin(ky * ty))
        comps.append(f)
    scale = amp / max(np.max(np.abs(comps[0])), np.max(np.abs(comps[1])))
    return VectorField.from_arrays(grid, comps[0] * scale, comps[1] * scale)


def admissible(op, sp, bc, raw: VectorField) -> VectorField:
    """Divergence-free, boundary-respecting member, as the suites build it."""
    if bc.has_boundary:
        raw = el.l_alpha(op, raw, bc)
    return sp.project(raw)


def problem(spec, n, phi, cfl_factor=0.5):
    ny = n if spec.kind == "torus" else n + 1
    geo = ge.build_geometry(spec, n, ny, phi)
    bc = el.BcRegime.from_domain(spec)
    cfg = dy.SolverConfig(alpha=ALPHA, dt=DT, t_end=1.0, bc=bc,
                          cfl_factor=cfl_factor)
    prob = dy.LaeProblem(geo, cfg)
    prob.op.factor(bc)             # the elliptic LU belongs to set-up
    return prob


def lu_nnz(lu) -> int:
    return int(lu.L.nnz + lu.U.nnz)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


# ---------------------------------------------------------------------------
# workloads: setup(seed) -> ctx; run_pass(ctx, chunks) -> output, appending
# (work units, seconds) pairs to chunks as each chunk completes;
# check(ctx, output) -> (checks, values), one check per name in CHECKS;
# fingerprint(output) -> digest
# ---------------------------------------------------------------------------

class Workload:
    smoke_units = 1
    CHECKS: tuple = ()

    def __init__(self, n, units, channel=False):
        self.n, self.units, self.channel = n, units, channel


class Rk4(Workload):
    """Fixed RK4 steps of LaeProblem from a seeded admissible field."""

    amp = 0.5
    smoke_units = 3
    CHECKS = ("states_finite", "relative_divergence")

    def setup(self, seed, name):
        spec, phi = (MIXED, PHI_C) if self.channel else (TORUS, PHI_T)
        prob = problem(spec, self.n, phi)
        rng = np.random.default_rng(seed)
        u0 = admissible(prob.op, prob.sp, prob.bc,
                        band_limited(prob.geo.grid, rng, amp=self.amp))
        return SimpleNamespace(prob=prob, u0=u0)

    def run_pass(self, ctx, chunks):
        state = dy.State(ctx.u0.copy(), 0.0)
        states = []
        for _ in range(self.units):
            t = now()
            state = dy.step(ctx.prob, state)
            chunks.append((1, now() - t))
            states.append(state.u)
        return states

    def check(self, ctx, states):
        m = ctx.prob.geo.metric
        ok_finite = finite(*(a for u in states for a in u.arrays()))
        scale = max(states[-1].linf(), 1e-300)
        div = max(ca.divergence(m, u).linf() for u in states) / scale
        e0 = dy.energy(m, ALPHA, ctx.u0)
        drift = abs(dy.energy(m, ALPHA, states[-1]) - e0) / max(e0, 1e-300)
        checks = [("states_finite", ok_finite, float(ok_finite), "all"),
                  ("relative_divergence", div <= DIV_TOL, div, DIV_TOL)]
        values = {"energy_drift": drift,
                  "t_end": len(states) * DT}
        return checks, values

    def fingerprint(self, states):
        return digest(*states[-1].arrays())

    def counts(self, ctx):
        prob = ctx.prob
        return {"saddle_nnz": lu_nnz(prob.sp.lu),
                "lu_nnz": lu_nnz(prob.op.factor(prob.bc)[0])}


class Spray(Rk4):
    """Fixed material.spray_advance steps from the identity map."""

    amp = 0.4
    smoke_units = 2
    CHECKS = ("state_finite", "volume_distortion")

    def run_pass(self, ctx, chunks):
        grid = ctx.prob.geo.grid
        ms = mt.MaterialState(mt.FlowMap.identity(grid), ctx.u0.copy())
        for _ in range(self.units):
            t = now()
            ms = mt.spray_advance(ctx.prob, ms)
            chunks.append((1, now() - t))
        return ms

    def check(self, ctx, ms):
        ok_finite = finite(ms.eta.e1, ms.eta.e2, *ms.V.arrays())
        vol = mt.volume_distortion(ctx.prob.geo.metric, ms)
        return ([("state_finite", ok_finite, float(ok_finite), "all"),
                 ("volume_distortion", vol <= VOLUME_TOL, vol, VOLUME_TOL)],
                {"t_end": self.units * DT})

    def fingerprint(self, ms):
        return digest(ms.eta.e1, ms.eta.e2, *ms.V.arrays())


class FlowCheck(Workload):
    """poisson.flow_poisson_check over one RK4 step, every tangent direction."""

    CHECKS = ("report_finite", "flow_deviation")

    def setup(self, seed, name):
        # The metric, observables and u0 of test_flow_poisson_check_small_time_16,
        # whatever the seed: the deviation is relative to {f, g}(u), which a
        # random u can make nearly vanish (a seeded u0 gave 5.5e-4 and a
        # deviation of 5e-2 from the usual absolute error of 3e-5).  The cost
        # does not depend on the field values.  The test asserts < 5e-3 at
        # t = 0.05, 10 steps (1.7e-3 measured); after the one step taken here,
        # at a tenth of the cost, the deviation is 1.1e-4.
        prob = problem(TORUS, self.n, PHI_T_POISSON, cfl_factor=5.0)
        ctx = po.PoissonContext(prob.geo, ALPHA, prob.bc)
        ctx.op.factor(ctx.bc)
        ctx.gram_matrix()
        grid = prob.geo.grid
        f = po.LinearObservable(ctx, sa.random_vector(grid, seed=101, kmax=2))
        g = po.LinearObservable(ctx, sa.random_vector(grid, seed=102, kmax=2))
        u0 = admissible(ctx.op, ctx.sp, ctx.bc,
                        sa.random_vector(grid, seed=39, kmax=1, amp=0.4))
        return SimpleNamespace(prob=prob, ctx=ctx, f=f, g=g, u0=u0)

    def run_pass(self, c, chunks):
        t = now()
        rep = po.flow_poisson_check(c.prob, c.ctx, c.f, c.g, c.u0,
                                    self.units * DT)
        chunks.append((rep["dim"] * self.units, now() - t))
        return rep

    def check(self, c, rep):
        vals = (rep["lhs"], rep["rhs"], rep["deviation"])
        ok_finite = finite(vals)
        dev = rep["deviation"]
        return ([("report_finite", ok_finite, float(ok_finite), "all"),
                 ("flow_deviation", dev < FLOW_TOL, dev, FLOW_TOL)],
                {"deviation": dev, "dim": rep["dim"]})

    def fingerprint(self, rep):
        return digest([rep["lhs"], rep["rhs"], rep["deviation"]])

    def counts(self, c):
        return {"saddle_nnz": lu_nnz(c.prob.sp.lu) + lu_nnz(c.ctx.sp.lu),
                "lu_nnz": lu_nnz(c.prob.op.factor(c.prob.bc)[0])
                + lu_nnz(c.ctx.op.factor(c.ctx.bc)[0])}


class SuiteElliptic(Workload):
    """`laealab run --suite elliptic` through the public CLI entry point."""

    CHECKS = ("exit_code_0", "all_passed")

    def setup(self, seed, name):
        # The default configuration (seed 1234), as `laealab run` runs it,
        # whatever the seed: the suite's verdict depends on its seed (seed
        # 107 fails the orthogonality_defect_curved order window).
        out = Path(__file__).resolve().parent / "out" / "suite" / name
        out.mkdir(parents=True, exist_ok=True)
        return SimpleNamespace(out=out)

    def run_pass(self, c, chunks):
        argv = ["run", "--suite", "elliptic", "--grid-ladder", SUITE_LADDER[self.n],
                "--out", str(c.out)]
        t = now()
        with open(c.out / "cli.log", "w") as log:
            saved, sys.stdout = sys.stdout, log
            try:
                rc = cli.main(argv)
            finally:
                sys.stdout = saved
        chunks.append((1, now() - t))
        manifest = json.loads((c.out / "manifest_elliptic.json").read_text())
        manifest.pop("timestamps", None)
        return rc, manifest

    def check(self, c, out):
        rc, manifest = out
        passed = all(r["passed"] for r in manifest["results"])
        failing = [r["name"] for r in manifest["results"] if not r["passed"]]
        return ([("exit_code_0", rc == 0, float(rc), 0),
                 ("all_passed", passed, float(passed), "all")],
                {"results": len(manifest["results"]), "failing": failing})

    def fingerprint(self, out):
        payload = json.dumps(out[1], sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    def counts(self, c):
        return {}


# name: (workload, grid n, units per pass, set-ups per run, channel); smoke
# runs use 8^2 grids.  One torus64 set-up takes 11-18 s, so it is built once.
WORKLOADS = {
    "torus64_rk4": (Rk4, 64, 5, 1, False),
    "mixed32_rk4": (Rk4, 32, 120, 5, True),
    "spray32": (Spray, 32, 10, 5, False),
    "flowcheck16": (FlowCheck, 16, 1, 5, False),
    "suite_elliptic": (SuiteElliptic, 64, 1, 1, False),
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Reference:
    """A fixed job that does not use laealab, run from a timer signal.

    Sparse LU solves and products on a 48^2 Laplacian plus small-array numpy
    operations: the kinds of work the workloads are made of.  On a shared
    host the speed of the same code swings by up to 2x in phases of seconds
    to a minute; this job's time follows those swings when it runs in the
    same process (timed after every 8th RK4 step of mixed32_rk4 for 2.5-4
    minutes, the log of the step time against the log of this job's time had
    slope 0.87-1.11 and correlation 0.89-0.91; run in a second process on
    the other CPU, correlation 0.56).  ``start`` runs it every ``interval``
    seconds from SIGALRM, between the program's bytecodes, and records
    (start, duration) pairs, so run.py can take the swings out of each pass
    and the job's own time out of the pass time.
    """

    def __init__(self, n: int = 48):
        one = np.ones(n * n)
        self.L = sps.diags_array([-one[n:], -one[1:], 4 * one, -one[1:], -one[n:]],
                                 offsets=[-n, -1, 0, 1, n], format="csc")
        self.lu = spla.splu(self.L)
        self.b = np.linspace(0.0, 1.0, n * n)
        self.small = np.linspace(0.0, 1.0, 1024)
        self.samples: list = []

    def job(self) -> float:
        acc = 0.0
        for _ in range(8):
            acc += float((self.L @ self.lu.solve(self.b))[0])
        for _ in range(300):
            a = self.small * 1.0001 + self.small
            acc += float(np.roll(a, 1)[0] - a.sum())
        return acc

    def _tick(self, signum, frame):
        t = now()
        self.job()
        self.samples.append((t, now() - t))

    def start(self, interval: float = 0.25):
        self.job()                    # warm
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def environment() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "loadavg": loadavg, "threads": threads}


def measure(args) -> dict:
    cls, n, units, setups, channel = WORKLOADS[args.workload]
    if args.smoke:
        n, units, setups = 8, cls.smoke_units, min(setups, 2)
    wl = cls(n, units, channel)
    name = args.workload + ("-smoke" if args.smoke else "")
    result = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "traced": args.traced, "env": environment(),
              "import_s": T_IMPORTED - args.spawn}

    ref = None if args.traced else Reference()   # built before the tracer
    tracer = Tracer().install() if args.traced else None
    if tracer:
        setups = 1
    setup_s, ctx = [], None
    for _ in range(setups):
        ctx = None                    # free the previous set-up first
        t = now()
        span = tracer.open("bench.setup") if tracer else None
        ctx = wl.setup(args.seed, name)
        if tracer:
            tracer.close(span)
        setup_s.append(now() - t)

    # a pass that raises still counts its time and its completed chunks; the
    # untraced run times the reference job throughout the passes
    pass_s, pass_t0, pass_units, chunks = [], [], [], []
    first, later, raised = None, [], 0
    if ref:
        ref.start()
    start = now()
    while not pass_s or (not raised and now() - start < args.seconds):
        done = len(chunks)
        t = now()
        pass_t0.append(t)
        span = tracer.open("bench.pass") if tracer else None
        try:
            out = wl.run_pass(ctx, chunks)
        except Exception:             # a step that raises is a failed pass
            traceback.print_exc()
            raised += 1
            continue
        finally:
            if tracer:
                tracer.close(span)
            pass_s.append(now() - t)
            pass_units.append(sum(u for u, _ in chunks[done:]))
        # the checks need the first pass's output; later passes, its digest
        if first is None:
            first = out
        else:
            later.append(wl.fingerprint(out))
    if ref:
        ref.stop()
    if tracer:
        tracer.uninstall()

    missed = [(c, False, None, "not run") for c in wl.CHECKS]
    checks, values, fp = missed, {}, ""
    if first is not None:
        try:
            checks, values = wl.check(ctx, first)
        except Exception:             # a check that raises is a missed check
            traceback.print_exc()
        fp = wl.fingerprint(first)
    identical = all(d == fp for d in later)
    checks.append(("passes_bit_identical", identical, float(len(pass_s)), "all"))
    checks.append(("passes_completed", not raised, float(raised), 0))

    result.update(
        setup_s=setup_s, pass_s=pass_s, pass_t0=pass_t0, pass_units=pass_units,
        ref=ref.samples if ref else [],
        chunks=chunks,
        units_per_pass=sum(u for u, _ in chunks) / len(pass_s),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        checks=[{"name": c, "ok": bool(ok), "value": v, "limit": lim}
                for c, ok, v, lim in checks],
        values=values, digest=fp, counts=wl.counts(ctx))
    if tracer:
        result["layers"] = summarize(tracer.arrays(), tracer.digests, values)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--import-only", action="store_true",
                   help="only report the import time")
    args = p.parse_args(argv)
    if args.import_only:
        result = {"import_s": T_IMPORTED - args.spawn}
    else:
        result = measure(args)
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
