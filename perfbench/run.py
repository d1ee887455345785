"""laealab benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout.  Each workload runs in its own child process
(``workload.py``), one at a time, with the BLAS/OpenMP thread counts pinned
to 1 and this checkout's ``src`` first on ``PYTHONPATH``.  With ``--trace 0``
the last line of standard output is a JSON object holding the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` a second, traced child runs
the same workload and the object holds the per-layer metrics instead.  Lines
before it give every metric with its unit, the output checks, the exact
counts, the result digest and the environment.  ``--smoke`` runs 8^2 grids.

End-to-end metrics (untraced child):
    setup_s      process start to the start of timed work: the median import
                 time (from process start, over the workload process and
                 IMPORT_PROBES processes that only import) plus the median
                 over the run's set-ups (geometry, operator assembly, every
                 factorization, the seeded inputs)
    adj_work_per_s
                 units of work per second after set-up at the reference
                 host speed: the median over passes of the pass's units per
                 second times ((the mean time of the reference runs in the
                 pass) / REF_S) ** SENSITIVITY.  Units are RK4 steps, spray
                 steps, tangent directions x RK4 steps, or suite runs (see
                 WORK)
    peak_rss_mb  peak resident memory of the workload process

On a shared host the speed of the same code swings by up to 2x in phases of
seconds to a minute, long enough to cover a whole run, so the raw rate of ten
runs spreads by 0.10-0.34 of its median on a 2-core host.  The untraced
workload process therefore runs a fixed reference job that does not use
laealab (sparse LU solves and small-array numpy, see ``workload.Reference``)
every 0.25 s from a timer signal during the passes.  Each pass's time loses
the reference runs that fell in it, and its rate is scaled by their mean time
over REF_S, to the workload's SENSITIVITY.  The raw rate (``work_per_s``),
the median ``slowdown`` and ``wall_s`` (setup_s plus the median pass) are
printed but are not metrics of BENCHMARK.json.  setup_s is raw: the reference is not running during set-up,
and the ten-run median of setup_s moved by at most 19% between three sets of
runs.

A missed check, a pass that raises or differs from the first, a traced result
that differs from the untraced one, or an exact count or digest that differs
from an earlier run of the same workload, seed and laealab sources in this
checkout counts as failed.  The exact values are kept in
``perfbench/out/records.json`` under a SHA-256 of ``src/laealab``; a value that
differs from a run of other sources is printed as a ``FLAG`` line only, since
a change to the program may move it on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0
REF_S = 5.3e-3          # the reference job's time in a fast phase of a
                        # 2-core Xeon VM; it only sets the scale
# How strongly a pass's time follows the reference's, as a power; 1 where not
# listed.  A torus64 pass is mostly triangular solves with a 22.7M-nonzero
# factor, which stream memory and slow about half as much (in log) as the
# reference.  Ten-run spread of adj_work_per_s, seeds 11-20, at powers 0 /
# 0.5 / 1: torus64_rk4 0.19 / 0.044 / 0.16; the other workloads 0.23-0.29 /
# 0.09-0.15 / 0.035-0.063.
SENSITIVITY = {"torus64_rk4": 0.5}
IMPORT_PROBES = 2       # extra processes that only import, for setup_s

WORK = {
    "torus64_rk4": "steps_per_s: RK4 steps, curved torus 64^2",
    "mixed32_rk4": "steps_per_s: RK4 steps, mixed channel 32x33",
    "spray32": "steps_per_s: spray_advance steps, curved torus 32^2",
    "flowcheck16": "tangent_steps_per_s: tangent directions x RK4 steps, 16^2",
    "suite_elliptic": "suite_runs_per_s: elliptic suite on 16,32,64",
}
# the rows of ROADMAP's baseline table: (row, metric, scale to ms)
TABLE = (("assemble 1 - a^2 Lop", "elliptic.assemble_s", 1e3),
         ("BC-row substitution", "elliptic.bc_rows_s", 1e3),
         ("elliptic LU", "elliptic.lu_s", 1e3),
         ("Stokes saddle LU", "elliptic.saddle_lu_s", 1e3),
         ("one op.solve", "elliptic.solve_ms_p50", 1.0),
         ("one sp.project", "elliptic.project_ms_p50", 1.0),
         ("one RK4 step", "dynamics.step_ms_p50", 1.0),
         ("one spray_advance", "material.spray_ms_p50", 1.0))
# per-layer counts that must repeat exactly for one workload and seed
EXACT = ("elliptic.lu_count", "elliptic.lu_nnz", "elliptic.saddle_nnz",
         "elliptic.factor_built", "elliptic.factor_distinct",
         "elliptic.solve_count", "elliptic.project_count",
         "calculus.call_count", "dynamics.rhs_count",
         "material.newton_iters_mean", "interp.eval_count",
         "interp.eval_points", "poisson.tangent_rhs_count", "poisson.dim")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def run_child(args, mode: str, started: float) -> dict | None:
    """Run workload.py once; mode is "untraced", "traced" or "import"."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-{args.seed}"
    out = OUT / f"{tag}-{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(out)]
    cmd += {"untraced": [], "traced": ["--traced"], "import": ["--import-only"]}[mode]
    cmd += ["--smoke"] * args.smoke
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawn", repr(spawn)], env=env,
                              stdout=sys.stderr, cwd=ROOT,
                              timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        fail(f"{tag}: child timed out")
        return None
    if proc.returncode != 0 or not out.exists():
        fail(f"{tag}: child exited with {proc.returncode}")
        return None
    return json.loads(out.read_text())


def passes(r: dict) -> list:
    """(seconds, units, mean reference time) of each untraced pass.

    The seconds leave out the reference runs that fell in the pass; a pass
    shorter than the timer's interval takes the run's mean reference time.
    """
    every = [d for _, d in r["ref"]] or [REF_S]
    out = []
    for t0, s, u in zip(r["pass_t0"], r["pass_s"], r["pass_units"]):
        d = [d for t, d in r["ref"] if t0 <= t < t0 + s]
        out.append((s - sum(d), u, statistics.fmean(d or every)))
    return out


def end_to_end(workload: str, r: dict, imports: list) -> dict:
    setup = statistics.median(imports) + statistics.median(r["setup_s"])
    power = SENSITIVITY.get(workload, 1.0)
    ps = passes(r)
    return {
        "setup_s": setup,
        "adj_work_per_s": statistics.median(u / s * (ref / REF_S) ** power
                                            for s, u, ref in ps),
        "peak_rss_mb": r["peak_rss_mb"],
        "wall_s": setup + statistics.median(s for s, _, _ in ps),
        "work_per_s": statistics.median(u / s for s, u, _ in ps),
        "slowdown": statistics.median(ref / REF_S for _, _, ref in ps),
    }


def per_layer(r: dict, t: dict) -> dict:
    m = dict(t["layers"])
    m["bench.import_s"] = t["import_s"]
    m["trace.wall_s"] += t["import_s"]
    m["trace.untraced_wall_s"] = (r["import_s"] + r["setup_s"][0]
                                  + statistics.fmean(s for s, _, _ in passes(r)))
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    return m


def source_digest() -> str:
    """SHA-256 over the paths and contents of the files under src/laealab."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "laealab"
    for f in sorted(pkg.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(f.relative_to(pkg).as_posix().encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def check_records(key: str, seed: int, found: dict):
    """Compare exact counts and digests with earlier runs; remember new ones.

    Returns (diffs against runs of the same sources, diffs against runs of
    other sources)."""
    path = OUT / "records.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    by_source = records.setdefault(key, {}).setdefault(str(seed), {})
    source = source_digest()

    def differ(known, tag):
        return [f"{tag}{k}: {known[k]} != {v}" for k, v in found.items()
                if k in known and known[k] != v]

    same = differ(by_source.get(source, {}), "")
    other = [d for s, known in by_source.items() if s != source
             for d in differ(known, f"sources {s[:12]}: ")]
    known = by_source.setdefault(source, {})
    known.update({k: v for k, v in found.items() if k not in known})
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return same, other


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="laealab benchmark driver")
    p.add_argument("--workload", required=True, choices=sorted(WORK))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="8^2 grids")
    args = p.parse_args(argv)
    started = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "laealab" / "__init__.py").is_file():
        return fail(f"no laealab sources under {ROOT / 'src'}")
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)

    imports = []
    for _ in range(0 if args.trace else IMPORT_PROBES):
        probe = run_child(args, "import", started)
        if probe is None:
            return 1
        imports.append(probe["import_s"])
    r = run_child(args, "untraced", started)
    if r is None:
        return 1
    imports.append(r["import_s"])
    checks = [dict(c, stage="untraced") for c in r["checks"]]
    found = {f"counts.{k}": v for k, v in r["counts"].items()}
    found["digest"] = r["digest"]
    attempted_ops = len(r["pass_s"])
    t = None
    if args.trace:
        t = run_child(args, "traced", started)
        if t is None:
            return 1
        attempted_ops += len(t["pass_s"])
        checks += [dict(c, stage="traced") for c in t["checks"]]
        checks.append({"name": "tracing_keeps_result", "ok": t["digest"] == r["digest"],
                       "value": t["digest"][:16], "limit": r["digest"][:16],
                       "stage": "traced"})
        mismatch = t["layers"]["bench.count_mismatch"]
        checks.append({"name": "pass_counts_identical", "ok": mismatch == 0,
                       "value": mismatch, "limit": 0, "stage": "traced"})
        found.update({k: t["layers"][k] for k in EXACT})
    key = args.workload + ("-smoke" if args.smoke else "")
    diffs, moved = check_records(key, args.seed, found)
    checks.append({"name": "counts_and_digest_repeat", "ok": not diffs,
                   "value": len(diffs), "limit": 0, "stage": "records"})

    if args.trace:
        values, wanted = per_layer(r, t), spec["per_layer"]
    else:
        values, wanted = end_to_end(args.workload, r, imports), spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = sum(not c["ok"] for c in checks)
    attempted = attempted_ops + len(checks)

    env = r["env"]
    print(f"# perfbench {key} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# env python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} nproc={env['nproc']} "
          f"threads={env['threads']['OMP_NUM_THREADS']} "
          f"loadavg={' '.join(env['loadavg'])}")
    print(f"# work unit: {WORK[args.workload]}; passes={len(r['pass_s'])} "
          f"units/pass={r['units_per_pass']:g}")
    rates = [u / s for u, s in r["chunks"]]
    if rates:
        print(f"# median pass {statistics.median(r['pass_s']):.6g} s; "
              f"median chunk {statistics.median(rates):.6g} units/s "
              f"over {len(rates)} chunks; {len(r['ref'])} reference jobs")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'wall_s':28s} {values['wall_s']:.6g} s")
        print(f"{'work_per_s':28s} {values['work_per_s']:.6g} 1/s")
        print(f"{'slowdown':28s} {values['slowdown']:.6g}")
    print(f"{'failed_ratio':28s} {failed}/{attempted} = {failed / attempted:.6g}")
    if args.trace:
        for row, name, scale in TABLE:
            print(f"table {row:22s} {values[name] * scale:10.4g} ms")
        # the traced child's own clock, to compare with the spans' trace.wall_s
        clock = t["import_s"] + t["setup_s"][0] + statistics.fmean(t["pass_s"])
        print(f"trace clock_wall_s = {clock!r} s")
    for c in checks:
        print(f"check {c['stage']}.{c['name']}: {'ok' if c['ok'] else 'FAILED'} "
              f"(value {c['value']}, limit {c['limit']})")
    for k, v in sorted(found.items()):
        print(f"exact {k} = {v}")
    for d in diffs:
        print(f"count differs from an earlier run of the same sources: {d}")
    for d in moved:
        print(f"FLAG count differs from a run of other sources: {d}")
    for k, v in r["values"].items():
        print(f"value {k} = {v}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
