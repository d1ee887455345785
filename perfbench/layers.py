"""Per-layer metrics from a traced run's spans.

The benchmark's own code opens ``bench.setup`` once and ``bench.pass`` once per
repetition of the workload's job; every laealab span nests under one of them.
A span's self time is its duration minus its children's durations, and each
span belongs to the layer named by the first part of its name.  Times and
counts are given for one set-up plus one pass: spans under ``bench.pass`` are
weighted by 1/passes.  Every pass runs identical work, so a count that is not
the same in every pass is reported in ``bench.count_mismatch``.

Summed over the layers plus ``bench.self_s`` (the benchmark's glue), the self
times equal ``trace.wall_s``, the traced set-up plus the mean traced pass;
``run.py`` adds the import time and the untraced comparison.
"""

from __future__ import annotations

import numpy as np

from tracer import LAYERS, SPLU


def _tail(samples_ms: np.ndarray):
    """(value, percentile): the highest percentile with >= 10 samples above."""
    n = samples_ms.size
    if n < 11:
        return 0.0, 0.0
    s = np.sort(samples_ms)
    return float(s[n - 11]), 100.0 * (n - 10) / n


def summarize(spans: dict, digests: list, values: dict) -> dict:
    names = [str(x) for x in spans["names"]]
    nid, par = spans["nid"], spans["parent"]
    dur = spans["t1"] - spans["t0"]
    arg = spans["arg"]
    n = nid.size

    has_par = par >= 0
    self_t = dur - np.bincount(par[has_par], weights=dur[has_par], minlength=n)
    top = np.empty(n, dtype=np.int64)
    for i, p in enumerate(par.tolist()):
        top[i] = i if p < 0 else top[p]
    pass_id = names.index("bench.pass")
    in_pass = nid[top] == pass_id
    passes = int(np.sum((par < 0) & (nid == pass_id)))
    w = np.where(in_pass, 1.0 / passes, 1.0)

    def per_run(mask, amount=None):
        """Sum of amount (default 1) over the spans in mask, for one set-up
        plus one pass."""
        v = np.ones(n) if amount is None else amount
        return float(np.sum(v[mask & ~in_pass]) + np.sum(v[mask & in_pass]) / passes)

    per_pass = [np.bincount(nid[top == t], minlength=len(names))
                for t in np.flatnonzero((par < 0) & (nid == pass_id))]
    mismatch = sum(int(np.any(c != per_pass[0])) for c in per_pass[1:])

    def sel(name):
        return nid == names.index(name) if name in names else np.zeros(n, bool)

    def total_s(*which):
        return sum(per_run(sel(x), dur) for x in which)

    def count(*which):
        return sum(per_run(sel(x)) for x in which)

    def p50_ms(name):
        d = dur[sel(name)]
        return float(np.median(d) * 1e3) if d.size else 0.0

    layer_of = np.array([LAYERS.index(x.split(".")[0]) if x.split(".")[0] in LAYERS
                         else len(LAYERS) for x in names])
    span_layer = layer_of[nid]
    layer_self = np.bincount(span_layer, weights=w * self_t,
                             minlength=len(LAYERS) + 1)

    # factorizations, classified by the entry point that built them
    splu = sel(SPLU)
    parent_nid = np.where(has_par, nid[np.maximum(par, 0)], -1)

    def under(name):
        return splu & (parent_nid == names.index(name)) if name in names \
            else np.zeros(n, bool)

    elliptic_lu = under("elliptic.EllipticOperator.factor")
    saddle_lu = under("elliptic.StokesProjector.__init__")
    built = per_run(splu)
    distinct = float(len(set(digests)))

    step = dur[sel("dynamics.step")] * 1e3
    tail, tail_pct = _tail(step)
    pi_r = count("material.pi_r")

    out = {
        "geometry.build_s": total_s("geometry.build_geometry"),
        "elliptic.assemble_s": total_s("elliptic.EllipticOperator.__init__"),
        "elliptic.bc_rows_s": total_s("elliptic.EllipticOperator.matrix"),
        "elliptic.lu_s": per_run(elliptic_lu, dur),
        "elliptic.lu_count": per_run(elliptic_lu),
        "elliptic.lu_nnz": per_run(elliptic_lu, arg),
        "elliptic.saddle_lu_s": per_run(saddle_lu, dur),
        "elliptic.saddle_nnz": per_run(saddle_lu, arg),
        "elliptic.factor_built": built,
        "elliptic.factor_distinct": distinct,
        "elliptic.factor_reuse_ratio": distinct / built if built else 0.0,
        "elliptic.solve_count": count("elliptic.EllipticOperator.solve"),
        "elliptic.solve_ms_p50": p50_ms("elliptic.EllipticOperator.solve"),
        "elliptic.project_count": count("elliptic.StokesProjector.project"),
        "elliptic.project_ms_p50": p50_ms("elliptic.StokesProjector.project"),
        "calculus.call_count": per_run(span_layer == LAYERS.index("calculus")),
        "dynamics.rhs_count": count("dynamics.LaeProblem.rhs"),
        "dynamics.rhs_ms_p50": p50_ms("dynamics.LaeProblem.rhs"),
        "dynamics.step_ms_p50": float(np.median(step)) if step.size else 0.0,
        "dynamics.step_ms_tail": tail,
        "dynamics.step_tail_pct": tail_pct,
        "dynamics.step_samples": float(step.size),
        "material.spray_ms_p50": p50_ms("material.spray_advance"),
        "material.pi_r_ms_p50": p50_ms("material.pi_r"),
        "material.newton_iters_mean":
            count("interp.BicubicField.eval_with_grad") / (2 * pi_r) if pi_r else 0.0,
        "interp.eval_count": count("interp.BicubicField.eval",
                                   "interp.BicubicField.eval_with_grad"),
        "interp.eval_points": sum(per_run(sel(x), arg) for x in (
            "interp.BicubicField.eval", "interp.BicubicField.eval_with_grad")),
        "interp.eval_s": total_s("interp.BicubicField.eval",
                                 "interp.BicubicField.eval_with_grad"),
        "poisson.tangent_rhs_count": count("poisson.tangent_rhs"),
        "poisson.tangent_rhs_ms_p50": p50_ms("poisson.tangent_rhs"),
        "poisson.basis_s": total_s("poisson.constrained_basis"),
        "poisson.gram_s": total_s("poisson.PoissonContext.gram_matrix"),
        "poisson.dim": float(values.get("dim", 0)),
        "bench.self_s": float(layer_self[len(LAYERS)]),
        "bench.passes": float(passes),
        "bench.count_mismatch": float(mismatch),
        "trace.span_count": per_run(np.ones(n, bool)),
        "trace.wall_s": float(np.sum(w * self_t)),
    }
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = float(layer_self[i])
    return out
