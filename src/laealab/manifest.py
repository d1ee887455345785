"""Run manifests and CSV emission.

A manifest echoes the configuration, the code version, the seed and the grid
ladder, and records one entry per suite test: the measured value, its
tolerance or admissible order window, pass/fail, and the least-squares
convergence order when a refinement series backs the test.  Timestamps and
the BLAS thread settings live in separate fields, outside
deterministic_payload(), so that manifests from identical configurations
compare bit-for-bit; the thread settings are recorded because the results'
last bits depend on them (dense LAPACK calls differ between thread counts).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

from .orders import fit_order


@dataclass
class TestResult:
    name: str
    identity: str            # which analytic fact the test exercises
    kind: str                # 'order' | 'max' | 'bool'
    value: float             # fitted order, worst residual, or 0/1
    tolerance: str           # human-readable admissibility statement
    passed: bool
    series_h: list = field(default_factory=list)
    series_residual: list = field(default_factory=list)
    note: str = ""


@dataclass
class RunManifest:
    suite: str
    config_echo: dict
    version: str
    seed: int
    grid_ladder: list
    results: list = field(default_factory=list)
    timestamps: dict = field(default_factory=dict)
    threads: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def deterministic_payload(self) -> dict:
        d = {
            "suite": self.suite,
            "config_echo": self.config_echo,
            "version": self.version,
            "seed": self.seed,
            "grid_ladder": list(self.grid_ladder),
            "results": [asdict(r) for r in self.results],
        }
        return d

    def results_digest(self) -> str:
        """SHA-256 of the payload's results as sorted-key JSON; not written to the file."""
        results = json.dumps(self.deterministic_payload()["results"], sort_keys=True)
        return hashlib.sha256(results.encode()).hexdigest()

    def to_json(self) -> str:
        payload = self.deterministic_payload()
        payload["timestamps"] = self.timestamps
        payload["threads"] = self.threads
        return json.dumps(payload, indent=2, sort_keys=True)

    def write(self, outdir: str) -> str:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, f"manifest_{self.suite}.json")
        with open(path, "w") as fh:
            fh.write(self.to_json())
        csv_path = os.path.join(outdir, f"series_{self.suite}.csv")
        with open(csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["test", "h", "value", "residual", "order"])
            for r in self.results:
                if r.series_h:
                    order = fit_order(r.series_h, r.series_residual) \
                        if len(r.series_h) >= 2 else ""
                    for h, res in zip(r.series_h, r.series_residual):
                        w.writerow([r.name, repr(h), repr(r.value), repr(res), order])
                else:
                    w.writerow([r.name, "", repr(r.value), "", ""])
        return path


def order_result(name: str, identity: str, hs, residuals, lo: float,
                 hi: float, note: str = "") -> TestResult:
    order = fit_order(hs, residuals)
    return TestResult(name, identity, "order", float(order),
                      f"fitted order in [{lo}, {hi}]", bool(lo <= order <= hi),
                      [float(x) for x in hs], [float(x) for x in residuals], note)


def max_result(name: str, identity: str, value: float, tol: float,
               note: str = "", series_h=(), series_res=()) -> TestResult:
    return TestResult(name, identity, "max", float(value), f"<= {tol:g}",
                      bool(value <= tol), [float(x) for x in series_h],
                      [float(x) for x in series_res], note)


def bool_result(name: str, identity: str, ok: bool, statement: str,
                note: str = "") -> TestResult:
    return TestResult(name, identity, "bool", 1.0 if ok else 0.0, statement,
                      bool(ok), [], [], note)


def stamp(manifest: RunManifest) -> RunManifest:
    """Record the write time and the thread settings (None where unset)."""
    manifest.timestamps = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
    manifest.threads = {k: os.environ.get(k)
                        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    manifest.threads["cpu_count"] = os.cpu_count()
    return manifest
