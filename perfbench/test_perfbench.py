"""Smoke tests of the benchmark itself (8^2 grids).

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once untraced and once traced; the last output line must
carry every metric of BENCHMARK.json with its unit, all checks must pass, and
the traced self times must add up to the traced wall time, which must match
the traced child's own clock.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("geometry", "elliptic", "calculus", "dynamics", "material", "interp",
          "poisson", "suites", "bench")


def bench(cwd: Path, workload: str, trace: int, seed: int = 7):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
        assert f"{m['name']} " in proc.stdout      # the human-readable line
    if trace:
        v = {k: x["value"] for k, x in result["metrics"].items()}
        parts = sum(v[f"{layer}.self_s"] for layer in LAYERS) + v["bench.import_s"]
        assert parts == pytest.approx(v["trace.wall_s"], rel=1e-9)
        # the spans cover the time the traced child measured on its own clock
        clock = re.search(r"^trace clock_wall_s = (\S+) s$", proc.stdout, re.M)
        assert v["trace.wall_s"] == pytest.approx(float(clock.group(1)), rel=1e-3)


def test_pass_that_raises_is_counted_as_failed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "laealab" / "dynamics.py", "a") as fh:
        fh.write("\n\ndef step(prob, state):\n"
                 "    raise FloatingPointError('injected')\n")
    proc = bench(tmp_path, "mixed32_rk4", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    # the two output checks are missed and the pass did not complete
    assert result["failed"] == 3, proc.stdout
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "mixed32_rk4", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
