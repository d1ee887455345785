"""Command-line experiment runner.

    laealab run --config lab.cfg [--suite poisson] [--grid-ladder 16,32,64]
                [--out results/]

Runs the named verification suite over the grid ladder, writes the manifest
JSON and the per-test CSV series into the output directory, prints one
pass/fail line per test and the results digest, and exits 1 if any test
failed, 2 on a bad config or ladder.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig, parse_grid_ladder
from .suites import SUITES, run_suite


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="laealab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a verification suite")
    runp.add_argument("--config", required=False, default=None,
                      help="experiment config file (defaults used if omitted)")
    runp.add_argument("--suite", default=None, choices=sorted(SUITES),
                      help="suite name (overrides the config)")
    runp.add_argument("--grid-ladder", default=None,
                      help="comma-separated grid sizes, e.g. 16,32,64")
    runp.add_argument("--out", default=None, help="output directory")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config) if args.config \
            else ExperimentConfig.defaults()
        ladder = None if args.grid_ladder is None else parse_grid_ladder(args.grid_ladder)
        manifest = run_suite(cfg, args.suite, ladder)   # checks the suite name first
    except ConfigError as e:
        parser.error(str(e))
    outdir = args.out or cfg.get("lab", "output_dir")
    path = manifest.write(outdir)
    for r in manifest.results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.name}: value={r.value:.6g} ({r.tolerance})")
    print(f"manifest: {path}")
    print(f"results digest: {manifest.results_digest()}")
    print(f"suite {manifest.suite}: "
          f"{'all tests passed' if manifest.all_passed else 'FAILURES present'}")
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
