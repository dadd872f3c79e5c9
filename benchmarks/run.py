"""Run one workload of the pada benchmark and print its metrics.

    python3 benchmarks/run.py --workload grid-tiny --seed 0 --seconds 36 --trace 0

Run from the repository root.  The benchmark imports pada from ``src/`` of
the same checkout and works in ``.bench_work/`` there.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

``--record`` rewrites expected.json, the outputs the correctness gate
compares against, by running every workload and input variant once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("grid-tiny", "grid-wide", "mask-analysis")

# One BLAS thread on every run, so both sides of a comparison match; the
# environment block of each result records it.
BLAS_THREADS = "1"

# The run length every bound was measured at; --seconds defaults to it.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (selects the input variant)")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="how long the loop measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "pada" / "__init__.py").is_file():
        print(f"error: no pada sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("PADA_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # after the BLAS settings: importing numpy reads them

    if args.record:
        harness.record(ROOT)
        return 0
    return harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
