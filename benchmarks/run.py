"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout.  One workload runs in this
process; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Full results,
the run environment and the trace spans go to ``.bench_work/results/``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the keys of workloads.WORKLOADS, which cannot be imported before the BLAS
# thread count is set
WORKLOAD_NAMES = ("train_desk", "decode_paper", "eval_desk")

# One BLAS thread: a single client whose numbers do not depend on a second
# core being free on a shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs that only exercise the code (for tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "trailergen" / "__init__.py").is_file():
        print(f"error: no trailergen sources under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # must happen before numpy is first imported
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))

    import trailergen
    if Path(trailergen.__file__).resolve().parent != src / "trailergen":
        print(f"error: imported trailergen from {trailergen.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import harness

    result, lines = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.size, threads, ROOT / ".bench_work")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
