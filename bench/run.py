"""Benchmark of the hexwalk package.

Run from the root of a source tree::

    python3 bench/run.py --workload snapshot --seed 1 --seconds 20 --trace 0

Workloads are ``snapshot``, ``series`` and ``analysis`` (see
``workloads.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller record of the run, with the environment, every
round and the trace spans, goes to ``.bench_out/`` in the tree.  ``--smoke``
shrinks every problem so a run takes seconds; its figures are not
comparable with full runs.

The package is imported from ``src/`` of the tree; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread (nproc is the upper limit): every operation is a single
# client's call sequence, and a second thread on a small shared machine
# mostly adds noise.  Set before numpy is first imported.
BLAS_THREADS = "1"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("snapshot", "series", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to spend on rounds (at least two rounds run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def prepare() -> bool:
    """Pin BLAS threads and put ``src/`` on the path; False without sources."""
    if not (ROOT / "src" / "hexwalk" / "__init__.py").is_file():
        print(f"error: no hexwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(1, str(ROOT / "src"))
    return True


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    import harness

    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
