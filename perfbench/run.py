#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload partition-4k --seed 1 --seconds 35 --trace 0

Workloads: ``partition-4k``, ``edist-4r``, ``serve-small``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The line before the result is a JSON record with the
environment, the raw samples and the partition hashes.  The exit code
is 1 when an output check fails and 2 when the sources are missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Pin the numpy thread pools before numpy loads (the server inherits
    # the environment), and keep the quick-scale bench_config.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Whether numpy's large arrays get transparent huge pages depends on
    # the host's free memory, so peak RSS differed between runs of the
    # same input; back them with normal pages only.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    os.environ["GSAP_BENCH_SCALE"] = "quick"
    # replace the script directory so its module names shadow nothing
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main()


if __name__ == "__main__":
    sys.exit(main())
