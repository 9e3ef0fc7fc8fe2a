#!/usr/bin/env python3
"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload outer-figures --seed 1 --seconds 27 --trace 0

Workloads: outer-figures, regime-sweep, simulate-mc, discrete-search.  The
package is imported from this checkout's ``src/``; nothing is installed.
"""

import os
import sys
from pathlib import Path


def _cap_blas_threads() -> None:
    """Cap OpenBLAS at the CPUs this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or int(current) > nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)


if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "icbounds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src}/icbounds")
    _cap_blas_threads()
    sys.path.insert(0, str(src))
    from bench import main

    sys.exit(main(sys.argv[1:]))
