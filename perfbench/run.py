"""Benchmark entry point, run from the root of a checkout:

    python3 perfbench/run.py --workload solve-r20 --seed 1 --seconds 30 --trace 0

Runs ``harness.py`` in a child interpreter whose environment pins the BLAS
thread count to the number of CPUs this process may use, and imports nmfkit
from the checkout's ``src``. Iteration counts and final objectives are
bitwise repeatable only at a fixed BLAS thread count, so the count is set
here, for the child alone, and recorded in its output. Exits non-zero,
without a result, when the checkout holds no nmfkit sources.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fixed glibc malloc thresholds. With the defaults the threshold moves with
# the allocation history, and per-iteration times flipped by 2x between
# passes as the heap did or did not hand O(nm) temporaries back to the OS.
MALLOC_PINS = {
    "MALLOC_MMAP_THRESHOLD_": str(16 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(2**30),
}
TIMEOUT_S = 170


def main() -> int:
    if not (SRC / "nmfkit" / "__init__.py").is_file():
        print(f"perfbench: no nmfkit sources at {SRC}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, **{var: threads for var in THREAD_VARS}, **MALLOC_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    child = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), *sys.argv[1:]], env=env
    )
    # A terminated launcher must not leave the benchmark process running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()


if __name__ == "__main__":
    sys.exit(main())
