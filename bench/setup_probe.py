"""Set-up probe: a fresh interpreter imports qw3 and builds one workload's inputs.

    python3 bench/setup_probe.py <workload> <seed> <scratch dir>

Prints the seconds from the first statement to inputs ready, then the
seconds of the small-matrix calibration kernel, best of three, timed in the
same interpreter right after.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
SETUP = time.perf_counter() - STARTED

from calibration import calibrate_small  # noqa: E402

print(SETUP, min(calibrate_small() for _ in range(3)))
