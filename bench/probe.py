"""Set-up probe: ``import branelab`` plus building one workload's inputs.

    python3 bench/probe.py <workload> <seed>

prints the seconds taken, measured inside this fresh process, then the
median of three reference-kernel runs right after (see ``speed.py``).
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import branelab  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
setup_s = time.perf_counter() - START

import speed  # noqa: E402

print(setup_s, sorted(speed.kernel_seconds() for _ in range(3))[1])
