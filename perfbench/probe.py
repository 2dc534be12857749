"""One set-up sample: `import kacvmrt` in a fresh interpreter plus the
workload's set-up up to its first timed call.  Prints the seconds taken.

    PYTHONPATH=src python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import sys
import time

import workloads

t0 = time.perf_counter()
import kacvmrt  # noqa: E402,F401

workloads.build(sys.argv[1], int(sys.argv[2]), os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
print(f"{time.perf_counter() - t0:.9f}")
