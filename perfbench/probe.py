"""Set-up probe: import ttdbeam and generate one workload's inputs, then print the seconds taken.

Run as ``python3 perfbench/probe.py <workload> <seed>``; run.py starts it
several times and reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports numpy and ttdbeam)

workloads.make_inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(repr(time.perf_counter() - START))
