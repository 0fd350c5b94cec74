"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing blockrat (with numpy and scipy) and sampling the
workload's problems.  Prints the seconds it took.  `run.py` starts this
script several times and reports the median as `setup_s`; it passes the
source tree on PYTHONPATH and the BLAS thread cap in the environment.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is what is timed)

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
