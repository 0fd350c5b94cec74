"""Write reference.json: every cell's outcome at workload seed 0.

Run it only at a commit whose fitted numbers are the accepted baseline:

    python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

import run


def main():
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import check
    import workloads

    reference = {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.make_inputs(workload, 0)
        reference[workload] = {cell.key: check.record(workloads.run_cell(cell, inputs))
                               for cell in workloads.cells(workload)}
    Path(check.REFERENCE).write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {check.REFERENCE}")


if __name__ == "__main__":
    main()
