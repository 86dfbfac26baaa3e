"""One set-up sample, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIR

Prints the seconds taken to import psombor and write the workload's input
files under DIR. numpy is imported before the clock starts: its import,
mostly OpenBLAS starting its thread pool, varies from 60 to 160 ms between
interpreters on a shared two-core VM and belongs to no code in this
repository. Any other module psombor imports is inside the sample.
"""

import sys
import time

import numpy  # noqa: F401  (outside the sample; see above)

import inputs

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    inputs.import_psombor()
    inputs.generate(workload, seed, workdir)
    print(time.perf_counter() - t0)
