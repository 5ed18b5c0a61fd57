"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is the import of spinweave (and with it numpy and scipy), the
generation of the workload's first inputs and their validation.  run.py
starts this script several times per run, with the thread pinning of its
own environment, and reports the median as ``setup_s``:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2])).setup()
print(time.perf_counter() - _START)
