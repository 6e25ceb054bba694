"""Write a workload's input files: ``make_inputs.py WORKLOAD SEED OUTDIR``.

``run.py`` times this script in a fresh interpreter, so ``setup_s`` covers
interpreter start, ``import nilrigid`` and generating and writing the files.
The last line of output holds two reference samples (``refclock``), taken
after the imports and at the end, and the seconds they took: the parent
normalises by the speed of the core this process ran on, which need not be
its own.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import nilrigid  # noqa: E402,F401
import refclock  # noqa: E402
import workloads  # noqa: E402


def timed_sample() -> tuple[float, float]:
    t0 = perf_counter()
    return refclock.sample(), perf_counter() - t0


if __name__ == "__main__":
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    first, busy_first = timed_sample()
    out.mkdir(parents=True, exist_ok=True)
    workloads.make_inputs(workload, seed, out)
    last, busy_last = timed_sample()
    print(json.dumps({"samples": [first, last], "sampling_s": busy_first + busy_last}))
