"""Time ``Cohomology(A).betti_vector()`` on the engine's reference models.

Runs each model in a fresh interpreter, so that neither caches nor the
allocator's retained memory carry over from one model to the next, and
prints one line per model: its name, its dimension n, the seconds taken by
``betti_vector()`` alone (not by building the model), the child's peak
resident set (``ru_maxrss``, in MB) and the first 16 hex digits of the
sha256 of the Betti vector, so two versions can be compared by eye:

    PYTHONPATH=src python3 tests/engine_times.py
    PYTHONPATH=src python3 tests/engine_times.py abelian(20)

With arguments, only the named models run.  Like ``report_sweep.py``,
pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import resource
import subprocess
import sys
import time

MODELS = ("free(3,3)", "theorem1(4)", "theorem2(4)", "abelian(20)", "theorem1(5)")


def build(name: str):
    """The Sullivan model called ``name`` in ``MODELS``."""
    from nilrigid import (ce_model, free_nilpotent_lie, theorem1_family, theorem2_family,
                          trivial_basis)
    from oracle import abelian

    family, args = name.rstrip(")").split("(")
    args = [int(a) for a in args.split(",")]
    if family == "free":
        free = free_nilpotent_lie(*args)
        return ce_model(free.algebra, trivial_basis(free.algebra, free.weights))
    if family == "abelian":
        L = abelian(*args)
        return ce_model(L, trivial_basis(L))
    return {"theorem1": theorem1_family, "theorem2": theorem2_family}[family](*args)


def measure(name: str) -> str:
    """One line of the table, for the model ``name``, in this interpreter."""
    from nilrigid import Cohomology

    A = build(name)
    start = time.perf_counter()
    betti = Cohomology(A).betti_vector()
    seconds = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    digest = hashlib.sha256(repr(betti).encode()).hexdigest()[:16]
    return f"{name:<12} n={A.dimension:<3} {seconds:8.3f} s {rss:8.1f} MB  {digest}"


def run(names: list[str]) -> int:
    unknown = [name for name in names if name not in MODELS]
    if unknown:
        print(f"unknown model {unknown[0]}; choose from {' '.join(MODELS)}", file=sys.stderr)
        return 2
    for name in names or MODELS:
        child = subprocess.run([sys.executable, __file__, "--child", name],
                               capture_output=True, text=True)
        if child.returncode:
            print(child.stderr, end="", file=sys.stderr)
            return child.returncode
        print(child.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(measure(sys.argv[2]))
        sys.exit(0)
    sys.exit(run(sys.argv[1:]))
