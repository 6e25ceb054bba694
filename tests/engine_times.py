"""Time ``Cohomology(A).betti_vector()`` on the engine's reference models.

Runs each model in a fresh interpreter, so that neither caches nor the
allocator's retained memory carry over from one model to the next, and
prints one line per model: its name, its dimension n, the seconds taken by
``betti_vector()`` alone (not by building the model), the child's peak
resident set (``ru_maxrss``, in MB) and the first 16 hex digits of the
sha256 of the Betti vector, so two versions can be compared by eye.

``theorem2(3)`` (n = 13) is the model of the ``betti t2k3`` job of the
benchmark's ``betti-graded`` workload, whose self-dual degree d_6 is most of
its elimination, so that job's engine time can be read alone.

``fingerprint(M)`` probes the class paths instead: it times
``fingerprint(lie_from_model(M))`` (representatives, products and
indecomposables in every degree) and hashes the whole ``Fingerprint``.
``graded(M)`` is M's Carnot model, ``associated_graded_model(M)``, so
``fingerprint(theorem4)`` and ``fingerprint(graded(theorem4))`` time the two
halves of ``compare`` on theorem4 and its Carnot model.
``by_weight(M, p)`` probes the weight split: it times
``Cohomology(M).betti_by_weight(p)`` and hashes the dict.

``c_t2k3`` is a file, not a model: theorem2(3) in the basis with entries in
{-1, 0, 1} of the benchmark's ``structure`` input of that name (the same
structure constants under the family's names), written without weights.
Its time is that of the front door, the parse included:
``Cohomology.of(*model_basis(parse_source(text))).betti_vector()``.
``s_t2k3`` is the same algebra in the {-1, 0, 1} basis that
``helpers.sign_conjugate`` draws from the seed ``"c_t2k3"``, timed the same
way: its entries grow much more in elimination (about 5 s against 0.2 s).
``check(c_t2k3)`` probes the ``check`` command of the benchmark's
``structure`` workload on that file: it times ``cli.main(["check", file])``,
the parse included, and hashes the report it prints.  ``check(c_free3c3)``
does the same on free(3,3) in the basis of the ``structure`` input of that
name, written like ``helpers.dense_free_3_3`` with every weight declared 0;
its ``check`` and ``carnot`` jobs are the slowest of that workload.
``check(bad_c_t2k3)`` runs ``check`` on ``bad_c_t2k3``, the ``c_t2k3`` file
after ``oracle.corrupt`` drawn from the seed ``"bad_c_t2k3"``, written without
weights, which fails Jacobi: on a valid file ``check`` prints one fixed line,
so only a defect makes the hash cover the Jacobi and d^2 lists.

    PYTHONPATH=src python3 tests/engine_times.py
    PYTHONPATH=src python3 tests/engine_times.py abelian(20)
    PYTHONPATH=src python3 tests/engine_times.py "theorem2(3)"
    PYTHONPATH=src python3 tests/engine_times.py "fingerprint(theorem4)"
    PYTHONPATH=src python3 tests/engine_times.py "fingerprint(graded(theorem4))"
    PYTHONPATH=src python3 tests/engine_times.py "by_weight(theorem1(4), 8)"
    PYTHONPATH=src python3 tests/engine_times.py "check(c_t2k3)"
    PYTHONPATH=src python3 tests/engine_times.py "check(c_free3c3)"
    PYTHONPATH=src python3 tests/engine_times.py "check(bad_c_t2k3)"

With arguments, only the named models run.  Like ``report_sweep.py``,
pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

MODELS = ("free(3,3)", "theorem1(4)", "theorem2(3)", "theorem2(4)", "abelian(20)", "theorem1(5)", "c_t2k3",
          "s_t2k3", "fingerprint(theorem4)", "fingerprint(graded(theorem4))",
          "fingerprint(theorem1(4))",
          "by_weight(theorem1(4), 8)", "check(c_t2k3)", "check(c_free3c3)", "check(bad_c_t2k3)")
# name -> (model, sign_conjugate seed); a free algebra's file declares every weight 0
FILES = {"c_t2k3": ("theorem2(3)", "conjugate:c_t2k3"), "s_t2k3": ("theorem2(3)", "c_t2k3"),
         "c_free3c3": ("free(3,3)", "conjugate:c_free3c3")}


def build(name: str):
    """The Sullivan model called ``name`` in ``MODELS``, or the text of a file of ``FILES``."""
    from nilrigid import (associated_graded_model, ce_model, free_nilpotent_lie, lie_from_model,
                          theorem1_family, theorem2_family, theorem4_example, trivial_basis)
    from nilrigid.fileformat import emit_algebra, parse_algebra
    from helpers import sign_conjugate
    from oracle import abelian, corrupt

    if name == "theorem4":
        return theorem4_example()
    if name.startswith("graded("):
        return associated_graded_model(build(name[len("graded("):-1]))
    if name.startswith("bad_"):  # a corrupted copy of a file, seeded by its name
        return emit_algebra(corrupt(random.Random(name), parse_algebra(build(name[len("bad_"):]))))
    if name in FILES:
        model, seed = FILES[name]
        conj = sign_conjugate(lie_from_model(build(model)), seed)
        return emit_algebra(conj, (0,) * conj.dimension if model.startswith("free") else None)
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
    from nilrigid import Cohomology, fingerprint, lie_from_model
    from nilrigid.fileformat import model_basis, parse_source

    probe, split = name.startswith("fingerprint("), name.startswith("by_weight(")
    check = name.startswith("check(")
    model = name[name.index("(") + 1:-1] if probe or split or check else name
    if split:
        model, degree = model.rsplit(", ", 1)
    A = build(model)
    L = lie_from_model(A) if probe else None
    if check:
        from nilrigid import cli
        with tempfile.NamedTemporaryFile("w", suffix=".alg", delete=False) as f:
            f.write(A)
        n, report = len(parse_source(A).generators), io.StringIO()
    start = time.perf_counter()
    if check:
        with contextlib.redirect_stdout(report):
            cli.main(["check", f.name])
        result = report.getvalue()
    elif probe:
        result = fingerprint(L)
        n = len(result.betti) - 1
    elif split:
        result = Cohomology(A).betti_by_weight(int(degree))
        n = A.dimension
    elif isinstance(A, str):
        result = Cohomology.of(*model_basis(parse_source(A))).betti_vector()
        n = len(result) - 1
    else:
        result = Cohomology(A).betti_vector()
        n = len(result) - 1
    seconds = time.perf_counter() - start
    if check:
        os.unlink(f.name)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    digest = hashlib.sha256(repr(result).encode()).hexdigest()[:16]
    return f"{name:<12} n={n:<3} {seconds:8.3f} s {rss:8.1f} MB  {digest}"


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
