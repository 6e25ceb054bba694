"""The benchmark's tracer resolves every function it names in nilrigid.

``perfbench/run.py --trace 1`` wraps each entry of ``tracing.TARGETS``; a
renamed or removed function would break that run, so installing the tracer
here fails first.
"""

import importlib.util
from pathlib import Path

from nilrigid import cli, linalg, lie

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_is_restored():
    tracing = load_tracing()
    before = (linalg.rref, lie.LieAlgebra.__dict__["bracket"], cli.lower_central_series)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert len(tracer._restore) >= len(tracing.TARGETS)
        assert linalg.rref is not before[0]
        assert cli.lower_central_series is lie.lower_central_series is not before[2]
    finally:
        tracer.uninstall()
    assert (linalg.rref, lie.LieAlgebra.__dict__["bracket"], cli.lower_central_series) == before
