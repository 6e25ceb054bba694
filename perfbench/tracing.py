"""Spans around nilrigid's public functions, recorded from outside the program.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper in
every ``nilrigid`` module that binds it (``cohomology``, ``morphisms``,
``lie``, ``fileformat`` and ``cli`` import functions by name) and in the
class that owns it for methods.  A wrapper records a span only while a job is
open, so the benchmark's own calls for input checking stay out of the trace.
Spans live in memory and are written out by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" names a class attribute
TARGETS = (
    ("linalg.rref", "nilrigid.linalg", "rref"),
    ("linalg.nullspace", "nilrigid.linalg", "nullspace"),
    ("linalg.in_rowspan", "nilrigid.linalg", "in_rowspan"),
    ("linalg.solver_factor", "nilrigid.linalg", "ColumnSolver.__init__"),
    ("linalg.solve", "nilrigid.linalg", "ColumnSolver.solve"),
    ("cohomology.cochain_matrix", "nilrigid.cohomology", "cochain_matrix"),
    ("cohomology.betti", "nilrigid.cohomology", "Cohomology.betti"),
    ("cohomology.betti_by_weight", "nilrigid.cohomology", "Cohomology.betti_by_weight"),
    ("cohomology.class_coordinates", "nilrigid.cohomology", "Cohomology.class_coordinates"),
    ("cohomology.indecomposables", "nilrigid.cohomology", "Cohomology.indecomposables"),
    ("forms.apply_differential", "nilrigid.forms", "apply_differential"),
    ("forms.monomial_basis", "nilrigid.forms", "monomial_basis"),
    ("forms.wedge", "nilrigid.forms", "wedge"),
    ("forms.check_d_squared", "nilrigid.forms", "check_d_squared"),
    ("morphisms.fingerprint", "nilrigid.morphisms", "fingerprint"),
    ("morphisms.verify_cohomology_ring_iso", "nilrigid.morphisms", "verify_cohomology_ring_iso"),
    ("lie.bracket", "nilrigid.lie", "LieAlgebra.bracket"),
    ("lie.jacobi_defect", "nilrigid.lie", "jacobi_defect"),
    ("lie.lower_central_series", "nilrigid.lie", "lower_central_series"),
    ("lie.adapted_basis", "nilrigid.lie", "adapted_basis"),
    ("lie.change_basis", "nilrigid.lie", "change_basis"),
    ("lie.ce_model", "nilrigid.lie", "ce_model"),
    ("fileformat.parse_source", "nilrigid.fileformat", "parse_source"),
    ("fileformat.model", "nilrigid.fileformat", "model"),
    ("fileformat.emit_algebra", "nilrigid.fileformat", "emit_algebra"),
    ("free_nilpotent.free_nilpotent_lie", "nilrigid.free_nilpotent", "free_nilpotent_lie"),
)

ROOT = "cli.main"  # the span the benchmark opens around each job
COUNTERS = "trace.counters"  # time spent computing counters, excluded from layers

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "linalg.rref.self_s": ("s", "lower"),
    "linalg.rref.calls": ("count", "lower"),
    "linalg.rref.cells": ("count", "lower"),
    "linalg.rref.nnz": ("count", "lower"),
    "linalg.rref.rank_ratio": ("ratio", "higher"),
    "linalg.nullspace.self_s": ("s", "lower"),
    "cohomology.cochain_matrix.self_s": ("s", "lower"),
    "cohomology.cochain_matrix.cells": ("count", "lower"),
    "cohomology.betti.self_s": ("s", "lower"),
    "forms.apply_differential.self_s": ("s", "lower"),
    "forms.apply_differential.calls": ("count", "lower"),
    "forms.monomial_basis.self_s": ("s", "lower"),
    "cohomology.betti_by_weight.self_s": ("s", "lower"),
    "linalg.solver_factor.self_s": ("s", "lower"),
    "linalg.solve.self_s": ("s", "lower"),
    "linalg.solve.calls": ("count", "lower"),
    "linalg.in_rowspan.self_s": ("s", "lower"),
    "cohomology.class_coordinates.self_s": ("s", "lower"),
    "cohomology.class_coordinates.calls": ("count", "lower"),
    "cohomology.indecomposables.self_s": ("s", "lower"),
    "forms.wedge.self_s": ("s", "lower"),
    "forms.wedge.calls": ("count", "lower"),
    "morphisms.fingerprint.self_s": ("s", "lower"),
    "morphisms.verify_cohomology_ring_iso.self_s": ("s", "lower"),
    "lie.bracket.self_s": ("s", "lower"),
    "lie.bracket.calls": ("count", "lower"),
    "lie.jacobi_defect.self_s": ("s", "lower"),
    "forms.check_d_squared.self_s": ("s", "lower"),
    "lie.lower_central_series.self_s": ("s", "lower"),
    "lie.adapted_basis.self_s": ("s", "lower"),
    "lie.change_basis.self_s": ("s", "lower"),
    "lie.ce_model.self_s": ("s", "lower"),
    "fileformat.parse_source.self_s": ("s", "lower"),
    "fileformat.model.self_s": ("s", "lower"),
    "fileformat.emit_algebra.self_s": ("s", "lower"),
    "free_nilpotent.free_nilpotent_lie.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _nnz(row) -> int:
    """Nonzero entries; counting one zero object keeps shared zeros at C speed."""
    zero = next((x for x in row if not x), None)
    return len(row) if zero is None else len(row) - row.count(zero)


def _count_rref(counts, args, kwargs, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    counts["linalg.rref.cells"] += len(rows) * ncols
    counts["linalg.rref.nnz"] += sum(_nnz(r) for r in rows)
    counts["linalg.rref.rows"] += len(rows)
    counts["linalg.rref.pivots"] += len(result[1])


def _count_cochain(counts, args, kwargs, result):
    counts["cohomology.cochain_matrix.cells"] += len(result) * (len(result[0]) if result else 0)


_COUNT = {"linalg.rref": _count_rref, "cohomology.cochain_matrix": _count_cochain}


class Tracer:
    """In-memory spans: name, start, end, parent span and job id."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.jobs: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._job: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self._job)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def run_job(self, job_id: str, fn, *args):
        """Call ``fn(*args)`` as job ``job_id`` under a root span."""
        self._job = job_id
        sid = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self._job = None

    def _wrap(self, name: str, fn):
        count = _COUNT.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if count is not None:
                cid = tracer._open(COUNTERS)
                count(tracer.counts, args, kwargs, result)
                tracer._close(cid)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding in the loaded nilrigid modules."""
        for name, module, attr in TARGETS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("nilrigid"):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._set(loaded, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its child spans."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[sid] - self.starts[sid]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Summed self time and call count per span name, plus counters."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, own in zip(self.names, self.self_times()):
            self_s[name] += own
            calls[name] += 1
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            layer, stat = metric.rsplit(".", 1)
            if stat == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            elif stat == "calls":
                out[metric] = calls.get(layer, 0)
            elif stat == "rank_ratio":
                rows = self.counts["linalg.rref.rows"]
                out[metric] = self.counts["linalg.rref.pivots"] / rows if rows else 0.0
            elif layer != "trace":  # trace.overhead_s comes from the caller
                out[metric] = self.counts.get(metric, 0)
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: id, parent, job, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tjob\tname\tstart\tend\n")
            for sid, (name, parent, job, start, end) in enumerate(
                zip(self.names, self.parents, self.jobs, self.starts, self.ends)
            ):
                fh.write(f"{sid}\t{parent}\t{job}\t{name}\t{start:.9f}\t{end:.9f}\n")
