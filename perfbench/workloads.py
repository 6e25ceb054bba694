"""Workload definitions: seeded input generation, job lists and answer checks.

Every input is written as an algebra file by ``make_inputs``; a job is an
argv for ``nilrigid.cli.main`` over those files plus the pinned answer it
must produce.  Betti vectors, LCS dimensions and indecomposable counts do not
depend on the basis, so one pin holds for the given algebra and for every
seeded conjugate of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pins

WORKLOADS = ("betti-graded", "betti-conjugated", "classes", "structure")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the answer it must give."""

    name: str
    argv: tuple[str, ...]
    check: tuple  # (kind, *expected), interpreted by ``check_job``


# -- input generation ---------------------------------------------------------


def _cli_json(argv) -> dict:
    """Run the CLI in process with JSON output and return the report."""
    from nilrigid.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", *argv])
    if code != 0:
        raise RuntimeError(f"input generation failed: nilrigid {' '.join(argv)} -> {code}")
    return json.loads(out.getvalue())


def _family(*argv) -> str:
    return _cli_json(["family", *argv])["algebra_file"]


def _conjugate(text: str, name: str, rng: random.Random, weights: str) -> str:
    """Rewrite an algebra file in a basis with entries in {-1, 0, 1}.

    The basis is a fixed random invertible matrix, drawn once per input name:
    a random sign on the diagonal, and off the diagonal 0 with probability
    2/3 and -1 or 1 otherwise.  ``rng`` only shuffles the generator names.
    The cost of exact elimination depends on the matrix (fresh draws took 4.2
    to 10.1 s for conjugated theorem2(2), and flipping column signs alone
    moved it by 8 %), while names cost nothing, so every seed costs the same.
    ``weights`` is ``"zero"`` to declare every weight ``:0`` (the CLI keeps
    the trivial basis) or ``"none"`` to omit weights (the CLI computes an
    adapted basis).
    """
    from nilrigid import linalg
    from nilrigid.fileformat import emit_algebra, parse_algebra
    from nilrigid.lie import AdaptedBasis, change_basis

    L = parse_algebra(text)
    n = L.dimension
    fixed = random.Random(f"conjugate:{name}")
    while True:
        cols = [
            [Fraction(fixed.choice((-1, 1) if i == a else (-1, 0, 0, 0, 0, 1))) for i in range(n)]
            for a in range(n)
        ]
        if linalg.invert([[cols[a][i] for a in range(n)] for i in range(n)]) is not None:
            break
    names = list(L.names)
    rng.shuffle(names)
    basis = AdaptedBasis(
        columns=tuple(tuple(c) for c in cols), weights=(0,) * n, names=tuple(names)
    )
    conj = change_basis(L, basis)
    return emit_algebra(conj, weights=(0,) * n if weights == "zero" else None)


def make_inputs(workload: str, seed: int, out: Path) -> None:
    """Write every input file of ``workload`` into ``out``."""
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    if workload == "betti-graded":
        files["t1k2"] = _family("theorem1", "--k", "2")
        files["t1k3"] = _family("theorem1", "--k", "3")
        files["t2k2"] = _family("theorem2", "--k", "2")
        files["t2k3"] = _family("theorem2", "--k", "3")
        files["t4"] = _family("theorem4")
        files["free2c4"] = _family("free", "--gens", "2", "--class", "4")
        s3 = _cli_json(["family", "section3"])
        files["s3a"], files["s3b"] = s3["first"], s3["second"]
    elif workload == "betti-conjugated":
        files["c_t1k2"] = _conjugate(_family("theorem1", "--k", "2"), "c_t1k2", rng, "zero")
        files["c_t2k2"] = _conjugate(_family("theorem2", "--k", "2"), "c_t2k2", rng, "zero")
        files["c_free2c4"] = _conjugate(
            _family("free", "--gens", "2", "--class", "4"), "c_free2c4", rng, "zero"
        )
        files["c_t4"] = _conjugate(_family("theorem4"), "c_t4", rng, "none")
    elif workload == "classes":
        files["t2k2"] = _family("theorem2", "--k", "2")
        files["t2k3"] = _family("theorem2", "--k", "3")
        files["t1k3"] = _family("theorem1", "--k", "3")
        files["t4"] = _family("theorem4")
        for name in ("t2k2", "t4"):
            (out / f"{name}.alg").write_text(files[name])
            files[f"{name}_carnot"] = _cli_json(["carnot", str(out / f"{name}.alg")])[
                "algebra_file"
            ]
        s3 = _cli_json(["family", "section3"])
        files["s3a"], files["s3b"] = s3["first"], s3["second"]
        header = "generators a1 a2 b c d\n"
        files["s3_map8"] = header + "".join(
            f"class {s} -> {d}\n" for s, d in pins.SECTION3_RING_MAP_COMPLETED
        )
        files["s3_map7"] = header + "".join(
            f"class {s} -> {d}\n" for s, d in pins.SECTION3_RING_MAP
        )
    elif workload == "structure":
        files["free3c3"] = _family("free", "--gens", "3", "--class", "3")
        files["free2c5"] = _family("free", "--gens", "2", "--class", "5")
        files["c_t4"] = _conjugate(_family("theorem4"), "c_t4", rng, "none")
        files["c_t2k3"] = _conjugate(_family("theorem2", "--k", "3"), "c_t2k3", rng, "none")
        files["c_free3c3"] = _conjugate(files["free3c3"], "c_free3c3", rng, "zero")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for name, text in files.items():
        (out / f"{name}.alg").write_text(text)


# -- job lists -----------------------------------------------------------------


def jobs(workload: str, d: Path) -> list[Job]:
    """The workload's jobs, in the fixed order they run, over files in ``d``."""

    def f(name: str) -> str:
        return str(d / f"{name}.alg")

    out: list[Job] = []
    if workload == "betti-graded":
        for name in ("t1k2", "t1k3", "t2k2", "t2k3", "t4", "free2c4", "s3a", "s3b"):
            out.append(Job(f"betti {name}", ("betti", f(name)),
                           ("betti", pins.BETTI[name])))
        out.append(Job("cohomology t1k3 --degree 6 --by-weight",
                       ("cohomology", f("t1k3"), "--degree", "6", "--by-weight"),
                       ("by_weight", pins.BETTI["t1k3"][6], pins.T1K3_DEGREE6_BY_WEIGHT)))
    elif workload == "betti-conjugated":
        for name in ("c_t1k2", "c_t2k2", "c_free2c4", "c_t4"):
            out.append(Job(f"betti {name}", ("betti", f(name)),
                           ("betti", pins.BETTI[name[2:]])))
    elif workload == "classes":
        for name, p in (("t2k2", 3), ("t4", 3), ("t1k3", 3), ("t2k3", 3),
                        ("t4", 4), ("t4", 5), ("t1k3", 4)):
            out.append(Job(f"generators {name} --degree {p}",
                           ("generators", f(name), "--degree", str(p)),
                           ("generators", pins.BETTI[name][p], pins.INDECOMPOSABLES[name][p])))
        out.append(Job("compare t2k2 carnot", ("compare", f("t2k2"), f("t2k2_carnot")),
                       ("compare", 0, None)))
        out.append(Job("compare t4 carnot", ("compare", f("t4"), f("t4_carnot")),
                       ("compare", 1, "betti")))
        out.append(Job("verify-ring-iso s3 map8",
                       ("verify-ring-iso", f("s3a"), f("s3b"), f("s3_map8")),
                       ("ring_iso", 0, "ok", None)))
        out.append(Job("verify-ring-iso s3 map7",
                       ("verify-ring-iso", f("s3a"), f("s3b"), f("s3_map7")),
                       ("ring_iso", 1, "not-generating", 2)))
    elif workload == "structure":
        for name in ("free3c3", "free2c5", "c_t4", "c_t2k3", "c_free3c3"):
            base = name[2:] if name.startswith("c_") else name
            dims = pins.LCS[base]
            quotients = [a - b for a, b in zip(dims, dims[1:])]
            n = dims[0]
            model_weights = [n] if name == "c_free3c3" else quotients
            out.append(Job(f"check {name}", ("check", f(name)), ("check",)))
            out.append(Job(f"lcs {name}", ("lcs", f(name)), ("lcs", dims)))
            out.append(Job(f"carnot {name}", ("carnot", f(name)), ("weights", quotients)))
            out.append(Job(f"model {name}", ("model", f(name)), ("weights", model_weights)))
        for gens, cls in (("3", "3"), ("2", "6")):
            key = f"free{gens}c{cls}"
            out.append(Job(f"family free {gens} {cls}",
                           ("family", "free", "--gens", gens, "--class", cls),
                           ("family", pins.WITT[key])))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


# -- answer checks ---------------------------------------------------------------


def _weight_counts(weights) -> list[int]:
    """Number of generators at weight 0, 1, ..., max weight."""
    counts = Counter(weights)
    return [counts.get(w, 0) for w in range(max(counts) + 1)] if counts else []


def check_job(job: Job, code: int, report: dict | None) -> list[str]:
    """Mismatches between a job's exit code and report and its pin."""
    kind, *want = job.check
    expected_code = 0
    if kind in ("compare", "ring_iso"):
        expected_code = want[0]
    errors = []
    if code != expected_code:
        errors.append(f"exit code {code}, expected {expected_code}")
    if report is None:
        return errors + ["no JSON report"]
    got: dict = {}
    expect: dict = {}
    if kind == "betti":
        got = {"betti": report.get("betti"), "euler": report.get("euler")}
        expect = {"betti": list(want[0]), "euler": 0}
    elif kind == "by_weight":
        got = {"betti": report.get("betti"), "by_weight": report.get("by_weight")}
        expect = {"betti": want[0], "by_weight": {str(w): b for w, b in want[1].items()}}
    elif kind == "generators":
        reps = report.get("representatives")
        got = {"betti": report.get("betti"),
               "indecomposable_count": report.get("indecomposable_count"),
               "representatives": None if reps is None else len(reps)}
        expect = {"betti": want[0], "indecomposable_count": want[1],
                  "representatives": want[1]}
    elif kind == "compare":
        got = {"equal": report.get("equal"), "difference": report.get("difference")}
        expect = {"equal": want[1] is None, "difference": want[1]}
    elif kind == "ring_iso":
        got = {"stage": report.get("stage"), "degree": report.get("degree")}
        expect = {"stage": want[1], "degree": want[2]}
    elif kind == "check":
        got = {"ok": report.get("ok")}
        expect = {"ok": True}
    elif kind == "lcs":
        got = {"dimensions": report.get("dimensions"), "nilpotent": report.get("nilpotent")}
        expect = {"dimensions": list(want[0]), "nilpotent": True}
    elif kind == "weights":
        if "weights" in report:
            weights = report["weights"]
        else:
            weights = [g["weight"] for g in report.get("generators", [])]
        got = {"weight_counts": _weight_counts(weights)}
        expect = {"weight_counts": list(want[0])}
    elif kind == "family":
        from nilrigid.errors import ParseError
        from nilrigid.fileformat import lie_algebra, parse_source

        try:
            L, weights = lie_algebra(parse_source(report.get("algebra_file", "")))
        except ParseError as exc:
            return errors + [f"emitted file does not parse: {exc}"]
        got = {"dimension": L.dimension, "weight_counts": _weight_counts(weights or ())}
        expect = {"dimension": sum(want[0]), "weight_counts": list(want[0])}
    for key, value in expect.items():
        if got.get(key) != value:
            errors.append(f"{key}: got {got.get(key)!r}, expected {value!r}")
    return errors
