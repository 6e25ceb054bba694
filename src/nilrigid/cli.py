"""Command line interface: subcommands over algebra files, deterministic reports.

Reports are emitted as text (default) or JSON; the JSON envelope carries
``"schema": "nilrigid-report/1"`` and validates against
``schemas/report.schema.json``.  Exit codes: 0 success, 1 mathematical
refutation (the report carries the witness), 2 usage or parse errors, and
also an internal error, reported on one line without a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import __version__
from .cohomology import Cohomology
from .errors import (
    FamilyShapeError,
    ModelError,
    NilrigidError,
    NotNilpotentError,
    ParseError,
)
from .families import (
    section3_pair,
    theorem1_family,
    theorem2_family,
    theorem4_example,
)
from .fileformat import (
    build_form,
    emit_algebra,
    form_to_str,
    lie_algebra,
    model,
    parse_source,
)
from .forms import Form, check_d_squared
from .free_nilpotent import free_nilpotent_lie, theorem3_family
from .lie import (
    adapted_basis,
    carnot,
    ce_model,
    generated_basis,
    lie_from_model,
    lower_central_series,
    jacobi_defect,
    trivial_basis,
)
from .morphisms import (
    GeneratorMap,
    fingerprint,
    is_decomposable_2form,
    normalize_perturbation,
    verify_cdga_morphism,
    verify_cohomology_ring_iso,
)

SCHEMA_VERSION = "nilrigid-report/1"

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")


def _parse(path: str):
    return parse_source(_read_file(path))


def _lie(path: str):
    """The Lie algebra of an algebra file; declared weights are not needed."""
    return lie_algebra(_parse(path))[0]


def _model(path: str):
    """The Sullivan model of an algebra file."""
    return model(_parse(path))


def _vec(v) -> list:
    return [str(c) for c in v]


# -- subcommand implementations ---------------------------------------------


def _cmd_check(args, report):
    L = _lie(args.file)
    jd = jacobi_defect(L)
    # weights are irrelevant for the d^2 test, so a trivial basis always works
    A = ce_model(L, trivial_basis(L))
    d2 = check_d_squared(A)
    report["jacobi_defects"] = [
        {"triple": [L.names[i], L.names[j], L.names[k]], "defect": _vec(v)}
        for i, j, k, v in jd
    ]
    report["d2_defects"] = [
        {"generator": g.name, "defect": form_to_str(f)} for g, f in d2
    ]
    report["ok"] = not jd and not d2
    return EXIT_OK if report["ok"] else EXIT_REFUTED


def _cmd_lcs(args, report):
    L = _lie(args.file)
    chain = lower_central_series(L)
    dims = chain.dimensions()
    report["dimensions"] = list(dims)
    report["quotients"] = [dims[i] - dims[i + 1] for i in range(len(dims) - 1)]
    report["nilpotent"] = chain.nilpotent
    report["ok"] = chain.nilpotent
    return EXIT_OK if chain.nilpotent else EXIT_REFUTED


def _cmd_carnot(args, report):
    L = _lie(args.file)
    basis = adapted_basis(L)
    graded = carnot(L, basis)
    report["weights"] = list(basis.weights)
    report["algebra_file"] = emit_algebra(graded, weights=basis.weights)
    report["ok"] = True
    return EXIT_OK


def _cmd_model(args, report):
    A = _model(args.file)
    report["generators"] = [
        {"name": g.name, "weight": g.weight} for g in A.generators
    ]
    report["differential"] = {
        g.name: form_to_str(df) for g, df in zip(A.generators, A.differential)
    }
    report["ok"] = True
    return EXIT_OK


def _cmd_betti(args, report):
    # Betti numbers are basis-free: use the generated basis, where d is sparse, unless each
    # bracket of two file basis vectors is one term (then it is the file's, up to scale and
    # order); input not nilpotent or failing d^2 = 0 keeps the file's answer or error text
    af = _parse(args.file)
    L, H = lie_algebra(af)[0], None
    if any(len(vec) > 1 for vec in L.brackets.values()):
        with contextlib.suppress(ModelError, NotNilpotentError):
            H = Cohomology(ce_model(L, generated_basis(L)))
    H = H or Cohomology(model(af))
    b = H.betti_vector()
    report["betti"] = list(b)
    report["euler"] = sum((-1) ** p * bp for p, bp in enumerate(b))
    report["ok"] = True
    return EXIT_OK


def _cmd_cohomology(args, report):
    A = _model(args.file)
    H = Cohomology(A)
    p = args.degree
    report["degree"] = p
    if args.by_weight:
        try:
            by_weight = H.betti_by_weight(p)
        except ModelError as exc:
            raise ParseError(str(exc))
        report["by_weight"] = {str(w): d for w, d in sorted(by_weight.items())}
        report["betti"] = sum(by_weight.values())
    else:
        report["betti"] = H.betti(p)
        report["representatives"] = [form_to_str(f) for f in H.basis(p)]
    report["ok"] = True
    return EXIT_OK


def _cmd_generators(args, report):
    A = _model(args.file)
    H = Cohomology(A)
    p = args.degree
    count, reps = H.indecomposables(p)
    report["degree"] = p
    report["betti"] = H.betti(p)
    report["indecomposable_count"] = count
    report["representatives"] = [
        {"coordinates": _vec(r.coordinates), "form": form_to_str(H.form_of(r))}
        for r in reps
    ]
    report["ok"] = True
    return EXIT_OK


def _fingerprint_dict(fp) -> dict:
    return {
        "dimension": fp.dimension,
        "lcs_quotients": list(fp.lcs_quotients),
        "betti": list(fp.betti),
        "indecomposables": list(fp.indecomposables),
    }


def _cmd_fingerprint(args, report):
    L = _lie(args.file)
    fp = fingerprint(L, max_indec_degree=args.max_degree)
    report["fingerprint"] = _fingerprint_dict(fp)
    report["ok"] = True
    return EXIT_OK


def _cmd_compare(args, report):
    L1 = _lie(args.first)
    L2 = _lie(args.second)
    fp1 = fingerprint(L1, max_indec_degree=args.max_degree)
    fp2 = fingerprint(L2, max_indec_degree=args.max_degree)
    report["first"] = _fingerprint_dict(fp1)
    report["second"] = _fingerprint_dict(fp2)
    difference = None
    for field in ("dimension", "lcs_quotients", "betti", "indecomposables"):
        if getattr(fp1, field) != getattr(fp2, field):
            difference = field
            break
    report["equal"] = difference is None
    report["difference"] = difference
    report["ok"] = difference is None
    return EXIT_OK if report["ok"] else EXIT_REFUTED


def _generator_map(af, src, dst) -> GeneratorMap:
    """Images from ``map`` lines; unmapped generators go to their namesakes."""
    images = []
    mapped = {name: (terms, lineno) for name, terms, lineno in af.maps}
    for g in src.generators:
        if g.name in mapped:
            terms, lineno = mapped.pop(g.name)
            images.append(build_form(terms, dst, lineno))
        else:
            try:
                images.append(dst.gen(g.name))
            except KeyError:
                raise ParseError(
                    f"no image given for generator {g.name!r} and the target has no namesake"
                )
    for name, (_, lineno) in mapped.items():
        raise ParseError(f"map line for unknown generator {name!r}", lineno)
    return GeneratorMap(tuple(images))


def _cmd_verify_iso(args, report):
    src = _model(args.src)
    dst = _model(args.dst)
    af = _parse(args.map)
    phi = _generator_map(af, src, dst)
    result = verify_cdga_morphism(src, dst, phi)
    report["stage"] = result.stage
    report["generator"] = result.generator
    report["witness"] = form_to_str(result.witness) if result.witness else None
    report["ok"] = result.ok
    return EXIT_OK if result.ok else EXIT_REFUTED


def _cmd_verify_ring_iso(args, report):
    src = _model(args.src)
    dst = _model(args.dst)
    af = _parse(args.map)
    if not af.classes:
        raise ParseError("map file declares no class lines")
    pairs = [
        (build_form(s, src, lineno), build_form(d, dst, lineno))
        for s, d, lineno in af.classes
    ]
    result = verify_cohomology_ring_iso(Cohomology(src), Cohomology(dst), pairs)
    report["stage"] = result.stage
    report["degree"] = result.degree
    report["detail"] = result.detail
    report["ok"] = result.ok
    return EXIT_OK if result.ok else EXIT_REFUTED


def _cmd_normalize(args, report):
    A = _model(args.src)
    try:
        norm = normalize_perturbation(A)
    except FamilyShapeError as exc:
        raise ParseError(str(exc))
    changed = {}
    for g, img in zip(A.generators, norm.map.images):
        if img != Form.generator(A.generators, g.index):
            changed[g.name] = form_to_str(img)
    top = [g for g in A.generators if g.weight == 2][0]
    report["residual"] = str(norm.residual)
    report["map"] = changed
    report["normalized_differential"] = form_to_str(
        norm.normalized.differential[top.index]
    )
    report["ok"] = True
    return EXIT_OK


def _cmd_decomposable(args, report):
    af = _parse(args.file)
    A = model(af)
    if not af.forms:
        raise ParseError("file declares no form lines")
    results = []
    all_ok = True
    for terms, lineno in af.forms:
        f = build_form(terms, A, lineno)
        d = is_decomposable_2form(f)
        entry = {
            "form": form_to_str(f),
            "decomposable": d.decomposable,
            "rank": d.rank,
            "square": form_to_str(d.square),
        }
        if d.witness is not None:
            entry["witness"] = [form_to_str(d.witness[0]), form_to_str(d.witness[1])]
        else:
            entry["witness"] = None
        results.append(entry)
        all_ok = all_ok and d.decomposable
    report["forms"] = results
    report["ok"] = all_ok
    return EXIT_OK if all_ok else EXIT_REFUTED


def _emit_model_file(A) -> str:
    return emit_algebra(lie_from_model(A), weights=A.weights)


def _cmd_family(args, report):
    name = args.name
    if name == "theorem1":
        if args.k is None:
            raise ParseError("family theorem1 needs --k")
        report["algebra_file"] = _emit_model_file(theorem1_family(args.k))
    elif name == "theorem2":
        if args.k is None:
            raise ParseError("family theorem2 needs --k")
        report["algebra_file"] = _emit_model_file(theorem2_family(args.k))
    elif name == "theorem4":
        report["algebra_file"] = _emit_model_file(theorem4_example())
    elif name == "section3":
        first, second = section3_pair()
        report["first"] = _emit_model_file(first)
        report["second"] = _emit_model_file(second)
    elif name == "free":
        if args.gens is None or args.nilpotency_class is None:
            raise ParseError("family free needs --gens and --class")
        free = free_nilpotent_lie(args.gens, args.nilpotency_class)
        report["algebra_file"] = emit_algebra(free.algebra, weights=free.weights)
    elif name == "theorem3":
        if args.gens is None or args.k is None or args.subspace is None:
            raise ParseError("family theorem3 needs --gens, --k and --subspace")
        sub_af = _parse(args.subspace)
        vectors = [entries for entries, _ in sub_af.vectors]
        if not vectors:
            raise ParseError("subspace file declares no vector lines")
        L = theorem3_family(args.gens, args.k, vectors)
        basis = adapted_basis(L)
        if basis.is_identity():
            report["algebra_file"] = emit_algebra(L, weights=basis.weights)
        else:
            report["algebra_file"] = emit_algebra(L)
    report["ok"] = True
    return EXIT_OK


# -- rendering ---------------------------------------------------------------


def _render_text(report) -> str:
    cmd = report["command"]
    lines = []
    if cmd == "check":
        if report["ok"]:
            lines.append("ok: Jacobi identity holds and d^2 = 0")
        else:
            for item in report["jacobi_defects"]:
                lines.append(
                    "jacobi defect at [%s]: %s"
                    % (", ".join(item["triple"]), " ".join(item["defect"]))
                )
            for item in report["d2_defects"]:
                lines.append(f"d^2 {item['generator']} = {item['defect']}")
    elif cmd == "lcs":
        lines.append("dimensions: " + " ".join(map(str, report["dimensions"])))
        lines.append("quotients:  " + " ".join(map(str, report["quotients"])))
        lines.append("nilpotent:  " + ("yes" if report["nilpotent"] else "no"))
    elif cmd in ("carnot", "family"):
        if "algebra_file" in report:
            lines.append(report["algebra_file"].rstrip("\n"))
        else:
            lines.append("# first")
            lines.append(report["first"].rstrip("\n"))
            lines.append("# second")
            lines.append(report["second"].rstrip("\n"))
    elif cmd == "model":
        for g in report["generators"]:
            name = g["name"]
            lines.append(
                f"{name}:{g['weight']}  d {name} = {report['differential'][name]}"
            )
    elif cmd == "betti":
        lines.append("betti: " + " ".join(map(str, report["betti"])))
        lines.append(f"euler: {report['euler']}")
    elif cmd == "cohomology":
        p = report["degree"]
        lines.append(f"b_{p} = {report['betti']}")
        if "by_weight" in report:
            for w, dim in report["by_weight"].items():
                lines.append(f"  weight {w}: {dim}")
        else:
            for f in report["representatives"]:
                lines.append(f"  [{f}]")
    elif cmd == "generators":
        p = report["degree"]
        lines.append(
            f"degree {p}: betti {report['betti']}, "
            f"indecomposable {report['indecomposable_count']}"
        )
        for rep in report["representatives"]:
            lines.append(f"  [{rep['form']}]")
    elif cmd == "fingerprint":
        fp = report["fingerprint"]
        lines.append(f"dimension: {fp['dimension']}")
        lines.append("lcs quotients: " + " ".join(map(str, fp["lcs_quotients"])))
        lines.append("betti: " + " ".join(map(str, fp["betti"])))
        lines.append("indecomposables: " + " ".join(map(str, fp["indecomposables"])))
    elif cmd == "compare":
        if report["equal"]:
            lines.append("equal fingerprints")
        else:
            lines.append(f"fingerprints differ at: {report['difference']}")
            lines.append(f"first:  {report['first']}")
            lines.append(f"second: {report['second']}")
    elif cmd in ("verify-iso", "verify-ring-iso"):
        if report["ok"]:
            lines.append("ok")
        else:
            detail = []
            for key in ("generator", "degree", "detail", "witness"):
                if report.get(key) is not None:
                    detail.append(f"{key}={report[key]}")
            lines.append(f"refuted at stage {report['stage']}"
                         + (f" ({', '.join(detail)})" if detail else ""))
    elif cmd == "normalize":
        lines.append(f"residual: {report['residual']}")
        lines.append(f"normalized d m = {report['normalized_differential']}")
        for name, img in report["map"].items():
            lines.append(f"map {name} = {img}")
    elif cmd == "decomposable":
        for entry in report["forms"]:
            if entry["decomposable"]:
                u, v = entry["witness"]
                lines.append(f"{entry['form']}: decomposable, ({u}) ^ ({v})")
            else:
                lines.append(
                    f"{entry['form']}: not decomposable "
                    f"(rank {entry['rank']}), square = {entry['square']}"
                )
    else:  # pragma: no cover - every command is handled above
        lines.append(json.dumps(report, sort_keys=True))
    return "\n".join(lines) + "\n"


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilrigid",
        description="Exact rational models and cohomology of nilpotent Lie algebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the Jacobi identity / d^2 = 0")
    p.add_argument("file")
    p = sub.add_parser("lcs", help="lower central series dimensions")
    p.add_argument("file")
    p = sub.add_parser("carnot", help="associated Carnot-graded algebra")
    p.add_argument("file")
    p = sub.add_parser("model", help="Sullivan model generators and differential")
    p.add_argument("file")
    p = sub.add_parser("betti", help="Betti numbers")
    p.add_argument("file")
    p = sub.add_parser("cohomology", help="cohomology of one degree")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--by-weight", action="store_true")
    p = sub.add_parser("generators", help="indecomposable cohomology generators")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p = sub.add_parser("fingerprint", help="invariant fingerprint")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=None)
    p = sub.add_parser("compare", help="compare two fingerprints")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--max-degree", type=int, default=None)
    p = sub.add_parser("verify-iso", help="verify a CDGA morphism given by map lines")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("map")
    p = sub.add_parser("verify-ring-iso", help="verify a cohomology ring isomorphism")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("map")
    p = sub.add_parser("normalize", help="absorb the quadratic perturbation of d m")
    p.add_argument("src")
    p = sub.add_parser("decomposable", help="2-form decomposability with certificates")
    p.add_argument("file")
    p = sub.add_parser("family", help="emit a named example family as an algebra file")
    p.add_argument(
        "name",
        choices=("theorem1", "theorem2", "theorem4", "section3", "free", "theorem3"),
    )
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--gens", type=int, default=None)
    p.add_argument("--class", dest="nilpotency_class", type=int, default=None)
    p.add_argument("--subspace", default=None)
    return parser


_COMMANDS = {
    "check": _cmd_check,
    "lcs": _cmd_lcs,
    "carnot": _cmd_carnot,
    "model": _cmd_model,
    "betti": _cmd_betti,
    "cohomology": _cmd_cohomology,
    "generators": _cmd_generators,
    "fingerprint": _cmd_fingerprint,
    "compare": _cmd_compare,
    "verify-iso": _cmd_verify_iso,
    "verify-ring-iso": _cmd_verify_ring_iso,
    "normalize": _cmd_normalize,
    "decomposable": _cmd_decomposable,
    "family": _cmd_family,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = {"schema": SCHEMA_VERSION, "command": args.command, "ok": False}
    try:
        code = _COMMANDS[args.command](args, report)
    except (NilrigidError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program: never exit 1, which refutes
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(report))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
