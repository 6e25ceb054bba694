"""Command line interface: subcommands over algebra files, deterministic reports.

Each subcommand is declared once, as a ``Command`` in ``_COMMANDS``: its help
text, its arguments, a handler that fills the report and returns the verdict
``ok``, and a renderer of the report as text.  The parser is built from that
table once, at import.  Reports are emitted as text (default) or JSON; the
JSON envelope carries ``"schema": "nilrigid-report/1"`` and validates against
``schemas/report.schema.json``.  The exit code is read off the report's
``ok``: 0 when it is true, 1 when it is false (a mathematical refutation; the
report carries the witness).  Usage and parse errors exit 2, and so does an
internal error, reported on one line without a traceback.
``check`` tests Jacobi and d^2 = 0 in the file's ``adapted_basis`` when a
bracket has several terms (it eliminates nothing, so it needs no
``lie.sparse_basis``), and names defects in the file's basis.
``betti``, ``cohomology`` and ``generators`` call ``Cohomology.of`` on the
file's ``model_basis``, ``fingerprint`` and ``compare`` on its algebra alone:
no algebra is rebuilt from a model, and a d^2 defect is named in the file's
basis, as ``check`` names it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

from . import __version__
from .cohomology import Cohomology
from .errors import FamilyShapeError, ModelError, NilrigidError, NotNilpotentError, ParseError
from .families import section3_pair, theorem1_family, theorem2_family, theorem4_example
from .fileformat import (build_form, emit_algebra, form_to_str, lie_algebra, model, model_basis,
                         parse_source)
from .forms import Form, check_d_squared
from .free_nilpotent import free_nilpotent_lie, theorem3_family
from .lie import (_in_basis, adapted_basis, carnot, ce_model, jacobi_defect, lie_from_model,
                  lower_central_series, trivial_basis)
from .morphisms import (GeneratorMap, fingerprint, is_decomposable_2form, normalize_perturbation,
                        verify_cdga_morphism, verify_cohomology_ring_iso)

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


def _cohomology(path: str) -> Cohomology:
    """The cohomology of an algebra file's model, from its algebra."""
    return Cohomology.of(*model_basis(_parse(path)))


def _vec(v) -> list:
    return [str(c) for c in v]


def _joined(values) -> str:
    return " ".join(map(str, values))


# -- subcommands: a handler returns the verdict ok, a renderer gives text lines


def _defects(L):
    """Jacobi defects of L and, found on their own, d^2 defects of L's model."""
    return jacobi_defect(L), check_d_squared(ce_model(L, trivial_basis(L)))


def _cmd_check(args, report):
    L = M = _lie(args.file)
    # the Jacobiator is a tensor and d^2 on generators its transpose, so both vanish in
    # every basis or in none: tested in the adapted one when a bracket has several
    # terms, named in the file's
    if any(len(vec) > 1 for vec in L.brackets.values()):
        try:
            M = _in_basis(L, adapted_basis(L))
        except NotNilpotentError:
            pass
    jd, d2 = _defects(M)
    if M is not L and (jd or d2):
        jd, d2 = _defects(L)
    report["jacobi_defects"] = [
        {"triple": [L.names[i], L.names[j], L.names[k]], "defect": _vec(v)}
        for i, j, k, v in jd
    ]
    report["d2_defects"] = [{"generator": g.name, "defect": form_to_str(f)} for g, f in d2]
    return not jd and not d2


def _text_check(report):
    if report["ok"]:
        return ["ok: Jacobi identity holds and d^2 = 0"]
    return [
        f"jacobi defect at [{', '.join(item['triple'])}]: {' '.join(item['defect'])}"
        for item in report["jacobi_defects"]
    ] + [f"d^2 {item['generator']} = {item['defect']}" for item in report["d2_defects"]]


def _cmd_lcs(args, report):
    chain = lower_central_series(_lie(args.file))
    dims = chain.dimensions()
    report["dimensions"] = list(dims)
    report["quotients"] = [dims[i] - dims[i + 1] for i in range(len(dims) - 1)]
    report["nilpotent"] = chain.nilpotent
    return chain.nilpotent


def _text_lcs(report):
    lines = [
        "dimensions: " + _joined(report["dimensions"]),
        "quotients:  " + _joined(report["quotients"]),
        "nilpotent:  " + ("yes" if report["nilpotent"] else "no"),
    ]
    return [line.rstrip() for line in lines]  # an empty list leaves no trailing blanks


def _cmd_carnot(args, report):
    L = _lie(args.file)
    basis = adapted_basis(L)
    graded = carnot(L, basis)
    report["weights"] = list(basis.weights)
    report["algebra_file"] = emit_algebra(graded, weights=basis.weights)
    return True


def _text_files(report):
    """The emitted algebra file, or a pair of them under ``# first``/``# second``."""
    if "algebra_file" in report:
        return [report["algebra_file"].rstrip("\n")]
    return ["# first", report["first"].rstrip("\n"), "# second", report["second"].rstrip("\n")]


def _cmd_model(args, report):
    A = _model(args.file)
    report["generators"] = [{"name": g.name, "weight": g.weight} for g in A.generators]
    report["differential"] = {g.name: form_to_str(d) for g, d in zip(A.generators, A.differential)}
    return True


def _text_model(report):
    return [
        f"{g['name']}:{g['weight']}  d {g['name']} = {report['differential'][g['name']]}"
        for g in report["generators"]
    ]


def _cmd_betti(args, report):
    b = _cohomology(args.file).betti_vector()
    report["betti"] = list(b)
    report["euler"] = sum((-1) ** p * bp for p, bp in enumerate(b))
    return True


def _text_betti(report):
    return ["betti: " + _joined(report["betti"]), f"euler: {report['euler']}"]


def _cmd_cohomology(args, report):
    H = _cohomology(args.file)
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
        report["betti"] = len(reps := [form_to_str(f) for f in H.basis(p)])  # b_p, from Z^p
        report["representatives"] = reps
    return True


def _text_cohomology(report):
    head = [f"b_{report['degree']} = {report['betti']}"]
    if "by_weight" in report:
        return head + [f"  weight {w}: {dim}" for w, dim in report["by_weight"].items()]
    return head + [f"  [{f}]" for f in report["representatives"]]


def _cmd_generators(args, report):
    H = _cohomology(args.file)
    p = args.degree
    count, reps = H.indecomposables(p)
    report["degree"] = p
    report["betti"] = H.betti(p)
    report["indecomposable_count"] = count
    report["representatives"] = [
        {"coordinates": _vec(r.coordinates), "form": form_to_str(H.form_of(r))}
        for r in reps
    ]
    return True


def _text_generators(report):
    return [
        f"degree {report['degree']}: betti {report['betti']}, "
        f"indecomposable {report['indecomposable_count']}",
        *(f"  [{rep['form']}]" for rep in report["representatives"]),
    ]


def _fingerprint_dict(fp) -> dict:
    return {
        "dimension": fp.dimension,
        "lcs_quotients": list(fp.lcs_quotients),
        "betti": list(fp.betti),
        "indecomposables": list(fp.indecomposables),
    }


def _cmd_fingerprint(args, report):
    fp = fingerprint(_lie(args.file), max_indec_degree=args.max_degree)
    report["fingerprint"] = _fingerprint_dict(fp)
    return True


def _text_fingerprint(report):
    fp = report["fingerprint"]
    lines = [
        f"dimension: {fp['dimension']}",
        "lcs quotients: " + _joined(fp["lcs_quotients"]),
        "betti: " + _joined(fp["betti"]),
        "indecomposables: " + _joined(fp["indecomposables"]),
    ]
    return [line.rstrip() for line in lines]  # an empty list leaves no trailing blank


def _cmd_compare(args, report):
    # both files are read before either fingerprint is computed
    first, second = [
        _fingerprint_dict(fingerprint(L, max_indec_degree=args.max_degree))
        for L in (_lie(args.first), _lie(args.second))
    ]
    report["first"], report["second"] = first, second
    # the first field, in fingerprint order, where the two differ
    difference = next((key for key in first if first[key] != second[key]), None)
    report["equal"] = difference is None
    report["difference"] = difference
    return difference is None


def _text_compare(report):
    if report["equal"]:
        return ["equal fingerprints"]
    return [
        f"fingerprints differ at: {report['difference']}",
        f"first:  {report['first']}",
        f"second: {report['second']}",
    ]


def _generator_map(af, src, dst) -> GeneratorMap:
    """Images from ``map`` lines; unmapped generators go to their namesakes."""
    mapped = {}
    for name, terms, lineno in af.maps:
        if name in mapped:
            raise ParseError(f"map line for generator {name!r} declared twice", lineno)
        mapped[name] = (terms, lineno)
    images = []
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
    if mapped:
        name, (_, lineno) = next(iter(mapped.items()))
        known = " ".join(g.name for g in src.generators)
        raise ParseError(f"map line for unknown generator {name!r}; the source has {known}", lineno)
    return GeneratorMap(tuple(images))


def _cmd_verify_iso(args, report):
    src, dst = _model(args.src), _model(args.dst)
    result = verify_cdga_morphism(src, dst, _generator_map(_parse(args.map), src, dst))
    report["stage"] = result.stage
    report["generator"] = result.generator
    report["witness"] = form_to_str(result.witness) if result.witness else None
    return result.ok


def _cmd_verify_ring_iso(args, report):
    src, dst = _model(args.src), _model(args.dst)
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
    return result.ok


def _text_verdict(report):
    if report["ok"]:
        return ["ok"]
    detail = [
        f"{key}={report[key]}"
        for key in ("generator", "degree", "detail", "witness")
        if report.get(key) is not None
    ]
    return [f"refuted at stage {report['stage']}" + (f" ({', '.join(detail)})" if detail else "")]


def _cmd_normalize(args, report):
    A = _model(args.src)
    try:
        norm = normalize_perturbation(A)
    except FamilyShapeError as exc:
        raise ParseError(str(exc))
    top = [g for g in A.generators if g.weight == 2][0]
    report["residual"] = str(norm.residual)
    report["map"] = {
        g.name: form_to_str(img)
        for g, img in zip(A.generators, norm.map.images)
        if img != Form.generator(A.generators, g.index)
    }
    report["normalized_differential"] = form_to_str(norm.normalized.differential[top.index])
    return True


def _text_normalize(report):
    return [
        f"residual: {report['residual']}",
        f"normalized d m = {report['normalized_differential']}",
        *(f"map {name} = {img}" for name, img in report["map"].items()),
    ]


def _cmd_decomposable(args, report):
    af = _parse(args.file)
    A = model(af)
    if not af.forms:
        raise ParseError("file declares no form lines")
    report["forms"] = results = []
    for terms, lineno in af.forms:
        f = build_form(terms, A, lineno)
        d = is_decomposable_2form(f)
        results.append({
            "form": form_to_str(f),
            "decomposable": d.decomposable,
            "rank": d.rank,
            "square": form_to_str(d.square),
            "witness": None if d.witness is None else [form_to_str(w) for w in d.witness],
        })
    return all(entry["decomposable"] for entry in results)


def _text_decomposable(report):
    return [
        f"{e['form']}: decomposable, ({e['witness'][0]}) ^ ({e['witness'][1]})"
        if e["decomposable"]
        else f"{e['form']}: not decomposable (rank {e['rank']}), square = {e['square']}"
        for e in report["forms"]
    ]


def _emit_model_file(A) -> str:
    return emit_algebra(lie_from_model(A), weights=A.weights)


def _cmd_family(args, report):
    name = args.name
    if name in ("theorem1", "theorem2"):
        if args.k is None:
            raise ParseError(f"family {name} needs --k")
        family = theorem1_family if name == "theorem1" else theorem2_family
        report["algebra_file"] = _emit_model_file(family(args.k))
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
        L = theorem3_family(args.gens, args.k, [v for v, _ in _parse(args.subspace).vectors])
        # weights are declared only when the file's own basis is adapted
        basis = adapted_basis(L)
        report["algebra_file"] = emit_algebra(L, basis.weights if basis.is_identity() else None)
    return True


# -- the command table and the parser built from it --------------------------


class Command(NamedTuple):
    """One subcommand.  ``args`` holds (name, add_argument keywords) pairs;
    ``run(args, report)`` fills the report and returns its verdict ``ok``;
    ``render(report)`` gives the text report's lines from the report alone."""

    help: str
    args: tuple
    run: Callable[[argparse.Namespace, dict], bool]
    render: Callable[[dict], list]


_FILE = ("file", {})
_MAP_FILES = (("src", {}), ("dst", {}), ("map", {}))
_DEGREE = ("--degree", {"type": int, "required": True})
_INT = {"type": int}
_MAX_DEGREE = ("--max-degree", _INT)
_FAMILIES = ("theorem1", "theorem2", "theorem4", "section3", "free", "theorem3")

_COMMANDS = {
    "check": Command("verify the Jacobi identity / d^2 = 0", (_FILE,), _cmd_check, _text_check),
    "lcs": Command("lower central series dimensions", (_FILE,), _cmd_lcs, _text_lcs),
    "carnot": Command("associated Carnot-graded algebra", (_FILE,), _cmd_carnot, _text_files),
    "model": Command("Sullivan model generators and differential", (_FILE,), _cmd_model,
                     _text_model),
    "betti": Command("Betti numbers", (_FILE,), _cmd_betti, _text_betti),
    "cohomology": Command("cohomology of one degree",
                          (_FILE, _DEGREE, ("--by-weight", {"action": "store_true"})),
                          _cmd_cohomology, _text_cohomology),
    "generators": Command("indecomposable cohomology generators", (_FILE, _DEGREE),
                          _cmd_generators, _text_generators),
    "fingerprint": Command("invariant fingerprint", (_FILE, _MAX_DEGREE), _cmd_fingerprint,
                           _text_fingerprint),
    "compare": Command("compare two fingerprints", (("first", {}), ("second", {}), _MAX_DEGREE),
                       _cmd_compare, _text_compare),
    "verify-iso": Command("verify a CDGA morphism given by map lines", _MAP_FILES,
                          _cmd_verify_iso, _text_verdict),
    "verify-ring-iso": Command("verify a cohomology ring isomorphism", _MAP_FILES,
                               _cmd_verify_ring_iso, _text_verdict),
    "normalize": Command("absorb the quadratic perturbation of d m", (("src", {}),),
                         _cmd_normalize, _text_normalize),
    "decomposable": Command("2-form decomposability with certificates", (_FILE,),
                            _cmd_decomposable, _text_decomposable),
    "family": Command("emit a named example family as an algebra file", (
        ("name", {"choices": _FAMILIES}), ("--k", _INT), ("--gens", _INT),
        ("--class", {"dest": "nilpotency_class", "type": int}), ("--subspace", {}),
    ), _cmd_family, _text_files),
}


def _build_parser() -> argparse.ArgumentParser:
    # help wraps at the width argparse derives from COLUMNS=80, whatever COLUMNS says
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="nilrigid",
        description="Exact rational models and cohomology of nilpotent Lie algebras.",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, formatter_class=formatter)
        for arg, keywords in command.args:
            p.add_argument(arg, **keywords)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    command = _COMMANDS[args.command]
    report = {"schema": SCHEMA_VERSION, "command": args.command}
    try:
        report["ok"] = command.run(args, report)
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
        sys.stdout.write("\n".join(command.render(report)) + "\n")
    return EXIT_OK if report["ok"] else EXIT_REFUTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
