"""End-to-end CLI tests: exit codes, JSON schema, determinism."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import nilrigid
from nilrigid import (
    Cohomology,
    LieAlgebra,
    adapted_basis,
    ce_model,
    change_basis,
    check_d_squared,
    free_nilpotent_lie,
    generated_basis,
    jacobi_defect,
    theorem1_family,
    trivial_basis,
)
from nilrigid import cli, cohomology, lie
from nilrigid.errors import NotNilpotentError
from nilrigid.fileformat import emit_algebra, form_to_str, lie_algebra, parse_source
from nilrigid.cli import main
from nilrigid.lie import _lie_of
from helpers import dense_free_3_3
from oracle import base_algebras, corrupt, random_nilpotent, rational_conjugate

THEOREM1_K1 = """\
generators x1:0 x2:0 n1:1 m:2
bracket [x1,x2] = - n1
bracket [x1,n1] = - m
"""

NOT_JACOBI = """\
generators a b c d e
bracket [a,b] = c
bracket [a,c] = d
bracket [b,c] = d
bracket [a,d] = e
"""

SECTION3_MAP = """\
generators a1 a2 b c d
class a1 -> a1
class a2 -> a2
class a2^b -> a2^b
class b^c - a2^d -> b^c - a2^d
class a1^d -> a1^d + a2^c
class a1^b^c -> a1^b^c
class a1^c^d -> a1^c^d - a2^b^d
class a1^b^c^d -> a1^b^c^d
"""


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def t1_file(tmp_path):
    path = tmp_path / "t1.alg"
    path.write_text(THEOREM1_K1)
    return str(path)


@pytest.fixture()
def schema():
    text = resources.files("nilrigid").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def test_check_ok(run, t1_file):
    code, out, err = run("check", t1_file)
    assert code == 0 and "ok" in out and err == ""


def test_check_refutes_bad_jacobi(run, tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text(NOT_JACOBI)
    code, out, _ = run("check", str(path))
    assert code == 1
    assert "jacobi defect" in out or "d^2" in out


@pytest.mark.parametrize("weights", ["", ":0"], ids=["undeclared", "declared"])
def test_lcs_refutes_non_nilpotent_with_or_without_weights(run, tmp_path, weights):
    path = tmp_path / "sl2like.alg"
    path.write_text(
        f"generators a{weights} b{weights} c{weights}\n"
        "bracket [a,b] = c\nbracket [a,c] = b\n"
    )
    code, out, err = run("--format", "json", "lcs", str(path))
    report = json.loads(out)
    assert code == 1 and err == ""
    assert report["nilpotent"] is False
    assert report["dimensions"] == [3, 2]


@pytest.mark.parametrize("value, code", [("0", 0), ("c - c", 0), ("2", 2)])
def test_a_bracket_written_as_a_bare_number_exits_0_only_when_zero(run, tmp_path, value, code):
    path = tmp_path / "zero.alg"
    path.write_text(f"generators a b c\nbracket [a,b] = {value}\n")
    got, out, err = run("check", str(path))
    assert got == code
    assert ("ok" in out and err == "") if code == 0 else "linear in the generators" in err


def test_parse_error_exits_2(run, tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text("generators a $\n")
    code, out, err = run("check", str(path))
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize(
    "text",
    ["generators x y z\nbracket [x,y] = 1/0 z\n", "generators x y z\nvector 1 -2/00\n"],
    ids=["bracket", "vector"],
)
def test_zero_denominator_exits_2_without_traceback(tmp_path, text):
    # a fresh interpreter, so that an uncaught exception would print a traceback
    path = tmp_path / "zero.alg"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(nilrigid.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "nilrigid.cli", "betti", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "line 2" in proc.stderr and "zero denominator" in proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify-ring-iso", "{alg}", "{alg}", "{map}"), 2),
        (("cohomology", "{alg}", "--degree", "-1"), 0),
        (("cohomology", "{alg}", "--degree", "-1", "--by-weight"), 0),
        (("generators", "{alg}", "--degree", "-1"), 0),
        (("cohomology", "{alg}", "--degree", "9223372036854775807", "--by-weight"), 0),
        (("cohomology", "{alg}", "--degree", "99999999999999999999", "--by-weight"), 0),
    ],
    ids=["degree-0-class", "cohomology", "cohomology-by-weight", "generators",
         "by-weight-ssize-max", "by-weight-beyond-ssize"],
)
def test_degree_edges_exit_without_traceback(tmp_path, argv, code):
    # a fresh interpreter, so that an uncaught exception would print a traceback
    alg, mapping = tmp_path / "t1.alg", tmp_path / "map.alg"
    alg.write_text(THEOREM1_K1)
    mapping.write_text("generators x1 x2 n1 m\nclass x1 -> x1\nclass 1 -> 1\n")
    argv = [a.format(alg=alg, map=mapping) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(nilrigid.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "nilrigid.cli", "--format", "json", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr == "error: generator 1 has degree 0; class lines need positive degree\n"
    else:
        assert proc.stderr == "" and json.loads(proc.stdout)["betti"] == 0


TEXT_REPORTS = json.loads((Path(__file__).parent / "data" / "text_reports.json").read_text())


def pinned_inputs(tmp_path) -> dict:
    """Write the pinned reports' input files; their paths by input name."""
    paths = {}
    for name, text in TEXT_REPORTS["inputs"].items():
        paths[name] = tmp_path / f"{name}.alg"
        paths[name].write_text(text)
    return paths


@pytest.mark.parametrize("case", sorted(TEXT_REPORTS["cases"]))
def test_text_reports_are_pinned(run, tmp_path, case):
    # every subcommand in the default text format; `conj` is theorem1(1) in
    # another basis whose names include v0, so that its adapted basis is not
    # the identity and renames a clashing vector to v3_2
    paths = pinned_inputs(tmp_path)
    want = TEXT_REPORTS["cases"][case]
    got = run(*(arg.format(**paths) for arg in want["argv"]))
    assert got == (want["code"], want["stdout"], want["stderr"])


HELP_TEXTS = json.loads((Path(__file__).parent / "data" / "help_texts.json").read_text())


@pytest.mark.parametrize("argv", sorted(HELP_TEXTS))
def test_help_texts_are_pinned(capsys, monkeypatch, argv):
    # the top-level help, each command's help and the version, as pinned at
    # 80 columns; the width is fixed, so a narrow terminal does not rewrap it
    for columns in ("80", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 0
        assert tuple(capsys.readouterr()) == (HELP_TEXTS[argv], ""), columns


def test_carnot_computes_the_central_series_once(run, monkeypatch, tmp_path):
    from nilrigid import lie

    calls, series = [], lie._series
    monkeypatch.setattr(lie, "_series", lambda L: calls.append(L) or series(L))
    path = tmp_path / "conj.alg"
    path.write_text(TEXT_REPORTS["inputs"]["conj"])
    assert run("carnot", str(path)) == (0, TEXT_REPORTS["cases"]["carnot conj"]["stdout"], "")
    assert len(calls) == 1


def test_carnot_of_an_adapted_file_changes_no_basis(run, monkeypatch, tmp_path):
    # free(3,3) is written in its adapted basis: the parsed algebra and the one read
    # off its graded model are the only algebras, and no change of basis is made
    from nilrigid import lie

    counts, init, change = Counter(), lie.LieAlgebra.__init__, lie.change_basis
    monkeypatch.setattr(lie.LieAlgebra, "__init__", lambda L, *a: counts.update("a") or init(L, *a))
    monkeypatch.setattr(lie, "change_basis", lambda *a: counts.update("c") or change(*a))
    path = tmp_path / "free3c3.alg"
    path.write_text(run("family", "free", "--gens", "3", "--class", "3")[1])
    counts.clear()
    code, out, _ = run("carnot", str(path))
    assert (code, out) == (0, path.read_text())
    assert (counts["a"], counts["c"]) == (2, 0)


def test_betti_on_a_dense_conjugate_of_free_3_3(run, tmp_path):
    code, out, err = run("betti", dense_free_3_3(tmp_path))
    assert (code, err) == (0, "")
    assert out == "betti: 1 3 18 70 171 327 462 504 462 327 171 70 18 3 1\neuler: 0\n"


def test_generators_on_a_dense_conjugate_of_free_3_3(run, monkeypatch, tmp_path):
    # the engine builds d only in the generated basis, never in the file's dense one
    path = dense_free_3_3(tmp_path)
    L = lie_algebra(parse_source(Path(path).read_text()))[0]
    sparse = sum(len(f.terms) for f in ce_model(L, generated_basis(L)).differential)
    build = cohomology.cochain_matrix

    def sparse_only(A, p):
        terms = sum(len(f.terms) for f in A.differential)
        assert terms <= sparse, f"d_{p} built on a model whose d has {terms} terms"
        return build(A, p)

    monkeypatch.setattr(cohomology, "cochain_matrix", sparse_only)
    code, out, err = run("generators", path, "--degree", "3")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "degree 3: betti 70, indecomposable 64"
    assert len(lines) == 65 and all(line.startswith("  [") for line in lines[1:])


def file_basis_check(L) -> tuple[int, dict]:
    """check's exit code and JSON report as the two tests give them in L's own basis."""
    jd, d2 = jacobi_defect(L), check_d_squared(ce_model(L, trivial_basis(L)))
    report = {
        "schema": cli.SCHEMA_VERSION, "command": "check", "ok": not jd and not d2,
        "jacobi_defects": [{"triple": [L.names[x] for x in (i, j, k)], "defect": [str(c) for c in v]}
                           for i, j, k, v in jd],
        "d2_defects": [{"generator": g.name, "defect": form_to_str(f)} for g, f in d2],
    }
    return (0 if report["ok"] else 1), report


def test_check_matches_both_tests_in_the_file_basis(run, tmp_path):
    # check decides in the sparse basis and names defects in the file's: on
    # conjugates, corruptions and a conjugate of sl2 (multi-term brackets, not
    # nilpotent) its report is the one the file's basis gives
    rng = random.Random(67)
    sl2 = LieAlgebra(("e", "f", "h"), {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    algebras = [rational_conjugate(rng, sl2)]
    for _ in range(20):
        L = random_nilpotent(rng)
        algebras += [L, rational_conjugate(rng, L), corrupt(rng, L),
                     rational_conjugate(rng, corrupt(rng, rng.choice(base_algebras())))]
    path, paths = tmp_path / "L.alg", Counter()
    for L in algebras:
        path.write_text(emit_algebra(L))
        L = lie_algebra(parse_source(path.read_text()))[0]
        code, out, err = run("--format", "json", "check", str(path))
        assert (code, json.loads(out), err) == (*file_basis_check(L), ""), emit_algebra(L)
        paths[code, checked_in_adapted_basis(L)] += 1
    # both verdicts are reached in both bases, so refutations are named after an adapted test
    assert set(paths) == {(0, False), (0, True), (1, False), (1, True)}, paths


def checked_in_adapted_basis(L) -> bool:
    """Whether check tests L in another basis: its adapted one, when a bracket has
    several terms, L is nilpotent and that basis is not the identity."""
    if all(len(vec) == 1 for vec in L.brackets.values()):
        return False
    try:
        return not adapted_basis(L).is_identity()
    except NotNilpotentError:
        return False


def spy_on_both_tests(monkeypatch) -> tuple[list, list]:
    """The algebras check hands to the Jacobi test and whose models it hands to d^2."""
    tested, modelled = [], []
    jacobi, d_squared = cli.jacobi_defect, cli.check_d_squared
    monkeypatch.setattr(cli, "jacobi_defect", lambda M: tested.append(M) or jacobi(M))
    monkeypatch.setattr(cli, "check_d_squared", lambda A: modelled.append(_lie_of(A)) or d_squared(A))
    return tested, modelled


def test_check_on_a_dense_valid_file_never_tests_the_file_basis(run, monkeypatch, tmp_path):
    path = dense_free_3_3(tmp_path)
    L = lie_algebra(parse_source(Path(path).read_text()))[0]
    tested, modelled = spy_on_both_tests(monkeypatch)
    assert run("check", path) == (0, "ok: Jacobi identity holds and d^2 = 0\n", "")
    assert len(tested) == len(modelled) == 1
    assert tested[0] != L and modelled[0] != L
    assert tested[0] == modelled[0] == change_basis(L, adapted_basis(L))


@pytest.mark.parametrize("gens, step", [(2, 5), (3, 3)])
def test_check_builds_no_basis_on_a_free_nilpotent_file(run, monkeypatch, tmp_path, gens, step):
    # free(2,5) and free(3,3) have multi-term brackets, but their adapted basis is
    # the identity: check tests them as they are, building no other basis
    L = free_nilpotent_lie(gens, step).algebra
    path = tmp_path / "free.alg"
    path.write_text(emit_algebra(L))
    for name in ("generated_basis", "change_basis"):
        monkeypatch.setattr(lie, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    tested, modelled = spy_on_both_tests(monkeypatch)
    assert any(len(vec) > 1 for vec in L.brackets.values())
    assert run("check", str(path)) == (0, "ok: Jacobi identity holds and d^2 = 0\n", "")
    assert tested == modelled == [L]


def test_verify_iso_lists_the_source_generators_for_an_unknown_one(run, tmp_path):
    # conj's model is in its adapted basis, where the file's w is named v3_2
    conj = str(pinned_inputs(tmp_path)["conj"])
    mapfile = tmp_path / "w.map"
    mapfile.write_text("generators v3 v0 v1 w\nmap w = 2 w\n")
    code, out, err = run("verify-iso", conj, conj, str(mapfile))
    assert (code, out) == (2, "")
    assert err == "error: line 2: map line for unknown generator 'w'; the source has v3 v0 v1 v3_2\n"


def test_verify_ring_iso_parses_class_lines_before_any_cohomology(run, tmp_path):
    # badconj's d^2 != 0, yet a class line naming an unknown generator is
    # reported first: class lines are parsed against the models before either
    # cohomology is built
    paths = pinned_inputs(tmp_path)
    mapfile = tmp_path / "zz.map"
    mapfile.write_text("generators p q r s t\nclass zz -> p\n")
    for src, dst in (("badconj", "badconj"), ("badconj", "conj")):
        got = run("verify-ring-iso", str(paths[src]), str(paths[dst]), str(mapfile))
        assert got == (2, "", "error: line 2: unknown generator 'zz'\n")


def test_repeated_generator_in_monomial_exits_2(run, tmp_path):
    form = tmp_path / "form.alg"
    form.write_text("generators a1 a2 b c d\nform a1^c + a2^a2\n")
    code, out, err = run("decomposable", str(form))
    assert code == 2 and out == ""
    assert "line 2" in err and "repeats a generator" in err
    pair = tmp_path / "pair.alg"
    pair.write_text("generators x y\n")
    mapping = tmp_path / "map.alg"
    mapping.write_text("generators x y\nclass x -> x\nclass x^x -> y\n")
    code, out, err = run("verify-ring-iso", str(pair), str(pair), str(mapping))
    assert code == 2 and out == ""
    assert "line 3" in err and "repeats a generator" in err


def test_fractional_weight_is_a_parse_error(run, tmp_path):
    path = tmp_path / "weights.alg"
    path.write_text("generators x:1/2 y:0\n")
    code, out, err = run("betti", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 1, column 14: weight must be an integer, got '1/2'\n"


def test_missing_file_exits_2(run, tmp_path):
    code, _, err = run("betti", str(tmp_path / "nope.alg"))
    assert code == 2 and "error:" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_betti_matches_library(run, t1_file):
    code, out, _ = run("--format", "json", "betti", t1_file)
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == list(Cohomology(theorem1_family(1)).betti_vector())
    assert report["euler"] == 0


def test_json_reports_validate_and_are_deterministic(run, t1_file, tmp_path, schema):
    assert schema["properties"]["command"]["enum"] == list(cli._COMMANDS)
    outputs = []
    for argv in (
        ("--format", "json", "check", t1_file),
        ("--format", "json", "lcs", t1_file),
        ("--format", "json", "betti", t1_file),
        ("--format", "json", "cohomology", t1_file, "--degree", "2"),
        ("--format", "json", "generators", t1_file, "--degree", "2"),
        ("--format", "json", "fingerprint", t1_file),
        ("--format", "json", "model", t1_file),
        ("--format", "json", "carnot", t1_file),
    ):
        code, out, _ = run(*argv)
        assert code == 0, argv
        jsonschema.validate(json.loads(out), schema)
        outputs.append(out)
        code2, out2, _ = run(*argv)
        assert (code2, out2) == (code, out)  # byte-identical reruns
    assert len(set(outputs)) == len(outputs)
    # every pinned case as JSON: exit 0 exactly when ok, 1 exactly when not, and 2 with no report
    paths, commands = pinned_inputs(tmp_path), set()
    for case, want in TEXT_REPORTS["cases"].items():
        code, out, _ = run("--format", "json", *(arg.format(**paths) for arg in want["argv"]))
        assert code == want["code"], case
        if code == 2:
            assert out == "", case
            continue
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert report["ok"] is (code == 0), case
        commands.add(report["command"])
    assert commands == set(cli._COMMANDS)


def test_family_pipes_into_betti(run, tmp_path):
    code, out, _ = run("family", "theorem2", "--k", "2")
    assert code == 0
    path = tmp_path / "t2.alg"
    path.write_text(out)
    code, out, _ = run("--format", "json", "betti", str(path))
    assert code == 0
    assert json.loads(out)["betti"] == [1, 5, 14, 23, 25, 25, 23, 14, 5, 1]


def test_family_section3_emits_both(run):
    code, out, _ = run("--format", "json", "family", "section3")
    assert code == 0
    report = json.loads(out)
    assert "first" in report and "second" in report


def test_family_free_matches_witt(run, tmp_path):
    code, out, _ = run("family", "free", "--gens", "2", "--class", "3")
    assert code == 0
    path = tmp_path / "free23.alg"
    path.write_text(out)
    code, out, _ = run("--format", "json", "lcs", str(path))
    assert code == 0
    assert json.loads(out)["quotients"] == [2, 1, 2]


def test_cohomology_by_weight(run, t1_file):
    code, out, _ = run(
        "--format", "json", "cohomology", t1_file, "--degree", "2", "--by-weight"
    )
    assert code == 0
    report = json.loads(out)
    assert sum(report["by_weight"].values()) == report["betti"]


def test_compare_equal_and_different(run, tmp_path, t1_file):
    code, out, _ = run("compare", t1_file, t1_file)
    assert code == 0 and "equal" in out
    code, out, _ = run("family", "theorem2", "--k", "2")
    other = tmp_path / "t2.alg"
    other.write_text(out)
    code, out, _ = run("compare", t1_file, str(other))
    assert code == 1 and "differ" in out


@pytest.mark.parametrize("command", ["fingerprint", "compare"])
def test_negative_max_degree_exits_2(run, t1_file, command):
    files = (t1_file,) if command == "fingerprint" else (t1_file, t1_file)
    code, out, err = run(command, *files, "--max-degree", "-1")
    assert (code, out) == (2, "")
    assert err == "error: the indecomposable degree bound must be >= 0, got -1\n"
    code, out, err = run(command, *files, "--max-degree", "0")
    assert code == 0 and err == ""


def test_verify_iso_identity(run, t1_file, tmp_path):
    mapfile = tmp_path / "id.map"
    mapfile.write_text("generators x1 x2 n1 m\nmap x1 = x1\n")
    code, out, _ = run("verify-iso", t1_file, t1_file, str(mapfile))
    assert code == 0 and out.strip() == "ok"


def test_verify_iso_refuted(run, t1_file, tmp_path):
    mapfile = tmp_path / "bad.map"
    mapfile.write_text("generators x1 x2 n1 m\nmap n1 = 2 n1\n")
    code, out, _ = run("verify-iso", t1_file, t1_file, str(mapfile))
    assert code == 1 and "refuted" in out


def test_verify_ring_iso_section3(run, tmp_path):
    code, out, _ = run("--format", "json", "family", "section3")
    report = json.loads(out)
    first = tmp_path / "first.alg"
    second = tmp_path / "second.alg"
    first.write_text(report["first"])
    second.write_text(report["second"])
    mapfile = tmp_path / "ring.map"
    mapfile.write_text(SECTION3_MAP)
    code, out, _ = run("verify-ring-iso", str(first), str(second), str(mapfile))
    assert code == 0 and out.strip() == "ok"
    # dropping a degree-2 generator breaks generation
    partial = "\n".join(
        line for line in SECTION3_MAP.splitlines() if "a1^d" not in line
    )
    mapfile.write_text(partial + "\n")
    code, out, _ = run("verify-ring-iso", str(first), str(second), str(mapfile))
    assert code == 1 and "not-generating" in out


def test_normalize_theorem2(run, tmp_path):
    code, out, _ = run("family", "theorem2", "--k", "2")
    path = tmp_path / "t2.alg"
    path.write_text(out)
    code, out, _ = run("--format", "json", "normalize", str(path))
    assert code == 0
    assert json.loads(out)["residual"] == "1"


@pytest.mark.parametrize(
    "lines", [("n1 = n1 + 5 x2", "n1 = n1"), ("n1 = n1", "n1 = n1 + 5 x2")],
    ids=["perturbed-first", "identity-first"],
)
def test_verify_iso_rejects_a_generator_mapped_twice(run, t1_file, tmp_path, lines):
    # either line alone decides the verdict, so neither may silently replace the other
    mapfile = tmp_path / "twice.map"
    mapfile.write_text("generators x1 x2 n1 m\n" + "".join(f"map {line}\n" for line in lines))
    code, out, err = run("verify-iso", t1_file, t1_file, str(mapfile))
    assert (code, out) == (2, "")
    assert err == "error: line 3: map line for generator 'n1' declared twice\n"


def test_decomposable_exit_codes(run, tmp_path):
    good = tmp_path / "good.alg"
    good.write_text("generators a1 a2 b c d\nform a1^c\n")
    code, out, _ = run("decomposable", str(good))
    assert code == 0 and "decomposable" in out
    bad = tmp_path / "bad.alg"
    bad.write_text("generators a1 a2 b c d\nform a1^c + a2^b\n")
    code, out, _ = run("decomposable", str(bad))
    assert code == 1 and "not decomposable" in out


@pytest.mark.parametrize("fault", [RuntimeError("engine\nfault"), AssertionError("bad rank")])
def test_internal_error_exits_2_on_one_line(run, monkeypatch, t1_file, fault):
    def broken(args, report):
        raise fault

    monkeypatch.setitem(cli._COMMANDS, "betti", cli._COMMANDS["betti"]._replace(run=broken))
    code, out, err = run("betti", t1_file)
    assert code == 2 and out == ""
    assert err == f"error: internal: {type(fault).__name__}: {' '.join(str(fault).split())}\n"


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_interrupt_and_exit_pass_through(monkeypatch, t1_file, interrupt):
    def stopped(args, report):
        raise interrupt()

    monkeypatch.setitem(cli._COMMANDS, "betti", cli._COMMANDS["betti"]._replace(run=stopped))
    with pytest.raises(interrupt):
        main(["betti", t1_file])
