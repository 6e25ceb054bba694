"""Hash every report of the commands that compute with exterior forms.

Writes each built-in family and its ``carnot`` model to a temporary
directory, together with the dense and invalid inputs pinned in
``tests/data/text_reports.json`` (``conj``, ``t4c``, ``frac``, ``fracw``,
``bad``, ``badconj``, ``badsum``) and two non-nilpotent inputs written here
(``INLINE``), then runs, in process and in both text and JSON formats:

- on every input file X, of n generators:
  - ``betti X``, ``check X``, ``lcs X``, ``carnot X`` and ``model X``,
  - ``cohomology X --degree p`` for p = 0..n, and ``--degree 0 --by-weight``,
    which refuses a differential that is not Carnot-homogeneous; when it
    exits 0, ``--by-weight`` again for p = 1..n,
  - ``verify-iso X X M`` for two map files M, over the generators of X's
    model: one that fixes the first and one that doubles the last;
- on every family and every pinned or inline input X, ``generators X --degree p``
  for p = 0..n and ``fingerprint X``;
- on every family X, ``compare X carnot(X)``, and ``check`` on two dense
  copies of X, seeded by X's name: ``rational_conjugate`` of X, which passes,
  and of ``corrupt`` X, which mostly fails and names its defects; ``betti``
  and ``fingerprint`` on the corrupt copy, which name a d^2 defect too;
- ``decomposable`` on the pinned ``forms`` input;
- ``family free`` for each (gens, class) of ``FREE``, and ``family theorem3``
  on each subspace file of ``SUBSPACES``, written here: full, empty, proper
  with rational entries, dependent and of the wrong width.

Prints one line per call, ``<sha256>  <argv>``, the hash being that of
(stdout, stderr, exit code); a final line gives the number of calls.  Run it
on two versions and diff the outputs to see which reports changed:

    PYTHONPATH=src python3 tests/report_sweep.py > sweep.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from nilrigid.cli import main
from nilrigid.fileformat import emit_algebra, lie_algebra, parse_source
from oracle import corrupt, rational_conjugate

# (name, family argv); section3 gives two files, "first" and "second"
FAMILIES = (
    ("t1k1", ("theorem1", "--k", "1")),
    ("t1k2", ("theorem1", "--k", "2")),
    ("t1k3", ("theorem1", "--k", "3")),
    ("t2k2", ("theorem2", "--k", "2")),
    ("t2k3", ("theorem2", "--k", "3")),
    ("t4", ("theorem4",)),
    ("s3", ("section3",)),
    ("free2c3", ("free", "--gens", "2", "--class", "3")),
    ("free2c4", ("free", "--gens", "2", "--class", "4")),
    ("free3c2", ("free", "--gens", "3", "--class", "2")),
)

# inputs of the pinned text reports: dense, large-denominator and invalid ones
PINNED = ("conj", "t4c", "frac", "fracw", "bad", "badconj", "badsum")
REPORTS = json.loads((Path(__file__).parent / "data" / "text_reports.json").read_text())

# non-nilpotent inputs whose series stabilizes only if every bracket [u, e_k] is
# taken: gl(2) = sl(2) + Q, and [a,b] = c, [a,c] = d, [c,d] = c, which fails Jacobi
INLINE = {
    "gl2": "generators e f h z\nbracket [e,f] = h\nbracket [h,e] = 2 e\nbracket [h,f] = - 2 f\n",
    "nojacobi": "generators a b c d\nbracket [a,b] = c\nbracket [a,c] = d\nbracket [c,d] = c\n",
}

# family free as (gens, class)
FREE = (("2", "5"), ("2", "6"), ("3", "3"), ("3", "4"), ("4", "3"))
# family theorem3 as name: (gens, k, vector lines); the top component of
# (2 gens, k = 2) has 3 coordinates and that of (3 gens, k = 1) has 8
SUBSPACES = {
    "full": ("2", "2", "vector 1 0 0\nvector 0 1/2 0\nvector 1 1 1\n"),
    "empty": ("2", "1", ""),
    "proper": ("3", "1", "vector 1/2 0 -2/3 0 0 0 0 1\nvector 0 0 1 0 0 0 0 0\n"
                         "vector 0 3 0 0 7/5 0 0 0\n"),
    "dependent": ("2", "2", "vector 1 2 0\nvector -1/2 -1 0\n"),
    "width": ("2", "2", "vector 1 2\n"),
}


def call(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_inputs() -> tuple[list[tuple[str, str]], list[str], list[str]]:
    """Write each family's file, its carnot model's file, its two dense
    copies, the pinned and the inline inputs to the working directory; return
    the (family, carnot) pairs, the dense copies and the pinned and inline
    inputs but ``forms``."""
    files: dict[str, str] = {}
    for name, argv in FAMILIES:
        report = json.loads(call("--format", "json", "family", *argv)[1])
        if "algebra_file" in report:
            files[name] = report["algebra_file"]
        else:
            files[f"{name}a"], files[f"{name}b"] = report["first"], report["second"]
    pairs, dense = [], []
    for name, text in files.items():
        path, graded = f"{name}.alg", f"{name}_carnot.alg"
        Path(path).write_text(text)
        Path(graded).write_text(json.loads(call("--format", "json", "carnot", path)[1])["algebra_file"])
        pairs.append((path, graded))
        L, rng = lie_algebra(parse_source(text))[0], random.Random(name)
        for copy, algebra in (("conj", L), ("bad", corrupt(rng, L))):
            dense.append(f"{name}_{copy}.alg")
            Path(dense[-1]).write_text(emit_algebra(rational_conjugate(rng, algebra)))
    for name in PINNED + ("forms",):
        Path(f"{name}.alg").write_text(REPORTS["inputs"][name])
    for name, text in INLINE.items():
        Path(f"{name}.alg").write_text(text)
    return pairs, dense, [f"{name}.alg" for name in PINNED + tuple(INLINE)]


def names(path: str) -> list[str]:
    """The generator names of an input's model (which may be in an adapted
    basis), or those on the file's first line when it has no model."""
    code, out, _ = call("--format", "json", "model", path)
    if code == 0:
        return [g["name"] for g in json.loads(out)["generators"]]
    return [word.split(":")[0] for word in Path(path).read_text().split("\n")[0].split()[1:]]


def form_commands(path: str) -> list[tuple[str, ...]]:
    """betti, check, lcs, carnot, model, cohomology per degree and verify-iso
    on one input; the map files are written next to it."""
    gens = names(path)
    header = "generators " + " ".join(gens) + "\n"
    fixed, doubled = f"{path}.fix.map", f"{path}.double.map"
    Path(fixed).write_text(header + f"map {gens[0]} = {gens[0]}\n")
    Path(doubled).write_text(header + f"map {gens[-1]} = 2 {gens[-1]}\n")
    degrees = [str(p) for p in range(len(gens) + 1)]
    commands = [(command, path) for command in ("betti", "check", "lcs", "carnot", "model")]
    commands += [("cohomology", path, "--degree", p) for p in degrees]
    probe = ("cohomology", path, "--degree", "0", "--by-weight")
    commands.append(probe)
    if call(*probe)[0] == 0:
        commands += [("cohomology", path, "--degree", p, "--by-weight") for p in degrees[1:]]
    commands += [("verify-iso", path, path, fixed), ("verify-iso", path, path, doubled)]
    return commands


def class_commands(path: str) -> list[tuple[str, ...]]:
    """generators per degree and fingerprint on one input."""
    commands = [("generators", path, "--degree", str(p)) for p in range(len(names(path)) + 1)]
    return commands + [("fingerprint", path)]


def sweep():
    """(argv, sha256) for every call, in a fixed order, on the inputs that
    ``write_inputs`` leaves in the working directory."""
    pairs, dense, pinned = write_inputs()
    commands = []
    for path, graded in pairs:
        commands += class_commands(path) + [("compare", path, graded)]
        commands += form_commands(path) + form_commands(graded)
    commands += [("check", path) for path in dense]
    commands += [(command, path) for path in dense if path.endswith("_bad.alg")
                 for command in ("betti", "fingerprint")]
    for path in pinned:
        commands += class_commands(path) + form_commands(path)
    commands.append(("decomposable", "forms.alg"))
    commands += [("family", "free", "--gens", gens, "--class", c) for gens, c in FREE]
    for name, (gens, k, vectors) in SUBSPACES.items():
        Path(f"{name}.sub").write_text("generators a b\n" + vectors)
        commands.append(("family", "theorem3", "--gens", gens, "--k", k, "--subspace", f"{name}.sub"))
    for command in commands:
        for fmt in ("text", "json"):
            argv = ("--format", fmt, *command)
            digest = hashlib.sha256(json.dumps(call(*argv)).encode()).hexdigest()
            yield " ".join(argv), digest


def run() -> int:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths, so that reports do not name the directory
        try:
            count = 0
            for argv, digest in sweep():
                print(f"{digest}  {argv}")
                count += 1
        finally:
            os.chdir(here)
    print(f"{count} calls")
    return 0


if __name__ == "__main__":
    sys.exit(run())
