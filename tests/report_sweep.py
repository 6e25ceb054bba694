"""Hash every cohomology-ring report of the built-in families.

Writes each built-in family and its ``carnot`` model to a temporary
directory, then runs, in process and in both text and JSON formats:

- ``generators X --degree p`` for p = 0..n,
- ``fingerprint X``,
- ``compare X carnot(X)``,

for every such X.  Prints one line per call, ``<sha256>  <argv>``, the hash
being that of (stdout, stderr, exit code); a final line gives the number of
calls.  Run it on two versions and diff the outputs to see which reports
changed:

    PYTHONPATH=src python3 tests/report_sweep.py > sweep.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from nilrigid.cli import main

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


def call(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_inputs() -> list[tuple[str, str]]:
    """Each family's file and its carnot model's file, written to the
    working directory."""
    files: dict[str, str] = {}
    for name, argv in FAMILIES:
        report = json.loads(call("--format", "json", "family", *argv)[1])
        if "algebra_file" in report:
            files[name] = report["algebra_file"]
        else:
            files[f"{name}a"], files[f"{name}b"] = report["first"], report["second"]
    pairs = []
    for name, text in files.items():
        path, graded = f"{name}.alg", f"{name}_carnot.alg"
        Path(path).write_text(text)
        Path(graded).write_text(json.loads(call("--format", "json", "carnot", path)[1])["algebra_file"])
        pairs.append((path, graded))
    return pairs


def sweep():
    """(argv, sha256) for every call, in a fixed order, on the inputs that
    ``write_inputs`` leaves in the working directory."""
    for path, graded in write_inputs():
        n = json.loads(call("--format", "json", "fingerprint", path)[1])["fingerprint"]["dimension"]
        commands = [("generators", path, "--degree", str(p)) for p in range(n + 1)]
        commands += [("fingerprint", path), ("compare", path, graded)]
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
