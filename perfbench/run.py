"""nilrigid benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up writes the workload's inputs as
algebra files in a fresh interpreter, several times, and reports the median
as ``setup_s``.  Then every job of the workload runs through
``nilrigid.cli.main(argv)`` in this process, one after another in a fixed
order, and each answer is checked against its pin.

``--trace 0`` runs whole passes over the job list while they fit in
``--seconds`` (at least two) and reports the end-to-end metrics from each
job's median time over the passes.  Every time in the end-to-end metrics is
normalised to the host's speed by ``refclock``; the raw times are in the
header line.  ``--trace 1`` runs each job untraced and
then traced, and reports the per-layer metrics of the traced runs; the spans
go to ``perfbench/_work/trace-<workload>-<seed>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every answer matched its pin, 1 when one did not and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPEATS = 9
MIN_PASSES = 2  # one pass would give each job a single sample

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed set-up)."""


def setup(workload: str, seed: int, repeats: int = SETUP_REPEATS):
    """Median raw and normalised seconds of writing the inputs from a fresh
    interpreter, and the directory they are in.

    The child may run on another core than this process, so it is normalised
    by the reference samples it takes itself, and their time is subtracted.
    """
    out = WORK / f"{workload}-{seed}"
    raw, normalised = [], []
    for _ in range(repeats):
        shutil.rmtree(out, ignore_errors=True)
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "make_inputs.py"), workload, str(seed), str(out)],
            capture_output=True,
            text=True,
        )
        seconds = perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"input generation failed:\n{proc.stderr.strip()}")
        host = json.loads(proc.stdout.splitlines()[-1])
        seconds -= host["sampling_s"]
        raw.append(seconds)
        normalised.append(refclock.normalise(seconds, host["samples"]))
    return statistics.median(raw), statistics.median(normalised), out


def run_job(job: workloads.Job, tracer: tracing.Tracer | None = None,
            clock: refclock.RefClock | None = None):
    """Raw and normalised seconds for one CLI call, and the mismatches
    against its pin.  Without a clock the normalised time is None."""
    from nilrigid import cli

    out, err = io.StringIO(), io.StringIO()
    argv = ["--format", "json", *job.argv]
    call = cli.main if tracer is None else functools.partial(tracer.run_job, job.name, cli.main)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if clock is None:
                code = call(argv)
                seconds, normalised = perf_counter() - t0, None
            else:
                code, seconds, normalised = clock.time(call, argv)
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        seconds = perf_counter() - t0  # the run is marked incorrect, so unnormalised will do
        return seconds, None if clock is None else seconds, [f"raised {type(exc).__name__}: {exc}"]
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        report = None
    errors = workloads.check_job(job, code, report)
    if errors and err.getvalue():
        errors.append("stderr: " + err.getvalue().strip())
    return seconds, normalised, errors


def run_pass(jobs, failures: list, tracer=None, clock=None) -> list[tuple]:
    """Raw and normalised job times of one pass; mismatches are appended to
    ``failures``."""
    times = []
    for job in jobs:
        seconds, normalised, errors = run_job(job, tracer, clock)
        times.append((seconds, normalised))
        if errors:
            failures.append((job.name, errors))
    return times


def measure(jobs, seconds: float, failures):
    """Two passes, then more while the next is expected to end within ``seconds``.

    Returns the raw and the normalised job times of each pass.
    """
    clock = refclock.RefClock()
    raw, normalised = [], []
    start = perf_counter()
    while True:
        times = run_pass(jobs, failures, clock=clock)
        raw.append([t for t, _ in times])
        normalised.append([n for _, n in times])
        elapsed = perf_counter() - start
        if len(raw) >= MIN_PASSES and elapsed + elapsed / len(raw) > seconds:
            return raw, normalised


def end_to_end(setup_s: float, passes) -> dict[str, tuple[float, str]]:
    """Metrics from each job's median normalised time over the passes."""
    medians = [statistics.median(times) for times in zip(*passes)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(medians), "s"),
        "max_job_s": (max(medians), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(jobs, workload: str, seed: int, failures) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass.

    Each job also runs untraced just before its traced run, so the drift of
    a shared host's speed mostly cancels out of ``trace.overhead_s``.
    """
    tracer = tracing.Tracer()
    overhead = 0.0
    for job in jobs:
        untraced = run_pass([job], failures)[0][0]
        tracer.install()
        try:
            overhead += run_pass([job], failures, tracer)[0][0] - untraced
        finally:
            tracer.uninstall()
    tracer.write(WORK / f"trace-{workload}-{seed}.tsv")
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = overhead
    return {name: (values[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "nilrigid" / "__init__.py").is_file():
            raise BenchError(f"no nilrigid source under {ROOT / 'src'}")
        WORK.mkdir(exist_ok=True)
        setup_raw, setup_s, inputs = setup(
            args.workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = workloads.jobs(args.workload, inputs)
    failures: list = []
    if args.trace:
        metrics = per_layer(jobs, args.workload, args.seed, failures)
        attempted = 2 * len(jobs)
    else:
        raw, passes = measure(jobs, args.seconds, failures)
        metrics = end_to_end(setup_s, passes)
        attempted = len(jobs) * len(passes)
    failed = len(failures)
    for name, errors in failures:
        print(f"MISMATCH {name}: {'; '.join(errors)}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "jobs": [job.name for job in jobs],
        "raw_setup_seconds": setup_raw,
        "raw_pass_job_seconds": [] if args.trace else raw,
        "normalised_pass_job_seconds": [] if args.trace else passes,
    }))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
