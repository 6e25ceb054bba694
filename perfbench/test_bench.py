"""Self-test of the benchmark: ``python3 -m pytest -q perfbench`` from the root."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE), str(HERE.parent / "tests")]

import pins  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Jobs kept by the reduced runs: those that take well under a second.
REDUCED = {
    "betti-graded": {"betti t1k2", "betti t2k2", "betti t4", "betti free2c4",
                     "betti s3a", "betti s3b"},
    "betti-conjugated": {"betti c_t1k2", "betti c_free2c4"},
    "classes": {"generators t2k2 --degree 3", "generators t4 --degree 3",
                "generators t4 --degree 4", "compare t2k2 carnot",
                "verify-ring-iso s3 map8", "verify-ring-iso s3 map7"},
    "structure": {"check free2c5", "lcs free2c5", "carnot free2c5", "model free2c5",
                  "lcs c_t4", "carnot c_t4", "model c_t4", "family free 3 3",
                  "family free 2 6"},
}


def reduced_jobs(workload, seed=7):
    *_, inputs = run.setup(workload, seed, repeats=1)
    jobs = [j for j in workloads.jobs(workload, inputs) if j.name in REDUCED[workload]]
    assert len(jobs) == len(REDUCED[workload])
    return jobs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_run_passes_its_checker(workload):
    failures = []
    run.run_pass(reduced_jobs(workload), failures)
    assert failures == []


def test_wrong_pin_fails_the_command(monkeypatch, capsys):
    monkeypatch.setitem(pins.INDECOMPOSABLES["t2k2"], 3, 4)
    code = run.main(["--workload", "classes", "--seed", "1", "--seconds", "0", "--trace", "0"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] == 11 * result["failed"]
    assert "fail_ratio 0.0909091" in captured.out
    assert "MISMATCH generators t2k2 --degree 3" in captured.err


def test_traced_self_times_fit_in_each_job():
    jobs = reduced_jobs("classes")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        times = run.run_pass(jobs, [], tracer)
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    for job, (seconds, _) in zip(jobs, times):
        spans = [i for i, j in enumerate(tracer.jobs) if j == job.name]
        assert spans, job.name
        assert sum(own[i] for i in spans) <= seconds
    metrics = tracer.layer_metrics()
    assert metrics["linalg.solve.calls"] > 0 and metrics["forms.wedge.calls"] > 0
    assert 0 < metrics["linalg.rref.rank_ratio"] <= 1


def test_refclock_samples_during_a_call_and_restores_the_alarm():
    import signal
    from time import perf_counter

    clock = refclock.RefClock()

    def spin(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    result, raw, normalised = clock.time(spin, 3 * refclock.INTERVAL_S)
    assert result == "done"
    assert len(clock._samples) >= 4  # before, at least two during, after
    assert 0 < raw < 3 * refclock.INTERVAL_S and normalised > 0
    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_uninstall_restores_every_binding():
    from nilrigid import cli, cohomology, fileformat, forms, linalg

    before = (cli.model, cohomology.wedge, forms.wedge, linalg.rref,
              linalg.ColumnSolver.__dict__["solve"], cohomology.Cohomology.__dict__["betti"])
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.model is fileformat.model is not before[0]
    assert cohomology.wedge is forms.wedge is not before[2]
    tracer.uninstall()
    after = (cli.model, cohomology.wedge, forms.wedge, linalg.rref,
             linalg.ColumnSolver.__dict__["solve"], cohomology.Cohomology.__dict__["betti"])
    assert after == before


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = run.end_to_end(1.0, [[1.0, 2.0]])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_section3_maps_are_the_tests_copies():
    import helpers

    assert pins.SECTION3_RING_MAP == helpers.SECTION3_RING_MAP
    assert pins.SECTION3_RING_MAP_COMPLETED == helpers.SECTION3_RING_MAP_COMPLETED
