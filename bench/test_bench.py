"""Self-test of the benchmark through its smoke mode (tiny grid, one pass).

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from run_bench import (COMMAND_METRIC, E2E_UNITS, HEADLINE, RESULTS_DIR,  # noqa: E402
                       per_layer_units)
from workloads import WORKLOADS, check_job  # noqa: E402

EXPECTED_CHECKS = {
    "simulate": {"exit_code", "photons_match_spectrum", "r_reference"},
    "verify": {"exit_code", "verify_failed_empty"},
    "sweep-gain": {"exit_code", "sweep_endpoints", "sweep_min_fidelity", "r_reference"},
}
COUNTS = [name for name, unit in per_layer_units().items() if unit == "count"] + [
    "propagator.compose.gflop", "numerics.expm.per_domain", "cli.output_bytes"]


def smoke(workload, trace, seed=0, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH_DIR, "run_bench.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--smoke",
         "--seed", str(seed), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )
    return proc


def smoke_result(workload, trace, seed=0):
    proc = smoke(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    name = "%s-seed%d-trace%d-smoke.json" % (workload, seed, trace)
    with open(os.path.join(RESULTS_DIR, name)) as fh:
        record = json.load(fh)
    return lines[:-1], result, record


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_every_end_to_end_metric_and_runs_checks(workload):
    lines, result, record = smoke_result(workload, trace=0)
    w = WORKLOADS[workload]
    assert result["correct"] is True
    assert result["attempted"] == len(w.jobs)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == HEADLINE
    assert all(v["value"] > 0 for v in result["metrics"].values())

    printed = {tuple(line.split()[:2]) for line in lines}
    expected = ["setup_s", "run_s", "peak_rss_mb", "fail_ratio"] + [
        COMMAND_METRIC[c] for c in w.commands()]
    for name in expected:
        assert (name, E2E_UNITS[name]) in printed, name

    jobs = [j for p in record["passes"] for j in p["jobs"]]
    assert [j["command"] for j in jobs] == w.commands()
    for job in jobs:
        names = {c["name"] for c in job["checks"]}
        assert EXPECTED_CHECKS[job["command"]] <= names, job["command"]
    for key in ("nproc", "cpu_model", "l2_cache", "l3_cache", "blas", "threads",
                "python", "numpy", "scipy", "git_commit"):
        assert key in record["machine"]
    assert set(record["machine"]["threads"].values()) == {str(record["machine"]["nproc"])}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_counters_repeat_exactly(workload):
    _, first, record = smoke_result(workload, trace=1)
    _, second, _ = smoke_result(workload, trace=1)
    units = per_layer_units()
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    for name in WORKLOADS[workload].reaches:
        assert first["metrics"][name + ".calls"]["value"] > 0, name
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    kinds = [p["kind"] for p in record["passes"]]
    assert kinds == ["timed", "traced", "blas1"]
    assert {s["pass"] for s in record["spans"]} == {kinds.index("traced")}


def test_output_checks_fail_on_wrong_outputs(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    summary = {"mean_NS": 2.0, "r": [0.5, 0.25],
               "gain": {"target_NS": 2.0, "achieved_NS": 2.0},
               "squeezers": [{"fidelity_signal": 1.0, "fidelity_idler": 0.5}]}
    (out / "summary.json").write_text(json.dumps(summary))
    checks = {name: ok for name, ok, _ in
              check_job({}, "simulate", 0, str(out), reference=[0.5, 0.3])}
    assert checks == {"exit_code": True, "photons_match_spectrum": False,
                      "gain_tuned_to_target": True, "first_squeezer_fidelity": False,
                      "r_reference": False}
    (out / "verify.json").write_text(json.dumps({"failed": ["photon_balance"]}))
    checks = dict((n, ok) for n, ok, _ in check_job({}, "verify", 3, str(out), None))
    assert checks == {"exit_code": False, "verify_failed_empty": False}


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(BENCH_DIR, bench, ignore=shutil.ignore_patterns(
        ".work", "results", "__pycache__"))
    proc = smoke("tuned-apodized-double", 0, cwd=tmp_path,
                 script=str(bench / "run_bench.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
