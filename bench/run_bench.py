"""End-to-end and per-module benchmark of the twinbeam CLI.

Usage, from the repository root:

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --workload NAME --smoke     # tiny grid, one pass

Each pass runs in a fresh child interpreter (bench/child.py) with
PYTHONPATH=src and the BLAS thread variables set to nproc.  The child loads
the generated config, then runs the workload's jobs one after another through
twinbeam.cli.main (a closed loop with one client).  Untraced runs repeat the
pass until --seconds have elapsed and then start extra set-up-only children,
so set-up time is a median of several samples.  A traced run (--trace 1) runs
untraced passes for --seconds, one traced pass that wraps the module
functions in tracer.TRACED, and one pass with BLAS pinned to one thread.

The last stdout line is one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics in HEADLINE for --trace 0, the per-layer
metrics for --trace 1.  The lines before it report every end-to-end metric
with median, tail percentile and sample count, and the output checks.  The
full record, with the machine description and the spans of a traced pass,
goes to bench/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import TRACED
from workloads import (WORKLOADS, check_job, gain_factor, gain_level,
                       observed_r, reference_key)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

# One invocation must end well inside three minutes.
RUN_LIMIT_S = 170.0
# Set-up samples per untraced run (passes plus set-up-only children).
SETUP_SAMPLES = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

COMMAND_METRIC = {"simulate": "simulate_s", "verify": "verify_s",
                  "sweep-gain": "sweep_gain_s"}
# Every end-to-end metric; a workload reports the ones of the commands it runs.
E2E_UNITS = {"setup_s": "s", "simulate_s": "s", "verify_s": "s",
             "sweep_gain_s": "s", "run_s": "s", "peak_rss_mb": "MB",
             "fail_ratio": "1"}
# The result object of --trace 0 carries only metrics every workload has
# and that are never zero, so fail_ratio appears there as ok_ratio.
HEADLINE = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1"}

COUNTERS = {
    "blochmessiah.tune_gain.evals": "count",
    "analysis.gain_variation_sweep.evals": "count",
    "propagator.compose.domains": "count",
    "propagator.compose.gflop": "GFLOP_computed",
    "numerics.expm.per_domain": "1",
    "cli.output_bytes": "B",
    "blas1_run_s": "s",
    "trace_overhead_s": "s",
}


def per_layer_units():
    units = {}
    for name in TRACED:
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
        units[name + ".self_s"] = "s"
    units.update(COUNTERS)
    return units


class BenchError(Exception):
    """The benchmark itself could not run (not a failed job)."""


class Run:
    """State of one invocation: workload, generated config and deadline."""

    def __init__(self, workload, level, smoke, references):
        self.workload = workload
        self.level = level
        self.smoke = smoke
        self.config = workload.config(self.level, smoke=smoke)
        key = reference_key(workload, self.level, smoke)
        self.reference = references.get(key) if references is not None else None
        if references is not None and self.reference is None:
            raise BenchError("no reference r values for %s" % key)
        self.nproc = len(os.sched_getaffinity(0))
        self.started = time.monotonic()
        os.makedirs(WORK_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=workload.name + "-", dir=WORK_DIR)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh, indent=2)
        self.passes = []
        self.child_info = None

    def remaining(self):
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run exceeded %.0f s" % RUN_LIMIT_S)
        return left

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run_pass(self, threads, kind="timed", with_jobs=True):
        """Run one child; returns the pass record (timings, jobs, checks)."""
        pass_id = len(self.passes)
        pdir = os.path.join(self.dir, "pass%03d" % pass_id)
        os.makedirs(pdir)
        jobs, outs = [], []
        for i, job in enumerate(self.workload.jobs if with_jobs else []):
            out = os.path.join(pdir, "%d-%s" % (i, job[0]))
            outs.append(out)
            jobs.append([job[0], "--config", self.config_path, "--out", out] + job[1:])
        spec = {"src": SRC, "config": self.config_path, "jobs": jobs,
                "trace": kind == "traced", "pass_id": pass_id,
                "result": os.path.join(pdir, "result.json")}
        spec_path = os.path.join(pdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        for var in THREAD_VARS:
            env[var] = str(threads)
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, spec_path], env=env,
                                  cwd=pdir, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("pass %d did not finish within the run limit" % pass_id)
        end = time.monotonic()
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
            raise BenchError("child exited %d: %s" % (proc.returncode, " | ".join(tail)))
        with open(spec["result"]) as fh:
            child = json.load(fh)
        record = {
            "kind": kind, "threads": threads, "run_s": end - start,
            "setup_s": child["loaded_monotonic"] - start,
            "peak_rss_mb": child["maxrss_kb"] / 1024.0,
            "jobs": [], "spans": child.get("spans"), "rebound": child.get("rebound"),
        }
        for job, out in zip(child["jobs"], outs):
            command = job["argv"][0]
            reference = self.reference.get(command) if self.reference else None
            checks = check_job(self.config, command, job["rc"], out, reference)
            record["jobs"].append({
                "command": command, "rc": job["rc"], "wall_s": job["wall_s"],
                "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in checks],
                "failed": not all(ok for _, ok, _ in checks),
                "known_defect": self.known_defect(command, checks, out),
                "output_bytes": _dir_bytes(out),
                "r": _observed_r(command, out),
            })
        if self.child_info is None:
            self.child_info = {k: child[k] for k in
                               ("python", "numpy", "scipy", "blas", "threads")}
        self.passes.append(record)
        shutil.rmtree(pdir, ignore_errors=True)
        return record

    def known_defect(self, command, checks, out):
        """True when the job fails exactly as the workload's known defect."""
        expected = self.workload.known_failures.get(command)
        if expected is None:
            return False
        failing = {n for n, ok, _ in checks if not ok}
        if failing != {"exit_code", "verify_failed_empty"}:
            return False
        with open(os.path.join(out, "verify.json")) as fh:
            return json.load(fh)["failed"] == expected


def _observed_r(command, out):
    try:
        return observed_r(command, out)
    except (OSError, ValueError, KeyError):
        return None


def _dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def summarize(values):
    """Median, the highest percentile with at least ten samples beyond it, count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values) if values else None,
           "n": n, "tail_pct": None, "tail": None}
    if n > 20:
        out["tail_pct"] = round(100.0 * (n - 10) / n, 2)
        out["tail"] = values[n - 11]
    return out


def end_to_end(run, passes, setups):
    """Every end-to-end metric in E2E_UNITS that the workload has."""
    metrics = {"setup_s": summarize(setups)}
    for command in run.workload.commands():
        name = COMMAND_METRIC[command]
        metrics[name] = summarize([j["wall_s"] for p in passes for j in p["jobs"]
                                   if j["command"] == command])
    metrics["run_s"] = summarize([p["run_s"] for p in passes])
    metrics["peak_rss_mb"] = summarize([p["peak_rss_mb"] for p in passes])
    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(j["failed"] for j in jobs)
    metrics["fail_ratio"] = {"median": failed / len(jobs), "n": len(jobs),
                             "tail_pct": None, "tail": None}
    return metrics


def per_layer(run, traced, untraced_run_s, blas1_run_s):
    """Per-layer metrics derived from the spans of one traced pass."""
    spans = traced["spans"]
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    metrics = {}
    for name in TRACED:
        mine = [s for s in spans if s["name"] == name]
        incl = sum(s["end"] - s["start"] for s in mine)
        metrics[name + ".calls"] = len(mine)
        metrics[name + ".s"] = incl
        metrics[name + ".self_s"] = incl - sum(child_time.get(s["id"], 0.0) for s in mine)

    def direct_children(parent_name, names):
        return sum(1 for s in spans if s["name"] in names and s["parent"] is not None
                   and by_id[s["parent"]]["name"] == parent_name)

    composes = [s for s in spans if s["name"] == "propagator.compose"]
    domains = sum(s["domains"] for s in composes)
    metrics["blochmessiah.tune_gain.evals"] = direct_children(
        "blochmessiah.tune_gain", ("propagator.compose", "propagator.double_pass"))
    metrics["analysis.gain_variation_sweep.evals"] = direct_children(
        "analysis.gain_variation_sweep", ("propagator.double_pass",))
    metrics["propagator.compose.domains"] = domains
    metrics["propagator.compose.gflop"] = sum(
        2.0 * s["m"] ** 3 * s["domains"] for s in composes) / 1e9
    metrics["numerics.expm.per_domain"] = (
        metrics["numerics.expm.calls"] / domains if domains else 0.0)
    metrics["cli.output_bytes"] = sum(j["output_bytes"] for j in traced["jobs"])
    metrics["blas1_run_s"] = blas1_run_s
    metrics["trace_overhead_s"] = traced["run_s"] - untraced_run_s

    missed = [n for n in run.workload.reaches if metrics[n + ".calls"] == 0]
    unbound = [n for n, count in traced["rebound"].items() if count == 0]
    if missed or unbound:
        raise BenchError("tracer saw no calls of %s (unbound: %s)"
                         % (", ".join(missed) or "-", ", ".join(unbound) or "-"))
    return metrics


def machine():
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None,
            "l2_cache": None, "l3_cache": None, "git_commit": _git_commit()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in range(8):
        base = "/sys/devices/system/cpu/cpu0/cache/index%d/" % index
        try:
            with open(base + "level") as fh:
                level = fh.read().strip()
            with open(base + "size") as fh:
                size = fh.read().strip()
        except OSError:
            break
        if level in ("2", "3"):
            info["l%s_cache" % level] = size
    return info


def _git_commit():
    """HEAD commit of the checkout, or None outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def execute(run, seconds, trace):
    """All passes of one invocation; returns (result record, last-line object)."""
    deadline = run.started + seconds
    timed = []
    while not timed or (not run.smoke and time.monotonic() < deadline):
        timed.append(run.run_pass(run.nproc))
    setups = [p["setup_s"] for p in timed]
    if not trace and not run.smoke:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run.run_pass(run.nproc, kind="setup", with_jobs=False)["setup_s"])
    e2e = end_to_end(run, timed, setups)

    layers = None
    if trace:
        traced = run.run_pass(run.nproc, kind="traced")
        blas1 = run.run_pass(1, kind="blas1")
        layers = per_layer(run, traced, e2e["run_s"]["median"], blas1["run_s"])

    jobs = [j for p in run.passes for j in p["jobs"]]
    failed = sum(j["failed"] for j in jobs)
    unexpected = [j for j in jobs if j["failed"] and not j["known_defect"]]
    if trace:
        units = per_layer_units()
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        values = {"run_s": e2e["run_s"]["median"], "setup_s": e2e["setup_s"]["median"],
                  "peak_rss_mb": e2e["peak_rss_mb"]["median"],
                  "ok_ratio": 1.0 - e2e["fail_ratio"]["median"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in HEADLINE.items()}
    line = {"correct": not unexpected, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}
    record = {
        "workload": run.workload.name, "why": run.workload.why,
        "gain_level": run.level, "gain_factor": gain_factor(run.level),
        "config": run.config, "smoke": run.smoke, "trace": trace,
        "seconds": seconds, "machine": dict(machine(), **(run.child_info or {})),
        "end_to_end": e2e, "per_layer": layers,
        "passes": [dict(p, spans=None) for p in run.passes],
        "spans": [s for p in run.passes if p["spans"] for s in p["spans"]],
        "result": line,
    }
    return record, line


def report(record):
    """Human-readable lines printed before the result object."""
    w = record["workload"]
    m = record["machine"]
    print("workload %s  gain x%.2f (level %d)  trace %d%s" % (
        w, record["gain_factor"], record["gain_level"], record["trace"],
        "  smoke" if record["smoke"] else ""))
    print("machine nproc=%s cpu=%s L2=%s L3=%s blas=%s %s threads=%s python=%s "
          "numpy=%s scipy=%s commit=%s" % (
              m["nproc"], m["cpu_model"], m["l2_cache"], m["l3_cache"],
              m.get("blas", {}).get("name"), m.get("blas", {}).get("version"),
              m.get("threads"), m.get("python"), m.get("numpy"), m.get("scipy"),
              m["git_commit"]))
    for name, s in record["end_to_end"].items():
        tail = "" if s["tail"] is None else "  p%g %.6g" % (s["tail_pct"], s["tail"])
        print("  %-13s %-3s median %.6g%s  n=%d" % (
            name, E2E_UNITS[name], s["median"], tail, s["n"]))
    for p in record["passes"]:
        for j in p["jobs"]:
            bad = [c for c in j["checks"] if not c["pass"]]
            status = "ok" if not bad else ("known defect" if j["known_defect"] else "FAILED")
            print("  check %-6s %-10s %d checks, %s%s" % (
                p["kind"], j["command"], len(j["checks"]), status,
                "".join("; %s: %s" % (c["name"], c["detail"]) for c in bad)))
    if record["per_layer"]:
        units = per_layer_units()
        for name, value in record["per_layer"].items():
            print("  layer %-40s %.6g %s" % (name, value, units[name]))


def load_references():
    with open(REFERENCE) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid and a single pass, for self-testing")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twinbeam", "cli.py")):
        sys.stderr.write("no twinbeam sources under %s\n" % SRC)
        return 2
    try:
        run = Run(WORKLOADS[args.workload], gain_level(args.seed), args.smoke,
                  load_references())
    except (OSError, BenchError) as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        return 1
    try:
        record, line = execute(run, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        return 1
    finally:
        run.close()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                        "-smoke" if args.smoke else "")
    with open(os.path.join(RESULTS_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
