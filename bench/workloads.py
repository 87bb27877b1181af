"""Workload definitions: generated configs, CLI jobs and output checks.

Each workload is a fixed device (grid, grating, medium, pass mode) and a list
of CLI jobs.  The seed only picks the gain: one of GAIN_LEVELS evenly spaced
factors within +/-10% of the workload's nominal gain.  Reference values of
r_k are stored per gain level in reference.json, so the reference check runs
for every seed.
"""

import csv
import json
import math
import os
import random

GAIN_LEVELS = 5
GAIN_SPREAD = 0.10

# r_k must match the stored reference within this absolute tolerance.  Gain
# tuning stops within 1e-6 * target photons, which moves r_k by well under
# 1e-6; a change to the physics moves them by far more.
REF_ATOL = 1e-5
REF_TOP_K = 8

# Grid used by the smoke mode for every workload.
SMOKE_N = 9

README_MEDIUM = {"vP": 0.1, "vS": 1.0 / 18.0, "vI": 0.5, "L": 1.0}
# Walk-offs kappa_S = 8, kappa_I = -4.8 (40% mismatch, not SGVM).
SKEW_MEDIUM = {"vP": 0.1, "vS": 1.0 / 18.0, "vI": 1.0 / 5.2, "L": 1.0}
APODIZED = {"kind": "apodized", "domain_width": 1.0 / 169, "pmf_width": 8.0}
QPM = {"kind": "qpm", "period": 2.0 / 9.0}


class Workload:
    """One benchmark workload.

    gain_key is "target_NS" (tuned) or "g0" (fixed) and gain its nominal
    value.  reaches names the traced functions every pass must call.
    known_failures maps a command to the verify checks that fail today
    because of a known defect; such a job still counts as failed.
    """

    def __init__(self, name, why, n, poling, medium, gain_key, gain, jobs,
                 remove_free_phase=False, reaches=(), known_failures=None):
        self.name = name
        self.why = why
        self.n = n
        self.poling = poling
        self.medium = medium
        self.gain_key = gain_key
        self.gain = gain
        self.jobs = jobs
        self.remove_free_phase = remove_free_phase
        self.reaches = tuple(reaches)
        self.known_failures = known_failures or {}

    def commands(self):
        return [job[0] for job in self.jobs]

    def config(self, level, smoke=False):
        options = {"remove_free_phase": True} if self.remove_free_phase else {}
        cfg = {
            "grid": {"N": SMOKE_N if smoke else self.n},
            "pump": {"sigma": 1.0, self.gain_key: self.gain * gain_factor(level)},
            "medium": dict(self.medium),
            "poling": dict(self.poling),
            "pass_mode": "double",
        }
        if options:
            cfg["options"] = options
        return cfg


_CORE = ("cli.load_config", "model.build_coupled_matrices", "numerics.expm",
         "numerics.sym_eig", "propagator.compose", "propagator.double_pass",
         "blochmessiah.decompose", "blochmessiah.bloch_messiah")

WORKLOADS = {w.name: w for w in [
    Workload(
        "tuned-apodized-double",
        "README config: gain tuning is ~93% of simulate; 2N block path, 169 domains",
        101, APODIZED, README_MEDIUM, "target_NS", 5.0,
        [["simulate"]],
        reaches=_CORE + ("cli.cmd_simulate", "blochmessiah.tune_gain"),
    ),
    Workload(
        "fixed-qpm-n201",
        "9-domain QPM at N=201, fixed gain: the 804x804 decomposition dominates",
        201, QPM, README_MEDIUM, "g0", 1.5,
        [["simulate"], ["verify"]],
        remove_free_phase=True,
        reaches=_CORE + ("cli.cmd_simulate", "cli.cmd_verify", "numerics.svd",
                         "analytic.svd_route", "analytic.structure_checks"),
        known_failures={"verify": ["double_pass_zero_gain_free"]},
    ),
    Workload(
        "skew-generic",
        "40% walk-off mismatch: generic 4N path, uncached expm in structure_checks",
        101, APODIZED, SKEW_MEDIUM, "g0", 2.5,
        [["simulate"], ["verify"]],
        remove_free_phase=True,
        reaches=_CORE + ("cli.cmd_simulate", "cli.cmd_verify",
                         "analytic.structure_checks"),
    ),
    Workload(
        "sweep-apodized-n51",
        "README config at N=51 under sweep-gain: the only path into analysis",
        51, APODIZED, README_MEDIUM, "target_NS", 5.0,
        [["sweep-gain", "--points", "11", "--jobs", "1"]],
        reaches=_CORE + ("cli.cmd_sweep_gain", "analysis.gain_variation_sweep",
                         "blochmessiah.tune_gain"),
    ),
]}


def gain_level(seed):
    """Gain level index picked by the seed, in [0, GAIN_LEVELS)."""
    return random.Random(seed).randrange(GAIN_LEVELS)


def gain_factor(level):
    return 1.0 - GAIN_SPREAD + 2.0 * GAIN_SPREAD * level / (GAIN_LEVELS - 1)


def reference_key(workload, level, smoke):
    return "%s/%s/level%d" % (workload.name, "smoke" if smoke else "full", level)


def observed_r(command, out_dir):
    """The r values a job's outputs are compared against the reference on."""
    if command == "simulate":
        with open(os.path.join(out_dir, "summary.json")) as fh:
            return json.load(fh)["r"][:REF_TOP_K]
    if command == "sweep-gain":
        return [float(row["r1"]) for row in _sweep_rows(out_dir)]
    return None


def _sweep_rows(out_dir):
    with open(os.path.join(out_dir, "sweep.csv")) as fh:
        return list(csv.DictReader(fh))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_job(cfg, command, rc, out_dir, reference):
    """Output checks of one job, as a list of (name, passed, detail).

    cfg is the generated config the job ran; reference is the stored r list
    for this job, or None when none exists.
    """
    checks = [("exit_code", rc == 0, "exit code %d" % rc)]
    try:
        if command == "simulate":
            checks += _check_simulate(out_dir)
        elif command == "verify":
            failed = _load_json(os.path.join(out_dir, "verify.json"))["failed"]
            checks.append(("verify_failed_empty", not failed,
                           "failed: %s" % (", ".join(failed) or "none")))
        elif command == "sweep-gain":
            checks += _check_sweep(cfg["pump"]["target_NS"], out_dir)
        if reference is not None:
            got = observed_r(command, out_dir)
            worst = max((abs(a - b) for a, b in zip(got, reference)),
                        default=math.inf)
            ok = len(got) == len(reference) and worst <= REF_ATOL
            checks.append(("r_reference", ok,
                           "max |r - ref| = %.3g (tol %g)" % (worst, REF_ATOL)))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.append(("outputs_readable", False, "%s: %s" % (type(exc).__name__, exc)))
    return checks


def _check_simulate(out_dir):
    summary = _load_json(os.path.join(out_dir, "summary.json"))
    ns = summary["mean_NS"]
    from_r = sum(math.sinh(r) ** 2 for r in summary["r"])
    err = abs(ns - from_r)
    checks = [("photons_match_spectrum", err <= 1e-8 * max(1.0, ns),
               "|mean_NS - sum sinh^2 r| = %.3g" % err)]
    gain = summary["gain"]
    if gain["target_NS"] is not None:
        target = gain["target_NS"]
        miss = abs(gain["achieved_NS"] - target)
        checks.append(("gain_tuned_to_target", miss <= 1e-6 * max(1.0, target),
                       "|achieved - target| = %.3g" % miss))
        first = summary["squeezers"][0]
        fid = min(first["fidelity_signal"], first["fidelity_idler"])
        checks.append(("first_squeezer_fidelity", fid >= 1.0 - 1e-6,
                       "1 - fidelity = %.3g" % (1.0 - fid)))
    return checks


def _check_sweep(target, out_dir):
    rows = _sweep_rows(out_dir)
    ns = [float(row["mean_NS"]) for row in rows]
    ends = (abs(min(ns) - 0.5 * target), abs(max(ns) - 1.5 * target))
    fid = min(float(row["fidelity_k1"]) for row in rows)
    return [
        ("sweep_endpoints", max(ends) <= 1e-4,
         "endpoint misses %.3g, %.3g" % ends),
        ("sweep_min_fidelity", fid > 0.99, "min fidelity %.6f" % fid),
    ]
