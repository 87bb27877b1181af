"""Regenerate reference.json: the r values of every workload at every gain level.

Usage, from the repository root:

    python3 bench/make_reference.py

Runs one untraced pass per workload, gain level and grid (full and smoke) and
stores the r values each job is checked against (see workloads.observed_r).
Refuses to record a pass with a failed job other than a known defect.
"""

import json
import sys

from run_bench import REFERENCE, Run
from workloads import GAIN_LEVELS, WORKLOADS, reference_key


def main():
    refs = {}
    for workload in WORKLOADS.values():
        for smoke in (True, False):
            for level in range(GAIN_LEVELS):
                run = Run(workload, level, smoke, None)
                try:
                    record = run.run_pass(run.nproc)
                finally:
                    run.close()
                key = reference_key(workload, level, smoke)
                bad = [j["command"] for j in record["jobs"]
                       if j["failed"] and not j["known_defect"]]
                if bad:
                    sys.stderr.write("%s: %s failed, not recorded\n" % (key, bad))
                    return 1
                refs[key] = {j["command"]: j["r"] for j in record["jobs"]
                             if j["r"] is not None}
                print(key, "%.1f s" % record["run_s"], flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
