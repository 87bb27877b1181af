"""One benchmark pass in a fresh interpreter: set up, then run the CLI jobs.

Usage: python child.py SPEC.json

The spec names the package source directory, the config, the jobs (argv
lists for twinbeam.cli.main) and where to write the result JSON.  The parent
sets PYTHONPATH and the BLAS thread variables.  The result holds the
monotonic time at which the config was loaded (setup end), per-job exit code
and wall time, peak RSS, library versions and, when traced, the spans.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _blas_info():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def run(spec):
    import twinbeam
    from twinbeam import cli

    expected = os.path.join(os.path.realpath(spec["src"]), "twinbeam")
    if os.path.dirname(os.path.realpath(twinbeam.__file__)) != expected:
        raise SystemExit("twinbeam imported from %s, not %s" % (twinbeam.__file__, expected))

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["pass_id"])
        rebound = tracer.install()

    cli.load_config(spec["config"])
    loaded = time.monotonic()

    jobs = []
    for argv in spec["jobs"]:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        jobs.append({"argv": argv, "rc": rc, "wall_s": time.perf_counter() - start})

    import numpy
    import scipy
    result = {
        "loaded_monotonic": loaded,
        "jobs": jobs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["rebound"] = rebound
    return result


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
