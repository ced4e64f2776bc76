"""One cold run of one workload, printed as one JSON line.

    python3 bench/cold.py --workload NAME --seed N [--size full|smoke]
                          [--trace-out FILE]

`run.py` starts a fresh process of this script for every sample, so each
sample pays for importing torbar and for every lazy cache, as a user's
call does.  With --trace-out the run is traced (see tracing.py), the
trace is written to FILE, and the line carries the per-layer metrics.
"""
import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_workloads():
    """Import the workloads, and with them torbar from this checkout."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import torbar
    import workloads
    found = os.path.dirname(os.path.realpath(torbar.__file__))
    if found != os.path.realpath(os.path.join(SRC, "torbar")):
        raise ImportError(f"torbar imported from {found}, not from {SRC}")
    return workloads


def tally(reports):
    """(attempted, failed, first failures) over a list of CheckReports."""
    attempted = sum(r.checked for r in reports)
    failed = sum(len(r.failures) for r in reports)
    first = [f"{r.name}: {w!r}"[:300] for r in reports for w in r.failures]
    return attempted, failed, first[:5]


def measure(workload, seed, size="full", trace_out=None):
    """Set up and run a workload once in this process; return the sample.

    setup_s runs from before torbar is imported to the end of input
    building; wall_s from there to the end of the known-answer checks."""
    t0 = time.perf_counter()
    workloads = import_workloads()
    setup, run = workloads.WORKLOADS[workload]
    tracer = None
    if trace_out is not None:
        # imported only here, so that untraced samples import nothing extra
        # before torbar (setup_s includes torbar's own stdlib imports)
        import tracing
        tracer = tracing.Tracer().install()
    try:
        inputs = setup(seed, size)
        t1 = time.perf_counter()
        reports = run(inputs)
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed, failures = tally(reports)
    sample = {
        "workload": workload, "seed": seed, "size": size,
        "setup_s": t1 - t0, "wall_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": attempted, "failed": failed, "failures": failures,
    }
    if tracer is not None:
        tracer.write(trace_out, {"workload": workload, "seed": seed,
                                 "size": size, "wall_s": sample["wall_s"]})
        sample["layers"] = tracer.metrics()
    return sample


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    sample = measure(args.workload, args.seed, args.size, args.trace_out)
    print(json.dumps(sample))


if __name__ == "__main__":
    main()
