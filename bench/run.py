"""torbar benchmark: cold-process runs of one workload, with known answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

    # every workload, end to end
    for w in catalog chain_tor hga_ek formality; do
        python3 bench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

Run from the root of a checkout.  Each sample is a fresh single-threaded
Python process (bench/cold.py) that imports torbar from ./src, builds the
workload's inputs, runs it and checks the results, so every sample pays
for the imports and lazy caches a user's call pays for.  Samples run one
after another, a closed loop with one client, until S seconds have passed
and at least MIN_SAMPLES are in.

--trace 0 reports the end-to-end metrics: the medians over samples of
wall_s (run time, set-up excluded), setup_s (import and input building)
and peak_rss_mb (the sample process's maximum RSS).  --trace 1 alternates
untraced and traced samples and reports the per-layer metrics of
tracing.py, as medians over the traced samples, plus trace.overhead_s,
the traced minus the untraced median wall time.  Traces, with their
spans, are written to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count the
known-answer checks of every sample.  Metric names and workloads are
those of BENCHMARK.json at the root of the checkout.
"""
import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_SAMPLES = 3
# stop starting samples once the next one would likely end past this, so
# that a run exits within 180 s
LIMIT_S = 150.0


class BenchError(Exception):
    pass


def cold_sample(workload, seed, trace_out=None, timeout=LIMIT_S):
    cmd = [sys.executable, os.path.join(HERE, "cold.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    # a fixed hash seed keeps dict and set orders, and so elimination
    # orders, the same from sample to sample
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} sample timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} sample exited with {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload} sample printed no result:\n"
                         + proc.stdout[-2000:] + proc.stderr[-2000:])


def collect(workload, seed, seconds, trace):
    """Samples until `seconds` have passed and MIN_SAMPLES are in.  With
    trace, each round is one untraced and one traced sample."""
    plain, traced = [], []
    trace_out = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        plain.append(cold_sample(workload, seed, timeout=LIMIT_S - elapsed))
        if trace:
            elapsed = time.perf_counter() - start
            traced.append(cold_sample(workload, seed, trace_out,
                                      timeout=LIMIT_S - elapsed))
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        enough = rounds >= (1 if trace else MIN_SAMPLES)
        if enough and elapsed >= seconds:
            break
        if elapsed + elapsed / rounds > LIMIT_S:
            break
    return plain, traced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if not os.path.isfile(os.path.join(SRC, "torbar", "__init__.py")):
        raise BenchError(f"no torbar sources under {SRC}")
    # byte-compile first, so that every sample loads the same .pyc files
    # whether or not the environment lets Python write them
    for path in (SRC, HERE):
        compileall.compile_dir(path, quiet=1)
    os.makedirs(OUT, exist_ok=True)

    plain, traced = collect(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if not attempted:
        raise BenchError(f"{args.workload} attempted no known-answer check")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(plain)} untraced + {len(traced)} traced cold samples  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    metrics = {}
    if args.trace:
        wanted = spec["per_layer"]
        wall_plain = statistics.median(s["wall_s"] for s in plain)
        wall_traced = statistics.median(s["wall_s"] for s in traced)
        for m in wanted:
            if m["name"] == "trace.overhead_s":
                value = wall_traced - wall_plain
            else:
                value = statistics.median_low(s["layers"][m["name"]]
                                          for s in traced)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:36s} {value:.6g} {m['unit']}")
        print(f"  trace written to {os.path.relpath(OUT, ROOT)}/")
    else:
        for m in spec["end_to_end"]:
            values = [s[m["name"]] for s in plain]
            value = statistics.median(values)
            q1, q3 = quartiles(values)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:12s} {value:.6g} {m['unit']}  (median of "
                  f"{len(values)}; quartiles {q1:.6g}..{q3:.6g}, "
                  f"min {min(values):.6g}, max {max(values):.6g})")
    print(f"  {'fail_frac':12s} {failed / attempted:.6g}  "
          f"({failed} of {attempted} known-answer checks failed)")
    for s in samples:
        for f in s["failures"]:
            print(f"  failed: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _terminate(signum, frame):
    # leaving through an exception lets subprocess.run kill and reap the
    # running sample
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        main()
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        sys.exit(1)
