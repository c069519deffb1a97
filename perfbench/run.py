"""The newtonsing benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced pass.  The line
before the last holds the environment stamp and the run's details; the last
line is the result:

    {"correct": true, "attempted": 2877, "failed": 0, "metrics": {...}}

Set-up is timed in fresh interpreters: SETUP_SAMPLES of them, half before
and half after the measured one, whose own set-up also counts; the median
is reported.  The workload runs in a process of its own, so that its peak
RSS is the program's.  A run makes a fixed number of passes per workload;
`--seconds` is accepted but does not change what is measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 10
WORKER_TIMEOUT_S = 170

UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_worker(args):
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def time_setup(worker_args):
    return run_worker(worker_args + ["--setup-only"])["setup_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="with --trace 1, write the spans to this file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "newtonsing", "cli.py")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'newtonsing')}", file=sys.stderr)
        return 2

    worker_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.spans:
        worker_args += ["--spans", os.path.abspath(args.spans)]
    samples = 0 if args.trace else SETUP_SAMPLES
    try:
        setup = [time_setup(worker_args) for _ in range(samples // 2)]
        out = run_worker(worker_args)
        setup += [time_setup(worker_args) for _ in range(samples - samples // 2)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = out["layers"]
        units = tracing.metric_units()
    else:
        metrics = dict(out["metrics"])
        metrics["setup_s"] = statistics.median(setup + [out["setup_s"]])
        metrics["peak_rss_mb"] = out["peak_rss_mb"]
        units = UNITS
    failed = len(out["failures"])
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": out["env"],
        "passes": out["passes"],
        "pass_s": out["pass_s"],
        "latency_samples": out["latency_samples"],
        "failed_frac": failed / out["attempted"],
        "failures": out["failures"][:20],
    }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
