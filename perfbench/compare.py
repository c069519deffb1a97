"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/run.py ... >> parent.txt   # repeat, one seed per run
    python3 perfbench/run.py ... >> change.txt
    python3 perfbench/compare.py parent.txt change.txt

Each file holds the stdout of one or more runs of one workload.  Prints,
per metric, each side's median and quartiles and the change of the median.
Refuses to compare results whose kernels backends differ: those time
different code, not two versions of the same code.
"""

import json
import statistics
import sys


def read_runs(path):
    """(details, result) of each run in a file of run.py outputs."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    details = [x for x in lines if "env" in x]
    results = [x for x in lines if "metrics" in x]
    if len(details) != len(results) or not results:
        raise ValueError(f"{path}: not a sequence of benchmark runs")
    return details, results


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, runs_a), (env_b, runs_b) = read_runs(argv[0]), read_runs(argv[1])
    backends = {d["env"]["backend"] for d in env_a + env_b}
    if len(backends) > 1:
        print(f"refusing to compare results of different kernels backends: {sorted(backends)}", file=sys.stderr)
        return 1
    workloads = {d["workload"] for d in env_a + env_b}
    if len(workloads) > 1:
        print(f"refusing to compare different workloads: {sorted(workloads)}", file=sys.stderr)
        return 1
    for name in sorted(runs_a[0]["metrics"]):
        a = [r["metrics"][name]["value"] for r in runs_a if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r in runs_b if name in r["metrics"]]
        if not a or not b:
            continue
        (a1, am, a3), (b1, bm, b3) = summary(a), summary(b)
        change = f"{(bm - am) / am:+.1%}" if am else "n/a"
        print(f"{name:48s} {am:12.4g} [{a1:.4g}, {a3:.4g}]  {bm:12.4g} [{b1:.4g}, {b3:.4g}]  {change}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
