"""One measured process of the benchmark; `run.py` starts it.

It imports the program and makes the workload's input documents, then
calls `newtonsing.cli.main(argv)` in a closed loop (one client, no threads)
and checks every output.  Each request reads its document from standard
input (the CLI's `-` argument), so no file system time enters a
measurement.  It prints one JSON object as its last line.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 25 --trace 0
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")

# latency_p90_ms needs at least ten samples beyond it.
P90_MIN_REQUESTS = 100


def request_key(args, doc):
    """Names a request by its content, so a digest applies on every seed
    that generates the same request."""
    return hashlib.sha256(json.dumps([args, doc], sort_keys=True).encode()).hexdigest()[:16]


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def call(cli, argv, document):
    """(exit code, stdout, seconds inside cli.main, traceback or None) of
    one request that reads the JSON text `document` from standard input."""
    out, err = io.StringIO(), io.StringIO()
    tb = None
    stdin, sys.stdin = sys.stdin, io.StringIO(document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # an escape from the CLI's error contract is a failed request
                code = None
                tb = traceback.format_exc()
            elapsed = time.perf_counter() - t0
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), elapsed, tb


def check(args, code, stdout, expected):
    """Why the output is wrong, or None when it is right."""
    if code not in (0, 1):
        return f"exit code {code}"
    first, _, rest = stdout.partition("\n")
    try:
        report = json.loads(first)
    except ValueError:
        return "stdout does not start with a JSON report"
    if not isinstance(report, dict) or rest.strip():
        return "stdout is not exactly one JSON report"
    if code == 1 and "error" not in report and args[0] != "verify":
        return "exit code 1 without an error report"
    if not all(report.get("oracles", {}).values()):
        return "an oracle disagrees"
    if args[0] == "verify" and "result" in report and not report["result"]["passed"]:
        return "verify did not pass"
    if expected is not None and hashlib.sha256(stdout.encode()).hexdigest() != expected:
        return "stdout differs from the recorded digest"
    return None


class Loop:
    """The closed loop over one workload's requests, with its checks."""

    def __init__(self, cli, docs, requests, texts, expected):
        self.cli = cli
        self.docs = docs
        self.requests = requests
        self.texts = texts
        self.expected = expected  # request index -> digest, or None
        self.attempted = 0
        self.failures = []

    def run_pass(self, digests=None, tracer=None):
        """Run every request once; returns the per-request latencies.

        With `digests` (request index -> stdout digest of an earlier pass),
        each stdout must also equal that digest.  A tracer is told which
        request its spans belong to.
        """
        latencies = []
        seen = {}
        for n, (args, i) in enumerate(self.requests):
            if tracer is not None:
                tracer.request = n
            code, stdout, elapsed, tb = call(self.cli, ["-"] + list(args), self.texts[i])
            latencies.append(elapsed)
            seen[n] = hashlib.sha256(stdout.encode()).hexdigest()
            reason = tb or check(args, code, stdout, self.expected[n])
            if reason is None and digests is not None and digests[n] != seen[n]:
                reason = "stdout differs from the untraced run"
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{' '.join(args)} {self.docs[i]['name']}: {reason}")
        self.digests = seen
        return latencies


def end_to_end(passes):
    """Metrics of the untraced passes; `passes` holds each pass's latencies,
    request by request in the same order.

    Throughput is the requests of a pass over the median pass time.  A
    request's latency is the median of its times over the passes, which
    sets aside one slow pass.  The least would not do: on a shared machine
    it follows how often a request happens to run at full speed, and that
    changes more from one hour to the next than the typical speed does.
    """
    typical = [statistics.median(times) for times in zip(*passes)]
    metrics = {
        "throughput_rps": len(typical) / statistics.median(sum(p) for p in passes),
        "latency_p50_ms": statistics.median(typical) * 1e3,
    }
    if len(typical) >= P90_MIN_REQUESTS:
        metrics["latency_p90_ms"] = statistics.quantiles(typical, n=10)[8] * 1e3
    return metrics


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    from newtonsing import kernels

    return {
        "python": platform.python_version(),
        "NEWTONSING_PURE": os.environ.get("NEWTONSING_PURE", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "backend": getattr(kernels, "backend_name", "pure"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="accepted; the passes are fixed per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time set-up and stop")
    parser.add_argument("--spans", help="write the traced pass's spans to this file")
    args = parser.parse_args(argv)

    from newtonsing import cli

    docs, requests = workloads.build(args.workload, args.seed)
    texts = workloads.document_texts(docs)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorded = load_digests()
    keys = [request_key(a, docs[i]) for a, i in requests]
    if args.seed == workloads.DEFAULT_SEED:
        expected = [recorded.get(k, "missing") for k in keys]
    else:
        expected = [recorded.get(k) for k in keys]
    loop = Loop(cli, docs, requests, texts, expected)

    passes = [loop.run_pass() for _ in range(workloads.WORKLOADS[args.workload].passes)]
    out = {
        "env": environment(),
        "passes": len(passes),
        "pass_s": [sum(p) for p in passes],
        "latency_samples": len(requests),
        "setup_s": setup_s,
        "metrics": end_to_end(passes),
    }
    if args.trace:
        import tracing

        untraced = loop.digests
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = loop.run_pass(digests=untraced, tracer=tracer)
        layers = tracer.layer_metrics(sum(traced))
        layers["trace.overhead_frac"] = sum(traced) / statistics.median(sum(p) for p in passes) - 1
        out["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = loop.attempted
    out["failures"] = loop.failures
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
