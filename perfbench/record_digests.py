"""Record the SHA-256 of every request's stdout on the default seed.

    python3 perfbench/record_digests.py

Runs one pass of each workload and rewrites `digests.json`, which the
benchmark then holds every later run to.  Run it only at a commit whose
outputs are known to be right: it refuses to record a request that fails
the benchmark's other output checks.
"""

import json
import sys

import worker
import workloads
from newtonsing import cli


def main():
    digests = {}
    bad = []
    for name in sorted(workloads.WORKLOADS):
        docs, requests = workloads.build(name, workloads.DEFAULT_SEED)
        loop = worker.Loop(cli, docs, requests, workloads.document_texts(docs), [None] * len(requests))
        loop.run_pass()
        bad.extend(f"{name}: {failure}" for failure in loop.failures)
        for n, (args, i) in enumerate(requests):
            digests[worker.request_key(args, docs[i])] = loop.digests[n]
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(worker.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {worker.DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
