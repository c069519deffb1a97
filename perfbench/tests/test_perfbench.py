"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import re
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from newtonsing import cli  # noqa: E402


def test_generator_is_deterministic():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
        assert workloads.build(name, 5) != workloads.build(name, 6)
        docs, _ = workloads.build(name, 5)
        assert workloads.document_texts(docs) == workloads.document_texts(workloads.build(name, 5)[0])


def test_drawn_supports_are_stratified():
    pairs = workloads.dealt_pairs(random.Random(3), range(8), range(4), 16)
    assert Counter(first for first, _ in pairs) == {first: 2 for first in range(8)}
    assert Counter(second for _, second in pairs) == {second: 4 for second in range(4)}
    assert len(set(pairs)) == len(pairs)
    fixed = [
        [d for d in workloads.build("sweep", seed)[0] if d["name"].startswith("nonconvenient-")] for seed in (5, 6)
    ]
    assert fixed[0] == fixed[1] and len(fixed[0]) == workloads.WORKLOADS["sweep"].nonconvenient


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.UNITS
    assert per_layer == tracing.metric_units()
    for name in list(end_to_end) + list(per_layer):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def _outputs(requests, texts):
    return [worker.call(cli, ["-"] + args, texts[i])[1] for args, i in requests]


def test_traced_run_restores_bindings_and_keeps_stdout(tmp_path):
    docs = workloads.corpus_documents()[:1] + [
        {"monomials": [[0, 0, 7], [0, 5, 0], [2, 0, 4], [6, 0, 0]], "name": "small"},
        {"monomials": [[0, 0, 4], [1, 1, 1], [5, 0, 0]], "name": "not-convenient"},
    ]
    texts = workloads.document_texts(docs)
    requests = [
        (args, i)
        for i in range(len(docs))
        for args in (["pg"], ["sw"], ["poincare"], ["graph", "--minimal"], ["verify"])
    ]
    untraced = _outputs(requests, texts)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as bindings:
        traced = _outputs(requests, texts)
        assert all(getattr(owner, name) is not original for owner, name, original in bindings)
    assert traced == untraced
    assert len(bindings) > len(tracing.LAYERS)
    assert all(getattr(owner, name) is original for owner, name, original in bindings)
    assert len(tracer.start) > len(requests)
    wall = sum(e - s for s, e, layer in zip(tracer.start, tracer.end, tracer.layer) if layer == 0)
    metrics = tracer.layer_metrics(wall)
    assert metrics["cli.main.calls"] == len(requests)
    assert metrics["cli.build_parser.calls"] == len(requests)
    assert 0 < metrics["trace.coverage"] < 1
    assert metrics["graph.intersection_data.calls"] > 0
    tracer.write_spans(tmp_path / "spans.jsonl")
    spans = [json.loads(line) for line in open(tmp_path / "spans.jsonl")]
    assert len(spans) == len(tracer.start)
    assert {s[0] for s in spans if s[3] == -1} == {"cli.main"}


def test_p90_only_for_passes_of_at_least_100_requests():
    small = [[0.001 * k for k in range(1, 100)]] * 2
    assert "latency_p90_ms" not in worker.end_to_end(small)
    large = [[0.001 * k for k in range(1, 101)], [0.002] * 100]
    metrics = worker.end_to_end(large)
    assert metrics["latency_p90_ms"] > metrics["latency_p50_ms"] > 0
