"""Seeded inputs of the benchmark workloads.

Every workload runs the 16-support corpus (a copy of the one the test suite
uses, so that the benchmark does not depend on test files) plus supports
drawn with `random.Random(seed)`; `sweep` adds non-convenient supports that
are the same on every seed.  A request is one CLI invocation: the
subcommand arguments and the index of its input document.
"""

import itertools
import json
import random
from collections import namedtuple

# Brieskorn exponents whose links are rational homology spheres.
BRIESKORN_RHS = [
    (2, 3, 5),
    (2, 3, 7),
    (2, 3, 8),
    (2, 3, 11),
    (2, 2, 3),
    (2, 4, 5),
    (2, 5, 7),
    (2, 7, 9),
    (3, 4, 5),
    (3, 5, 7),
]

FRONT_PAGE = [(4, 0, 0), (3, 2, 0), (0, 10, 0), (2, 0, 3), (0, 3, 4), (0, 0, 8)]

CORPUS_RANDOM = [
    [(0, 0, 7), (0, 5, 0), (2, 0, 4), (6, 0, 0)],
    [(0, 0, 4), (0, 7, 0), (1, 4, 0), (1, 4, 4), (4, 0, 0), (5, 1, 2)],
    [(0, 0, 6), (0, 6, 0), (1, 5, 3), (2, 0, 1), (4, 0, 0), (5, 5, 1)],
    [(0, 0, 5), (0, 6, 0), (1, 3, 0), (3, 1, 2), (6, 0, 0)],
    [(0, 0, 7), (0, 1, 1), (0, 3, 0), (2, 2, 1), (4, 5, 4), (7, 0, 0)],
]

# The seed the recorded output digests belong to, and one kept out of
# every measurement made while the benchmark or a change was tuned, for
# confirming a claimed gain.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# A support with a 43-vertex Oka graph: `pg` on it is the slowest request
# of `sweep`.  It is fixed rather than drawn, so every seed pays the same
# large-graph cost (drawn supports with exponents up to 12 reach graphs like
# it, but so rarely that the cost of a pass would depend on the seed).
LARGE_GRAPH = [(0, 0, 6), (0, 7, 0), (6, 0, 1), (7, 10, 11), (8, 0, 0), (11, 5, 7)]

Workload = namedtuple("Workload", "commands fixed nonconvenient count max_exponent passes")
"""Subcommand argument lists, fixed supports beyond the corpus, number of
fixed non-convenient supports, number of drawn supports, their largest
exponent, and the number of passes a run makes.

Drawn supports have all three axis monomials.  Whether a non-convenient
support is accepted decides whether its request is rejected within a few
milliseconds or runs `newton.make_convenient`, often the costliest path,
so the number accepted among drawn non-convenient supports moved the 90th
percentile of `sweep` by a fifth from seed to seed.  The non-convenient
supports are therefore drawn once, from NONCONVENIENT_SEED, and are the
same on every seed.  Each count of drawn supports is a multiple of the
number of axis-exponent triples (64, 27 and 8), so that every triple is
dealt equally often.  A run makes exactly `passes` passes, whatever its
`--seconds`, so a faster program gets no extra samples."""

WORKLOADS = {
    "sweep": Workload(
        [["diagram"], ["graph"], ["graph", "--minimal"], ["pg"], ["spectrum"], ["poincare"], ["sw"]],
        [LARGE_GRAPH],
        32,
        128,
        5,
        2,
    ),
    # Two truncations of the Poincare series besides the spectrum, so that
    # the median request is a box scan of middle size, not the boundary
    # between cheap and costly requests.
    "scan": Workload(
        [["poincare", "--max-exponent", "8"], ["poincare"], ["spectrum"]], [], 0, 162, 4, 2
    ),
    # Enough drawn supports that the 90th percentile falls among them rather
    # than in the sparse gap below the corpus's costly requests.  Exponents
    # up to 4 would put a step in the latencies: the one support in nine
    # whose axis exponents are a permutation of (3, 4, 4) costs about three
    # times the median, and the 90th percentile would sit on that step.
    "verify": Workload([["verify", "--suite", "all"]], [], 0, 256, 3, 2),
}

# The seed of the fixed non-convenient supports.
NONCONVENIENT_SEED = 0


def corpus_documents():
    docs = [
        {"monomials": [[a, 0, 0], [0, b, 0], [0, 0, c]], "name": f"brieskorn-{a}-{b}-{c}"}
        for a, b, c in BRIESKORN_RHS
    ]
    docs.append({"monomials": [list(p) for p in FRONT_PAGE], "name": "front-page"})
    docs.extend(
        {"monomials": [list(p) for p in pts], "name": f"corpus-random-{i}"}
        for i, pts in enumerate(CORPUS_RANDOM)
    )
    return docs


def dealt(rng, values, count):
    """`count` of `values`, each in the same number (the remainder drawn
    without repeats), shuffled."""
    values = list(values)
    items = values * (count // len(values)) + rng.sample(values, count % len(values))
    rng.shuffle(items)
    return items


def dealt_pairs(rng, firsts, seconds, count):
    """`count` pairs: the firsts dealt as by `dealt`, and the copies of a
    first given consecutive seconds in a cycle, so that each second comes
    in the same number too and no first keeps meeting the same second."""
    firsts, seconds = list(firsts), list(seconds)
    order = {v: k for k, v in enumerate(rng.sample(firsts, len(firsts)))}
    grouped = sorted(dealt(rng, firsts, count), key=order.__getitem__)
    offset = rng.randrange(len(seconds))
    pairs = [(f, seconds[(offset + j) % len(seconds)]) for j, f in enumerate(grouped)]
    rng.shuffle(pairs)
    return pairs


def random_monomials(rng, axes, exponents, size, max_exponent):
    """`size` distinct monomials: x_c^exponents[c] for each axis c in
    `axes`, the rest drawn from the box [0, max_exponent]^3."""
    points = set()
    for c in axes:
        p = [0, 0, 0]
        p[c] = exponents[c]
        points.add(tuple(p))
    while len(points) < size:
        p = tuple(rng.randint(0, max_exponent) for _ in range(3))
        if p != (0, 0, 0):
            points.add(p)
    return [list(p) for p in sorted(points)]


def nonconvenient_supports(count, max_exponent):
    """`count` supports lacking at least one axis monomial, drawn with
    NONCONVENIENT_SEED: each axis monomial is present with probability 0.8,
    and a draw that has all three is dropped."""
    rng = random.Random(NONCONVENIENT_SEED)
    supports = []
    while len(supports) < count:
        axes = [c for c in range(3) if rng.random() < 0.8]
        exponents = [rng.randint(2, max_exponent) for _ in range(3)]
        size = rng.randint(4, 7)
        if len(axes) < 3:
            supports.append(random_monomials(rng, axes, exponents, size, max_exponent))
    return supports


def build(workload, seed):
    """(documents, requests) of a workload; requests are (args, doc index)
    pairs in a seeded random order."""
    w = WORKLOADS[workload]
    rng = random.Random(seed)
    docs = corpus_documents()
    docs.extend({"monomials": [list(p) for p in pts], "name": f"large-{i}"} for i, pts in enumerate(w.fixed))
    docs.extend(
        {"monomials": pts, "name": f"nonconvenient-{i}"}
        for i, pts in enumerate(nonconvenient_supports(w.nonconvenient, w.max_exponent))
    )
    # The axis exponents and the number of monomials decide most of a
    # support's cost; dealing them keeps the tail of the latencies, and so
    # the 90th percentile, from following the seed.
    triples = itertools.product(range(2, w.max_exponent + 1), repeat=3)
    cells = dealt_pairs(rng, triples, range(4, 8), w.count)
    docs.extend(
        {"monomials": random_monomials(rng, range(3), e, size, w.max_exponent), "name": f"random-{i}"}
        for i, (e, size) in enumerate(cells)
    )
    requests = [(args, i) for i in range(len(docs)) for args in w.commands]
    rng.shuffle(requests)
    return docs, requests


def document_texts(docs):
    """The JSON text of each document, as a request reads it from standard
    input."""
    return [json.dumps(doc, sort_keys=True) for doc in docs]
