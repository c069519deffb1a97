import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from newtonsing.errors import BudgetExceeded, NewtonsingError
from newtonsing import invariants, sequences
from newtonsing.graph import x1x2x3_cycle
from newtonsing.invariants import SingularityModel
from newtonsing.newton import Support
from newtonsing.sequences import (
    SequenceContext,
    fill_cycle,
    kind1_context,
    kind2_context,
    kind3_context,
    laufer_x,
    run_sequence,
)
from tests.conftest import FRONT_PAGE, adjunction_solve, brieskorn, model_for
from tests.oracles import Step, chi, cycles, leg_vertices, puiseux, steps, wt_cycle, z_legs_cycle
from tests.test_newton import convenient_supports


def test_x_fixed_points_on_corpus(corpus):
    for m in corpus:
        og = m.oka
        g = og.graph
        zero = (0,) * g.nv
        assert laufer_x(g, zero) == zero
        wtf = wt_cycle(og, og.polyhedron.support.points)
        assert laufer_x(g, wtf) == wtf  # convenient diagram
        zk_e = tuple(x - 1 for x in m.zk_oka)
        expected = tuple(a + b for a, b in zip(zk_e, z_legs_cycle(g)))
        assert laufer_x(g, zk_e) == expected


def test_x_idempotent_and_monotone(corpus):
    rng = random.Random(17)
    for m in corpus[:6]:
        g = m.oka.graph
        zk = m.zk_oka
        for _ in range(40):
            z1 = [0] * g.nv
            z2 = [0] * g.nv
            for n in g.nodes:
                a = rng.randint(0, max(zk[n], 1))
                b = rng.randint(0, max(zk[n], 1))
                z1[n], z2[n] = min(a, b), max(a, b)
            x1 = laufer_x(g, tuple(z1))
            x2 = laufer_x(g, tuple(z2))
            assert laufer_x(g, x1) == x1  # idempotent
            assert all(p <= q for p, q in zip(x1, x2))  # monotone


def test_leg_vertices_front_page():
    og = model_for(Support(FRONT_PAGE)).oka
    g = og.graph
    legs = leg_vertices(g)
    # legs are exactly the chains that end at a coordinate face: the vertices
    # joined to a star-abutting vertex off the nodes
    expected, stack = set(), list(og.star_attach)
    while stack:
        v = stack.pop()
        if v not in expected and g.degree[v] < 3:
            expected.add(v)
            stack.extend(g.neighbors[v])
    assert legs == sorted(expected)
    assert sorted(og.ell[v] for v in legs) == [
        (2, 1, 2), (3, 2, 2), (4, 2, 3), (5, 3, 2), (8, 3, 6),
        (8, 4, 3), (11, 4, 7), (16, 6, 11), (24, 9, 16),
    ]


def test_sequence_counts_and_ratios(corpus):
    for m in corpus:
        for kind in ("I", "III"):
            seq = m.sequence(kind)
            target = seq.target
            nodes = seq.graph.nodes
            # for p_g = 0 diagrams kind III's target has negative node
            # coefficients and the sequence is empty
            assert len(seq.steps) == len(seq.pairings) == sum(max(0, target[n]) for n in nodes)
            ratios = [s.r for s in steps(seq)]
            assert all(a <= b for a, b in zip(ratios, ratios[1:]))
            assert all(0 <= r <= 1 for r in ratios)
            for n in nodes:
                assert seq.reached[n] == max(0, target[n])
            if kind == "I":
                assert seq.reached == seq.target


def test_step_budget_admits_exactly_the_steps_needed(front_page_model, monkeypatch):
    # the sum of the target's positive node values is the exact step count
    m = front_page_model
    ctx = kind1_context(m.minimal, m.zk_minimal)
    needed = sum(max(0, m.zk_minimal[n]) for n in m.minimal.nodes)
    monkeypatch.setattr(sequences, "SEQUENCE_STEPS", needed)
    assert len(run_sequence(ctx).steps) == needed
    monkeypatch.setattr(sequences, "SEQUENCE_STEPS", needed - 1)
    with pytest.raises(BudgetExceeded, match="sequence step budget"):
        run_sequence(ctx)


def replay_kind2(m, bound, tie_break):
    """Kind II continued past its first period by replaying the period's node
    pattern, one Laufer completion per step, while the ratio stays at most
    bound: the continuation the closed form replaces, kept as its oracle.
    Returns the steps, as `Step` records, and the full cycle before each."""
    seq = m.sequence("II", tie_break=tie_break)
    g, wtf = seq.graph, seq.target
    records = steps(seq)
    full = cycles(seq)[:-1]
    pattern = [s.v for s in records]
    k = len(pattern)
    z = seq.reached
    i = k
    while pattern:
        n = pattern[(i - k) % k]
        r = Fraction(z[n], wtf[n])
        if r > bound:
            break
        pairing = g.dot_E(z, n)
        records.append(Step(tuple(z[v] for v in g.nodes), n, max(0, -pairing + 1), r, pairing))
        full.append(z)
        bumped = list(z)
        bumped[n] += 1
        z = laufer_x(g, bumped)
        i += 1
    return records, full


@given(
    convenient_supports(),
    st.fractions(min_value=Fraction(1, 4), max_value=7, max_denominator=4),
    st.sampled_from(["min", "reversed"]),
)
@example(Support(FRONT_PAGE), Fraction(2), "min")
@settings(max_examples=100)
def test_kind2_periodicity(support, bound, tie_break):
    m = SingularityModel(support)
    assume(m.polyhedron.compact_faces and m.is_rhs)
    seq = m.sequence("II", tie_break=tie_break)
    wtf = seq.target
    k = len(seq.steps)
    assert k == sum(wtf[n] for n in seq.graph.nodes)
    assert seq.reached == wtf
    records, full = replay_kind2(m, bound, tie_break)
    for i in range(k, len(records)):
        assert records[i].v == records[i - k].v
        assert records[i].r == records[i - k].r + 1
        assert full[i] == tuple(a + b for a, b in zip(full[i - k], wtf))
    replayed = Counter()
    for step in records:
        if step.a and step.r <= bound:
            replayed[step.r] += step.a
    via_sequence = m.poincare_via_sequence(bound, tie_break=tie_break)
    assert via_sequence == puiseux(replayed)
    assert via_sequence == m.poincare_newton(bound)


def test_kind2_needs_a_convenient_diagram():
    # the raw Oka graph of a non-convenient support has a non-node vertex
    # with (wt(f), E_v) != 0, so its kind-II period does not shift by wt(f)
    m = SingularityModel(Support([(2, 1, 0), (0, 3, 0), (0, 0, 2)]))
    with pytest.raises(NewtonsingError, match="non-node"):
        kind2_context(m.oka_raw)
    # the model runs kind II on the convenient completion's Oka graph
    assert m.sequence("II").reached == m.sequence("II").target


def test_kind3_first_ratio_is_newton_weight():
    m = model_for(brieskorn(2, 3, 7))
    seq = m.sequence("III")
    assert [(s.r, s.a) for s in steps(seq)] == [(Fraction(41, 42), 1)]


def full_unit_step_path(ctx):
    """Replay the computation sequence one E_v at a time (nodes + Laufer)."""
    g = ctx.graph
    z = tuple([0] * g.nv)
    path = [z]
    picks = []
    while any(z[n] < ctx.target[n] for n in g.nodes):
        ratios = {n: _ratio(ctx, z, n) for n in g.nodes if z[n] < ctx.target[n]}
        least = min(ratios.values())
        pool = [n for n, r in ratios.items() if r == least]
        top = max(g.dot_E(z, n) for n in pool)
        n = min(p for p in pool if g.dot_E(z, p) == top)
        z = list(z)
        z[n] += 1
        picks.append(n)
        path.append(tuple(z))
        # explicit Laufer steps
        while True:
            for v in range(g.nv):
                if g.degree[v] < 3 and g.dot_E(z, v) > 0:
                    picks.append(v)
                    z = list(z)
                    z[v] += 1
                    path.append(tuple(z))
                    break
            else:
                break
        z = tuple(z)
    return path, picks


def test_full_path_chi_and_triviality():
    """Unit-step identities: chi increments match intersection numbers, the
    connecting Laufer steps are trivial, and the path Euler characteristic
    recovers p_g."""
    for support in (brieskorn(2, 3, 7), brieskorn(3, 5, 7)):
        m = model_for(support)
        ctx = kind1_context(m.minimal, m.zk_minimal)
        zk = adjunction_solve(m.minimal)
        path, picks = full_unit_step_path(ctx)
        assert path[-1] == zk
        total = 0
        for i, v in enumerate(picks):
            before, after = path[i], path[i + 1]
            inc = -ctx.graph.dot_E(before, v) + 1
            assert chi(ctx.graph, zk, after) - chi(ctx.graph, zk, before) == inc
            if ctx.graph.degree[v] < 3:  # connecting step: never contributes
                assert inc <= 0
            total += max(0, inc)
        assert total == m.pg().value


def test_chi_basics():
    m = model_for(brieskorn(2, 3, 7))
    g = m.minimal
    zk = adjunction_solve(g)
    zero = (0,) * g.nv
    assert chi(g, zk, zero) == 0
    assert chi(g, zk, zk) == 0


def test_tie_break_invariance_smoke(front_page_model):
    m = front_page_model
    base = m.pg().value
    from newtonsing.invariants import SingularityModel

    other = SingularityModel(m.support)
    assert other.pg(tie_break="reversed").value == base
    assert other.spectrum(tie_break="reversed") == m.spectrum()


def test_overshoot_guard():
    # kind I context on a non-minimal Oka graph completes past Z_K on
    # non-node vertices without raising (the oracle path)
    from tests.conftest import RANDOM_SUPPORTS

    m = model_for(Support(RANDOM_SUPPORTS[1]))
    og = m.oka
    seq = run_sequence(kind1_context(og.graph, m.zk_oka))
    assert all(seq.reached[n] == seq.target[n] for n in og.graph.nodes)
    assert seq.reached != seq.target
    assert all(a >= b for a, b in zip(seq.reached, seq.target))


# The Laufer-walk computation sequence, the oracle for the node-only
# `run_sequence`: the same ratio test, with one full Laufer completion per
# step, one `LauferStep` object per step holding its full cycle and its
# ratio as a Fraction, and the cycle reached.


@dataclass(frozen=True)
class LauferStep:
    Z: tuple  # cycle before the step
    v: int  # node incremented
    a: int  # max(0, (-Z, E_v) + 1)
    r: Fraction  # ratio of the chosen node


@dataclass(frozen=True)
class LauferWalk:
    steps: list  # LauferStep per node step
    reached: tuple


def _ratio(ctx: SequenceContext, z, n) -> Fraction:
    i = ctx.graph.nodes.index(n)
    return Fraction(z[n] + ctx.offsets[i], ctx.denominators[i])


def laufer_walk_sequence(ctx: SequenceContext, tie_break="min") -> LauferWalk:
    if tie_break not in ("min", "reversed"):
        raise ValueError(tie_break)
    graph = ctx.graph
    z = tuple([0] * graph.nv)
    walk = []
    guard = 0
    while True:
        eligible = [n for n in graph.nodes if z[n] < ctx.target[n]]
        if not eligible:
            break
        guard += 1
        if guard > 10**7:
            raise NewtonsingError("computation sequence failed to terminate")
        ratios = {n: _ratio(ctx, z, n) for n in eligible}
        best = min(ratios.values())
        pool = [n for n in eligible if ratios[n] == best]
        top = max(graph.dot_E(z, n) for n in pool)
        pool = [n for n in pool if graph.dot_E(z, n) == top]
        n = min(pool) if tie_break == "min" else max(pool)
        a = max(0, -graph.dot_E(z, n) + 1)
        walk.append(LauferStep(z, n, a, best))
        bumped = list(z)
        bumped[n] += 1
        z = laufer_x(graph, bumped)
    ratios = [s.r for s in walk]
    if any(b < a for a, b in zip(ratios, ratios[1:])):
        raise AssertionError("sequence ratios must be nondecreasing")
    return LauferWalk(walk, z)


def _outcome(run, ctx, tie_break):
    try:
        return run(ctx, tie_break)
    except (NewtonsingError, AssertionError) as exc:
        return type(exc), str(exc)


def assert_matches_laufer_walk(ctx, tie_break):
    """The node-only sequence's columns equal the Laufer walk step for step:
    nodes, a_i, r_i, pairings, node values and full cycles, the reached
    cycle, or the error.  Returns the error, or None."""
    new = _outcome(run_sequence, ctx, tie_break)
    old = _outcome(laufer_walk_sequence, ctx, tie_break)
    if isinstance(old, tuple):
        assert new == old
        return old
    g, walk = ctx.graph, old.steps
    assert len(new.steps) == len(new.pairings) == len(walk)
    assert [g.nodes[i] for i in new.steps] == [s.v for s in walk]
    assert list(new.increments()) == [s.a for s in walk] == [max(0, 1 - p) for p in new.pairings]
    assert [Fraction(k, new.denominator) for k in new.numerators()] == [s.r for s in walk]
    assert new.pairings == [g.dot_E(s.Z, s.v) for s in walk]
    assert new.node_values() == [tuple(s.Z[n] for n in g.nodes) for s in walk]
    assert cycles(new) == [s.Z for s in walk] + [old.reached]
    assert new.total == sum(s.a for s in walk)
    assert new.reached == old.reached and new.target == ctx.target
    assert (new.kind, new.graph) == (ctx.kind, g)
    return None


def model_contexts(m):
    """Every context a model runs: kind I on the minimal model and on the
    Oka graph (the oracle path), kinds II and III on the Oka graph."""
    og = m.oka
    return [
        kind1_context(m.minimal, m.zk_minimal),
        kind1_context(og.graph, m.zk_oka),
        kind2_context(og),
        kind3_context(og),
    ]


def test_node_only_sequence_matches_laufer_walk_on_corpus(corpus):
    kinds = Counter()
    for m in corpus:
        for ctx in model_contexts(m):
            for tie_break in ("min", "reversed"):
                assert assert_matches_laufer_walk(ctx, tie_break) is None
                kinds[ctx.kind, ctx.graph is m.oka.graph] += 1
    assert set(kinds) == {("I", True), ("I", False), ("II", True), ("III", True)}


@given(convenient_supports(), st.sampled_from(["min", "reversed"]))
@settings(max_examples=60)
def test_node_only_sequence_matches_laufer_walk_on_generated_supports(support, tie_break):
    m = SingularityModel(support)
    assume(m.polyhedron.compact_faces and m.is_rhs)
    for ctx in model_contexts(m):
        assert_matches_laufer_walk(ctx, tie_break)


def test_node_only_sequence_matches_laufer_walk_errors(monkeypatch):
    m = model_for(Support(FRONT_PAGE))
    g = m.minimal
    zk = tuple(int(x) for x in adjunction_solve(g))
    ctx = kind1_context(g, zk)
    # node values of Z_K but a chain coefficient off by one: both walks end
    # at Z_K, which the model refuses (below)
    off = list(zk)
    off[next(v for v in range(g.nv) if g.degree[v] < 3)] += 1
    off_target = replace(ctx, target=tuple(off))
    assert assert_matches_laufer_walk(off_target, "reversed") is None
    assert run_sequence(off_target).reached == zk
    # a nonpositive denominator is refused before the first step: no
    # pairing is ever read
    monkeypatch.setattr(sequences, "node_pairing", None)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="denominators must be positive"):
            run_sequence(replace(ctx, denominators=(bad,) + ctx.denominators[1:]))


def test_kind1_raises_a_node_with_canonical_value_one_at_ratio_zero():
    # on this Oka graph a node has Z_K,n = 1: Z_K,n - 1 = 0 is no
    # denominator, and the context puts 1 in its place
    m = model_for(Support([(0, 0, 7), (0, 1, 2), (0, 3, 0), (7, 0, 0)]))
    g = m.oka.graph
    ctx = kind1_context(g, m.zk_oka)
    ones = [i for i, n in enumerate(g.nodes) if m.zk_oka[n] == 1]
    assert ones and all(ctx.denominators[i] == 1 for i in ones)
    for tie_break in ("min", "reversed"):
        assert assert_matches_laufer_walk(ctx, tie_break) is None
        seq = run_sequence(ctx, tie_break)
        raised = [k for i, k in zip(seq.steps, seq.numerators()) if i in ones]
        assert raised == [0] * len(ones)


@pytest.mark.parametrize("kind", ["I", "II"])
def test_model_refuses_a_sequence_that_misses_its_target(kind, monkeypatch):
    # a chain coefficient off by one keeps the node values, so the sequence
    # runs as before, ends at the true target and misses this one
    name = {"I": "kind1_context", "II": "kind2_context"}[kind]
    real = getattr(invariants, name)

    def off_target(*args):
        ctx = real(*args)
        off = list(ctx.target)
        off[next(v for v in range(ctx.graph.nv) if ctx.graph.degree[v] < 3)] += 1
        return replace(ctx, target=tuple(off))

    monkeypatch.setattr(invariants, name, off_target)
    with pytest.raises(NewtonsingError, match="sequence did not reach its target cycle"):
        SingularityModel(Support(FRONT_PAGE)).sequence(kind)


def test_fill_cycle_is_the_laufer_completion(corpus):
    rng = random.Random(11)
    for m in corpus:
        for g in (m.oka.graph, m.minimal):
            for _ in range(10):
                z_nodes = tuple(rng.randint(0, 6) for _ in g.nodes)
                z = [0] * g.nv
                for n, value in zip(g.nodes, z_nodes):
                    z[n] = value
                assert fill_cycle(g, z_nodes) == laufer_x(g, tuple(z))


def assert_kind3_target_is_the_laufer_walk(og):
    zk_e = tuple(a - b for a, b in zip(wt_cycle(og, og.polyhedron.support.points), x1x2x3_cycle(og)))
    assert kind3_context(og).target == laufer_x(og.graph, zk_e)


def test_kind3_target_is_the_laufer_walk_on_corpus(corpus):
    for m in corpus:
        assert_kind3_target_is_the_laufer_walk(m.oka)


@given(convenient_supports())
@settings(max_examples=60)
def test_kind3_target_is_the_laufer_walk_on_generated_supports(support):
    m = SingularityModel(support)
    assume(m.polyhedron.compact_faces and m.is_rhs)
    assert_kind3_target_is_the_laufer_walk(m.oka)


def test_kind3_target_checks_the_start_lies_below_the_fill(monkeypatch):
    # x(Z) <= Z + 1 off the nodes, so raising Z_K - E by 2 at a chain vertex
    # puts it above the fill, where the fill is no longer Laufer's walk
    og = model_for(Support(FRONT_PAGE)).oka
    v = next(v for v in range(og.graph.nv) if og.graph.degree[v] < 3)
    shifted = list(x1x2x3_cycle(og))
    shifted[v] -= 2
    monkeypatch.setattr(sequences, "x1x2x3_cycle", lambda og: tuple(shifted))
    with pytest.raises(AssertionError, match="exceeds the chain fill"):
        kind3_context(og)
