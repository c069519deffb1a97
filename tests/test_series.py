import gc
import itertools
import random
import weakref

import pytest
from hypothesis import assume, given, settings

from newtonsing import series
from newtonsing.errors import BudgetExceeded, KindMismatch, NotNegativeDefinite, NotTree
from newtonsing.graph import PlumbingGraph, wt_cycle
from newtonsing.invariants import SingularityModel
from newtonsing.newton import Support
from newtonsing.sequences import kind1_context, run_sequence
from newtonsing.series import (
    _coordinate_bounds,
    counting_q,
    enumerate_P,
    zeta_coefficient,
    zeta_coefficient_convolution,
)
from tests.conftest import FRONT_PAGE, ZETA_HEAVY, brieskorn, model_for
from tests.oracles import ReducedCount, zeta_search
from tests.test_newton import convenient_supports

# node-free graphs: chains by their b values, single vertices among them
CHAINS = [[2], [3], [2, 2], [2, 2, 2], [3, 2, 3], [2, 3, 2, 4], [5, 2], [1], [1, 3], [2, 2, 2, 2], [2, 2, 2, 2, 2]]


def test_zeta_trivial_and_single_vertex():
    g = PlumbingGraph([1], [0], [])
    # dual cycle is E itself, so the geometric factor gives k+1 at k*E
    for k in range(6):
        assert zeta_coefficient(g, (k,)) == k + 1
    assert zeta_coefficient(g, (0,)) == 1


def test_zeta_zero_coefficient_outside_cone(corpus):
    # single E_v is never in the Lipman cone of a multi-vertex graph
    m = model_for(brieskorn(2, 3, 7))
    g = m.minimal
    for v in range(g.nv):
        lp = tuple(int(u == v) for u in range(g.nv))
        if any(g.dot_E(lp, w) > 0 for w in range(g.nv)):
            assert zeta_coefficient(g, lp) == 0


def test_zeta_two_paths_agree(corpus):
    rng = random.Random(23)
    for m in corpus:
        g = m.minimal
        if g.nv == 0 or g.nv > 14:
            continue
        zk = m.zk_minimal
        cycles = [tuple([0] * g.nv), zk, tuple(x + 1 for x in zk)]
        for _ in range(3):
            cycles.append(tuple(rng.randint(0, max(x, 1)) for x in zk))
        for lp in cycles:
            assert [zeta_coefficient(g, lp)] == zeta_coefficient_convolution(g, [lp])


def test_not_tree_rejected():
    g = PlumbingGraph([3, 3], [0, 0], [(0, 1), (0, 1)])  # double edge: a cycle
    with pytest.raises(NotTree):
        zeta_coefficient(g, (0, 0))
    genus = PlumbingGraph([3], [1], [])
    with pytest.raises(NotTree):
        counting_q(genus, [(0,)])
    with pytest.raises(NotTree):
        zeta_coefficient_convolution(genus, [(0,)])


def test_q_basics():
    m = model_for(brieskorn(2, 3, 7))
    g = m.minimal
    assert counting_q(g, [(0,) * g.nv]) == [0]
    assert counting_q(g, [m.zk_minimal]) == [1]  # p_g
    assert counting_q(g, []) == []


def test_q_stepwise_smoke():
    m = model_for(brieskorn(3, 5, 7))
    g = m.minimal
    seq = m.sequence("I")
    cycles = seq.cycles()
    for i, step in enumerate(seq.steps):
        after, before = counting_q(g, [cycles[i + 1], cycles[i]])
        assert after - before == step.a


def test_enumerate_P_237():
    m = model_for(brieskorn(2, 3, 7))
    og = m.oka
    seq = m.sequence("III")
    rep = enumerate_P(og, seq)
    assert rep.sizes_match == [True]
    # kind III sees the positive point (1,1,1) shifted to the origin
    assert rep.point_sets[0] == {(0, 0, 0)} == rep.outside_points
    assert sum(len(s) for s in rep.point_sets) == 1 == m.pg().value
    # a_i = 0 <=> P_i empty
    for st, pts in zip(seq.steps, rep.point_sets):
        assert (st.a == 0) == (not pts)


def test_enumerate_P_kind2_prefix(corpus):
    for m in corpus[:5]:
        og = m.oka
        seq = m.sequence("II")
        rep = enumerate_P(og, seq)
        assert all(rep.sizes_match)
        union = set().union(*rep.point_sets) if rep.point_sets else set()
        assert union == rep.outside_points
        # the prefix partitions the complement of the wt(f) polyhedron
        wtf = wt_cycle(og, og.support.points)
        assert seq.cycles()[-1] == wtf


def test_enumerate_P_requires_matching_graph():
    m1 = model_for(brieskorn(2, 3, 7))
    m2 = model_for(brieskorn(2, 3, 5))
    seq = m1.sequence("III")
    with pytest.raises(KindMismatch):
        enumerate_P(m2.oka, seq)


def test_enumerate_P_accepts_kind1_on_an_already_minimal_oka_graph():
    m = SingularityModel(Support(FRONT_PAGE))
    assert m.minimal is m.oka.graph
    rep = enumerate_P(m.oka, m.sequence("I"))
    assert sum(len(s) for s in rep.point_sets) == m.pg().value
    other = SingularityModel(brieskorn(2, 3, 7))
    with pytest.raises(KindMismatch):
        enumerate_P(m.oka, other.sequence("I"))


def test_kind1_totals_on_oka_graph(corpus):
    for m in corpus[:6]:
        og = m.oka
        seq = run_sequence(kind1_context(og.graph, m.zk_oka))
        rep = enumerate_P(og, seq)
        assert sum(len(s) for s in rep.point_sets) == seq.total == m.pg().value
        # when the Oka graph is already minimal, per-step sizes hold too
        from newtonsing.graph import minimal_model

        if minimal_model(og.graph)[0] == og.graph:
            assert all(rep.sizes_match)


def test_q_on_many_legged_star():
    # x^8 + y^8 + z^9 plus monomials above: single node with eight unit
    # legs and |H| = 9^7; the reduced enumeration handles it instantly
    # (regression: the raw assignment search is astronomically large here)
    from newtonsing.invariants import SingularityModel
    from newtonsing.newton import Support

    m = SingularityModel(Support([(0, 0, 9), (0, 8, 0), (1, 3, 5), (5, 0, 4), (5, 1, 6), (5, 5, 5), (8, 0, 0)]))
    q = counting_q(m.minimal, [m.zk_minimal])
    assert q == [m.pg().value] == [56]


def test_q_budget_error():
    from newtonsing.invariants import SingularityModel
    from newtonsing.newton import Support

    m = SingularityModel(Support([(0, 0, 9), (0, 9, 0), (5, 3, 0), (9, 0, 0)]))
    with pytest.raises(BudgetExceeded, match="state budget"):
        counting_q(m.minimal, [m.zk_minimal], max_states=10_000)


def test_zeta_paths_stop_at_their_budget(monkeypatch):
    # the product stops at its budget; the closed form needs none, and
    # agrees with the product run past it
    m = model_for(Support(ZETA_HEAVY[0]))
    top = [x + 1 for x in m.zk_minimal]
    with pytest.raises(BudgetExceeded, match="zeta budget"):
        zeta_coefficient_convolution(m.minimal, [top])
    monkeypatch.setattr(series, "ZETA_TERMS", 10**6)
    assert [zeta_coefficient(m.minimal, top)] == zeta_coefficient_convolution(m.minimal, [top])


def zeta_targets(g, zk, rng):
    """0, Z_K, Z_K + E, random cycles below Z_K + E, each E_v, and cycles
    with negative entries."""
    top = [x + 1 for x in zk]
    targets = [(0,) * g.nv, tuple(zk), tuple(top)]
    targets += [tuple(rng.randint(0, max(x, 0)) for x in top) for _ in range(4)]
    targets += [tuple(int(u == v) for u in range(g.nv)) for v in range(g.nv)]
    targets += [(-1,) * g.nv, tuple(x - 2 * (v == 0) for v, x in enumerate(top))]
    return targets


def assert_zeta_paths_match_search(g, zk, rng):
    targets = zeta_targets(g, zk, rng)
    searched = [zeta_search(g, lp) for lp in targets]
    assert [zeta_coefficient(g, lp) for lp in targets] == searched
    assert zeta_coefficient_convolution(g, targets) == searched


def test_zeta_paths_match_search_on_corpus(corpus):
    rng = random.Random(43)
    for m in corpus:
        if 0 < m.minimal.nv <= 14:
            assert_zeta_paths_match_search(m.minimal, m.zk_minimal, rng)


def test_zeta_paths_match_search_on_chains_and_trees():
    # CHAINS hold the single vertices (k = -2); Z_K is rounded up where it
    # is not integral
    rng = random.Random(47)
    for g in random_definite_trees(random.Random(41)):
        # Z_K = sum_v (b_v - 2) E_v^*
        scaled = [sum((g.b[v] - 2) * row[w] for v, row in enumerate(g.data.scaled_duals)) for w in range(g.nv)]
        assert_zeta_paths_match_search(g, [-(-x // g.data.group_order) for x in scaled], rng)


@pytest.mark.parametrize("b", CHAINS)
def test_counting_q_on_chains_matches_zeta_sum(b):
    # node-free graphs are rooted at an end; compare the count with the sum
    # of zeta coefficients over the integral cycles of the bounding box that
    # lie below the target in some coordinate
    g = PlumbingGraph(b, [0] * len(b), [(i, i + 1) for i in range(len(b) - 1)])
    bounds = {t: _coordinate_bounds(g.data.scaled_duals, t) for t in itertools.product(range(4), repeat=g.nv)}
    top = [max(ub[v] for ub in bounds.values() if ub) for v in range(g.nv)]
    # zeta terms lie in the Lipman cone: a_v = -(l, E_v) >= 0 at every vertex
    cone = (
        lp
        for lp in itertools.product(*(range(u + 1) for u in top))
        if all(g.dot_E(lp, v) <= 0 for v in range(g.nv))
    )
    terms = [(lp, z) for lp in cone if (z := zeta_coefficient(g, lp))]
    for target, ub in bounds.items():
        expected = sum(
            z
            for lp, z in terms
            if ub is not None
            and all(x <= u for x, u in zip(lp, ub))
            and any(x < t for x, t in zip(lp, target))
        )
        assert counting_q(g, [target]) == [expected]


def test_counting_q_budget_on_a_chain():
    # the chain's first value is bracketed by the end's congruence floor and
    # a_n >= 0, so 3,740 states suffice where a box scan of two free values
    # needs 10,795
    g = PlumbingGraph([2, 2, 2], [0, 0, 0], [(0, 1), (1, 2)])
    assert counting_q(g, [(43, 43, 43)], max_states=10_000) == [1849]


def test_counting_leaves_no_reference_cycles():
    """Once the caller drops a graph, nothing that counting_q or
    zeta_coefficient made keeps it alive for the cyclic collector."""
    m = model_for(Support(FRONT_PAGE))
    zk = m.zk_minimal
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = PlumbingGraph(m.minimal.b, m.minimal.genus, m.minimal.edges)
        ref = weakref.ref(g)
        assert g.nodes and counting_q(g, [zk]) == [m.pg().value]
        assert [zeta_coefficient(g, zk)] == zeta_coefficient_convolution(g, [zk])
        del g
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def shared_walk_targets(g, zk, rng):
    """Targets that form no chain: 0 and Z_K + E (both twice), Z_K, random
    cycles below Z_K + E, one coordinate raised alone, and cycles with no
    positive entry, whose box is None."""
    top = [x + 1 for x in zk]
    targets = [(0,) * g.nv, tuple(top), tuple(zk), (0,) * g.nv, tuple(top)]
    targets += [tuple(rng.randint(0, x) for x in top) for _ in range(6)]
    targets += [tuple(top[v] * (w == v) for w in range(g.nv)) for v in (0, g.nv - 1)]
    targets += [(-1,) * g.nv, tuple(-x for x in top)]
    assert _coordinate_bounds(g.data.scaled_duals, targets[-1]) is None
    return targets


def assert_shared_walks_match_single_targets(m, rng):
    g, zk = m.minimal, m.zk_minimal
    targets = shared_walk_targets(g, zk, rng)
    assert counting_q(g, targets) == [counting_q(g, [lp])[0] for lp in targets]
    conv = zeta_coefficient_convolution(g, targets)
    assert conv == [zeta_coefficient_convolution(g, [lp])[0] for lp in targets]
    assert conv == [zeta_coefficient(g, lp) for lp in targets]


def test_shared_walks_match_single_targets_on_corpus(corpus):
    rng = random.Random(29)
    for m in corpus:
        if 0 < m.minimal.nv <= 14:
            assert_shared_walks_match_single_targets(m, rng)


@given(convenient_supports())
@settings(max_examples=60)
def test_shared_walks_match_single_targets_on_generated_supports(support):
    m = SingularityModel(support)
    assume(m.polyhedron.compact_faces and m.is_rhs and m.minimal.nv > 0)
    assert_shared_walks_match_single_targets(m, random.Random(str(support.points)))


def compare_walk_with_oracle(g, targets, budget=10**6):
    """Assert that the walk and the generator walk of `oracles.ReducedCount`
    give equal totals and an equal state count: the walk answers at exactly
    the oracle's count and raises BudgetExceeded one state below it.  When
    the oracle passes `budget`, the walk must too.  Returns whether the
    oracle finished within `budget`."""
    targets = [tuple(t) for t in targets]
    boxes = [b for b in (_coordinate_bounds(g.data.scaled_duals, t) for t in targets) if b is not None]
    if not boxes:
        assert counting_q(g, targets) == [0] * len(targets)
        return True
    oracle = ReducedCount(g, targets, [max(col) for col in zip(*boxes)], budget)
    try:
        totals = oracle.run()
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded, match="state budget"):
            counting_q(g, targets, max_states=budget)
        return False
    assert counting_q(g, targets, max_states=oracle.states) == totals
    with pytest.raises(BudgetExceeded, match="state budget"):
        counting_q(g, targets, max_states=oracle.states - 1)
    return True


def test_walk_matches_oracle_on_corpus(corpus):
    rng = random.Random(37)
    for m in corpus:
        g, zk = m.minimal, m.zk_minimal
        if 0 < g.nv <= 14:
            for targets in ([zk], m.sequence("I").cycles(), shared_walk_targets(g, zk, rng)):
                assert compare_walk_with_oracle(g, targets)


@given(convenient_supports())
@settings(max_examples=40)
def test_walk_matches_oracle_on_generated_supports(support):
    m = SingularityModel(support)
    assume(m.polyhedron.compact_faces and m.is_rhs and m.minimal.nv > 0)
    g, zk = m.minimal, m.zk_minimal
    for targets in ([zk], shared_walk_targets(g, zk, random.Random(str(support.points)))):
        assert compare_walk_with_oracle(g, targets)


def random_definite_trees(rng):
    """The chains of CHAINS, then 60 random negative definite trees of at
    most 7 vertices."""
    graphs = [PlumbingGraph(b, [0] * len(b), [(i, i + 1) for i in range(len(b) - 1)]) for b in CHAINS]
    while len(graphs) < len(CHAINS) + 60:
        nv = rng.randint(1, 7)
        edges = [(rng.randrange(v), v) for v in range(1, nv)]
        degree = [sum(v in e for e in edges) for v in range(nv)]
        try:
            graphs.append(PlumbingGraph([max(1, d + rng.choice((0, 1, 1, 2))) for d in degree], [0] * nv, edges))
        except NotNegativeDefinite:
            pass
    return graphs


def test_walk_matches_oracle_on_random_definite_trees():
    rng = random.Random(41)
    graphs = random_definite_trees(rng)
    completed = []
    for g in graphs:
        cycle = tuple(rng.randint(0, 2) for _ in range(g.nv))
        for targets in ([cycle], shared_walk_targets(g, cycle, rng)):
            # a few boxes hold far more states than the budget: those only
            # check that both walks stop at it
            completed.append(compare_walk_with_oracle(g, targets, budget=20_000) and bool(g.nodes))
    assert sum(bool(g.nodes) for g in graphs) >= 25 and sum(completed) >= 50


@given(convenient_supports())
@settings(max_examples=40)
def test_chain_targets_match_the_all_targets_loop(support):
    """Kind I's cycles, with a leading target that has no positive entry
    and every other cycle repeated, stay a nondecreasing chain: the walk's
    bisection per leaf must give the oracle's all-targets totals."""
    m = SingularityModel(support)
    assume(m.polyhedron.compact_faces and m.is_rhs and m.minimal.nv > 0)
    g = m.minimal
    cycles = m.sequence("I").cycles()
    targets = [(-1,) * g.nv] + [c for i, c in enumerate(cycles) for _ in range(1 + i % 2)]
    assert all(x <= y for s, t in zip(targets, targets[1:]) for x, y in zip(s, t))
    assert compare_walk_with_oracle(g, targets)
