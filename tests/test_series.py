import contextlib
import gc
import itertools
from collections import Counter
import random
import weakref
from operator import add, le

import pytest
from hypothesis import assume, given, settings

from newtonsing import series
from newtonsing.errors import BudgetExceeded, KindMismatch, NotNegativeDefinite, NotTree
from newtonsing.graph import PlumbingGraph
from newtonsing.invariants import SingularityModel
from newtonsing.newton import Support
from newtonsing.errors import NewtonsingError
from newtonsing.newton import is_convenient
from newtonsing.sequences import fill_cycle, kind1_context, run_sequence
from newtonsing.series import _vertex_factor, counting_q, enumerate_P, zeta_coefficient, zeta_coefficient_convolution
from tests.conftest import FRONT_PAGE, ZETA_HEAVY, brieskorn, model_for
from tests.oracles import ReducedCount, coordinate_bounds, enumerate_P_full_rows, scaled_duals, steps, wt_cycle, zeta_search
from tests.test_newton import convenient_supports, random_supports

# node-free graphs: chains by their b values, single vertices among them
CHAINS = [[2], [3], [2, 2], [2, 2, 2], [3, 2, 3], [2, 3, 2, 4], [5, 2], [1], [1, 3], [2, 2, 2, 2], [2, 2, 2, 2, 2]]


def at_nodes(g, cycle):
    """A cycle's values at the nodes: what `counting_q` takes per target."""
    return tuple(cycle[n] for n in g.nodes)


def node_chain(m):
    """Kind I's node values before each step, then Z_K's: the targets
    `verify`'s series suite passes."""
    g = m.minimal
    return m.sequence("I").node_values() + [at_nodes(g, m.zk_minimal)]


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
    assert counting_q(g, [(0,) * len(g.nodes)]) == [0]
    assert counting_q(g, [at_nodes(g, m.zk_minimal)]) == [1]  # p_g
    assert counting_q(g, []) == []


def test_counting_q_rejects_targets_that_are_not_node_values():
    # a full cycle is not cut down to its first entries
    m = model_for(Support(FRONT_PAGE))
    g, zk = m.minimal, m.zk_minimal
    assert 0 < len(g.nodes) < g.nv
    with pytest.raises(ValueError, match="one value per node"):
        counting_q(g, [zk])
    with pytest.raises(ValueError, match="one value per node"):
        counting_q(g, [at_nodes(g, zk), at_nodes(g, zk)[:-1]])
    chain = PlumbingGraph([2, 2], [0, 0], [(0, 1)])
    with pytest.raises(ValueError, match="one value per node"):
        counting_q(chain, [(1, 1)])
    assert counting_q(chain, [(), ()]) == [0, 0]


def test_counting_q_takes_a_nondecreasing_chain_of_targets():
    # production callers pass [Z_K] or kind I's node values then Z_K's;
    # any list that is not a chain is refused, even one whose q are all 0
    m = model_for(Support(FRONT_PAGE))
    g = m.minimal
    zk = at_nodes(g, m.zk_minimal)
    first, second = (tuple(x - (i == j) for i, x in enumerate(zk)) for j in (0, 1))
    assert counting_q(g, [first, zk, zk]) == [counting_q(g, [first])[0], m.pg().value, m.pg().value]
    for targets in ([zk, first], [first, second], [(-1,) * len(zk), (-2,) * len(zk)]):
        with pytest.raises(ValueError, match="nondecreasing chain"):
            counting_q(g, targets)


def test_q_stepwise_smoke():
    m = model_for(brieskorn(3, 5, 7))
    g = m.minimal
    seq = m.sequence("I")
    chain = node_chain(m)
    for i, step in enumerate(steps(seq)):
        before, after = counting_q(g, [chain[i], chain[i + 1]])
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
    for st, pts in zip(steps(seq), rep.point_sets):
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
        wtf = wt_cycle(og, og.polyhedron.support.points)
        assert seq.reached == wtf


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
    q = counting_q(m.minimal, [at_nodes(m.minimal, m.zk_minimal)])
    assert q == [m.pg().value] == [56]


def test_q_budget_error(monkeypatch):
    # x^9 + y^9 + z^9 + x^5 y^3: the walk tries 505 node values, so it
    # answers p_g at that budget and stops one state below it
    m = SingularityModel(Support([(0, 0, 9), (0, 9, 0), (5, 3, 0), (9, 0, 0)]))
    zk = at_nodes(m.minimal, m.zk_minimal)
    monkeypatch.setattr(series, "COUNTING_STATES", 505)
    assert counting_q(m.minimal, [zk]) == [m.pg().value] == [56]
    monkeypatch.setattr(series, "COUNTING_STATES", 504)
    with pytest.raises(BudgetExceeded, match="counting function enumeration exceeded its state budget"):
        counting_q(m.minimal, [zk])


def test_zeta_paths_stop_at_their_budget(monkeypatch):
    # the product stops at its budget; the closed form needs none, and
    # agrees with the product run past it
    m = model_for(Support(ZETA_HEAVY[0]))
    top = [x + 1 for x in m.zk_minimal]
    with pytest.raises(BudgetExceeded, match="zeta budget"):
        zeta_coefficient_convolution(m.minimal, [top])
    monkeypatch.setattr(series, "ZETA_TERMS", 10**6)
    assert [zeta_coefficient(m.minimal, top)] == zeta_coefficient_convolution(m.minimal, [top])


def test_zeta_budget_message_names_the_budget_in_force(monkeypatch):
    m = model_for(Support(ZETA_HEAVY[0]))
    top = [x + 1 for x in m.zk_minimal]
    with pytest.raises(BudgetExceeded) as caught:
        zeta_coefficient_convolution(m.minimal, [top])
    assert str(caught.value) == "zeta budget exceeded: the expansion forms more than 100000 terms"
    monkeypatch.setattr(series, "ZETA_TERMS", 1000)
    with pytest.raises(BudgetExceeded) as caught:
        zeta_coefficient_convolution(m.minimal, [top])
    assert str(caught.value) == "zeta budget exceeded: the expansion forms more than 1000 terms"


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
        scaled = [sum((g.b[v] - 2) * g.data.row(v)[w] for v in range(g.nv)) for w in range(g.nv)]
        assert_zeta_paths_match_search(g, [-(-x // g.data.group_order) for x in scaled], rng)


def zeta_sum_below(g, target):
    """q at a full target cycle by brute force over the terms of
    Z_0(t) = prod_v (1 - t^{E_v^*})^{deg v - 2}: every exponent vector a
    whose vertex factors are not 0 and whose cycle l = sum_v a_v E_v^*
    stays in the target's full-witness box (`oracles.coordinate_bounds`),
    which holds every Lipman-cone cycle not >= the target.  The integral l
    that are not >= the target sum to q."""
    duals, scale = scaled_duals(g), g.data.group_order
    box = coordinate_bounds(duals, target)
    if box is None:
        return 0
    top = [x * scale for x in box]
    total = 0
    stack = [(0, (0,) * g.nv, 1)]
    while stack:
        v, l, weight = stack.pop()
        if v == g.nv:
            if all(x % scale == 0 for x in l) and any(x < t * scale for x, t in zip(l, target)):
                total += weight
            continue
        a = 0
        while all(map(le, l, top)):
            if factor := _vertex_factor(g.degree[v], a):
                stack.append((v + 1, l, weight * factor))
            elif g.degree[v] >= 2:
                break  # (1 - t)^(deg - 2) has no term past a = deg - 2
            a += 1
            l = tuple(map(add, l, duals[v]))
    return total


def assert_counting_q_matches_zeta_sum(g, targets, chain):
    """counting_q at every node vector of `targets` equals the brute-force
    zeta sum below its fill, one target at a time, and in one walk over
    `chain`, a nondecreasing chain of them."""
    expected = {z: zeta_sum_below(g, fill_cycle(g, z)) for z in targets}
    assert {z: counting_q(g, [z])[0] for z in targets} == expected
    assert counting_q(g, chain) == [expected[z] for z in chain]


def star_with_arm(b):
    """A node carrying the chain b as one arm, and a (-2)- and a (-3)-curve
    as its other two: the least node weight that keeps it definite."""
    k = len(b)
    edges = [(0, 1), (0, 2), (0, 3)] + [(3 + i, 4 + i) for i in range(k - 1)]
    for weight in range(1, 8):
        try:
            return PlumbingGraph([weight, 2, 3, *b], [0] * (k + 3), edges)
        except NotNegativeDefinite:
            pass
    raise AssertionError(f"no definite node weight for the arm {b}")


@pytest.mark.parametrize("b", CHAINS)
def test_counting_q_on_chains_matches_zeta_sum(b):
    # a chain has no node, so its only fill is 0 and q is 0 there; as the
    # arm of a node, q at the fills of the node values 0..3 is the sum of
    # zeta coefficients over the Lipman-cone cycles not >= the fill
    chain = PlumbingGraph(b, [0] * len(b), [(i, i + 1) for i in range(len(b) - 1)])
    assert counting_q(chain, [(), ()]) == [0, 0]
    targets = [(0,), (1,), (2,), (3,)]
    assert_counting_q_matches_zeta_sum(star_with_arm(b), targets, targets)


def test_counting_q_matches_zeta_sum_on_random_trees():
    trees = [g for g in random_definite_trees(random.Random(41)) if g.nodes]
    for g in trees:
        # node values up to 2, at most one of them 2: the brute force's box
        # grows fast with the node values
        k = len(g.nodes)
        targets = [z for z in itertools.product(range(3), repeat=k) if z.count(2) <= 1]
        assert_counting_q_matches_zeta_sum(g, targets, [(0,) * k, (1,) * k, (2,) + (1,) * (k - 1)])
    assert len(trees) >= 25


def test_counting_q_budget_on_a_chain(monkeypatch):
    # a node with the chains [2, 2, 2], [2, 2] and [2] as legs (E6): the
    # legs fold into the node's factor, so the walk tries the node values
    # 0..39 only, where a scan of the 7-dimensional box holds 9,836,640,000
    # cycles
    g = PlumbingGraph([2] * 7, [0] * 7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6)])
    monkeypatch.setattr(series, "COUNTING_STATES", 40)
    assert counting_q(g, [(40,)]) == [67]
    monkeypatch.setattr(series, "COUNTING_STATES", 39)
    with pytest.raises(BudgetExceeded, match="state budget"):
        counting_q(g, [(40,)])


def test_legs_never_branch_on_one_node_graphs(corpus, monkeypatch):
    # on a one-node graph every arm is a leg, so the walk tries the node
    # value alone: z_n states at the target z, one per value below it
    stars = [m for m in corpus if len(m.minimal.nodes) == 1]
    assert len(stars) >= 8
    for m in stars:
        g = m.minimal
        (zk,) = at_nodes(g, m.zk_minimal)
        for z in {zk, zk + 1, 2 * zk + 3} - {0}:
            expected = counting_q(g, [(z,)])
            with monkeypatch.context() as patched:
                patched.setattr(series, "COUNTING_STATES", z)
                assert counting_q(g, [(z,)]) == expected
                patched.setattr(series, "COUNTING_STATES", z - 1)
                with pytest.raises(BudgetExceeded, match="state budget"):
                    counting_q(g, [(z,)])


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
        assert g.nodes and counting_q(g, [at_nodes(g, zk)]) == [m.pg().value]
        assert [zeta_coefficient(g, zk)] == zeta_coefficient_convolution(g, [zk])
        del g
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def shared_walk_targets(zk, rng):
    """A nondecreasing chain of node values: two with no positive entry,
    whose box is empty, 0 twice, six random raises of one node each up to
    zk + 1 (the first raises one node alone), their max with zk, and
    zk + 1 twice."""
    top = [x + 1 for x in zk]
    k = len(top)
    targets = [tuple(-x for x in top), (-1,) * k, (0,) * k, (0,) * k]
    z = [0] * k
    for _ in range(6 if k else 0):
        v = rng.randrange(k)
        z[v] = rng.randint(z[v], top[v])
        targets.append(tuple(z))
    return targets + [tuple(map(max, z, zk)), tuple(top), tuple(top)]


def assert_shared_walks_match_single_targets(m, rng):
    g, zk = m.minimal, m.zk_minimal
    targets = shared_walk_targets(at_nodes(g, zk), rng)
    assert counting_q(g, targets) == [counting_q(g, [z])[0] for z in targets]
    cycles = zeta_targets(g, zk, rng)
    conv = zeta_coefficient_convolution(g, cycles)
    assert conv == [zeta_coefficient_convolution(g, [lp])[0] for lp in cycles]
    assert conv == [zeta_coefficient(g, lp) for lp in cycles]


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


def node_box(g, targets):
    """The walk's box: ub_w = max over nodes n with z_n > 0 of
    G_ww (z_n - 1) // G_wn at the componentwise max z of the targets, or
    None when no node value is positive."""
    witnesses = [(n, z) for n, z in zip(g.nodes, map(max, zip(*targets))) if z > 0]
    if not witnesses:
        return None
    return [max(row[w] * (z - 1) // row[n] for n, z in witnesses) for w, row in enumerate(scaled_duals(g))]


def compare_walk_with_oracle(g, targets, budget=10**6):
    """Assert that the walk over node values gives the totals of the
    generator walk of `oracles.ReducedCount`, which branches on every leg
    and chain vertex and compares each leaf at every vertex with the
    targets' full fills.  The oracle runs over the walk's node box at every
    vertex and, when that finishes within `budget`, over the fills' larger
    full-witness box.  Returns whether the oracle finished within `budget`
    on the node box."""
    targets = [tuple(z) for z in targets]
    box = node_box(g, targets)
    if box is None:
        assert counting_q(g, targets) == [0] * len(targets)
        return True
    fills = [fill_cycle(g, z) for z in targets]
    try:
        totals = ReducedCount(g, fills, box, budget).run()
    except BudgetExceeded:
        return False
    assert counting_q(g, targets) == totals
    duals = scaled_duals(g)
    full = [b for b in (coordinate_bounds(duals, t) for t in fills) if b is not None]
    wide = ReducedCount(g, fills, [max(col) for col in zip(*full)], budget)
    with contextlib.suppress(BudgetExceeded):
        assert wide.run() == totals
    return True


def test_walk_matches_oracle_on_corpus(corpus):
    rng = random.Random(37)
    for m in corpus:
        g, zk = m.minimal, at_nodes(m.minimal, m.zk_minimal)
        if 0 < g.nv <= 14:
            for targets in ([zk], node_chain(m), shared_walk_targets(zk, rng)):
                assert compare_walk_with_oracle(g, targets)


@given(convenient_supports())
@settings(max_examples=40)
def test_walk_matches_oracle_on_generated_supports(support):
    m = SingularityModel(support)
    assume(m.polyhedron.compact_faces and m.is_rhs and m.minimal.nv > 0)
    g, zk = m.minimal, at_nodes(m.minimal, m.zk_minimal)
    for targets in ([zk], shared_walk_targets(zk, random.Random(str(support.points)))):
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
        if not g.nodes:
            # a graph without nodes has only the fill 0
            assert counting_q(g, [()]) == [0]
            continue
        z = tuple(rng.randint(0, 2) for _ in g.nodes)
        for targets in ([z], shared_walk_targets(z, rng)):
            # a few boxes hold far more states than the budget: those only
            # check that both walks stop at it
            completed.append(compare_walk_with_oracle(g, targets, budget=20_000))
    assert sum(bool(g.nodes) for g in graphs) >= 25 and sum(completed) >= 50


@given(convenient_supports())
@settings(max_examples=40)
def test_chain_targets_match_the_all_targets_loop(support):
    """Kind I's node values, with a leading target that has no positive
    entry and every other one repeated, stay a nondecreasing chain: the
    walk's bisection per leaf must give the totals of the oracle, which
    tests each leaf against every target."""
    m = SingularityModel(support)
    assume(m.polyhedron.compact_faces and m.is_rhs and m.minimal.nodes)
    g = m.minimal
    targets = [(-1,) * len(g.nodes)] + [z for i, z in enumerate(node_chain(m)) for _ in range(1 + i % 2)]
    assert all(x <= y for s, t in zip(targets, targets[1:]) for x, y in zip(s, t))
    assert compare_walk_with_oracle(g, targets)


def test_enumerate_P_reads_node_rows_only():
    """On generated supports, non-convenient ones among them, the sets P_i
    from the node rows and node values equal the full-row reference, for
    kind I on the Oka graph (as `verify` runs it), II and III."""
    seen = Counter()
    for support in random_supports(31, 300):
        m = SingularityModel(support)
        try:
            m.require_rhs()
            og = m.oka
            seqs = [run_sequence(kind1_context(og.graph, m.zk_oka)), m.sequence("II"), m.sequence("III")]
        except NewtonsingError:
            continue
        for seq in seqs:
            report = enumerate_P(og, seq)
            assert report == enumerate_P_full_rows(og, seq), (support, seq.kind)
            seen["points", seq.kind] += len(report.outside_points)
        seen["convenient", is_convenient(support)] += 1
    assert seen["convenient", True] >= 50 and seen["convenient", False] >= 30, seen
    assert all(seen["points", kind] for kind in ("I", "II", "III")), seen
