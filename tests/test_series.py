import random

import pytest

from newtonsing.errors import KindMismatch, NotTree
from newtonsing.graph import PlumbingGraph, intersection_data, wt_cycle
from newtonsing.invariants import SingularityModel
from newtonsing.newton import Support, brieskorn
from newtonsing.sequences import kind1_context, run_sequence
from newtonsing.series import (
    counting_q,
    enumerate_P,
    zeta_coefficient,
    zeta_coefficient_convolution,
)
from tests.conftest import FRONT_PAGE, model_for


def test_zeta_trivial_and_single_vertex():
    g = PlumbingGraph([1], [0], [])
    data = intersection_data(g)
    # dual cycle is E itself, so the geometric factor gives k+1 at k*E
    for k in range(6):
        assert zeta_coefficient(data, g, (k,)) == k + 1
    assert zeta_coefficient(data, g, (0,)) == 1


def test_zeta_zero_coefficient_outside_cone(corpus):
    # single E_v is never in the Lipman cone of a multi-vertex graph
    m = model_for(brieskorn(2, 3, 7))
    g = m.minimal
    data = intersection_data(g)
    for v in range(g.nv):
        lp = tuple(int(u == v) for u in range(g.nv))
        if any(g.dot_E(lp, w) > 0 for w in range(g.nv)):
            assert zeta_coefficient(data, g, lp) == 0


def test_zeta_two_paths_agree(corpus):
    rng = random.Random(23)
    for m in corpus:
        g = m.minimal
        if g.nv == 0 or g.nv > 14:
            continue
        data = intersection_data(g)
        zk = m.zk_minimal
        cycles = [tuple([0] * g.nv), zk, tuple(x + 1 for x in zk)]
        for _ in range(3):
            cycles.append(tuple(rng.randint(0, max(x, 1)) for x in zk))
        for lp in cycles:
            assert zeta_coefficient(data, g, lp) == zeta_coefficient_convolution(data, g, lp)


def test_not_tree_rejected():
    g = PlumbingGraph([3, 3], [0, 0], [(0, 1), (0, 1)])  # double edge: a cycle
    data = intersection_data(g)
    with pytest.raises(NotTree):
        zeta_coefficient(data, g, (0, 0))
    genus = PlumbingGraph([3], [1], [])
    with pytest.raises(NotTree):
        counting_q(intersection_data(genus), genus, (0,))


def test_q_basics():
    m = model_for(brieskorn(2, 3, 7))
    g = m.minimal
    data = intersection_data(g)
    assert counting_q(data, g, (0,) * g.nv) == 0
    assert counting_q(data, g, m.zk_minimal) == 1  # p_g


def test_q_stepwise_smoke():
    m = model_for(brieskorn(3, 5, 7))
    g = m.minimal
    data = intersection_data(g)
    seq = m.sequence("I")
    cycles = [s.Z for s in seq.steps] + [seq.reached]
    for i, step in enumerate(seq.steps):
        assert counting_q(data, g, cycles[i + 1]) - counting_q(data, g, cycles[i]) == step.a


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
        seq = m.sequence("II", max_ratio=1)
        rep = enumerate_P(og, seq, prefix_only=True)
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
    with pytest.raises(KindMismatch):
        enumerate_P(m1.oka, m1.sequence("II", max_ratio=1))


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
        seq = run_sequence(kind1_context(og.graph, og))
        rep = enumerate_P(og, seq)
        assert sum(len(s) for s in rep.point_sets) == seq.total == m.pg().value
        # when the Oka graph is already minimal, per-step sizes hold too
        from newtonsing.graph import minimal_model

        if minimal_model(og.graph) == og.graph:
            assert all(rep.sizes_match)


def test_q_on_many_legged_star():
    # x^8 + y^8 + z^9 plus monomials above: single node with eight unit
    # legs and |H| = 9^7; the reduced enumeration handles it instantly
    # (regression: the raw assignment search is astronomically large here)
    from newtonsing.invariants import SingularityModel
    from newtonsing.newton import Support

    m = SingularityModel(Support([(0, 0, 9), (0, 8, 0), (1, 3, 5), (5, 0, 4), (5, 1, 6), (5, 5, 5), (8, 0, 0)]))
    data = intersection_data(m.minimal)
    q = counting_q(data, m.minimal, m.zk_minimal)
    assert q == m.pg().value == 56


def test_q_budget_error():
    from newtonsing.errors import NewtonsingError
    from newtonsing.invariants import SingularityModel
    from newtonsing.newton import Support

    m = SingularityModel(Support([(0, 0, 9), (0, 9, 0), (5, 3, 0), (9, 0, 0)]))
    data = intersection_data(m.minimal)
    with pytest.raises(NewtonsingError):
        counting_q(data, m.minimal, m.zk_minimal, max_states=10_000)
