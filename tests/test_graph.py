import random
from fractions import Fraction

import numpy as np
import pytest

from newtonsing import cli
from newtonsing import graph as graph_module
from newtonsing.errors import NotNegativeDefinite
from newtonsing.graph import (
    PlumbingGraph,
    canonical_cycle,
    intersection_data,
    merle_teissier_ZK,
    minimal_cycle,
    minimal_model,
    oka_graph,
    wt_cycle,
    x1x2x3_cycle,
    zk_integer,
)
from newtonsing.invariants import SingularityModel
from newtonsing.newton import Support, brieskorn, make_convenient
from tests.conftest import FRONT_PAGE, tree_code


@pytest.fixture(scope="module")
def front_og():
    return oka_graph(Support(FRONT_PAGE))


def e8_graph():
    """Oka graph of x^2 + y^3 + z^5: star with legs of length 4, 2, 1, all -2."""
    return oka_graph(brieskorn(2, 3, 5)).graph


def test_front_page_graph(front_og):
    g = front_og.graph
    assert g.is_tree() and set(g.genus) == {0}
    by_ell = {front_og.ell[v]: v for v in range(g.nv)}
    # leg between the nodes (11,5,7) and (15,8,6)
    leg = by_ell[(2, 1, 1)]
    assert g.b[leg] == 13
    assert set(g.neighbors[leg]) == {front_og.node_ids[(11, 5, 7)], front_og.node_ids[(15, 8, 6)]}
    # bamboo toward the x3 coordinate face
    bam = next(
        b for b in front_og.bamboos if b.face_a == (32, 12, 21) and b.face_b == (0, 0, 1)
    )
    assert [front_og.ell[v] for v in bam.vertex_ids] == [(24, 9, 16), (16, 6, 11), (8, 3, 6)]
    assert [g.b[v] for v in bam.vertex_ids] == [2, 2, 2]
    # nodes (11,5,7) and (6,3,4) joined directly by the empty bamboo
    n1, n2 = front_og.node_ids[(11, 5, 7)], front_og.node_ids[(6, 3, 4)]
    assert (min(n1, n2), max(n1, n2)) in g.edges


def test_intersection_single_vertex():
    g = PlumbingGraph([2], [0], [])
    data = intersection_data(g)
    assert data.matrix == ((-2,),)
    assert data.group_order == 2
    assert data.dual_cycles == ((Fraction(1, 2),),)


def test_e8_unimodular():
    data = intersection_data(e8_graph())
    assert data.group_order == 1
    assert e8_graph().is_tree()


def test_duals_positive_on_corpus(corpus):
    for m in corpus:
        data = intersection_data(m.oka.graph)
        assert all(x > 0 for row in data.dual_cycles for x in row)
        # (E_v^*, E_w) = -delta exactly, and I * I^-1 is the identity
        g = m.oka.graph
        for v in range(g.nv):
            for w in range(g.nv):
                assert g.pairing(data.dual_cycles[v], [int(u == w) for u in range(g.nv)]) == -(
                    v == w
                )
                prod = sum(data.matrix[v][u] * data.inverse[u][w] for u in range(g.nv))
                assert prod == (v == w)


def fraction_gauss_jordan(matrix):
    """Gauss-Jordan inverse over Fractions, the oracle for the integer
    elimination: (det, inverse), or NotNegativeDefinite at the first
    symmetric pivot that is not negative."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        piv = a[k][k]
        if piv >= 0:
            raise NotNegativeDefinite(f"pivot {k} is {piv}")
        det *= piv
        for j in range(n):
            a[k][j] /= piv
            inv[k][j] /= piv
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                for j in range(n):
                    a[i][j] -= f * a[k][j]
                    inv[i][j] -= f * inv[k][j]
    return det, inv


def assert_elimination_matches_oracle(g):
    """True when g is negative definite; both paths must agree either way."""
    try:
        det, inv = fraction_gauss_jordan(g.intersection_matrix())
    except NotNegativeDefinite as expected:
        with pytest.raises(NotNegativeDefinite) as caught:
            intersection_data(g)
        assert str(caught.value) == str(expected)
        with pytest.raises(NotNegativeDefinite) as caught:
            PlumbingGraph(g.b, g.genus, g.edges)
        assert str(caught.value) == str(expected)
        return False
    data = intersection_data(g)
    assert data.determinant == det and data.group_order == abs(det)
    assert data.adjugate == tuple(tuple(det * x for x in row) for row in inv)
    assert data.inverse == tuple(map(tuple, inv))
    duals = [[-x for x in row] for row in inv]
    assert data.dual_cycles == tuple(map(tuple, duals))
    assert data.scaled_duals == tuple(tuple(abs(det) * x for x in row) for row in duals)
    for w in range(g.nv):
        for wp in range(g.nv):
            num, den = data.ratio_table[w][wp]
            assert Fraction(num, den) == max(row[w] / row[wp] for row in duals)
    return True


def test_elimination_matches_fraction_oracle_on_corpus(corpus):
    graphs = [e8_graph()]
    for m in corpus:
        graphs += [m.oka.graph, m.minimal]
    for g in graphs:
        assert assert_elimination_matches_oracle(g)


def _random_graph(rng, nv, extra_edges):
    """Connected graph: a random tree plus extra (possibly parallel) edges."""
    edges = [(rng.randrange(v), v) for v in range(1, nv)]
    for _ in range(extra_edges):
        u, v = rng.sample(range(nv), 2)
        edges.append((u, v))
    b = [rng.randint(1, 4) for _ in range(nv)]
    return PlumbingGraph(b, [0] * nv, edges, check=False)


def test_elimination_matches_fraction_oracle_on_random_graphs():
    rng = random.Random(6)
    outcomes = []
    for _ in range(300):
        nv = rng.randint(1, 9)
        extra = 0 if rng.random() < 0.5 or nv < 2 else rng.randint(1, 3)
        outcomes.append((extra > 0, assert_elimination_matches_oracle(_random_graph(rng, nv, extra))))
    # trees and graphs with cycles, each both definite and not
    assert set(outcomes) == {(False, False), (False, True), (True, False), (True, True)}


def test_one_elimination_per_graph(monkeypatch):
    eliminated = []
    original = graph_module.intersection_data

    def counting(g):
        eliminated.append(g)
        return original(g)

    monkeypatch.setattr(graph_module, "intersection_data", counting)
    model = SingularityModel(Support(FRONT_PAGE))
    for command in ("pg", "sw", "verify"):
        args = cli.build_parser().parse_args(["-", command])
        cli._HANDLERS[command](model, args)
    assert any(g is model.minimal for g in eliminated)
    assert len({id(g) for g in eliminated}) == len(eliminated)


def test_positive_diagram_point_forces_genus_or_cycle():
    # (1,1,1) lies on the face of x^3+y^3+z^3; its graph cannot be a
    # genus-0 tree
    og = oka_graph(brieskorn(3, 3, 3))
    g = og.graph
    assert not (g.is_tree() and set(g.genus) <= {0})


def test_not_negative_definite():
    with pytest.raises(NotNegativeDefinite):
        PlumbingGraph([0], [0], [])
    with pytest.raises(NotNegativeDefinite):
        PlumbingGraph([1, 1], [0, 0], [(0, 1)])


def test_canonical_cycle_ade():
    zk, integral = canonical_cycle(e8_graph())
    assert integral and all(x == 0 for x in zk)


def test_canonical_cycle_237():
    og = oka_graph(brieskorn(2, 3, 7))
    zk = zk_integer(og.graph)
    n = og.node_ids[(21, 14, 6)]
    assert zk[n] - 1 == 1  # 42 - 41


def test_merle_teissier_on_corpus(corpus):
    for m in corpus:
        og = m.oka
        assert zk_integer(og.graph) == merle_teissier_ZK(og)


def test_wt_cycle_examples(front_og):
    w = wt_cycle(front_og, front_og.support.points)
    assert w[front_og.node_ids[(11, 5, 7)]] == 43
    xyz = x1x2x3_cycle(front_og)
    assert xyz[front_og.node_ids[(11, 5, 7)]] == 23
    single = wt_cycle(front_og, [(2, 0, 3)])
    assert single[front_og.node_ids[(11, 5, 7)]] == 2 * 11 + 3 * 7


def test_minimal_model_fixpoint(front_og):
    g = front_og.graph
    assert minimal_model(g) == g  # already minimal
    assert minimal_model(minimal_model(g)) == minimal_model(g)


def test_minimal_model_blowdowns():
    empty = minimal_model(PlumbingGraph([1], [0], []))
    assert empty.nv == 0
    # chain (-3) -- (-1) -- (-3) blows down to the A_2 chain (-2) -- (-2)
    g = PlumbingGraph([3, 1, 3], [0, 0, 0], [(0, 1), (1, 2)])
    mm = minimal_model(g)
    assert (mm.b, mm.edges) == ((2, 2), ((0, 1),))
    assert intersection_data(g).group_order == intersection_data(mm).group_order == 3


def test_minimal_model_preserves_det(corpus):
    for m in corpus:
        g = m.oka.graph
        mm = m.minimal
        assert minimal_model(mm) == mm
        if mm.nv:
            assert intersection_data(g).group_order == intersection_data(mm).group_order


def test_convenient_padding_blows_down_to_same_model():
    for abc in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7)]:
        s = brieskorn(*abc)
        g1 = minimal_model(oka_graph(s).graph)
        g2 = minimal_model(oka_graph(make_convenient(s)).graph)
        assert tree_code(g1) == tree_code(g2)


def test_minimal_cycle_simple():
    assert minimal_cycle(PlumbingGraph([2], [0], [])) == (1,)
    chain = PlumbingGraph([2] * 5, [0] * 5, [(i, i + 1) for i in range(4)])
    z = minimal_cycle(chain)
    assert z == (1,) * 5
    assert all(chain.dot_E(z, v) <= 0 for v in range(5))


def test_minimal_cycle_e8_brute_force():
    g = e8_graph()
    z = minimal_cycle(g)
    imat = np.array(g.intersection_matrix(), dtype=np.int64)
    best = None
    grids = np.array(
        np.meshgrid(*[np.arange(9)] * 4, indexing="ij"), dtype=np.int64
    ).reshape(4, -1).T
    for head in grids:
        block = np.concatenate(
            [np.repeat(head[None, :], len(grids), axis=0), grids], axis=1
        )
        ok = (block @ imat <= 0).all(axis=1) & (block.sum(axis=1) > 0)
        for cand in block[ok]:
            cand = tuple(int(x) for x in cand)
            if best is None:
                best = cand
            else:
                best = tuple(min(a, b) for a, b in zip(best, cand))
    assert best == z
    # local pointwise minimality: dropping any component leaves the cone
    for v in range(g.nv):
        dropped = list(z)
        dropped[v] -= 1
        if all(x >= 0 for x in dropped) and any(dropped):
            assert any(g.dot_E(dropped, w) > 0 for w in range(g.nv))


def test_minimal_cycle_local_minimality(corpus):
    for m in corpus:
        g = m.minimal
        if not (0 < g.nv <= 8):
            continue
        z = minimal_cycle(g)
        assert all(g.dot_E(z, v) <= 0 for v in range(g.nv))
        for v in range(g.nv):
            dropped = list(z)
            dropped[v] -= 1
            if all(x >= 0 for x in dropped) and any(dropped):
                assert any(g.dot_E(dropped, w) > 0 for w in range(g.nv))


def test_rhs_oka_graphs_are_genus0_trees(corpus):
    for m in corpus:
        g = m.oka.graph
        assert g.is_tree()
        assert set(g.genus) <= {0}


def test_graph_payload_round_trip(front_og):
    g = front_og.graph
    payload = g.to_payload()
    assert PlumbingGraph.from_payload(payload) == g
    dot = g.to_dot()
    assert 'label="v0 [b=' in dot


def test_oka_neighbor_sum_with_stars(front_og):
    # eq-of-neighbour-sums is asserted at construction; rebuild to exercise it
    og2 = oka_graph(Support(FRONT_PAGE))
    assert og2.graph == front_og.graph
    assert og2.ell == front_og.ell
