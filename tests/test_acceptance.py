"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

from newtonsing.graph import (
    intersection_data,
    merle_teissier_ZK,
    minimal_model,
    oka_graph,
)
from newtonsing.lattice import pair_data
from newtonsing.newton import Support, newton_polyhedron
from newtonsing.sequences import kind1_context, laufer_x, run_sequence
from newtonsing.series import counting_q, enumerate_P
from tests.conftest import BRIESKORN_RHS, FRONT_PAGE, adjunction_solve, brieskorn, model_for
from tests.oracles import (
    DilatedPolygonSpec,
    LatticePolygon2,
    count_dilated_points,
    dilated_content,
    edge_support_function,
    steps,
    wt_cycle,
    z_legs_cycle,
)
from tests.test_graph import leg_toward
from tests.test_polygon import _degenerate_exclusion, normal_forms, random_unimodular


def _corpus():
    from tests.conftest import corpus_supports

    return [model_for(s) for s in corpus_supports()]


def test_criterion_1_worked_example():
    started = time.perf_counter()
    poly = newton_polyhedron(Support(FRONT_PAGE))
    faces = {f.normal: f.value for f in poly.compact_faces}
    assert faces == {(11, 5, 7): 43, (6, 3, 4): 24, (32, 12, 21): 120, (15, 8, 6): 48}

    alpha, beta, _, seq = pair_data((11, 5, 7), (6, 3, 4), 0)
    assert (alpha, beta, seq) == (1, 0, [])
    alpha, beta, _, seq = pair_data((11, 5, 7), (15, 8, 6), 0)
    assert (alpha, beta, seq) == (13, 1, [(2, 1, 1)])
    alpha, beta, string, seq = pair_data((32, 12, 21), (0, 0, 1), 1)
    assert (alpha, beta, seq) == (4, 3, [(24, 9, 16), (16, 6, 11), (8, 3, 6)])
    assert string == [2, 2, 2]

    og = oka_graph(newton_polyhedron(Support(FRONT_PAGE)))
    chain = leg_toward(og, (32, 12, 21), (0, 0, 1))
    assert [og.graph.b[v] for v in chain] == [2, 2, 2]
    leg = next(v for v in range(og.graph.nv) if og.ell[v] == (2, 1, 1))
    assert og.graph.b[leg] == 13

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: front-page worked example exact ({elapsed:.2f}s)")


def test_criterion_2_four_way_pg_agreement():
    started = time.perf_counter()
    corpus = _corpus()
    assert len(corpus) >= 12
    assert len(BRIESKORN_RHS) >= 3
    for m in corpus:
        pg = m.pg()
        assert pg.via_minimal == pg.via_diagram == pg.value
        assert m.pg_lattice_count() == pg.value
        assert counting_q(m.minimal, [[m.zk_minimal[n] for n in m.minimal.nodes]]) == [pg.value]
    assert model_for(brieskorn(2, 3, 5)).pg().value == 0
    assert model_for(brieskorn(2, 3, 7)).pg().value == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 2: sequence-I = sequence-III = lattice count = q_ZK "
        f"on {len(corpus)} inputs ({elapsed:.1f}s)"
    )


def test_criterion_3_stepwise_sw_identity():
    corpus = _corpus()
    checked = 0
    for m in corpus:
        g = m.minimal
        if not (0 < g.nv <= 14):
            continue
        seq = m.sequence("I")
        # Z_i and Z_K are the fills of their node values, which counting_q takes
        q_values = counting_q(g, seq.node_values() + [[m.zk_minimal[n] for n in g.nodes]])
        for i, step in enumerate(steps(seq)):
            assert q_values[i + 1] - q_values[i] == step.a
        checked += 1
    assert checked >= 8
    print(f"\nPASS criterion 3: stepwise counting-function identity on {checked} graphs")


def test_criterion_4_spectrum_agreement():
    corpus = _corpus()
    for m in corpus:
        spec = m.spectrum()
        assert spec == m.saito_spectrum()
        assert sum(spec.values()) == m.pg().value
        assert all(-1 < e <= 0 for e in spec)
    print(f"\nPASS criterion 4: spectrum = Saito multiset on {len(corpus)} inputs")


def test_criterion_5_poincare_agreement():
    corpus = _corpus()
    for m in corpus:
        assert m.poincare_via_sequence(3) == m.poincare_newton(3)
    print(f"\nPASS criterion 5: Poincare series agree to exponent 3 on {len(corpus)} inputs")


def test_criterion_6_point_count_property():
    rng = random.Random(60160)
    checked = 0
    for verts in normal_forms(6):
        for _ in range(9):
            mp = random_unimodular(rng)
            poly = LatticePolygon2([mp.apply(v) for v in verts])
            r = Fraction(rng.randint(1, 18), rng.randint(1, 6))
            if r > 3:
                r = Fraction(rng.randint(1, 6), 2)
            probe = DilatedPolygonSpec(poly, r)
            free = [
                i
                for i in range(len(poly.edges()))
                if edge_support_function(probe, i).level == 0
            ]
            eps = {i: rng.randint(0, 1) for i in free}
            spec = DilatedPolygonSpec(poly, r, eps)
            if _degenerate_exclusion(poly, r, spec.eps):
                # documented corner where the formula overshoots by one
                assert count_dilated_points(spec) == max(0, dilated_content(spec) + 1) - 1
                continue
            assert count_dilated_points(spec) == max(0, dilated_content(spec) + 1)
            checked += 1
    assert checked >= 200
    print(f"\nPASS criterion 6: dilated point count = max(0, content+1) on {checked} instances")


def test_criterion_7_laufer_operator_laws():
    corpus = _corpus()
    rng = random.Random(70170)
    samples = 0
    for m in corpus:
        og = m.oka
        g = og.graph
        zk = m.zk_oka
        zero = (0,) * g.nv
        assert laufer_x(g, zero) == zero
        wtf = wt_cycle(og, og.polyhedron.support.points)
        assert laufer_x(g, wtf) == wtf
        zk_e = tuple(x - 1 for x in zk)
        assert laufer_x(g, zk_e) == tuple(
            a + b for a, b in zip(zk_e, z_legs_cycle(g))
        )
        for _ in range(250):
            z1 = [0] * g.nv
            z2 = [0] * g.nv
            for n in g.nodes:
                a = rng.randint(0, max(zk[n], 1))
                b = rng.randint(0, max(zk[n], 1))
                z1[n], z2[n] = min(a, b), max(a, b)
            x1 = laufer_x(g, tuple(z1))
            x2 = laufer_x(g, tuple(z2))
            assert laufer_x(g, x1) == x1
            assert laufer_x(g, x2) == x2
            assert all(p <= q for p, q in zip(x1, x2))
            samples += 2
        assert samples >= 500  # per graph: 250 pairs = 500 cycles
        samples = 0
    print("\nPASS criterion 7: Laufer operator laws (500 cycles per corpus graph)")


def test_criterion_8_zk_cross_check():
    corpus = _corpus()
    for m in corpus:
        og = m.oka
        zk = adjunction_solve(og.graph)  # Fraction solve of the adjunction equalities
        assert zk == merle_teissier_ZK(og)
        data = intersection_data(og.graph)  # certifies negative definiteness
        assert all(x > 0 for v in range(og.graph.nv) for x in data.row(v))
    print(f"\nPASS criterion 8: Z_K adjunction = E + wt(f) - wt(xyz) on {len(corpus)} graphs")


def test_criterion_9_structural():
    corpus = _corpus()
    for m in corpus:
        og = m.oka
        g = og.graph
        assert g.is_tree() and set(g.genus) <= {0}
        mm = m.minimal
        assert minimal_model(mm)[0] == mm
        if mm.nv:
            assert intersection_data(g).group_order == intersection_data(mm).group_order
        for kind in ("I", "III"):
            ratios = [s.r for s in steps(m.sequence(kind))]
            assert all(a <= b for a, b in zip(ratios, ratios[1:]))
        # P_i partition: kind III per-step, kind I totals
        rep3 = enumerate_P(og, m.sequence("III"))
        assert all(rep3.sizes_match)
        union = set().union(*rep3.point_sets) if rep3.point_sets else set()
        assert union == rep3.outside_points
        assert sum(len(s) for s in rep3.point_sets) == m.pg().value
        seq1 = run_sequence(kind1_context(g, m.zk_oka))
        rep1 = enumerate_P(og, seq1)
        assert sum(len(s) for s in rep1.point_sets) == seq1.total == m.pg().value
    print(f"\nPASS criterion 9: structural invariants on {len(corpus)} inputs")


def test_criterion_10_tie_break_invariance():
    corpus = _corpus()
    for m in corpus:
        base_pg = m.pg().value
        base_spec = m.spectrum()
        base_poin = m.poincare_via_sequence(3)
        base_sw = m.sw()
        assert m.pg(tie_break="reversed").value == base_pg
        assert m.spectrum(tie_break="reversed") == base_spec
        assert m.poincare_via_sequence(3, tie_break="reversed") == base_poin
        assert m.sw(tie_break="reversed") == base_sw
    print(f"\nPASS criterion 10: headline invariants tie-break invariant on {len(corpus)} inputs")
