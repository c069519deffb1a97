from fractions import Fraction
from math import gcd

import pytest

from newtonsing import kernels
from newtonsing.errors import NewtonsingError, NoCompactFace, NotIsolated, NotRationalHomologySphere
from newtonsing.invariants import SingularityModel
from newtonsing.newton import Support, is_convenient
from tests.conftest import brieskorn
from tests.oracles import casson_walker, coefficient, lattice_count_all_rows, newton_number
from tests.test_newton import random_supports


def test_error_paths():
    with pytest.raises(NotIsolated):
        SingularityModel(Support([(2, 0, 0)])).pg()
    with pytest.raises(NoCompactFace):
        SingularityModel(Support([(2, 0, 0), (0, 1, 1)])).pg()  # A_1
    with pytest.raises(NotRationalHomologySphere):
        SingularityModel(brieskorn(3, 3, 3)).pg()


def test_lattice_count_reads_the_node_rows(corpus, monkeypatch):
    """`pg_lattice_count` hands its scan one row per node of Oka's graph and
    counts what the scan of every row counts, on the corpus and on
    generated supports."""
    generated = []
    for support in random_supports(23, 200):
        m = SingularityModel(support)
        try:
            m.pg()
        except NewtonsingError:
            continue
        generated.append(m)
    assert len(generated) >= 100
    rows_scanned = []
    scan = kernels.count_violating
    monkeypatch.setattr(kernels, "count_violating", lambda rows, *rest: rows_scanned.append(len(rows)) or scan(rows, *rest))
    for m in corpus + generated:
        rows_scanned.clear()
        count = m.pg_lattice_count()
        assert rows_scanned == [len(m.oka.graph.nodes)]
        assert count == lattice_count_all_rows(m) == m.pg().value, m.support
    assert any(1 < len(m.oka.graph.nodes) < m.oka.graph.nv for m in generated)


def test_headline_invariants_of_a_fresh_model():
    s = brieskorn(2, 3, 7)
    assert SingularityModel(s).pg().value == 1
    assert SingularityModel(s).spectrum() == {Fraction(-1, 42): 1}
    assert SingularityModel(s).sw().value == 1
    series = SingularityModel(s).poincare_via_sequence(1)
    assert coefficient(series, 0) == 1


def test_a_fresh_model_reads_kept_and_blows_down_lazily(monkeypatch):
    # `kept` needs no earlier read of `minimal`; spectrum and Poincare
    # requests on a convenient support blow nothing down
    from newtonsing import invariants

    calls = []
    real = invariants.minimal_model
    monkeypatch.setattr(invariants, "minimal_model", lambda g: calls.append(g) or real(g))
    m = SingularityModel(brieskorn(2, 3, 5))
    m.saito_spectrum()
    m.poincare_newton(2)
    assert calls == []
    assert m.kept == tuple(range(8)) and m.minimal is m.oka.graph and len(calls) == 1
    m = SingularityModel(brieskorn(2, 3, 8))
    assert m.kept == (0, 1, 2, 3) and m.minimal.nv == 4 < m.oka.graph.nv
    assert m.zk_minimal == tuple(m.zk_oka[v] for v in m.kept)
    # a completion's pair comes from `make_convenient`, blown down there
    support = Support([(0, 1, 4), (0, 5, 0), (1, 1, 1), (2, 0, 0), (5, 2, 5)])
    m = SingularityModel(support)
    assert m.kept == (0, 1, 8) and m.minimal.nv == 3 and len(calls) == 2
    assert (m.minimal, m.kept) == real(m.oka.graph)


def test_sw_result_relation(corpus):
    for m in corpus:
        res = m.sw()
        assert res.value == m.pg().value
        assert res.sw_canonical == res.value + Fraction(res.zk_sq + res.vertex_count, 8)


def test_sw_equals_casson_walker_on_integral_homology_spheres(corpus):
    """On a link with |H| = 1 the canonical SW invariant is the Casson-Walker
    invariant, read off the plumbing graph alone: on the corpus, on the
    pairwise coprime Brieskorn triples a < b < c with a < 14, b < 16 and
    c < 20, and on generated supports."""
    triples = [
        (a, b, c)
        for a in range(2, 14)
        for b in range(a + 1, 16)
        for c in range(b + 1, 20)
        if gcd(a, b) == gcd(b, c) == gcd(a, c) == 1
    ]
    generated = [SingularityModel(brieskorn(*abc)) for abc in triples]
    for support in random_supports(31, 300):
        m = SingularityModel(support)
        try:
            m.sw()
        except NewtonsingError:
            continue
        generated.append(m)
    spheres = [m for m in corpus if m.minimal.data.group_order == 1]
    generated = [m for m in generated if m.minimal.data.group_order == 1]
    assert len(triples) == 237 and spheres and len(generated) >= 300
    for m in spheres + generated:
        assert casson_walker(m.minimal) == m.sw().sw_canonical, m.support


def test_newton_number_is_laufers_milnor_number(corpus):
    """Laufer's formula mu = 12 p_g + Z_K^2 + |V| on the resolution graph
    gives Kouchnirenko's Newton number of the diagram, on the convenient
    RHS supports of the corpus, of the Brieskorn triples a <= b <= c with
    a <= 7, b <= 8 and c <= 9, and of generated supports.  On x^a + y^b + z^c
    the Newton number is (a - 1)(b - 1)(c - 1)."""
    triples = [(a, b, c) for a in range(2, 8) for b in range(a, 9) for c in range(b, 10)]
    for a, b, c in triples:
        assert newton_number(SingularityModel(brieskorn(a, b, c)).polyhedron) == (a - 1) * (b - 1) * (c - 1)
    supports = [brieskorn(*abc) for abc in triples] + random_supports(5, 4000)
    models = [m for m in corpus if is_convenient(m.support)]
    models += [SingularityModel(s) for s in supports if is_convenient(s)]
    checked = 0
    for m in models:
        try:
            res = m.sw()
        except NewtonsingError:
            continue
        assert newton_number(m.polyhedron) == 12 * res.value + res.zk_sq + res.vertex_count, m.support
        checked += 1
    assert checked >= 1500


def test_poincare_constant_coefficient(corpus):
    for m in corpus:
        assert coefficient(m.poincare_via_sequence(1), 0) == 1


def test_spectrum_range(corpus):
    for m in corpus:
        for e, mult in m.spectrum().items():
            assert -1 < e <= 0 and mult > 0


def test_axis_distance_isolatedness_regression():
    # singular along the z-axis (no monomial within distance one of it);
    # the support criterion must reject it
    from newtonsing.newton import is_isolated

    assert not is_isolated(Support([(0, 6, 4), (0, 7, 0), (4, 6, 6), (9, 0, 0)]))
    # f = x^2 + y^3 + xyz is likewise singular along the z-axis
    assert not is_isolated(Support([(2, 0, 0), (0, 3, 0), (1, 1, 1)]))


def test_non_convenient_pipeline():
    # z^2 + x^3 + x y^5 and z^2 + x^3 + x y^3: no y-axis monomial
    from newtonsing.newton import is_convenient, saito_spectrum

    for pts, expected_pg in [
        ([(0, 0, 2), (3, 0, 0), (1, 5, 0)], 1),
        ([(0, 0, 2), (3, 0, 0), (1, 3, 0)], 0),
    ]:
        m = SingularityModel(Support(pts))
        assert not is_convenient(m.support)
        assert m.pg().value == expected_pg == m.pg_lattice_count()
        assert m.spectrum() == m.saito_spectrum()
        # the convenient completion is equisingular: same Saito multiset
        assert saito_spectrum(m.polyhedron) == saito_spectrum(m.oka.polyhedron)
        assert m.poincare_via_sequence(2) == m.poincare_newton(2)
