from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest

from newtonsing import kernels
from newtonsing.errors import NewtonsingError, NoCompactFace, NotIsolated, NotRationalHomologySphere
from newtonsing.invariants import SingularityModel
from newtonsing.newton import Support, is_convenient, is_rhs_link, newton_polyhedron
from tests.conftest import brieskorn
from tests.oracles import casson_walker, coefficient, lattice_count_all_rows, monodromy_zeta, newton_number
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
        res = m.sw()
        assert casson_walker(m.minimal) == res.sw_canonical == -_durfee_signature(m, res) / 8, m.support


def _durfee_signature(m, res):
    """Durfee's signature of the Milnor fibre, -8 p_g - Z_K^2 - |V|; on an
    integral homology sphere link the Casson invariant conjecture
    (Neumann-Wahl) makes the Casson invariant sigma / 8, which is -1 times
    the Casson-Walker invariant in the normalization of `casson_walker`."""
    return Fraction(-8 * m.pg().value - res.zk_sq - res.vertex_count)


# the Brieskorn triples a <= b <= c with a <= 7, b <= 8 and c <= 9
BRIESKORN_RANGE = [(a, b, c) for a in range(2, 8) for b in range(a, 9) for c in range(b, 10)]


@pytest.fixture(scope="module")
def generated_models():
    """Models of the Brieskorn triples in range and of `random_supports(5,
    4000)`, convenient or not, shared by the diagram-volume tests."""
    supports = [brieskorn(*abc) for abc in BRIESKORN_RANGE] + random_supports(5, 4000)
    return [SingularityModel(s) for s in supports]


def test_newton_number_is_laufers_milnor_number(corpus, generated_models):
    """Laufer's formula mu = 12 p_g + Z_K^2 + |V| on the resolution graph
    gives Kouchnirenko's Newton number of the convenient diagram, on the RHS
    supports of the corpus, of the Brieskorn triples in range and of
    generated supports; on a non-convenient support, of the completion that
    `make_convenient` accepts, whose Newton number does not change when its
    added axis exponents are raised by 60.  On x^a + y^b + z^c the Newton
    number is (a - 1)(b - 1)(c - 1).  Every link among them with |H| = 1
    also meets Durfee's signature and the Casson invariant conjecture."""
    for a, b, c in BRIESKORN_RANGE:
        assert newton_number(SingularityModel(brieskorn(a, b, c)).polyhedron) == (a - 1) * (b - 1) * (c - 1)
    checked = completed = spheres = 0
    for m in corpus + generated_models:
        try:
            res = m.sw()
        except NewtonsingError:
            continue
        poly = m.oka.polyhedron
        assert newton_number(poly) == 12 * res.value + res.zk_sq + res.vertex_count, m.support
        if m.minimal.data.group_order == 1:
            assert casson_walker(m.minimal) == -_durfee_signature(m, res) / 8, m.support
            spheres += 1
        if is_convenient(m.support):
            checked += 1
            continue
        # the completion adds d e_c on each axis; on an axis the support
        # meets, d is no less than its exponent, so d + 60 adds nothing there
        d = max(min(p[c] for p in poly.support.points if p[c] == sum(p)) for c in range(3))
        raised = list(m.support.points) + [tuple((d + 60) * (k == c) for k in range(3)) for c in range(3)]
        assert newton_number(newton_polyhedron(Support(raised))) == newton_number(poly), m.support
        completed += 1
    assert checked >= 1500 and completed >= 1000 and spheres >= 1000


def test_monodromy_zeta_reads_the_links_homology(corpus, generated_models):
    """Varchenko's zeta function, the product of (1 - t^m)^(e_m), is
    (1 - t) Delta(t), and H_1 of the link is the cokernel of h_* - 1
    (Milnor), so the link is a rational homology sphere exactly when
    Delta(1) != 0, that is when the e_m sum to 1, and then |H| = |Delta(1)|
    is the product of the m^(e_m).  So the diagram's volumes alone give
    `is_rhs_link` and |det| of Oka's graph and of its minimal model: on the
    convenient supports of the corpus, of the Brieskorn triples in range and
    of generated supports, and on the completions of the non-convenient
    ones."""
    convenient = rhs = completed = 0
    for m in corpus + generated_models:
        if is_convenient(m.support):
            zeta = monodromy_zeta(m.polyhedron)
            assert (sum(zeta.values()) == 1) == is_rhs_link(m.polyhedron), m.support
            convenient += 1
        try:
            m.require_rhs()
            orders = {m.oka.graph.data.group_order, m.minimal.data.group_order}
        except NewtonsingError:
            continue
        zeta = monodromy_zeta(m.oka.polyhedron)
        assert sum(zeta.values()) == 1 and {prod(Fraction(k) ** e for k, e in zeta.items())} == orders, m.support
        if m.oka.polyhedron is m.polyhedron:
            rhs += 1
        else:
            completed += 1
    assert convenient >= 1500 and rhs >= 1500 and completed >= 1000


def test_monodromy_eigenvalues_are_the_brieskorn_spectrum_mod_1():
    """1 - t^m is, up to sign, the product of the cyclotomic Phi_d over
    d | m, so Delta(t) = zeta(t) / (1 - t) has Phi_d to the power
    n_d = sum of e_m over the m that d divides, less one for d = 1, and h_*
    has phi(d) n_d eigenvalues of order d.  On x^a + y^b + z^c they are the
    exp(2 pi i s) over the spectrum s = i/a + j/b + k/c - 1, 0 < i < a,
    0 < j < b, 0 < k < c (Brieskorn): so every n_d >= 0, and phi(d) n_d
    counts the s whose class mod 1 has denominator d, on each of the 154
    triples a <= b <= c with a <= 8, b <= 9 and c <= 10."""
    triples = [(a, b, c) for a in range(2, 9) for b in range(a, 10) for c in range(b, 11)]
    assert len(triples) == 154
    for a, b, c in triples:
        zeta = monodromy_zeta(newton_polyhedron(brieskorn(a, b, c)))
        orders = {d for m in zeta for d in range(1, m + 1) if m % d == 0}
        n = {d: sum(e for m, e in zeta.items() if m % d == 0) - (d == 1) for d in orders}
        spectrum = Counter(
            (Fraction(i, a) + Fraction(j, b) + Fraction(k, c)).denominator
            for i in range(1, a)
            for j in range(1, b)
            for k in range(1, c)
        )
        assert min(n.values()) >= 0, (a, b, c)
        phi = {d: sum(gcd(k, d) == 1 for k in range(1, d + 1)) for d in orders}
        assert {d: phi[d] * n[d] for d in orders if n[d]} == spectrum, (a, b, c)


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
