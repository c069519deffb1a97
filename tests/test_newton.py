import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonsing.errors import NoCompactFace, NotIsolated
from newtonsing.newton import (
    PuiseuxPoly,
    Support,
    brieskorn,
    classify_diagram,
    ensure_convenient,
    is_convenient,
    is_isolated,
    is_rhs_link,
    make_convenient,
    newton_polyhedron,
    newton_weight,
    poincare_newton,
    poincare_pol_part,
    saito_spectrum,
)
from tests.conftest import FRONT_PAGE


@pytest.fixture(scope="module")
def front_poly():
    return newton_polyhedron(Support(FRONT_PAGE))


def test_is_isolated_examples():
    assert is_isolated(Support(FRONT_PAGE))
    assert not is_isolated(Support([(2, 0, 0)]))
    assert is_isolated(brieskorn(2, 3, 7))


def test_is_convenient_examples():
    assert is_convenient(Support(FRONT_PAGE))
    assert not is_convenient(Support([p for p in FRONT_PAGE if p != (0, 0, 8)]))
    assert is_convenient(brieskorn(2, 3, 7))


def test_front_page_faces(front_poly):
    compact = {f.normal: f.value for f in front_poly.compact_faces}
    assert compact == {(11, 5, 7): 43, (6, 3, 4): 24, (32, 12, 21): 120, (15, 8, 6): 48}
    noncompact = {f.normal for f in front_poly.noncompact_faces}
    assert noncompact == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_brieskorn_face():
    poly = newton_polyhedron(brieskorn(2, 3, 7))
    assert [(f.normal, f.value) for f in poly.compact_faces] == [((21, 14, 6), 42)]


def test_face_invariants(front_poly):
    pts = front_poly.support.points
    for f in front_poly.compact_faces:
        assert f.value == min(sum(a * b for a, b in zip(f.normal, p)) for p in pts)
        for v in f.vertices:
            assert sum(a * b for a, b in zip(f.normal, v)) == f.value
        assert all(x > 0 for x in f.normal)
    for f in front_poly.noncompact_faces:
        assert any(x == 0 for x in f.normal)


def test_face_determinism():
    rng = random.Random(5)
    pts = list(FRONT_PAGE)
    reference = newton_polyhedron(Support(pts))
    ref = sorted((f.normal, f.value, f.vertices) for f in reference.compact_faces)
    for _ in range(5):
        rng.shuffle(pts)
        poly = newton_polyhedron(Support(pts))
        assert sorted((f.normal, f.value, f.vertices) for f in poly.compact_faces) == ref


def test_not_isolated_raises():
    with pytest.raises(NotIsolated):
        newton_polyhedron(Support([(2, 0, 0)]))


def test_make_convenient():
    # x^2 y + y^3 + z^2 misses the x1 axis; f = x^2+y^3+x y z (the obvious
    # three-point example) is singular along the z-axis, so use a genuinely
    # isolated non-convenient support
    s = Support([(2, 1, 0), (0, 3, 0), (0, 0, 2)])
    assert is_isolated(s) and not is_convenient(s)
    out = make_convenient(s)
    assert is_convenient(out)
    assert any(p[1] == p[2] == 0 for p in out.points)  # axis point added on x1
    old = {(f.normal, f.value) for f in newton_polyhedron(s).compact_faces}
    new = {(f.normal, f.value) for f in newton_polyhedron(out).compact_faces}
    assert old <= new
    # already-convenient input: faces unchanged entirely
    fp = Support(FRONT_PAGE)
    enlarged = make_convenient(fp)
    assert {(f.normal, f.value) for f in newton_polyhedron(fp).compact_faces} == {
        (f.normal, f.value) for f in newton_polyhedron(enlarged).compact_faces
    }
    assert ensure_convenient(fp) is fp


def test_is_rhs_examples():
    assert is_rhs_link(brieskorn(2, 3, 7))
    assert not is_rhs_link(brieskorn(3, 3, 3))  # (1,1,1) lies on the face
    assert is_rhs_link(Support(FRONT_PAGE))


def test_newton_weight_examples(front_poly):
    poly = newton_polyhedron(brieskorn(2, 3, 7))
    assert newton_weight(poly, (1, 1, 1)) == Fraction(41, 42)
    assert newton_weight(poly, (2, 0, 0)) == 1
    # min(23/43, 13/24, 65/120, 29/48) = 23/43 (23*24 = 552 < 559 = 13*43)
    assert newton_weight(front_poly, (1, 1, 1)) == min(
        Fraction(23, 43), Fraction(13, 24), Fraction(65, 120), Fraction(29, 48)
    )
    assert newton_weight(front_poly, (1, 1, 1)) == Fraction(23, 43)


def test_weight_concavity():
    rng = random.Random(9)
    for support in (Support(FRONT_PAGE), brieskorn(2, 3, 7)):
        poly = newton_polyhedron(support)
        for _ in range(60):
            p = tuple(rng.randint(0, 9) for _ in range(3))
            q = tuple(rng.randint(0, 9) for _ in range(3))
            pq = tuple(a + b for a, b in zip(p, q))
            assert newton_weight(poly, pq) >= newton_weight(poly, p) + newton_weight(poly, q)


def test_saito_spectrum_examples():
    assert saito_spectrum(newton_polyhedron(brieskorn(2, 3, 5))) == Counter()
    assert saito_spectrum(newton_polyhedron(brieskorn(2, 3, 7))) == Counter({Fraction(-1, 42): 1})


def test_saito_zero_multiplicity_counts_diagram_points():
    # non-RHS example: multiplicity of 0 equals the number of positive
    # lattice points on the diagram
    from newtonsing.newton import _positive_diagram_points

    poly = newton_polyhedron(brieskorn(3, 3, 3))
    spec = saito_spectrum(poly)
    assert spec[Fraction(0)] == len(_positive_diagram_points(poly)) == 1


def test_no_compact_face():
    s = Support([(2, 0, 0), (0, 1, 1)])  # A_1
    poly = newton_polyhedron(s)
    assert not poly.compact_faces
    with pytest.raises(NoCompactFace):
        saito_spectrum(poly)
    with pytest.raises(NoCompactFace):
        newton_weight(poly, (1, 1, 1))


def test_poincare_newton_examples():
    poly = newton_polyhedron(brieskorn(2, 3, 7))
    series = poincare_newton(poly, 1)
    assert series.coefficient(0) == 1
    assert series.coefficient(Fraction(41, 42)) == 1


def _brute_force_weight_invariants(poly, bound):
    """Poincare terms, spectrum and pol part from newton_weight on every box point.

    The box reaches weight bound + 1, past the truncation, so the Poincare
    terms do not lean on the N(e - 1) > 0 => N(e) > 0 argument; the spectrum
    and pol part read the positive points of weight <= 1.
    """
    top = bound + 1
    hi = [max(floor(top * f.value / f.normal[c]) for f in poly.compact_faces) for c in range(3)]
    histogram, under_diagram = Counter(), Counter()
    for p in product(*(range(h + 1) for h in hi)):
        w = newton_weight(poly, p)
        if w <= top:
            histogram[w] += 1
        if min(p) >= 1 and w <= 1:
            under_diagram[w] += 1
    poincare = PuiseuxPoly({e: n - histogram.get(e - 1, 0) for e, n in histogram.items() if e <= bound})
    spectrum = Counter({w - 1: n for w, n in under_diagram.items()})
    pol = PuiseuxPoly({1 - w: n for w, n in under_diagram.items()})
    return poincare, spectrum, pol


@st.composite
def convenient_supports(draw):
    axes = [draw(st.integers(2, 5)) for _ in range(3)]
    points = [tuple(a if k == c else 0 for k in range(3)) for c, a in enumerate(axes)]
    extra = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    points += draw(st.lists(extra.filter(any), max_size=4))
    return Support(points)


@given(
    convenient_supports(),
    st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_weight_histogram_matches_brute_force(support, bound):
    poly = newton_polyhedron(support)
    poincare, spectrum, pol = _brute_force_weight_invariants(poly, bound)
    assert poincare_newton(poly, bound) == poincare
    assert saito_spectrum(poly) == spectrum
    assert poincare_pol_part(poly) == pol


def test_poincare_pol_part_examples():
    assert not poincare_pol_part(newton_polyhedron(brieskorn(2, 3, 5)))
    pol = poincare_pol_part(newton_polyhedron(brieskorn(2, 3, 7)))
    assert pol == PuiseuxPoly({Fraction(1, 42): 1})


def test_pol_part_matches_saito():
    for support in (brieskorn(2, 3, 7), brieskorn(3, 5, 7), Support(FRONT_PAGE)):
        poly = newton_polyhedron(support)
        pol = poincare_pol_part(poly)
        # exponent 1 - w becomes w - 1 under t -> 1/t, the spectrum value
        expected = Counter(dict(pol.substitute_inverse().terms()))
        assert expected == saito_spectrum(poly)


def test_classify_brieskorn():
    report = classify_diagram(newton_polyhedron(brieskorn(2, 3, 7)))
    assert report.kind == "central_face"
    assert report.central_shape == "triangle"
    assert sorted(report.degenerate_arms) == [0, 1, 2]


def test_classify_front_page(front_poly):
    report = classify_diagram(front_poly)
    assert report.kind == "central_face"
    assert report.central_face.normal == (11, 5, 7)
    assert report.central_shape == "triangle"
    assert report.arms[0] == [(6, 3, 4)]
    assert report.arms[1] == [(32, 12, 21)]
    assert report.arms[2] == [(15, 8, 6)]
    assert report.degenerate_arms == []


def test_classify_central_edge():
    # x^3 + x y + y^3 + z^2: two faces share the ridge [(1,1,0),(0,0,2)]
    # which meets all three coordinate hyperplanes
    s = Support([(3, 0, 0), (1, 1, 0), (0, 3, 0), (0, 0, 2)])
    assert is_isolated(s) and is_rhs_link(s)
    report = classify_diagram(newton_polyhedron(s))
    assert report.kind == "central_edges"
    assert report.central_edge_count == 1
