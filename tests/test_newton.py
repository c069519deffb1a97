import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import floor, lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonsing import cli, invariants, kernels, newton
from newtonsing.errors import NoCompactFace, NotIsolated
from newtonsing.invariants import SingularityModel
from newtonsing.lattice import content, cross, vec_sub
from newtonsing.newton import (
    PuiseuxPoly,
    Support,
    classify_diagram,
    face_interior_points,
    is_convenient,
    is_isolated,
    is_rhs_link,
    make_convenient,
    newton_polyhedron,
    newton_weight,
    poincare_newton,
    saito_spectrum,
)
from tests.conftest import FRONT_PAGE, brieskorn, corpus_supports, curved_support, paraboloid_grid
from tests.oracles import (
    candidate_normals,
    coefficient,
    interior_points,
    min_histogram_walk,
    minimal_points,
    poincare_pol_part,
    positive_diagram_points,
    puiseux,
    reference_polyhedron,
    spans_by_zeros,
    spans_face,
    substitute_inverse,
)


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
    out = make_convenient(newton_polyhedron(s))[0].polyhedron.support
    assert is_convenient(out)
    assert any(p[1] == p[2] == 0 for p in out.points)  # axis point added on x1
    old = {(f.normal, f.value) for f in newton_polyhedron(s).compact_faces}
    new = {(f.normal, f.value) for f in newton_polyhedron(out).compact_faces}
    assert old <= new
    # already-convenient input: faces unchanged entirely
    fp = Support(FRONT_PAGE)
    enlarged = make_convenient(newton_polyhedron(fp))[0].polyhedron.support
    assert {(f.normal, f.value) for f in newton_polyhedron(fp).compact_faces} == {
        (f.normal, f.value) for f in newton_polyhedron(enlarged).compact_faces
    }
    model = SingularityModel(fp)
    assert model.oka is model.oka_raw


def random_supports(seed, count):
    """`count` supports drawn from `random.Random(seed)`, exponents <= 12:
    up to 8 points in the lower half of a box of drawn size, half of them on
    a coordinate plane, and per axis an axis point, a point at distance one
    from the axis, or (now and then) neither,
    so that convenient, non-convenient and non-isolated supports, RHS links
    and others, all come up."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        top = rng.randint(2, 12)
        points = []
        for _ in range(rng.randint(0, 8)):
            p = [rng.randint(0, top // 2 + 1) for _ in range(3)]
            if rng.random() < 0.5:
                p[rng.randrange(3)] = 0
            points.append(tuple(p))
        for c in range(3):
            kind = rng.random()
            if kind < 0.1:
                continue
            p = [0, 0, 0]
            p[c] = rng.randint(1, top)
            if kind < 0.35:
                p[rng.choice([k for k in range(3) if k != c])] = 1
            points.append(tuple(p))
        points = [p for p in points if any(p)]
        if points:
            out.append(Support(points))
    return out


GENERATED = random_supports(20, 600)


def _isolated_polyhedra():
    for support in corpus_supports() + GENERATED:
        if is_isolated(support):
            yield support, newton_polyhedron(support)


def test_closed_counts_match_the_face_scans():
    """`is_rhs_link` and the Pick count of every compact face agree with
    the scans of each face's bounding box, on RHS links and others."""
    seen = Counter()
    for support, poly in _isolated_polyhedra():
        rhs = is_rhs_link(poly)
        assert rhs == (not positive_diagram_points(poly)), support
        for face in poly.compact_faces:
            genus = face_interior_points(face)
            assert genus == interior_points(poly, face), (support, face)
            seen["genus", genus > 0] += 1
        seen["rhs", rhs] += 1
        seen["convenient", is_convenient(support)] += 1
    assert all(seen[k, b] for k in ("genus", "rhs", "convenient") for b in (True, False)), seen


def test_face_verdicts_match_the_rank_oracle():
    """Every candidate normal's face verdict by zero pattern, in the
    reference polyhedron's scan, equals the pairwise rank test, over the
    minimal points and over all points (the oracle polyhedron's candidates)."""
    verdicts = Counter()
    for support in corpus_supports() + GENERATED:
        for pts in (minimal_points(support.points), list(support.points)):
            for normal in candidate_normals(pts):
                levels = [sum(a * x for a, x in zip(normal, p)) for p in pts]
                minimal = [p for p, level in zip(pts, levels) if level == min(levels)]
                verdict = spans_by_zeros(normal, minimal)
                assert verdict == spans_face(normal, minimal), (support, normal)
                verdicts[verdict, normal.count(0)] += 1
    assert all(verdicts[v, zeros] for v in (True, False) for zeros in (0, 1)), verdicts


def test_convenient_supports_pass_the_full_isolation_loop():
    """`is_isolated` answers a convenient support at once; Kouchnirenko's
    loop, run without that shortcut, says the same on every support."""
    convenient = 0
    for support in corpus_supports() + GENERATED:
        with patch.object(newton, "is_convenient", lambda s: False):
            full = is_isolated(support)
        assert full == is_isolated(support), support
        if is_convenient(support):
            assert full
            convenient += 1
    assert convenient >= 100


def test_is_rhs_examples():
    assert is_rhs_link(newton_polyhedron(brieskorn(2, 3, 7)))
    assert not is_rhs_link(newton_polyhedron(brieskorn(3, 3, 3)))  # (1,1,1) lies on the face
    assert is_rhs_link(newton_polyhedron(Support(FRONT_PAGE)))


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
    poly = newton_polyhedron(brieskorn(3, 3, 3))
    spec = saito_spectrum(poly)
    assert spec[Fraction(0)] == len(positive_diagram_points(poly)) == 1


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
    assert coefficient(series, 0) == 1
    assert coefficient(series, Fraction(41, 42)) == 1


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
    poincare = puiseux({e: n - histogram.get(e - 1, 0) for e, n in histogram.items() if e <= bound})
    spectrum = Counter({w - 1: n for w, n in under_diagram.items()})
    pol = puiseux({1 - w: n for w, n in under_diagram.items()})
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


LARGE_GRAPH = [(0, 0, 6), (0, 7, 0), (6, 0, 1), (7, 10, 11), (8, 0, 0), (11, 5, 7)]


@pytest.mark.parametrize(
    "points, bound, faces",
    [(FRONT_PAGE, 4, 4), (LARGE_GRAPH, Fraction(7, 2), 2)],
    ids=["front-page", "large-graph"],
)
def test_weight_histogram_matches_brute_force_on_several_faces(points, bound, faces):
    poly = newton_polyhedron(Support(points))
    assert len(poly.compact_faces) == faces
    poincare, spectrum, pol = _brute_force_weight_invariants(poly, bound)
    assert poincare_newton(poly, bound) == poincare
    assert saito_spectrum(poly) == spectrum
    assert poincare_pol_part(poly) == pol


def test_face_cones_match_the_envelope_walk(monkeypatch):
    """`kernels.min_histogram`, and `kernels.form_histogram` on diagrams with
    one compact face, equal the walk along each column's lower envelope, in
    the box the cap implies, on the corpus at bounds 1, 3, 8 and 20, and on
    every generated isolated polyhedron at bounds 1, 3 and 8 (at 20 some of
    their weight boxes pass the budget and the rest hold millions of
    points), inside the positive octant and out of it: boxes past the
    brute-force scan's reach."""
    calls = []
    faces, form = kernels.min_histogram, kernels.form_histogram
    monkeypatch.setattr(kernels, "min_histogram", lambda *args: calls.append(args) or faces(*args))
    monkeypatch.setattr(kernels, "form_histogram", lambda row, *rest: calls.append(([row], *rest)) or form(row, *rest))
    corpus = [newton_polyhedron(s) for s in corpus_supports()]
    generated = [poly for _, poly in _isolated_polyhedra() if poly.compact_faces]
    cases = [(poly, bound) for poly in corpus for bound in (1, 3, 8, 20)]
    cases += [(poly, bound) for poly in generated for bound in (1, 3, 8)]
    for (poly, bound), positive in product(cases, (True, False)):
        histogram, _ = newton._weight_histogram(poly, bound, positive)
        assert histogram == min_histogram_walk(*calls[-1]), (poly, bound, positive)
        assert (len(calls[-1][0]) == 1) == (len(poly.compact_faces) == 1)
    assert len(calls) == 2 * len(cases) and any(len(rows) > 2 for rows, *_ in calls)


def test_one_face_histogram_stays_within_the_box(monkeypatch):
    """On one compact face the form's list of counts runs up to the cap; at
    a bound whose cap passes the weight box's point count the histogram is
    counted by face cones instead, with the same result."""
    calls = []
    form = kernels.form_histogram
    monkeypatch.setattr(kernels, "form_histogram", lambda *args: calls.append(args) or form(*args))
    poly = newton_polyhedron(brieskorn(7, 11, 13))
    for bound, counted_by_form in ((Fraction(1, 50), False), (Fraction(1, 2), False), (1, True), (3, True)):
        for positive in (True, False):
            calls.clear()
            histogram, denominator = newton._weight_histogram(poly, bound, positive)
            assert denominator == 1001 and bool(calls) == counted_by_form
            assert histogram == form((143, 91, 77), floor(bound * 1001), [int(positive)] * 3)


def test_poincare_via_sequence_matches_newton_at_bound_20(front_page_model):
    assert lcm(*(f.value for f in front_page_model.oka.polyhedron.compact_faces)) == 10320
    series = front_page_model.poincare_via_sequence(20)
    assert series == front_page_model.poincare_newton(20)
    assert coefficient(series, 20) and series.terms()[-1][0] == 20


def test_puiseux_rational_and_integer_keys_agree():
    half = puiseux({Fraction(1, 2): 1})
    assert half == PuiseuxPoly({3: 1}, 6)
    assert (half.numerators, half.denominator) == ({1: 1}, 2)
    assert puiseux({Fraction(2, 3): 4, 1: -1}) == PuiseuxPoly({4: 4, 6: -1}, 6)
    assert PuiseuxPoly({0: 2}, 12) == puiseux({0: 2}) != puiseux({1: 2})
    assert PuiseuxPoly({2: 1}, 4) != PuiseuxPoly({2: 1}, 3)


def test_puiseux_drops_zero_coefficients():
    assert PuiseuxPoly({5: 0, 10: 0}, 20) == PuiseuxPoly({}, 1) == puiseux({Fraction(1, 3): 0})
    assert not PuiseuxPoly({5: 0}, 20)
    series = puiseux({Fraction(1, 4): 0, Fraction(1, 2): 3})
    assert series.terms() == [(Fraction(1, 2), 3)] and series.denominator == 2


def test_puiseux_coefficient_and_inverse():
    series = PuiseuxPoly({-3: 2, 1: 5, 4: 1}, 6)
    assert coefficient(series, Fraction(1, 6)) == 5
    assert coefficient(series, Fraction(-1, 2)) == 2
    assert coefficient(series, Fraction(2, 3)) == 1
    assert coefficient(series, Fraction(1, 4)) == 0  # off the grid of sixths
    assert coefficient(series, 1) == 0
    inverse = substitute_inverse(series)
    assert inverse.terms() == [(-Fraction(2, 3), 1), (-Fraction(1, 6), 5), (Fraction(1, 2), 2)]
    assert substitute_inverse(inverse) == series


def test_poly_pairs_renders_terms(corpus):
    for model in corpus:
        for series in (model.poincare_via_sequence(Fraction(5, 2)), poincare_pol_part(model.oka.polyhedron)):
            assert cli._poly_pairs(series) == [[cli._rat(e), c] for e, c in series.terms()]
    series = PuiseuxPoly({-3: 2, 0: 1, 4: 1}, 6)
    assert cli._poly_pairs(series) == [["-1/2", 2], ["0/1", 1], ["2/3", 1]]


def test_poincare_pol_part_examples():
    assert not poincare_pol_part(newton_polyhedron(brieskorn(2, 3, 5)))
    pol = poincare_pol_part(newton_polyhedron(brieskorn(2, 3, 7)))
    assert pol == puiseux({Fraction(1, 42): 1})


def test_pol_part_matches_saito():
    for support in (brieskorn(2, 3, 7), brieskorn(3, 5, 7), Support(FRONT_PAGE)):
        poly = newton_polyhedron(support)
        pol = poincare_pol_part(poly)
        # exponent 1 - w becomes w - 1 under t -> 1/t, the spectrum value
        expected = Counter(dict(substitute_inverse(pol).terms()))
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
    assert is_isolated(s) and is_rhs_link(newton_polyhedron(s))
    report = classify_diagram(newton_polyhedron(s))
    assert report.kind == "central_edges"
    assert report.central_edge_count == 1


def _all_pairs_candidate_normals(pts):
    """Cross products of every two support-point differences or unit vectors.

    The exhaustive candidate set, kept as the oracle: with n points,
    C(C(n, 2) + 3, 2) products.
    """
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    gens = [vec_sub(p, q) for p, q in combinations(pts, 2)] + units
    normals = set()
    for v in units + [cross(d1, d2) for d1, d2 in combinations(gens, 2)]:
        c = content(v)
        if c == 0:
            continue
        v = tuple(x // c for x in v)
        if all(x <= 0 for x in v):
            v = tuple(-x for x in v)
        if any(x < 0 for x in v):
            continue
        normals.add(v)
    return normals


def _oracle_polyhedron(support):
    """The reference polyhedron from all-pairs candidates over every support point."""
    return reference_polyhedron(support, list, _all_pairs_candidate_normals)


def _outcome(build, support):
    try:
        poly = build(support)
    except Exception as exc:  # the oracle must fail the same way
        return type(exc), str(exc)
    return poly.support, poly.compact_faces, poly.noncompact_faces, poly.edges


def assert_polyhedron_matches_oracle(support):
    got = _outcome(newton_polyhedron, support)
    assert got == _outcome(_oracle_polyhedron, support)
    return got


@st.composite
def supports(draw):
    """Up to 15 points with exponents <= 12: per axis an axis point or a
    point at distance one from the axis, so that convenient, non-convenient
    and non-isolated supports all come up."""
    exponent = st.integers(0, 12)
    points = draw(st.lists(st.tuples(exponent, exponent, exponent).filter(any), max_size=12))
    for c in range(3):
        p = [0, 0, 0]
        p[c] = draw(st.integers(1, 12))
        if draw(st.booleans()):
            p[draw(st.sampled_from([k for k in range(3) if k != c]))] = 1
        points.append(tuple(p))
    return Support(points)


@given(supports())
@settings(max_examples=100)
def test_polyhedron_matches_all_pairs_oracle(support):
    assert_polyhedron_matches_oracle(support)
    assert_polyhedron_matches_reference(support)


def assert_polyhedron_matches_reference(support):
    """The wrap and the candidate-plane scan give the same faces, values,
    vertex cycles and edges, or the same exception and message."""
    got = _outcome(newton_polyhedron, support)
    assert got == _outcome(reference_polyhedron, support), support
    return got


def test_wrap_matches_the_reference_polyhedron():
    """On the corpus, GENERATED, 4,000 more seeded supports, the curved
    supports of radius 4 to 6 and the paraboloid grids of side 3, 5 and 7."""
    seen = Counter()
    for support in corpus_supports() + GENERATED + random_supports(39, 4000):
        outcome = assert_polyhedron_matches_reference(support)
        if isinstance(outcome[0], type):
            seen[outcome[0].__name__] += 1
        else:
            seen["convenient" if is_convenient(support) else "non-convenient", bool(outcome[1])] += 1
    assert seen["NotIsolated"] and all(seen[kind, True] for kind in ("convenient", "non-convenient")), seen
    assert seen["non-convenient", False], seen
    for r in (4, 5, 6):
        assert assert_polyhedron_matches_reference(Support(curved_support(r)))[1]
    for s in (3, 5, 7):
        _, compact, _, _ = assert_polyhedron_matches_reference(Support(paraboloid_grid(s)))
        assert len(compact) == (s + 1) ** 2


def test_oracle_examples_cover_both_kinds():
    """The strategy above reaches convenient and non-convenient polyhedra."""
    seen = set()

    @given(supports())
    @settings(max_examples=100)
    def collect(support):
        outcome = _outcome(newton_polyhedron, support)
        if not isinstance(outcome[0], type) and outcome[1]:
            seen.add(is_convenient(support))

    collect()
    assert seen == {True, False}


RANDOM_40 = [
    (0, 0, 12), (0, 3, 4), (0, 12, 0), (1, 2, 9), (1, 3, 3), (1, 6, 0), (2, 4, 2), (2, 9, 3),
    (2, 12, 9), (3, 1, 0), (3, 2, 12), (3, 9, 12), (4, 7, 12), (5, 1, 4), (5, 2, 12), (5, 3, 11),
    (5, 4, 11), (5, 11, 12), (6, 2, 12), (7, 0, 8), (7, 6, 8), (7, 7, 1), (7, 8, 3), (7, 9, 4),
    (7, 9, 8), (7, 10, 5), (8, 4, 11), (8, 9, 12), (8, 10, 8), (9, 0, 1), (9, 0, 6), (9, 7, 4),
    (10, 3, 9), (10, 10, 10), (11, 2, 0), (11, 6, 3), (11, 7, 0), (11, 7, 1), (12, 0, 0), (12, 2, 9),
]


def _antichain_40():
    """(a, b, (6 - a)^2 + (6 - b)^2) over 38 grid points, plus x^20 and y^20:
    no point lies above another, so none is dropped."""
    rng = random.Random(41)
    grid = [(a, b) for a in range(7) for b in range(7) if (a, b) != (0, 0)]
    chosen = [(0, 0)] + rng.sample(grid, 37)
    return [(a, b, (6 - a) ** 2 + (6 - b) ** 2) for a, b in chosen] + [(20, 0, 0), (0, 20, 0)]


@pytest.mark.parametrize("points", [RANDOM_40, _antichain_40()], ids=["random", "antichain"])
def test_polyhedron_matches_oracle_on_40_points(points):
    support = Support(points)
    assert len(support.points) == 40
    _, compact, _, _ = assert_polyhedron_matches_oracle(support)
    assert compact


def test_minimal_points_match_the_all_pairs_definition():
    # random starts, each with a chain of points above it, so that points
    # are dropped below kept ones and below dropped ones
    rng = random.Random(38)
    dropped = 0
    for _ in range(300):
        pts = {tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(rng.randint(1, 12))}
        for p in list(pts):
            for _ in range(rng.randint(0, 3)):
                p = tuple(x + rng.randint(0, 2) for x in p)
                pts.add(p)
        pts.discard((0, 0, 0))
        if not pts:
            continue
        points = Support(pts).points
        expected = [p for p in points if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in points)]
        assert minimal_points(points) == expected
        dropped += len(points) - len(expected)
    assert dropped > 300


def test_antichain_keeps_every_point():
    pts = Support(_antichain_40()).points
    assert minimal_points(pts) == list(pts)
    assert len(minimal_points(Support(RANDOM_40).points)) < 40


@pytest.fixture()
def polyhedron_calls(monkeypatch):
    """Supports passed to newton_polyhedron, wherever it is called from."""
    calls = []
    real = newton.newton_polyhedron

    def counted(support):
        calls.append(support)
        return real(support)

    for module in (newton, invariants):
        monkeypatch.setattr(module, "newton_polyhedron", counted)
    return calls


def _answer_every_command(model):
    parser = cli.build_parser()
    for argv in (
        ["diagram"],
        ["graph"],
        ["graph", "--minimal"],
        ["pg"],
        ["sw"],
        ["spectrum"],
        ["poincare"],
        ["verify"],
    ):
        args = parser.parse_args(["-", *argv])
        cli._HANDLERS[args.command](model, args)


def test_one_polyhedron_per_convenient_model(polyhedron_calls):
    support = Support(FRONT_PAGE)
    assert is_convenient(support)
    _answer_every_command(SingularityModel(support))
    assert polyhedron_calls == [support]


def test_make_convenient_reuses_the_polyhedron(polyhedron_calls):
    support = Support([(2, 1, 0), (0, 3, 0), (0, 0, 2)])
    model = SingularityModel(support)
    model.oka_raw, model.oka, model.oka.polyhedron
    assert model.oka.polyhedron.support != support
    assert polyhedron_calls.count(support) == 1


def test_every_polyhedron_once_per_nonconvenient_model(polyhedron_calls):
    support = Support([(2, 1, 0), (0, 3, 0), (0, 0, 2)])
    model = SingularityModel(support)
    _answer_every_command(model)
    assert model.oka.polyhedron.support != support
    assert len(polyhedron_calls) == len(set(polyhedron_calls))


def test_raw_graph_runs_no_completion(monkeypatch):
    calls = []
    real = newton.make_convenient

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (newton, invariants):
        monkeypatch.setattr(module, "make_convenient", counted, raising=False)
    support = Support([(2, 1, 0), (0, 3, 0), (0, 0, 2)])
    assert is_isolated(support) and not is_convenient(support)
    args = cli.build_parser().parse_args(["-", "graph"])
    payload, _ = cli._HANDLERS["graph"](SingularityModel(support), args)
    assert payload["vertices"]
    assert calls == []
