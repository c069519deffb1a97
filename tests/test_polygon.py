import random
from fractions import Fraction
from itertools import product

import pytest

from tests.oracles import (
    AffineMap2,
    Degenerate,
    DilatedPolygonSpec,
    LatticePolygon2,
    NotAVertex,
    NotEmpty,
    classify_empty_polygon,
    count_dilated_points,
    dilated_content,
    edge_support_function,
    vertex_is_regular,
)


def normal_forms(t_max=6):
    yield [(0, 0), (2, 0), (0, 2)]
    for t in range(1, t_max + 1):
        yield [(0, 0), (t, 0), (0, 1)]
    for t in range(1, t_max + 1):
        yield [(0, 0), (t, 0), (0, 1), (1, 1)]
    for t in range(2, t_max + 1):
        for s in range(2, t + 1):
            yield [(0, 0), (t, 0), (0, 1), (s, 1)]


def random_unimodular(rng):
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if abs(a * d - b * c) == 1:
            return AffineMap2(((a, b), (c, d)), (rng.randint(-4, 4), rng.randint(-4, 4)))


def test_classification_examples():
    assert classify_empty_polygon(LatticePolygon2([(0, 0), (2, 0), (0, 2)])).tag == "big_triangle"
    cls = classify_empty_polygon(LatticePolygon2([(0, 0), (3, 0), (0, 1)]))
    assert (cls.tag, cls.t) == ("t_triangle", 3)
    cls = classify_empty_polygon(LatticePolygon2([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert (cls.tag, cls.t) == ("t_trapezoid", 1)


def test_classification_errors():
    with pytest.raises(NotEmpty):
        classify_empty_polygon(LatticePolygon2([(0, 0), (3, 0), (0, 3)]))
    with pytest.raises(Degenerate):
        LatticePolygon2([(0, 0), (2, 0)])


def test_vertex_regularity():
    unit = LatticePolygon2([(0, 0), (1, 0), (0, 1)])
    assert all(vertex_is_regular(unit, v) for v in unit.vertices)
    tri = LatticePolygon2([(0, 0), (3, 0), (0, 1)])
    assert not vertex_is_regular(tri, (0, 1))
    assert vertex_is_regular(tri, (0, 0))
    with pytest.raises(NotAVertex):
        vertex_is_regular(tri, (1, 1))


def test_support_function_examples():
    unit = LatticePolygon2([(0, 0), (1, 0), (0, 1)])
    spec = DilatedPolygonSpec(unit, 1)
    by_edge = {frozenset(e): i for i, e in enumerate(unit.edges())}
    f = edge_support_function(spec, by_edge[frozenset(((0, 0), (1, 0)))])
    assert (f.linear, f.const, f.level) == ((0, 1), 0, 0)
    half = DilatedPolygonSpec(unit, Fraction(1, 2))
    f = edge_support_function(half, by_edge[frozenset(((1, 0), (0, 1)))])
    assert f.linear == (-1, -1) and f.level == Fraction(-1, 2)
    # integral dilated edge sits at level 0
    f = edge_support_function(half, by_edge[frozenset(((0, 0), (1, 0)))])
    assert f.level == 0


def test_dilated_content_examples():
    unit = LatticePolygon2([(0, 0), (1, 0), (0, 1)])
    assert dilated_content(DilatedPolygonSpec(unit, 1)) == 1
    assert dilated_content(DilatedPolygonSpec(unit, Fraction(1, 2))) == 0
    assert dilated_content(DilatedPolygonSpec(unit, 1, {0: 1})) == 0


def test_count_examples():
    unit = LatticePolygon2([(0, 0), (1, 0), (0, 1)])
    assert count_dilated_points(DilatedPolygonSpec(unit, 1)) == 2
    assert count_dilated_points(DilatedPolygonSpec(unit, Fraction(1, 2))) == 1
    assert count_dilated_points(DilatedPolygonSpec(unit, 1, {0: 1})) == 1


def test_eps_requires_integral_level():
    unit = LatticePolygon2([(0, 0), (1, 0), (0, 1)])
    by_edge = {frozenset(e): i for i, e in enumerate(unit.edges())}
    hyp = by_edge[frozenset(((1, 0), (0, 1)))]
    with pytest.raises(ValueError):
        DilatedPolygonSpec(unit, Fraction(1, 2), {hyp: 1})


def test_classification_round_trip():
    rng = random.Random(11)
    for verts in normal_forms(6):
        reference = classify_empty_polygon(LatticePolygon2(verts))
        for _ in range(6):
            mp = random_unimodular(rng)
            poly = LatticePolygon2([mp.apply(v) for v in verts])
            cls = classify_empty_polygon(poly)
            assert (cls.tag, cls.t, cls.s) == (reference.tag, reference.t, reference.s)
            image = {cls.normalizing_map.apply(v) for v in poly.vertices}
            assert image == cls.normal_form_vertices()


def _degenerate_exclusion(poly, r, eps):
    """The configuration where the point-count formula overshoots by one:

    a quadrilateral at dilation exactly 1 with precisely one opposite edge
    pair excluded.  (The layer rows of the counting argument collide with
    the excluded parallel edge there.)
    """
    if r != 1 or len(poly.vertices) != 4:
        return False
    on = sorted(i for i, e in eps.items() if e)
    return on in ([0, 2], [1, 3])


def test_point_count_exhaustive_normal_forms():
    """count = max{0, c+1} away from the documented degenerate corner,
    and exactly one less on it."""
    checked = mismatched = 0
    for verts in normal_forms(5):
        poly = LatticePolygon2(verts)
        ne = len(poly.edges())
        for q in range(1, 6):
            for p in range(1, 3 * q + 1):
                r = Fraction(p, q)
                levels = [
                    edge_support_function(DilatedPolygonSpec(poly, r), i).level
                    for i in range(ne)
                ]
                free = [i for i in range(ne) if levels[i] == 0]
                for bits in product((0, 1), repeat=len(free)):
                    eps = dict(zip(free, bits))
                    spec = DilatedPolygonSpec(poly, r, eps)
                    lhs = count_dilated_points(spec)
                    rhs = max(0, dilated_content(spec) + 1)
                    checked += 1
                    if _degenerate_exclusion(poly, r, spec.eps):
                        assert lhs == rhs - 1, (verts, r, eps)
                        mismatched += 1
                    else:
                        assert lhs == rhs, (verts, r, eps)
    assert checked > 2000
    assert mismatched > 0  # the corner exists and is pinned


def test_point_count_randomized_affine():
    rng = random.Random(20250809)
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
                continue
            assert count_dilated_points(spec) == max(0, dilated_content(spec) + 1)
            checked += 1
    assert checked >= 200


def test_support_sum_constant_at_r1():
    rng = random.Random(3)
    for verts in normal_forms(4):
        mp = random_unimodular(rng)
        poly = LatticePolygon2([mp.apply(v) for v in verts])
        # dilated_content verifies constancy on a 3-point affine frame
        dilated_content(DilatedPolygonSpec(poly, 1))
