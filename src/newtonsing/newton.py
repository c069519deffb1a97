"""Newton polyhedra of monomial supports in Z^3 and derived invariants.

The polyhedron Gamma_+ = conv(support) + R^3_{>=0} is built in exact integer
arithmetic by gift wrapping (Chand and Kapur 1970): from the faces of the
coordinate projections' Newton polygons, one pivot per edge finds the face
across it; Pick's theorem counts a face's lattice points.  On top of it:
isolatedness/convenience/rational-homology-sphere predicates, the weight
function, the spectrum part in (-1, 0], the Poincare series of the
induced filtration, and the central-face/arm anatomy of the diagram.

The spectrum and the Poincare series count lattice points by weight.  With
L the lcm of the compact face values, L * weight(p) is an integer, so one
integer histogram serves both, and a series is a `PuiseuxPoly` of integer
numerators over one denominator.  The histogram is counted per face and
column (`kernels.min_histogram`), or, on a diagram with one compact face,
from the generating series of that face's form (`kernels.form_histogram`).
Neither scan takes a box: the weight cap bounds every coordinate through
the face where a point attains its weight, and the weight box
(`weight_box`) is only the scan's budget.
"""

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import floor, gcd, lcm

from . import kernels
from .errors import (
    BudgetExceeded,
    ClassificationFailed,
    NoCompactFace,
    NotIsolated,
    NotRationalHomologySphere,
)
from .lattice import IntVec3, cross, dot, vec_scale, vec_sub

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# Budget of a weight scan: the lattice points of its weight box.  Front-page
# `poincare --max-exponent 50` spans 4.0e7 of them, and (2,3,5) at 200 2.4e8.
WEIGHT_BOX_VOLUME = 10**8

# Budget of `newton_polyhedron`: the support points its wrap reads, a pass
# per face and per pivot.  The curved support of radius 14 (38,812 points)
# reads 7.0e5 of them, the paraboloid grid of side 30 (961 faces) 1.9e6 in
# 0.36 s, and that of side 40 5.7e6.
POLYHEDRON_READS = 5 * 10**6


class Support:
    """Finite set of exponent vectors in the nonnegative octant."""

    def __init__(self, points):
        pts = set()
        for p in points:
            try:
                p = tuple(map(operator.index, p))
            except TypeError:
                raise TypeError(f"support point {p!r} is not a 3-vector of integers") from None
            if len(p) != 3 or min(p) < 0:
                raise ValueError(f"support point {p} is not a nonnegative 3-vector")
            if p == (0, 0, 0):
                raise ValueError("constant term (0,0,0) does not define a singularity")
            pts.add(p)
        if not pts:
            raise ValueError("support must be nonempty")
        self.points = tuple(sorted(pts))

    def __eq__(self, other):
        return isinstance(other, Support) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"Support({list(self.points)})"


@dataclass(frozen=True)
class Face2D:
    normal: IntVec3
    value: int
    vertices: tuple  # cyclic hull order; empty for noncompact faces
    compact: bool

    def touches_hyperplane(self, axis) -> bool:
        return any(v[axis] == 0 for v in self.vertices)

    def touches_axis(self, axis) -> bool:
        other = [k for k in range(3) if k != axis]
        return any(v[other[0]] == 0 and v[other[1]] == 0 for v in self.vertices)


@dataclass
class NewtonPolyhedron:
    support: Support
    compact_faces: list  # sorted by normal: `oka_graph` numbers its nodes in this order
    noncompact_faces: list
    # each edge of a compact face once, as (p, q, normal, other, t): the
    # compact normal first, of two the smaller, with p, q in its face's
    # vertex order; t is the lattice length of [p, q]; sorted by the normals
    edges: list


def is_isolated(support: Support) -> bool:
    """Kouchnirenko's support criterion for an isolated singular point.

    For every coordinate subset I, at least |I| indices i admit a support
    point p with p - e_i in the octant face spanned by I: p_j = 0 outside
    I union {i}, p_i >= 1, and p_i = 1 exactly when i lies outside I (this
    is the "distance at most one from each coordinate axis" clause).

    A convenient support is isolated: for i in I an axis point d e_i is a
    witness (p_i = 1 is asked only for i outside I), so I has |I| of them.
    """
    if is_convenient(support):
        return True
    pts = support.points
    for size in (1, 2, 3):
        for subset in combinations(range(3), size):
            witnesses = set()
            for i in range(3):
                need_one = i not in subset
                outside = [j for j in range(3) if j not in subset and j != i]
                for p in pts:
                    if p[i] < 1 or (need_one and p[i] != 1):
                        continue
                    if all(p[j] == 0 for j in outside):
                        witnesses.add(i)
                        break
            if len(witnesses) < size:
                return False
    return True


def is_convenient(support: Support) -> bool:
    """True when the support meets all three coordinate axes."""
    for c in range(3):
        others = [j for j in range(3) if j != c]
        if not any(p[c] > 0 and p[others[0]] == 0 and p[others[1]] == 0 for p in support.points):
            return False
    return True


def _chain(points, i=0, j=1):
    """Vertices of the lower hull, in coordinates (i, j), of points sorted by
    coordinate i, from the first point to the last (monotone chain)."""
    out = []
    for r in points:
        while len(out) >= 2 and (out[-1][i] - out[-2][i]) * (r[j] - out[-2][j]) <= (
            out[-1][j] - out[-2][j]
        ) * (r[i] - out[-2][i]):
            out.pop()
        out.append(r)
    return out


def convex_hull(points):
    """Vertices of the convex hull in counterclockwise order (monotone chain).

    Collinear boundary points are dropped, so the result lists vertices only.
    """
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts
    return _chain(pts)[:-1] + _chain(pts[::-1])[:-1]


def _hull_in_plane(points, normal):
    """Cyclically ordered hull vertices of coplanar 3D points."""
    drop = max(range(3), key=lambda k: abs(normal[k]))
    keep = [k for k in range(3) if k != drop]
    proj = {}
    for p in points:
        proj[(p[keep[0]], p[keep[1]])] = p
    hull2 = convex_hull(proj.keys())
    return tuple(proj[q] for q in hull2)


def _newton_polygon(points, i, j):
    """Vertices of the Newton polygon of points in coordinates (i, j), by
    increasing i: the lower chain of the points below all before them."""
    stair = []
    for r in sorted(points, key=operator.itemgetter(i, j)):
        if not stair or r[j] < stair[-1][j]:
            stair.append(r)
    return _chain(stair, i, j)


def _pivot(points, p, q, normal, inside):
    """Primitive normal of the face across the edge [p, q] of the face of
    `normal`, with `inside` pointing from the edge into that face.

    Of the directions w = r - p (r a support point, or p + e_k) that leave
    the face's plane, height h = normal.w > 0, the one that turns least
    from o, in the plane and pointing away from the face, spans the new
    face: with s = o.w, w beats w' when s h' > h s'.
    """
    d = vec_sub(q, p)
    o = cross(d, normal)
    oa, ob, oc = vec_scale(-1, o) if dot(o, inside) > 0 else o
    na, nb, nc = normal
    px, py, pz = p
    h0, s0 = na * px + nb * py + nc * pz, oa * px + ob * py + oc * pz
    best_s, best_h, best = -1, 0, None
    for r in chain(points, ((px + 1, py, pz), (px, py + 1, pz), (px, py, pz + 1))):
        x, y, z = r
        h = na * x + nb * y + nc * z - h0
        if h > 0:
            s = oa * x + ob * y + oc * z - s0
            if s * best_h > h * best_s:
                best_s, best_h, best = s, h, r
    new = cross(d, vec_sub(best, p))
    if dot(new, inside) < 0:
        new = vec_scale(-1, new)
    if min(new) < 0:
        raise AssertionError(f"wrapped normal {new} across [{p}, {q}] has a negative entry")
    g = gcd(*new)
    return new[0] // g, new[1] // g, new[2] // g


def newton_polyhedron(support: Support) -> NewtonPolyhedron:
    """All two dimensional faces of the Newton polyhedron of the support.

    The noncompact faces are the e_k and, for each k, one per edge of the
    Newton polygon of the support's projection along e_k.  Their bounded
    edges (the Newton polygon of e_k's points, the lower chain along e_k of
    the others) seed a wrap: `_pivot` finds the face across each edge that
    one face is known on, and a new compact face adds its edges.  Each
    pivot and each face's points read the whole support, so the cost is
    O(m) per face for m points; past POLYHEDRON_READS points read the
    support is refused.  No step scans lattice points, so large exponents
    cost no more.  `edges` lists each edge of a compact face once.
    """
    if not is_isolated(support):
        raise NotIsolated(f"{support} does not define an isolated singularity")
    points = support.points
    reads = 0

    def read():
        nonlocal reads
        reads += len(points)
        if reads > POLYHEDRON_READS:
            raise BudgetExceeded(
                f"polyhedron budget exceeded: the wrap reads more than {POLYHEDRON_READS} support points"
            )
        return points

    def plane(normal, value):
        a, b, c = normal
        return [r for r in read() if a * r[0] + b * r[1] + c * r[2] == value]

    noncompact, work = {}, []  # work: (p, q, normal, inside) per face edge
    for k, (i, j) in enumerate(((1, 2), (0, 2), (0, 1))):
        unit = _UNITS[k]
        noncompact[unit] = low = min(r[k] for r in points)
        ring = _newton_polygon([r for r in points if r[k] == low], i, j)
        work += [(u, v, unit, vec_sub((1, 1, 1), unit)) for u, v in zip(ring, ring[1:])]
        ring = _newton_polygon(points, i, j)
        for u, v in zip(ring, ring[1:]):
            normal = [0, 0, 0]
            normal[i], normal[j] = u[j] - v[j], v[i] - u[i]
            g = gcd(*normal)
            normal = (normal[0] // g, normal[1] // g, normal[2] // g)
            noncompact[normal] = value = dot(normal, u)
            lowest = {}
            for r in sorted(plane(normal, value), key=operator.itemgetter(i, k)):
                lowest.setdefault(r[i], r)
            lower = _chain(list(lowest.values()), i, k)
            work += [(a, b, normal, unit) for a, b in zip(lower, lower[1:])]

    sides = {}  # edge -> normals of the faces found on it
    for p, q, normal, _ in work:
        sides.setdefault(frozenset((p, q)), []).append(normal)
    compact = {}
    for p, q, normal, inside in work:  # also reaches the edges appended below
        if len(sides[frozenset((p, q))]) > 1:
            continue
        new = _pivot(read(), p, q, normal, inside)
        if not all(new):  # a noncompact face's bounded edges are all seeds
            raise AssertionError(f"wrapped normal {new} across [{p}, {q}] is not compact")
        value = dot(new, p)
        verts = _hull_in_plane(plane(new, value), new)
        compact[new] = Face2D(new, value, verts, True)
        for n, u in enumerate(verts):
            sides.setdefault(frozenset((u, verts[n - 1])), []).append(new)
            work.append((u, verts[n - 1], new, vec_sub(verts[n - 2], u)))

    faces = [compact[normal] for normal in sorted(compact)]
    edges = {}
    for face in faces:
        verts = face.vertices
        for n, (px, py, pz) in enumerate(verts):
            q = qx, qy, qz = verts[(n + 1) % len(verts)]
            (other,) = [g for g in sides[frozenset((verts[n], q))] if g != face.normal]
            key = (other, face.normal) if all(other) and other < face.normal else (face.normal, other)
            t = gcd(qx - px, qy - py, qz - pz)
            if edges.setdefault(key, (verts[n], q, *key, t))[4] != t:
                raise AssertionError(f"inconsistent adjacency length on {key}")
    noncompact = [Face2D(normal, value, (), False) for normal, value in sorted(noncompact.items())]
    return NewtonPolyhedron(support, faces, noncompact, [edges[key] for key in sorted(edges)])


def make_convenient(poly: NewtonPolyhedron):
    """Oka graph of the equisingular convenient completion of `poly`'s support.

    The completion adds x_c^d monomials, d as small as equisingularity
    allows.  Keeping every old compact face a face is necessary but not
    sufficient: the boundary faces created by too-small axis points can
    carry extra topology (the padded polynomial then has a different link).
    So d grows until the padded diagram blows down to the same minimal
    plumbing graph as the original and leaves the Saito spectrum part
    unchanged, which is what "d large" buys in the equisingular completion.
    Each candidate's polyhedron is built once, and its Oka graph and that
    graph's blow-down only when the face test passes.  Returns the accepted
    candidate's Oka graph, whose `.polyhedron` is the convenient one (its
    `.support` the completed support), with the `(minimal, kept)` pair of
    `minimal_model` on it, so that no caller blows it down again.
    """
    from .graph import minimal_model, oka_graph, tree_code

    support = poly.support
    old = {(f.normal, f.value, frozenset(f.vertices)) for f in poly.compact_faces}
    d = 1 + max(max(p) for p in support.points)
    reference = reference_spectrum = None
    if poly.compact_faces:
        d = max(
            -(-face.value // face.normal[c])
            for face in poly.compact_faces
            for c in range(3)
            if face.normal[c] > 0
        )
        reference = tree_code(minimal_model(oka_graph(poly).graph)[0])
        reference_spectrum = saito_spectrum(poly)
    limit = d + 400
    while d <= limit:
        new_points = set(support.points)
        for e in _UNITS:
            new_points.add(tuple(d * x for x in e))
        new_poly = newton_polyhedron(Support(new_points))
        new = {(f.normal, f.value, frozenset(f.vertices)) for f in new_poly.compact_faces}
        if old <= new:
            og = oka_graph(new_poly)
            blown_down = minimal_model(og.graph)
            if reference is None or (
                tree_code(blown_down[0]) == reference
                and saito_spectrum(new_poly) == reference_spectrum
            ):
                return og, blown_down
        d += 1
    raise AssertionError(f"no equisingular convenient completion found for {support}")


def is_rhs_link(poly: NewtonPolyhedron) -> bool:
    """True when no all-positive lattice point lies on a compact face.

    Such a point is a vertex with no zero coordinate, a lattice point inside
    an edge whose ends are not both 0 in one coordinate, or one inside a
    face (a zero coordinate there would make x_c = 0 the face's plane).
    Every vertex of a compact face ends one of its edges.
    """
    for p, q, _, _, t in poly.edges:
        if all(p) or all(q) or (t >= 2 and all(a or b for a, b in zip(p, q))):
            return False
    return not any(face_interior_points(face) for face in poly.compact_faces)


def face_interior_points(face: Face2D) -> int:
    """Lattice points inside a compact face, by Pick: I = (2A - B + 2) / 2.

    The normal n is primitive, so cross(v_i - v_0, v_(i+1) - v_0) is an
    integer multiple of n, and over the fan from v_0 the multiples sum to
    twice the lattice area 2A.  Their z coordinates, the shoelace sum of
    the projection to the (x, y)-plane, sum to n_z 2A.  B, the lattice
    points on the boundary, is the sum of the edge contents.
    """
    verts = face.vertices
    shoelace = boundary = 0
    for i, (px, py, pz) in enumerate(verts):
        qx, qy, qz = verts[i - 1]
        shoelace += qx * py - qy * px
        boundary += gcd(px - qx, py - qy, pz - qz)
    return (abs(shoelace) // face.normal[2] - boundary + 2) // 2


def _require_compact(poly: NewtonPolyhedron):
    if not poly.compact_faces:
        raise NoCompactFace(f"{poly.support} has no compact 2-dimensional face")


def newton_weight(poly: NewtonPolyhedron, p) -> Fraction:
    """min over compact faces of l_n(p) / wt_n(f); equals 1 on the diagram."""
    _require_compact(poly)
    return min(Fraction(dot(f.normal, p), f.value) for f in poly.compact_faces)


def weight_box(poly, bound):
    """Box certainly containing every p >= 0 with weight(p) <= bound.

    Raises BudgetExceeded when the box holds more than WEIGHT_BOX_VOLUME
    lattice points: a scan of it, or the sum over periods in
    `SingularityModel.poincare_via_sequence`, would not finish in time.
    """
    bound = Fraction(bound)
    num, den = bound.numerator, bound.denominator
    hi = [max(num * f.value // (den * f.normal[c]) for f in poly.compact_faces) for c in range(3)]
    if (hi[0] + 1) * (hi[1] + 1) * (hi[2] + 1) > WEIGHT_BOX_VOLUME:
        raise BudgetExceeded(
            f"weight box budget exceeded: the weight scan spans more than "
            f"{WEIGHT_BOX_VOLUME} lattice points"
        )
    return hi


def _weight_histogram(poly, bound, positive):
    """Counter of L * weight(p) over the region weight(p) <= bound, and L.

    L is the lcm of the compact face values w_n, so weight(p) is k / L with
    the integer k = min_n (L // w_n) * l_n(p), and weight(p) <= bound is
    k <= floor(bound * L).  That cap bounds every coordinate through the
    face where p attains its weight, so neither kernel takes a box.
    `kernels.min_histogram` counts the k per face and column, not per
    point.  A diagram with one compact face is weighted homogeneous: L = w,
    k is the one form l(p), and `kernels.form_histogram` counts the k from
    the series 1 / prod_c (1 - t^(l_c)) in O(cap) steps.  The weight box
    serves only the budget and this choice: the list of counts is used
    while it is no longer than the box has points, which bounds both the
    time and the memory of either kernel by the box.
    """
    _require_compact(poly)
    bound = Fraction(bound)
    faces = poly.compact_faces
    denominator = lcm(*(f.value for f in faces))
    scaled = [tuple(denominator // f.value * a for a in f.normal) for f in faces]
    lo = [1, 1, 1] if positive else [0, 0, 0]
    hi = weight_box(poly, bound)
    cap = floor(bound * denominator)
    if len(faces) == 1 and cap <= (hi[0] + 1) * (hi[1] + 1) * (hi[2] + 1):
        return kernels.form_histogram(scaled[0], cap, lo), denominator
    return kernels.min_histogram(scaled, cap, lo), denominator


def saito_spectrum(poly: NewtonPolyhedron) -> Counter:
    """Multiset of weight(p) - 1 over positive lattice points p with weight <= 1."""
    histogram, denominator = _weight_histogram(poly, 1, positive=True)
    return Counter({Fraction(k - denominator, denominator): n for k, n in histogram.items()})


class PuiseuxPoly:
    """Finitely many terms coeff * t^exponent with rational exponents.

    `PuiseuxPoly(numerators, denominator)` takes integer numerators over a
    positive denominator: `numerators` maps k to the coefficient of
    t^(k / denominator).  The denominator is reduced by the gcd of itself
    and every numerator, and zero coefficients are dropped, so equal series
    hold equal data.
    """

    def __init__(self, numerators, denominator):
        data = {k: c for k, c in numerators.items() if c}
        g = gcd(denominator, *data)
        if g > 1:
            data = {k // g: c for k, c in data.items()}
        self.numerators = data
        self.denominator = denominator // g

    def terms(self):
        return [(Fraction(k, self.denominator), c) for k, c in sorted(self.numerators.items())]

    def __bool__(self):
        return bool(self.numerators)

    def __eq__(self, other):
        return (
            isinstance(other, PuiseuxPoly)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __repr__(self):
        body = " + ".join(f"{c}*t^{e}" for e, c in self.terms()) or "0"
        return f"PuiseuxPoly({body})"


def poincare_newton(poly: NewtonPolyhedron, max_exponent) -> PuiseuxPoly:
    """Terms of (1 - t) * sum_p t^weight(p) with exponent <= max_exponent.

    With N(e) the number of p >= 0 of weight e, the coefficient at e is
    N(e) - N(e - 1), and both counts lie at weight <= max_exponent, so the
    scan stops there.  Iterating over the weights found misses no term: if
    N(e - 1) > 0, take p of weight e - 1 and a vertex v of a face where p
    attains its minimum; p + v has weight e, so N(e) > 0 as well.
    """
    bound = Fraction(max_exponent)
    if bound <= 0:
        raise ValueError("max_exponent must be positive")
    histogram, denominator = _weight_histogram(poly, bound, positive=False)
    return PuiseuxPoly(
        {k: n - histogram.get(k - denominator, 0) for k, n in histogram.items()}, denominator
    )


@dataclass
class AnatomyReport:
    kind: str  # "central_face" | "central_edges"
    central_face: Face2D | None
    central_shape: str | None  # "triangle" | "trapezoid" | "polygon"
    central_edge_count: int
    arms: dict  # axis -> ordered list of face normals, center outward
    degenerate_arms: list


def classify_diagram(poly: NewtonPolyhedron) -> AnatomyReport:
    """Central face / central edge diagnosis and the arm chains per axis."""
    _require_compact(poly)
    if not is_rhs_link(poly):
        raise NotRationalHomologySphere("diagram has an interior positive lattice point")

    candidates = [
        f for f in poly.compact_faces if all(f.touches_hyperplane(a) for a in range(3))
    ]
    strict = [f for f in candidates if not any(f.touches_axis(a) for a in range(3))]
    # an edge between two compact faces (all-positive normals) that meets
    # every coordinate plane
    central_edges = sum(
        1 for p, q, _, other, _ in poly.edges if all(other) and all(min(a, b) == 0 for a, b in zip(p, q))
    )

    central = None
    if len(strict) == 1:
        central = strict[0]
    elif not strict and len(candidates) == 1 and not central_edges:
        central = candidates[0]

    if central is not None:
        kind = "central_face"
        edge_count = 0
    elif central_edges and not strict:
        kind = "central_edges"
        edge_count = central_edges
    else:
        raise ClassificationFailed(
            f"ambiguous anatomy: {len(candidates)} central face candidates, "
            f"{central_edges} central edges"
        )

    shape = None
    if central is not None:
        if len(central.vertices) == 3:
            shape = "triangle"
        elif len(central.vertices) == 4 and _is_trapezoid(central.vertices):
            shape = "trapezoid"
        else:
            shape = "polygon"

    arms, degenerate = {}, []
    for axis in range(3):
        planes = [a for a in range(3) if a != axis]
        members = [
            f
            for f in poly.compact_faces
            if f is not central
            and all(v[planes[0]] == 0 or v[planes[1]] == 0 for v in f.vertices)
        ]
        arms[axis] = [f.normal for f in _order_arm(poly, members, central)]
        if not members:
            degenerate.append(axis)
    return AnatomyReport(kind, central, shape, edge_count, arms, degenerate)


def _is_trapezoid(vertices):
    n = len(vertices)
    dirs = [vec_sub(vertices[(i + 1) % n], vertices[i]) for i in range(n)]
    return any(cross(dirs[i], dirs[(i + 2) % n]) == (0, 0, 0) for i in range(2))


def _order_arm(poly, members, central):
    if len(members) <= 1:
        return list(members)
    member_keys = {f.normal for f in members}
    adj = {f.normal: [] for f in members}
    for _, _, a, b, _ in poly.edges:
        if a in member_keys and b in member_keys:
            adj[a].append(b)
            adj[b].append(a)
    start = None
    if central is not None:
        near = {a if b == central.normal else b for _, _, a, b, _ in poly.edges if central.normal in (a, b)}
        start = next((f.normal for f in members if f.normal in near), None)
    if start is None:
        ends = [k for k, nb in adj.items() if len(nb) <= 1]
        start = sorted(ends)[0] if ends else sorted(member_keys)[0]
    order, seen = [start], {start}
    while len(order) < len(members):
        nxt = [k for k in adj[order[-1]] if k not in seen]
        if not nxt:
            order.extend(sorted(member_keys - seen))
            break
        order.append(nxt[0])
        seen.add(nxt[0])
    by_key = {f.normal: f for f in members}
    return [by_key[k] for k in order]
