"""Test-only mathematics: independent oracles that no subcommand calls.

The empty integral polygons below (classification, support functions and
dilated point counts) are the lemma behind |P_i| = a_i, which
`series.enumerate_P` checks point by point in production.  Everything there
lives in Z^2 with exact arithmetic.  Callers working in an affine plane of
Z^3 are expected to supply their own identification with Z^2.

The rest are small views of the package's objects that only the tests read:
the exhaustive scan for Oka's beta, continued-fraction evaluation, Artin's minimal cycle, a graph rebuilt from
its payload, leg cycles, chi, the pol part of the Poincare series and three
Puiseux-polynomial helpers.  The candidate-plane scan
(`reference_polyhedron`: a plane through every three minimal points or
fewer and the rays, kept when its minimal set spans a face) is the
reference for the polyhedron that the package wraps.  The face scans
(every lattice point of a face's bounding box), the pairwise rank test of
a candidate face and the blow-down loop that rescans the edge list are the
references for the closed counts, the scan's zero-pattern test and the
heap that the package uses;
the walk along each column's lower envelope is the reference for the
weight histogram's face cones, the counting walk with one generator per
open slot (`ReducedCount`), which branches on every leg and chain vertex
and tests each leaf against every target at every vertex, the reference
for the totals of `series.counting_q`'s walk over node values and its
bisection on a chain of targets, and the depth-first search
over exponent assignments (`zeta_search`) the reference for
`series.zeta_coefficient`'s closed form.  A sequence's full cycles
(`cycles`), the box that bounds every Lipman-cone cycle below a full
target in some coordinate (`coordinate_bounds`), and the point sets P_i
and the lattice count of Z_K - E from every row of the Oka graph
(`enumerate_P_full_rows`, `lattice_count_all_rows`) are the references for
the package's comparisons at the nodes only.  The minimum of each Oka
functional over every support point (`wt_cycle`) is the reference for the
wt(f) that the Oka graph reads off its edges.  Every dual cycle at once,
from one fraction-free Gauss-Jordan pass on the form beside the identity
(`scaled_duals`), is the reference for the rows that `IntersectionData.row`
builds one by one.  Lescop's Casson-Walker formula (`casson_walker`), read
off the plumbing graph alone, is the reference for the SW invariant of an
integral homology sphere link.  Kouchnirenko's Newton number
(`newton_number`), from volumes under the diagram, is the reference for
Laufer's formula mu = 12 p_g + Z_K^2 + |V| on the resolution graph, and
Varchenko's monodromy zeta function (`monodromy_zeta`), from the same
volumes, the reference for the rational homology sphere test and for
|H_1| of the link, |det| of both resolution graphs.
"""

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import ceil, floor, gcd, lcm
from operator import lt

from newtonsing import kernels
from newtonsing.errors import (
    BudgetExceeded,
    ClassificationFailed,
    NewtonsingError,
    NotIsolated,
    NotNegativeDefinite,
    NotRationalHomologySphere,
)
from newtonsing.graph import PlumbingGraph
from newtonsing.lattice import _xgcd, content, cross, dot, vec_add, vec_scale, vec_sub
from newtonsing.newton import (
    _UNITS,
    Face2D,
    NewtonPolyhedron,
    PuiseuxPoly,
    _hull_in_plane,
    _weight_histogram,
    convex_hull,
    is_isolated,
)
from newtonsing.sequences import fill_cycle
from newtonsing.series import PartitionReport, _vertex_factor


IntVec2 = tuple[int, int]


def _cross2(a: IntVec2, b: IntVec2) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _sub2(a, b):
    return (a[0] - b[0], a[1] - b[1])


class NotEmpty(NewtonsingError):
    pass


class Degenerate(NewtonsingError):
    pass


class NotAVertex(NewtonsingError):
    pass


def content2(v) -> int:
    return gcd(abs(v[0]), abs(v[1]))


class LatticePolygon2:
    """Convex integral polygon, vertices stored in counterclockwise order."""

    def __init__(self, points):
        hull = convex_hull(points)
        if len(hull) < 3:
            raise Degenerate(f"affine hull of {sorted(set(map(tuple, points)))} is not 2-dimensional")
        self.vertices = tuple(hull)

    def __eq__(self, other):
        return isinstance(other, LatticePolygon2) and set(self.vertices) == set(other.vertices)

    def __hash__(self):
        return hash(frozenset(self.vertices))

    def __repr__(self):
        return f"LatticePolygon2({list(self.vertices)})"

    def edges(self):
        """Directed boundary edges (p, q) in counterclockwise order."""
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def edge_contents(self):
        return [content2(_sub2(q, p)) for p, q in self.edges()]

    def contains(self, p, strict=False):
        for a, b in self.edges():
            c = _cross2(_sub2(b, a), _sub2(p, a))
            if c < 0 or (strict and c == 0):
                return False
        return True

    def interior_points(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        pts = []
        for x in range(min(xs) + 1, max(xs)):
            for y in range(min(ys) + 1, max(ys)):
                if self.contains((x, y), strict=True):
                    pts.append((x, y))
        return pts

    def is_empty(self):
        return not self.interior_points()


@dataclass(frozen=True)
class AffineMap2:
    """x -> M x + t with M unimodular, so it maps Z^2 onto Z^2."""

    matrix: tuple  # ((a, b), (c, d))
    shift: IntVec2

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        if abs(a * d - b * c) != 1:
            raise ValueError("matrix is not unimodular")

    def apply(self, p):
        (a, b), (c, d) = self.matrix
        return (a * p[0] + b * p[1] + self.shift[0], c * p[0] + d * p[1] + self.shift[1])

    def compose(self, other):
        """self after other."""
        (a, b), (c, d) = self.matrix
        (e, f), (g, h) = other.matrix
        m = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
        return AffineMap2(m, self.apply(other.shift))


@dataclass(frozen=True)
class EmptyPolygonClass:
    tag: str  # "big_triangle" | "t_triangle" | "t_trapezoid" | "ts_trapezoid"
    t: int | None
    s: int | None
    normalizing_map: AffineMap2

    def normal_form_vertices(self):
        if self.tag == "big_triangle":
            return {(0, 0), (2, 0), (0, 2)}
        if self.tag == "t_triangle":
            return {(0, 0), (self.t, 0), (0, 1)}
        if self.tag == "t_trapezoid":
            return {(0, 0), (self.t, 0), (0, 1), (1, 1)}
        if self.tag == "ts_trapezoid":
            return {(0, 0), (self.t, 0), (0, 1), (self.s, 1)}
        raise ValueError(self.tag)


def _complement_basis(d: IntVec2) -> IntVec2:
    """Some u with det(d, u) = 1, for primitive d."""
    # Bezout: dx * y - dy * x = 1
    dx, dy = d
    g, x, y = _xgcd(dx, dy)
    if g != 1:
        raise AssertionError(f"direction {d} is not primitive")
    # dx*x + dy*y = 1  ->  u = (-y, x) gives dx*x - dy*(-y) = 1
    return (-y, x)


def classify_empty_polygon(polygon: LatticePolygon2) -> EmptyPolygonClass:
    """Identify the affine type of an empty polygon and a witnessing map.

    The four families (big triangle, t-triangle, t-trapezoid,
    (t,s)-trapezoid) exhaust empty polygons up to integral affine
    isomorphism; the returned map carries the input onto the exact
    normal-form vertex set.
    """
    if not polygon.is_empty():
        raise NotEmpty(f"{polygon} has interior lattice points")

    verts = polygon.vertices
    n = len(verts)
    edges = polygon.edges()
    contents = polygon.edge_contents()
    base_idx = max(range(n), key=lambda i: (contents[i], -i))
    p, q = edges[base_idx]
    t = contents[base_idx]
    d = ((q[0] - p[0]) // t, (q[1] - p[1]) // t)
    u = _complement_basis(d)
    # coordinates of x - p in basis (d, u); interior ends up in y > 0
    det_inv = ((u[1], -u[0]), (-d[1], d[0]))
    base_map = AffineMap2(
        det_inv,
        (-(det_inv[0][0] * p[0] + det_inv[0][1] * p[1]), -(det_inv[1][0] * p[0] + det_inv[1][1] * p[1])),
    )
    moved = [base_map.apply(v) for v in verts]
    top = max(y for _, y in moved)
    tops = sorted(v for v in moved if v[1] == top)
    bottoms = sorted(v for v in moved if v[1] == 0)
    if bottoms != [(0, 0), (t, 0)] or top < 1:
        raise ClassificationFailed(f"unexpected normalized shape {sorted(moved)}")

    def sheared(k):
        # (x, y) -> (x - k*y, y)
        return AffineMap2(((1, -k), (0, 1)), (0, 0)).compose(base_map)

    if top == 2:
        if n != 3 or len(tops) != 1 or t != 2 or tops[0][0] % 2:
            raise ClassificationFailed(f"not an empty polygon shape: {sorted(moved)}")
        return EmptyPolygonClass("big_triangle", None, None, sheared(tops[0][0] // 2))
    if top != 1:
        raise ClassificationFailed(f"lattice width {top} over a longest edge")
    if len(tops) == 1:
        return EmptyPolygonClass("t_triangle", t, None, sheared(tops[0][0]))
    if len(tops) == 2:
        s = tops[1][0] - tops[0][0]
        final = sheared(tops[0][0])
        if s == 1:
            return EmptyPolygonClass("t_trapezoid", t, None, final)
        if 1 < s <= t:
            return EmptyPolygonClass("ts_trapezoid", t, s, final)
    raise ClassificationFailed(f"unexpected top edge structure {tops}")


def vertex_is_regular(polygon: LatticePolygon2, p) -> bool:
    """True when the primitive edge directions at vertex p form a Z^2 basis."""
    p = tuple(p)
    verts = polygon.vertices
    if p not in verts:
        raise NotAVertex(f"{p} is not a vertex of {polygon}")
    i = verts.index(p)
    prev_v = verts[i - 1]
    next_v = verts[(i + 1) % len(verts)]
    dirs = []
    for w in (prev_v, next_v):
        v = _sub2(w, p)
        c = content2(v)
        dirs.append((v[0] // c, v[1] // c))
    return abs(_cross2(dirs[0], dirs[1])) == 1


@dataclass(frozen=True)
class SupportFunction:
    """Primitive integral affine function; value linear . x + const."""

    linear: IntVec2
    const: int
    level: Fraction  # value on the dilated edge, in (-1, 0]

    def __call__(self, p):
        return self.linear[0] * p[0] + self.linear[1] * p[1] + self.const


class DilatedPolygonSpec:
    """An empty polygon together with a dilation factor and boundary choices.

    eps maps an edge index (position in base.edges()) to 1 when the open
    polygon excludes that edge; allowed only where the dilated edge sits at
    an integral level.
    """

    def __init__(self, base: LatticePolygon2, r, eps=None):
        r = Fraction(r)
        if r <= 0:
            raise ValueError("dilation factor must be positive")
        if not base.is_empty():
            raise NotEmpty("base polygon must be empty")
        self.base = base
        self.r = r
        self.eps = {i: 0 for i in range(len(base.edges()))}
        for i, e in (eps or {}).items():
            if e not in (0, 1):
                raise ValueError("eps values must be 0 or 1")
            if e == 1 and edge_support_function(self, i).level != 0:
                raise ValueError(f"edge {i} does not sit at an integral level; eps must be 0")
            self.eps[i] = e


def edge_support_function(spec: DilatedPolygonSpec, edge_index: int, rho=None) -> SupportFunction:
    """Support function of edge `edge_index` of the rho-dilated base polygon.

    The affine function is >= its level on rho*F, and the level lies in
    (-1, 0].  By default rho is the spec's dilation factor.
    """
    rho = spec.r if rho is None else Fraction(rho)
    edges = spec.base.edges()
    if not (0 <= edge_index < len(edges)):
        raise IndexError(edge_index)
    p, q = edges[edge_index]
    d = _sub2(q, p)
    c = content2(d)
    d = (d[0] // c, d[1] // c)
    eta = (-d[1], d[0])  # left normal: counterclockwise boundary keeps the interior left
    value_on_edge = rho * (eta[0] * p[0] + eta[1] * p[1])
    const = floor(-value_on_edge)  # puts the level in (-1, 0]
    return SupportFunction(eta, const, value_on_edge + const)


def _count_points(spec: DilatedPolygonSpec, rho) -> int:
    """|rho F^- intersect Z^2| by direct enumeration, exact."""
    rho = Fraction(rho)
    if rho < 0:
        raise ValueError("negative dilation")
    supports = [edge_support_function(spec, i, rho) for i in range(len(spec.base.edges()))]
    xs = [rho * v[0] for v in spec.base.vertices]
    ys = [rho * v[1] for v in spec.base.vertices]
    count = 0
    for x in range(ceil(min(xs)), floor(max(xs)) + 1):
        for y in range(ceil(min(ys)), floor(max(ys)) + 1):
            vals = [f((x, y)) for f in supports]
            # integral value >= level in (-1, 0]  <=>  value >= 0
            if any(v < 0 for v in vals):
                continue
            if any(spec.eps[i] and vals[i] == 0 for i in range(len(vals))):
                continue
            count += 1
    return count


def dilated_content(spec: DilatedPolygonSpec) -> int:
    """Constant value of sum_S c_S (l_{rS} - eps_S); constancy is verified."""
    supports = [edge_support_function(spec, i) for i in range(len(spec.base.edges()))]
    contents = spec.base.edge_contents()

    def total(p):
        return sum(c * (f(p) - spec.eps[i]) for i, (c, f) in enumerate(zip(contents, supports)))

    probes = [total(p) for p in ((0, 0), (1, 0), (0, 1))]
    if probes[0] != probes[1] or probes[0] != probes[2]:
        raise ClassificationFailed(f"support-function sum is not constant: {probes}")
    return probes[0]


def count_dilated_points(spec: DilatedPolygonSpec) -> int:
    """|rF^- ∩ Z^2| for r < 1, and the layer count against (r-1)F^- for r >= 1."""
    if spec.r < 1:
        return _count_points(spec, spec.r)
    return _count_points(spec, spec.r) - _count_points(spec, spec.r - 1)


def beta_scan(a, b, alpha) -> int:
    """The least 0 <= beta < alpha with content(beta*a + b) = alpha, found
    by trying every candidate: the reference for `pair_data`'s beta."""
    for beta in range(alpha):
        if content(vec_add(vec_scale(beta, a), b)) == alpha:
            return beta
    raise ValueError(f"no denominator found for {a}, {b}")


def cf_evaluate(terms) -> Fraction:
    """Evaluate [b_1, ..., b_s] back to a rational number."""
    if not terms:
        raise ValueError("empty continued fraction")
    value = Fraction(terms[-1])
    for b in reversed(terms[:-1]):
        value = b - 1 / value
    return value


def scaled_duals(g: PlumbingGraph) -> tuple:
    """Every dual cycle of g, scaled by |det|: row v holds |det| m_w(E_v^*)
    over w, as E_v^* = -Q^-1 E_v.  One fraction-free Gauss-Jordan pass on
    [Q | I] leaves [det I | adj Q], and |det| (-Q^-1) = -sign(det) adj Q.
    Pivot k is the leading principal minor of order k + 1, and the form is
    negative definite when every ratio of consecutive minors is negative;
    NotNegativeDefinite names the first that is not."""
    n = g.nv
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(g.intersection_matrix())]
    prev = 1
    for k in range(n):
        pivot_row = rows[k]
        p = pivot_row[k]
        if p * prev >= 0:
            raise NotNegativeDefinite(f"pivot {k} is {Fraction(p, prev)}")
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = p
    sign = -1 if prev > 0 else 1
    return tuple(tuple(sign * x for x in row[n:]) for row in rows)


def casson_walker(g: PlumbingGraph) -> Fraction:
    """Lescop's surgery formula for the Casson-Walker invariant of the
    plumbed link, in the normalization where it equals sw^0 of the
    canonical spin-c structure on an integral homology sphere:
    (sum_v -b_v + 3 |V| + sum_v (2 - delta_v) (E_v^*)^2) / 24, with
    (E_v^*)^2 = -m_v(E_v^*) = -row(v)[v] / |H|.  Vertices of degree 2 add
    nothing to the last sum, so only leaves and nodes read a dual row."""
    data = g.data
    total = Fraction(3 * g.nv - sum(g.b))
    for v, delta in enumerate(g.degree):
        if delta != 2:
            total -= Fraction((2 - delta) * data.row(v)[v], data.group_order)
    return total / 24


def monodromy_zeta(poly: NewtonPolyhedron) -> Counter:
    """Varchenko's monodromy zeta function of a convenient nondegenerate f,
    the product of (1 - t^m)^(e_m), as the Counter m -> e_m.  Each least
    axis exponent a gives (1 - t^a).  Each edge [p, q] of the diagram in a
    coordinate plane, of lattice length t, gives (1 - t^m)^(-t) with
    m = |det(p, q)| / t its lattice distance from 0.  Each compact face of
    value m gives (1 - t^m)^(6V / m), with 6V the sum of
    |det(v_0, v_i, v_(i+1))| over a fan of the face: six times the volume
    of the cone over it.  The zeta function is (1 - t) Delta(t), with Delta
    the characteristic polynomial of the monodromy on H_2 of the Milnor
    fibre (A. N. Varchenko, Invent. Math. 37, 1976)."""
    zeta = Counter()
    for c in range(3):
        zeta[min(p[c] for p in poly.support.points if p[c] == sum(p))] += 1
    for p, q, _, _, t in poly.edges:
        for k in range(3):
            if p[k] == q[k] == 0:
                i, j = (c for c in range(3) if c != k)
                zeta[abs(p[i] * q[j] - p[j] * q[i]) // t] -= t
    for f in poly.compact_faces:
        six_v = sum(abs(dot(f.vertices[0], cross(a, b))) for a, b in zip(f.vertices[1:], f.vertices[2:]))
        zeta[f.value] += six_v // f.value
    return zeta


def newton_number(poly: NewtonPolyhedron) -> int:
    """Kouchnirenko's Newton number 6 V_3 - 2 V_2 + V_1 - 1 of a convenient
    diagram, the Milnor number of a nondegenerate f: the degree of Delta,
    one less than that of the monodromy zeta function.  V_3 is the volume
    under the diagram, V_2 the areas under it in the coordinate planes and
    V_1 the sum of the least axis exponents: the factors of the zeta
    function, of degree m e_m each, add up to 6 V_3 over the faces,
    -2 V_2 over the edges and V_1 over the axes."""
    return sum(m * e for m, e in monodromy_zeta(poly).items()) - 1


def minimal_cycle(g: PlumbingGraph) -> tuple:
    """Artin's minimal cycle: the Laufer sequence from E_0 with no vertex
    held fixed.  Its fixed point does not depend on the order of increments."""
    if g.nv == 0:
        return ()
    z = [1] + [0] * (g.nv - 1)
    kernels.laufer_complete(g.b, g.neighbors, [False] * g.nv, z)
    return tuple(z)


def from_payload(payload):
    verts = sorted(payload["vertices"], key=lambda r: r["id"])
    if [r["id"] for r in verts] != list(range(len(verts))):
        raise ValueError("vertex ids must be 0..n-1")
    return PlumbingGraph([r["b"] for r in verts], [r["genus"] for r in verts], payload["edges"])


def leg_vertices(graph: PlumbingGraph):
    """Vertices lying on legs: chains from a node down to a degree-1 vertex."""
    arms = (arm for node_arms in graph.arms.values() for arm in node_arms)
    return sorted(v for chain, far, _ in arms if far is None for v in chain)


def z_legs_cycle(graph: PlumbingGraph) -> tuple:
    z = [0] * graph.nv
    for v in leg_vertices(graph):
        z[v] = 1
    return tuple(z)


def chi(graph: PlumbingGraph, zk, l) -> Fraction:
    """(-l, l - Z_K)/2."""
    diff = tuple(Fraction(a) - Fraction(b) for a, b in zip(l, zk))
    return Fraction(-graph.pairing(l, diff), 2)


def puiseux(terms) -> PuiseuxPoly:
    """The series of {rational exponent: coefficient}, over the lcm of the
    exponents' denominators."""
    terms = {Fraction(e): c for e, c in terms.items()}
    den = lcm(*(e.denominator for e in terms))
    return PuiseuxPoly({e.numerator * (den // e.denominator): c for e, c in terms.items()}, den)


def poincare_pol_part(poly: NewtonPolyhedron) -> PuiseuxPoly:
    """sum of t^(1 - weight(p)) over positive lattice points under the diagram."""
    histogram, denominator = _weight_histogram(poly, 1, positive=True)
    return PuiseuxPoly({denominator - k: n for k, n in histogram.items()}, denominator)


def coefficient(series: PuiseuxPoly, e) -> int:
    e = Fraction(e)
    k, rest = divmod(e.numerator * series.denominator, e.denominator)
    return 0 if rest else series.numerators.get(k, 0)


def substitute_inverse(series: PuiseuxPoly) -> PuiseuxPoly:
    """t -> 1/t."""
    return PuiseuxPoly({-k: c for k, c in series.numerators.items()}, series.denominator)


def plane_points(normal, value, lo, hi):
    """Lattice points p in [lo, hi]^3 with normal.p == value, in lexicographic order.

    Solves for p2 in each column (p0, p1); `normal` must have a nonzero last entry.
    """
    a0, a1, a2 = normal
    points = []
    for p0 in range(lo[0], hi[0] + 1):
        for p1 in range(lo[1], hi[1] + 1):
            p2, rest = divmod(value - a0 * p0 - a1 * p1, a2)
            if not rest and lo[2] <= p2 <= hi[2]:
                points.append((p0, p1, p2))
    return points


def cap_box(rows, cap, lo):
    """Top corner of a box over lo holding every p >= lo with rows[i].p <= cap
    for some i, for rows of positive entries."""
    low = [sum(a * l for a, l in zip(row, lo)) for row in rows]
    return [max((cap - v) // row[c] + lo[c] for row, v in zip(rows, low)) for c in range(3)]


def min_histogram_walk(rows, cap, lo):
    """Counter of min_i rows[i].p over the p >= lo where that min is <= cap,
    by walking the lower envelope of each column of `cap_box`: the reference
    for `kernels.min_histogram`, which counts the points of each row's face
    cone.

    `rows` have positive entries, so along a column (p0, p1) the min is an
    increasing concave piecewise-linear function of p2.  Each piece starts
    on the line of least value, ties to the least slope, and ends where a
    line of smaller slope reaches it, at cap or at the box's top; it is one
    `range` of values.
    """
    hi = cap_box(rows, cap, lo)
    pieces = []
    l2, h2 = lo[2], hi[2]
    for p0 in range(lo[0], hi[0] + 1):
        for p1 in range(lo[1], hi[1] + 1):
            # (value at p2 = l2, slope) per row
            lines = [(a0 * p0 + a1 * p1 + a2 * l2, a2) for a0, a1, a2 in rows]
            v, s = min(lines)
            p2 = l2
            while v <= cap:
                # a line of slope r < s is at most v + s*d once d >= ceil(gap / (s - r))
                n = min(h2 - p2 + 1, (cap - v) // s + 1)
                for u, r in lines:
                    if r < s:
                        n = min(n, -(-(u + r * (p2 - l2) - v) // (s - r)))
                pieces.append(range(v, v + s * n, s))
                p2 += n
                if p2 > h2:
                    break
                v, s = min([(u + r * (p2 - l2), r) for u, r in lines])
    return Counter(chain.from_iterable(pieces))


def positive_diagram_points(poly: NewtonPolyhedron):
    """Lattice points with all coordinates positive on the union of compact
    faces, by a scan of every face's bounding box."""
    found = set()
    faces = poly.compact_faces + poly.noncompact_faces
    for face in poly.compact_faces:
        lo = [max(min(v[c] for v in face.vertices), 1) for c in range(3)]
        hi = [max(v[c] for v in face.vertices) for c in range(3)]
        for p in plane_points(face.normal, face.value, lo, hi):
            if all(dot(g.normal, p) >= g.value for g in faces):
                found.add(p)
    return sorted(found)


def interior_points(poly: NewtonPolyhedron, face) -> int:
    """Lattice points of the compact face strictly inside every other face's
    half-space, by a scan of the face's bounding box."""
    others = [g for g in poly.compact_faces + poly.noncompact_faces if g.normal != face.normal]
    lo = [min(v[c] for v in face.vertices) for c in range(3)]
    hi = [max(v[c] for v in face.vertices) for c in range(3)]
    points = plane_points(face.normal, face.value, lo, hi)
    return sum(1 for p in points if all(dot(g.normal, p) > g.value for g in others))


def affine_rank2(vectors) -> bool:
    nonzero = [v for v in vectors if v != (0, 0, 0)]
    for v1, v2 in combinations(nonzero, 2):
        if cross(v1, v2) != (0, 0, 0):
            return True
    return False


def spans_face(normal, minimal) -> bool:
    """The differences from the first minimal point, with the rays the
    normal leaves invariant, have rank 2 (tested pairwise)."""
    spanning = [vec_sub(p, minimal[0]) for p in minimal]
    rays = [e for k, e in enumerate(_UNITS) if normal[k] == 0]
    return affine_rank2(spanning + rays)


def minimal_points(pts):
    """The points p of pts with no other point q of pts below them (q <= p).

    pts is sorted without repeats (`Support.points`), so below any point
    below p lies a point kept before p: p is tested against those only."""
    kept = []
    for p in pts:
        if not any(q[0] <= p[0] and q[1] <= p[1] and q[2] <= p[2] for q in kept):
            kept.append(p)
    return kept


def candidate_normals(pts):
    """Primitive nonnegative normals of the planes spanned by points and rays.

    The planes are those through three points (normal cross(q - p, r - p)),
    through two points and a coordinate ray e_k (cross(q - p, e_k)) and
    through one point and two rays (a unit vector).
    """
    raw = set(_UNITS)
    for i, (px, py, pz) in enumerate(pts):
        diffs = [(x - px, y - py, z - pz) for x, y, z in pts[i + 1 :]]
        for j, (a, b, c) in enumerate(diffs):
            raw.update(((0, c, -b), (-c, 0, a), (b, -a, 0)))
            for d, e, f in diffs[j + 1 :]:
                raw.add((b * f - c * e, c * d - a * f, a * e - b * d))
    normals = set()
    for a, b, c in raw:
        if a < 0 or b < 0 or c < 0:
            if a > 0 or b > 0 or c > 0:
                continue  # no multiple of (a, b, c) is nonnegative
            a, b, c = -a, -b, -c
        g = gcd(a, b, c)
        if g:
            normals.add((a // g, b // g, c // g))
    return normals


def spans_by_zeros(normal, minimal) -> bool:
    """Whether the minimal set of a candidate normal (distinct points), with
    the coordinate rays the normal leaves invariant, spans an affine plane.

    Two zero coordinates: the two rays span it.  One zero, at k: some
    minimal point must differ from the first in a coordinate other than k.
    No zero: two differences from the first point must not be parallel.
    """
    zeros = normal.count(0)
    if zeros == 2:
        return True
    x0, y0, z0 = minimal[0]
    diffs = [(x - x0, y - y0, z - z0) for x, y, z in minimal[1:]]
    if zeros:
        return any(d[i] for d in diffs for i in range(3) if normal[i])
    return any(cross(diffs[0], d) != (0, 0, 0) for d in diffs[1:])


def reference_polyhedron(support, points=minimal_points, normals=candidate_normals):
    """`newton.newton_polyhedron` by the candidate-plane scan, with no budget.

    Every candidate normal from `normals(points(support.points))` is kept
    when its minimal set spans a face (`spans_by_zeros`); each edge of a
    compact face must then lie on exactly one other face, found by scanning
    every face's plane.  Points above another point lie on no compact face
    and on a noncompact face only in the span of its rays, so
    `minimal_points` changes nothing; with m points kept the cost is
    O(m^4).
    """
    if not is_isolated(support):
        raise NotIsolated(f"{support} does not define an isolated singularity")
    pts = points(support.points)
    compact, noncompact = [], []
    for normal in sorted(normals(pts)):
        levels = [dot(normal, p) for p in pts]
        value = min(levels)
        minimal = [p for p, level in zip(pts, levels) if level == value]
        if not spans_by_zeros(normal, minimal):
            continue
        if all(normal):
            compact.append(Face2D(normal, value, _hull_in_plane(minimal, normal), True))
        else:
            noncompact.append(Face2D(normal, value, (), False))
    edges = {}
    for face in compact:
        verts = face.vertices
        for i, p in enumerate(verts):
            q = verts[(i + 1) % len(verts)]
            others = [
                g for g in compact + noncompact if g is not face and dot(g.normal, p) == g.value == dot(g.normal, q)
            ]
            if len(others) != 1:
                raise AssertionError(f"edge [{p}, {q}] should lie on exactly one other face, got {others}")
            other = others[0].normal
            key = (other, face.normal) if others[0].compact and other < face.normal else (face.normal, other)
            t = content(vec_sub(q, p))
            if edges.setdefault(key, (p, q, *key, t))[4] != t:
                raise AssertionError(f"inconsistent adjacency length on {key}")
    return NewtonPolyhedron(support, compact, noncompact, [edges[key] for key in sorted(edges)])


def minimal_model_scan(g: PlumbingGraph) -> tuple:
    """`graph.minimal_model` by rescanning the edge list: each round sorts
    every vertex that may blow down, each degree by a pass over the edges."""
    b = list(g.b)
    genus = list(g.genus)
    edges = [list(e) for e in g.edges]
    alive = set(range(g.nv))

    def degree(v):
        return sum((u == v) + (w == v) for u, w in edges)

    while True:
        candidates = sorted(v for v in alive if b[v] == 1 and genus[v] == 0 and degree(v) <= 2)
        if not candidates:
            break
        v = candidates[0]
        incident = [e for e in edges if v in e]
        others = [e[0] if e[1] == v else e[1] for e in incident]
        if len(others) == 2 and others[0] == others[1]:
            raise NotRationalHomologySphere("blow-down would create a loop edge: the graph has a cycle")
        edges = [e for e in edges if v not in e]
        for u in others:
            b[u] -= 1
        if len(others) == 2:
            edges.append([others[0], others[1]])
        alive.remove(v)

    kept = tuple(sorted(alive))
    if len(kept) == g.nv:
        g._check()
        return g, kept
    renum = {old: new for new, old in enumerate(kept)}
    return PlumbingGraph(
        [b[v] for v in kept],
        [genus[v] for v in kept],
        [[renum[u], renum[w]] for u, w in edges],
    ), kept


# One node step as the tests read it: the node values of Z_i, the node v,
# a = max(0, 1 - (Z_i, E_v)), the ratio r and the pairing (Z_i, E_v).
Step = namedtuple("Step", "z_nodes v a r pairing")


def steps(seq) -> list:
    """A sequence's node steps as `Step` records, read off its two columns
    through its own readers (`node_values`, `increments`, `numerators`)."""
    nodes, den = seq.graph.nodes, seq.denominator
    return [
        Step(z, nodes[i], a, Fraction(k, den), p)
        for z, i, a, k, p in zip(seq.node_values(), seq.steps, seq.increments(), seq.numerators(), seq.pairings)
    ]


def cycles(seq) -> list:
    """Z_0 = 0, ..., Z_k of a sequence: the chain fill of the node values
    before each step, then the reached cycle."""
    return [fill_cycle(seq.graph, z) for z in seq.node_values()] + [seq.reached]


def coordinate_bounds(duals, lp):
    """Box certainly containing every cycle of the Lipman cone that stays
    below the full cycle lp in some coordinate, with every coordinate a
    witness: dual cycle entries are positive, so
    l_w <= max_v (m_w(E_v^*) / m_w'(E_v^*)) l_w', and on a tree the max is
    at v = w.  None when lp has no positive entry."""
    witnesses = [w for w in range(len(lp)) if lp[w] > 0]
    if not witnesses:
        return None
    return [max(row[w] * (lp[wp] - 1) // row[wp] for wp in witnesses) for w, row in enumerate(duals)]


def wt_cycle(og, points) -> tuple:
    """Coefficient at v is the minimum of l_v over the given exponents: the
    reference for the wt(f) that `oka_graph` reads off the diagram's edges."""
    pts = [tuple(p) for p in points]
    return tuple(min(dot(f, p) for p in pts) for f in og.ell)


def lattice_count_all_rows(model) -> int:
    """#(Z^3_{>=0} outside the polyhedron of Z_K - E), tested at every row of
    the Oka graph: the reference for `SingularityModel.pg_lattice_count`,
    which scans the node rows."""
    ell = list(model.oka.ell)
    bounds = [x - 1 for x in model.zk_oka]
    return kernels.count_violating(ell, bounds, [0, 0, 0], kernels.violating_top(ell, bounds))


def enumerate_P_full_rows(og, seq) -> PartitionReport:
    """The sets P_i from every row of og.ell: the points outside the reached
    cycle's polyhedron, each placed by a bisection over the sequence's full
    cycles.  The reference for `series.enumerate_P`, which reads node rows
    and node values only."""
    full = cycles(seq)
    ell = list(og.ell)
    bounds = list(full[-1])
    outside = kernels.collect_violating(ell, bounds, [0, 0, 0], kernels.violating_top(ell, bounds))
    sets = [set() for _ in range(len(full) - 1)]
    for p in outside:
        values = [dot(f, p) for f in ell]
        lo_i, hi_i = 0, len(full) - 1
        while lo_i < hi_i:
            mid = (lo_i + hi_i + 1) // 2
            if any(map(lt, values, full[mid])):
                hi_i = mid - 1
            else:
                lo_i = mid
        sets[lo_i].add(tuple(p))
    sizes = [len(s) == st.a for s, st in zip(sets, steps(seq))]
    return PartitionReport(sets, set(map(tuple, outside)), sizes)


class ReducedCount:
    """Enumeration of the zeta support over the reduced tree, with one
    generator per open slot: the reference for the totals of
    `series.counting_q`, which branches on node values only and sums each
    leg into its node's factor (`states` after `run` counts this walk's
    own states, leg and chain values among them).

    Support cycles have a_v = 0 along chains, so a cycle is fixed by the
    node values and one value per incident chain: the first chain
    coefficient f next to the node, which ranges over consecutive integers
    (for a leg, the end exponent is alpha*f - beta*m_n; for a bamboo to
    another node, the far value is alpha*f - beta*m_n).  The pending
    0 <= a_n <= deg-2 constraint of the node brackets each f by the
    congruence floors and box ceilings of the still-open slots.  A graph
    without nodes is rooted at an end (or its one vertex) and has one leg.
    Each leaf is compared with full target cycles at every vertex, so on
    the fills of `counting_q`'s node-value targets it also checks that
    comparing at the nodes is enough.
    """

    def __init__(self, g, targets, ub, max_states):
        self.g = g
        self.targets = targets
        self.ub = ub
        self.max_states = max_states
        self.states = 0
        self.totals = [0] * len(targets)
        self.values = [None] * g.nv
        ends = [v for v in range(g.nv) if g.degree[v] == 1]
        self.root = (g.nodes or ends or (0,))[0]
        arms = g.arms if g.nodes else {self.root: [g.arm(self.root, u) for u in g.neighbors[self.root]]}
        # (chain, alpha, beta, far node) per directed (branch vertex, first
        # vertex), read from the graph's arms
        self.edge_from = {
            (n, u): (chain, alphas[0], alphas[1], far)
            for n, n_arms in arms.items()
            for u, (chain, far, alphas) in zip(g.neighbors[n], n_arms)
        }

    def _plan(self):
        """Task list: branch the root, then per node branch each slot but the
        one back toward its parent, entering each newly reached node before
        the node's next slot, then close the node."""
        tasks = [("root", self.root)]
        stack = [(self.root, iter(self._slots(self.root, None)))]
        while stack:
            n, slots = stack[-1]
            u = next(slots, None)
            if u is None:
                stack.pop()
                tasks.append(("close", n))
                continue
            tasks.append(("slot", n, u))
            far = self.edge_from[(n, u)][3]
            if far is not None:
                stack.append((far, iter(self._slots(far, n))))
        return tasks

    def _slots(self, n, parent):
        """Neighbours of n whose chains do not lead back to the parent node."""
        return [
            u for u in self.g.neighbors[n]
            if parent is None or self.edge_from[(n, u)][3] != parent
        ]

    def _bump(self):
        self.states += 1
        if self.states > self.max_states:
            raise BudgetExceeded(
                "counting function enumeration exceeded its state budget"
            )

    def _congruence_floor(self, n, u):
        _, alpha, beta, _ = self.edge_from[(n, u)]
        return -(-beta * self.values[n] // alpha)

    def _slot_interval(self, n, u):
        """Allowed first values toward u given the node's open slots."""
        g = self.g
        m = self.values[n]
        assigned = 0
        fut_min = fut_max = 0
        for x in g.neighbors[n]:
            if x == u:
                continue
            if self.values[x] is not None:
                assigned += self.values[x]
            else:
                fut_min += self._congruence_floor(n, x)
                fut_max += self.ub[x]
        slack = g.b[n] * m - assigned
        lo = self._congruence_floor(n, u)
        if g.degree[n] >= 2:
            # a_n <= deg - 2; an end's factor is 1 for every a_n >= 0
            lo = max(lo, slack - fut_max - (g.degree[n] - 2))
        hi = min(self.ub[u], slack - fut_min)
        _, alpha, beta, far = self.edge_from[(n, u)]
        if far is not None:
            # far node value alpha*f - beta*m must fit its own box
            hi = min(hi, (beta * m + self.ub[far]) // alpha)
        return lo, hi

    def _fill_chain(self, n, u, f):
        """Set the chain toward u from first value f; False when a value
        leaves the box or drops negative.  Returns the list of set ids."""
        chain, alpha, beta, far = self.edge_from[(n, u)]
        written = []
        prev, cur = self.values[n], f
        for v in chain:
            if cur < 0 or cur > self.ub[v]:
                self._unset(written)
                return None
            self.values[v] = cur
            written.append(v)
            prev, cur = cur, self.g.b[v] * cur - prev
        if far is not None:
            m_far = alpha * f - beta * self.values[n]
            if m_far < 0 or m_far > self.ub[far]:
                self._unset(written)
                return None
            if chain:
                # consistency of the propagated chain with the far value
                if cur != m_far:
                    raise AssertionError("bamboo propagation mismatch")
            self.values[far] = m_far
            written.append(far)
        return written

    def _unset(self, written):
        for v in written:
            self.values[v] = None

    def _node_factor(self, n):
        a = self.g.b[n] * self.values[n] - sum(
            self.values[u] for u in self.g.neighbors[n]
        )
        if a < 0:
            return 0
        return _vertex_factor(self.g.degree[n], a)

    def _choices(self, task):
        """Set each value of a branching task in turn, yielding True after
        each; restore the values when the task is exhausted."""
        if task[0] == "root":
            n = task[1]
            for value in range(self.ub[n] + 1):
                self._bump()
                self.values[n] = value
                yield True
            self.values[n] = None
        else:
            _, n, u = task
            lo, hi = self._slot_interval(n, u)
            for f in range(lo, hi + 1):
                self._bump()
                written = self._fill_chain(n, u, f)
                if written is not None:
                    yield True
                    self._unset(written)

    def run(self):
        """Depth-first over the task list, with one `_choices` generator per
        open branching task on an explicit stack; a close task multiplies
        the weight by the node's factor.  Each leaf is a support cycle l of
        the box, and its z_l counts toward every target that l is not >=."""
        tasks = self._plan()
        stack = []  # (choices, index of the next task, weight)
        idx, weight = 0, 1
        while True:
            while idx < len(tasks):
                task = tasks[idx]
                if task[0] != "close":
                    stack.append((self._choices(task), idx + 1, weight))
                    break
                f = self._node_factor(task[1])
                if not f:
                    break
                weight *= f
                idx += 1
            else:
                for i, t in enumerate(self.targets):
                    if any(map(lt, self.values, t)):
                        self.totals[i] += weight
            while stack:
                choices, idx, weight = stack[-1]
                if next(choices, False):
                    break
                stack.pop()
            else:
                return self.totals


def _max_exponent(degree, remaining, dual):
    """Largest viable exponent for this vertex against the remaining budget."""
    cap = min(rem // e for rem, e in zip(remaining, dual))
    k = degree - 2
    if k >= 0:
        cap = min(cap, k)
    return cap


def zeta_search(g: PlumbingGraph, lp, max_pops=10**5) -> int:
    """Coefficient of t^lp in Z_0(t), by depth-first search over exponent
    assignments (positivity of the dual cycles bounds it): the reference
    for `series.zeta_coefficient`'s closed form.  Raises BudgetExceeded past
    `max_pops` stack pops."""
    duals, scale = [g.data.row(v) for v in range(g.nv)], g.data.group_order
    target = [x * scale for x in lp]
    if any(x < 0 for x in target):
        return 0
    total = 0
    # vertex by vertex: (vertex, remaining budget, signed weight), children
    # pushed last-first so they are visited in increasing exponent
    stack = [(0, target, 1)]
    pops = 0
    while stack:
        pops += 1
        if pops > max_pops:
            raise BudgetExceeded("zeta search exceeded its budget")
        v, remaining, sign_weight = stack.pop()
        if v == g.nv:
            if all(x == 0 for x in remaining):
                total += sign_weight
            continue
        dual = duals[v]
        for a in reversed(range(_max_exponent(g.degree[v], remaining, dual) + 1)):
            factor = _vertex_factor(g.degree[v], a)
            if factor:
                stack.append((v + 1, [r - a * e for r, e in zip(remaining, dual)], sign_weight * factor))
    return total
