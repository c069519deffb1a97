"""Plumbing graphs: Oka's algorithm, exact intersection data and cycles.

Cycles are plain tuples indexed by vertex id.  The intersection form of a
graph is eliminated once, in integers (fraction-free Bareiss), and cached on
the graph; negative definiteness is certified (never assumed) by the signs
of that elimination's pivots, and det, the dual cycles and Z_K all read its
adjugate.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import kernels
from .errors import Disconnected, NewtonsingError, NoCompactFace, NotNegativeDefinite
from .lattice import dot, pair_data, vec_add
from .newton import NewtonPolyhedron, Support, newton_polyhedron

ONES = (1, 1, 1)


class PlumbingGraph:
    """Vertices carry selfintersection -b_v and genus g_v; edges may repeat."""

    def __init__(self, b, genus, edges, check=True):
        self.b = tuple(int(x) for x in b)
        self.genus = tuple(int(x) for x in genus)
        if len(self.b) != len(self.genus):
            raise ValueError("b and genus lists differ in length")
        self.nv = len(self.b)
        self.edges = tuple(sorted(tuple(sorted(map(int, e))) for e in edges))
        for u, v in self.edges:
            if not (0 <= u < self.nv and 0 <= v < self.nv):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError("loop edges are not supported")
        nbr = [[] for _ in range(self.nv)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        self.neighbors = tuple(tuple(sorted(n)) for n in nbr)
        self.degree = tuple(len(n) for n in self.neighbors)
        self.nodes = tuple(v for v in range(self.nv) if self.degree[v] >= 3)
        self.ends = tuple(v for v in range(self.nv) if self.degree[v] == 1)
        if check:
            self._check_connected()
            self.data  # the elimination raises NotNegativeDefinite

    @cached_property
    def data(self) -> "IntersectionData":
        """The graph's exact intersection data, eliminated once."""
        return intersection_data(self)

    def _check_connected(self):
        if self.nv == 0:
            return
        seen = {0}
        stack = [0]
        while stack:
            for u in self.neighbors[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != self.nv:
            raise Disconnected(f"graph has {self.nv - len(seen)} unreachable vertices")

    def intersection_matrix(self):
        m = [[0] * self.nv for _ in range(self.nv)]
        for v in range(self.nv):
            m[v][v] = -self.b[v]
        for u, v in self.edges:
            m[u][v] += 1
            m[v][u] += 1
        return m

    def dot_E(self, z, v) -> int:
        """(Z, E_v)."""
        return -self.b[v] * z[v] + sum(z[u] for u in self.neighbors[v])

    def pairing(self, z1, z2):
        return sum(z1[v] * self.dot_E(z2, v) for v in range(self.nv))

    def is_tree(self) -> bool:
        return len(self.edges) == self.nv - 1

    def __eq__(self, other):
        return (
            isinstance(other, PlumbingGraph)
            and self.b == other.b
            and self.genus == other.genus
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.b, self.genus, self.edges))

    def __repr__(self):
        return f"PlumbingGraph(nv={self.nv}, edges={len(self.edges)})"

    def to_payload(self, ell=None):
        verts = []
        for v in range(self.nv):
            rec = {"id": v, "b": self.b[v], "genus": self.genus[v]}
            if ell is not None:
                rec["functional"] = list(ell[v])
            verts.append(rec)
        return {"vertices": verts, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_payload(cls, payload):
        verts = sorted(payload["vertices"], key=lambda r: r["id"])
        if [r["id"] for r in verts] != list(range(len(verts))):
            raise ValueError("vertex ids must be 0..n-1")
        return cls([r["b"] for r in verts], [r["genus"] for r in verts], payload["edges"])

    def to_dot(self):
        lines = ["graph plumbing {"]
        for v in range(self.nv):
            lines.append(f'  v{v} [label="v{v} [b={self.b[v]}, g={self.genus[v]}]"];')
        for u, v in self.edges:
            lines.append(f"  v{u} -- v{v};")
        lines.append("}")
        return "\n".join(lines)


@dataclass
class IntersectionData:
    """Result of a graph's one elimination; the other views derive from it."""

    matrix: tuple
    determinant: int
    adjugate: tuple  # integers; the inverse is adjugate / determinant

    @property
    def group_order(self) -> int:
        return abs(self.determinant)

    @cached_property
    def scaled_duals(self) -> tuple:
        """scaled_duals[v][w] = |det| m_w(E_v^*) = (-1)^(nv+1) adjugate[v][w]."""
        sign = 1 if self.determinant < 0 else -1
        return tuple(tuple(sign * x for x in row) for row in self.adjugate)

    @cached_property
    def dual_cycles(self) -> tuple:
        """dual_cycles[v][w] = m_w(E_v^*), positive Fractions."""
        d = self.group_order
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.scaled_duals)

    @cached_property
    def inverse(self) -> tuple:
        d = self.determinant
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.adjugate)

    @cached_property
    def ratio_table(self) -> tuple:
        """ratio_table[w][w'] = (num, den), num/den the largest ratio
        m_w(E_v^*) / m_w'(E_v^*) over v, found by cross-multiplying."""
        rows = self.scaled_duals
        n = len(rows)
        table = []
        for w in range(n):
            out = []
            for wp in range(n):
                num, den = rows[0][w], rows[0][wp]
                for row in rows[1:]:
                    if row[w] * den > num * row[wp]:
                        num, den = row[w], row[wp]
                out.append((num, den))
            table.append(tuple(out))
        return tuple(table)


def intersection_data(g: PlumbingGraph) -> IntersectionData:
    """Determinant and adjugate of the intersection form by one fraction-free
    Gauss-Jordan pass over [A | I] (Bareiss 1968).

    Pivot k is the leading principal minor of order k + 1, so the symmetric
    elimination pivot is minor_{k+1} / minor_k; all of these must be
    negative.  Every row other than k is updated at step k, every division
    is exact, and the pass ends at [det I | adj A].
    """
    n = g.nv
    m = g.intersection_matrix()
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
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
    data = IntersectionData(tuple(tuple(row) for row in m), prev, tuple(tuple(row[n:]) for row in rows))
    if any(x <= 0 for row in data.scaled_duals for x in row):
        raise AssertionError("dual cycle entries must be positive")
    return data


def canonical_cycle(g: PlumbingGraph):
    """Anticanonical cycle solving the adjunction equalities; (cycle, integral?)."""
    data = g.data
    rhs = [2 - g.b[v] - 2 * g.genus[v] for v in range(g.nv)]
    numerators = [sum(a * r for a, r in zip(row, rhs)) for row in data.adjugate]
    zk = tuple(Fraction(x, data.determinant) for x in numerators)
    return zk, all(x % data.determinant == 0 for x in numerators)


def zk_integer(g: PlumbingGraph) -> tuple:
    zk, integral = canonical_cycle(g)
    if not integral:
        raise NewtonsingError("graph is not numerically Gorenstein")
    return tuple(int(x) for x in zk)


@dataclass
class Bamboo:
    face_a: tuple  # normal of the node the orientation starts at
    face_b: tuple  # normal of the other face (node or star)
    copy: int
    vertex_ids: tuple  # possibly empty, ordered from face_a to face_b
    alpha: int
    beta: int
    beta_reverse: int | None  # for node-node bamboos


@dataclass
class OkaGraph:
    graph: PlumbingGraph
    polyhedron: NewtonPolyhedron
    support: Support
    ell: tuple  # vertex id -> primitive functional
    node_ids: dict  # compact face normal -> vertex id
    star_normals: tuple  # normals of noncompact faces
    bamboos: list
    u_map: dict  # (node id, other face normal) -> neighbour vertex id
    star_attach: dict  # vertex id -> star normal it abuts

    @property
    def node_normals(self):
        return tuple(sorted(self.node_ids))

    def vertex_name(self, v):
        return self.ell[v]


def oka_graph(support: Support) -> OkaGraph:
    """Resolution graph from the Newton diagram by Oka's algorithm."""
    poly = newton_polyhedron(support)
    if not poly.compact_faces:
        raise NoCompactFace(f"{support} has no compact face")

    compact = sorted(poly.compact_faces, key=lambda f: f.normal)
    stars = sorted(poly.noncompact_faces, key=lambda f: f.normal)
    node_ids = {f.normal: i for i, f in enumerate(compact)}
    ell = [f.normal for f in compact]
    b_values = [None] * len(compact)
    genus = [None] * len(compact)
    edges = []
    bamboos = []
    u_map = {}
    star_attach = {}

    def new_vertex(functional, selfint):
        ell.append(tuple(functional))
        b_values.append(int(selfint))
        genus.append(0)
        return len(ell) - 1

    pairs = []
    for fa in compact:
        for fb, t in poly.neighbors_of(fa.normal):
            if fb.compact and fb.normal < fa.normal:
                continue  # handled from the other side
            pairs.append((fa, fb, t))
    pairs.sort(key=lambda rec: (rec[0].normal, rec[1].normal))

    for fa, fb, t in pairs:
        a_vec, b_vec = fa.normal, fb.normal
        unit_choice = 0 if fb.compact else 1
        alpha, beta, string, seq = pair_data(a_vec, b_vec, unit_choice)
        beta_rev = None
        if fb.compact and alpha > 1:
            _, beta_rev, _, _ = pair_data(b_vec, a_vec, 0)
        elif fb.compact:
            beta_rev = beta
        for copy in range(t):
            vids = tuple(new_vertex(vec, s) for vec, s in zip(seq, string))
            chain = [node_ids[a_vec], *vids]
            if fb.compact:
                chain.append(node_ids[b_vec])
            for u, v in zip(chain, chain[1:]):
                edges.append((u, v))
            if not fb.compact and vids:
                star_attach[vids[-1]] = b_vec
            bamboos.append(Bamboo(a_vec, b_vec, copy, vids, alpha, beta, beta_rev))
            if copy == 0:
                u_map[(node_ids[a_vec], b_vec)] = vids[0] if vids else node_ids[b_vec]
                if fb.compact:
                    u_map[(node_ids[b_vec], a_vec)] = vids[-1] if vids else node_ids[a_vec]

    # node selfintersections from the neighbour sum; node genera from
    # interior lattice points of the face
    neighbor_lists = [[] for _ in range(len(ell))]
    for u, v in edges:
        neighbor_lists[u].append(v)
        neighbor_lists[v].append(u)
    for face in compact:
        nid = node_ids[face.normal]
        total = (0, 0, 0)
        for u in neighbor_lists[nid]:
            total = vec_add(total, ell[u])
        k = max(range(3), key=lambda i: face.normal[i])
        if total[k] % face.normal[k]:
            raise AssertionError(f"neighbour sum not a multiple of the normal at {face.normal}")
        b_n = total[k] // face.normal[k]
        if tuple(b_n * x for x in face.normal) != total:
            raise AssertionError(f"neighbour sum mismatch at {face.normal}")
        if b_n <= 0:
            raise AssertionError(f"nonpositive selfintersection at node {face.normal}")
        b_values[nid] = b_n
        genus[nid] = _interior_points(poly, face)

    graph = PlumbingGraph(b_values, genus, edges)
    og = OkaGraph(
        graph,
        poly,
        support,
        tuple(ell),
        node_ids,
        tuple(f.normal for f in stars),
        bamboos,
        u_map,
        star_attach,
    )
    _check_neighbor_sums(og)
    return og


def _interior_points(poly, face):
    others = [g for g in poly.all_faces() if g.normal != face.normal]
    lo = [min(v[c] for v in face.vertices) for c in range(3)]
    hi = [max(v[c] for v in face.vertices) for c in range(3)]
    points = kernels.plane_points(face.normal, face.value, lo, hi)
    return sum(1 for p in points if all(dot(g.normal, p) > g.value for g in others))


def _check_neighbor_sums(og: OkaGraph):
    """-b_v l_v + sum of neighbour functionals = 0 at every vertex, exactly."""
    g = og.graph
    for v in range(g.nv):
        total = tuple(-g.b[v] * x for x in og.ell[v])
        for u in g.neighbors[v]:
            total = vec_add(total, og.ell[u])
        if v in og.star_attach:
            total = vec_add(total, og.star_attach[v])
        if total != (0, 0, 0):
            raise AssertionError(f"neighbour sum violated at vertex {v}: {total}")


def wt_cycle(og: OkaGraph, points) -> tuple:
    """Coefficient at v is the minimum of l_v over the given exponents."""
    pts = [tuple(p) for p in points]
    return tuple(min(dot(f, p) for p in pts) for f in og.ell)


def x1x2x3_cycle(og: OkaGraph) -> tuple:
    return tuple(dot(f, ONES) for f in og.ell)


def merle_teissier_ZK(og: OkaGraph) -> tuple:
    """E + wt(f) - wt(x1 x2 x3); must agree with the adjunction solution."""
    wtf = wt_cycle(og, og.support.points)
    wtxyz = x1x2x3_cycle(og)
    return tuple(1 + a - b for a, b in zip(wtf, wtxyz))


def minimal_model(g: PlumbingGraph) -> PlumbingGraph:
    """Blow down genus-0 (-1)-vertices of degree <= 2 until none remain."""
    b = list(g.b)
    genus = list(g.genus)
    edges = [list(e) for e in g.edges]
    alive = set(range(g.nv))

    def degree(v):
        return sum((u == v) + (w == v) for u, w in edges)

    while True:
        candidates = sorted(
            v for v in alive if b[v] == 1 and genus[v] == 0 and degree(v) <= 2
        )
        if not candidates:
            break
        v = candidates[0]
        incident = [e for e in edges if v in e]
        others = [e[0] if e[1] == v else e[1] for e in incident]
        if len(others) == 2 and others[0] == others[1]:
            raise NewtonsingError("blow-down would create a loop edge")
        edges = [e for e in edges if v not in e]
        for u in others:
            b[u] -= 1
        if len(others) == 2:
            edges.append([others[0], others[1]])
        alive.remove(v)

    order = sorted(alive)
    renum = {old: new for new, old in enumerate(order)}
    return PlumbingGraph(
        [b[v] for v in order],
        [genus[v] for v in order],
        [[renum[u], renum[w]] for u, w in edges],
    )


def minimal_cycle(g: PlumbingGraph) -> tuple:
    """Artin's minimal cycle by the Laufer procedure."""
    if g.nv == 0:
        return ()
    z = [0] * g.nv
    z[0] = 1
    while True:
        for v in range(g.nv):
            if g.dot_E(z, v) > 0:
                z[v] += 1
                break
        else:
            return tuple(z)


def tree_code(g: PlumbingGraph) -> str:
    """Canonical encoding of a decorated tree, for isomorphism checks.

    For graphs with cycles or genus (non rational-homology-sphere links) a
    weaker invariant tuple is encoded instead.
    """
    if g.nv == 0:
        return "()"
    if not g.is_tree():
        decorations = sorted(zip(g.b, g.genus, g.degree))
        det = g.data.determinant
        return f"nontree{decorations}|{len(g.edges)}|{det}"

    def enc(v, parent):
        subs = sorted(enc(u, v) for u in g.neighbors[v] if u != parent)
        return f"({g.b[v]},{g.genus[v]}|{''.join(subs)})"

    return min(enc(v, None) for v in range(g.nv))
