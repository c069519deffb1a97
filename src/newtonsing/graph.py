"""Plumbing graphs: Oka's algorithm, exact intersection data and cycles.

Cycles are plain tuples indexed by vertex id.  Negative definiteness is
certified (never assumed) when a graph is built: on a tree by leaf-first
elimination, whose subtree determinants are integers and which makes no
fill-in, on any other graph by a dense fraction-free (Bareiss) elimination.
The intersection data, |det| and on a tree the dual cycles, is cached on
the graph when first read, each row of a tree when that row is read, as a
product of the same subtree determinants; the dense pass keeps |det| only.
Oka's graph is a function of the Newton polyhedron alone: wt(f) is read at
each vertex off the diagram edge it is built from, so no support point is
read after the polyhedron.  Z_K is read off the Newton diagram
(`merle_teissier_ZK`) and certified by the adjunction equalities
(`check_canonical`), never solved for.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BudgetExceeded, Disconnected, NoCompactFace, NotNegativeDefinite, NotRationalHomologySphere, NotTree
from .lattice import dot, pair_data
from .newton import NewtonPolyhedron, face_interior_points

ONES = (1, 1, 1)

# Budget of `oka_graph`: its vertices, checked as each chain is expanded.
# (2,3,10^6) has 166,673 of them (`pg` 4.3 s, 261 MB); (2,3,10^8) would
# have about 1.7e7, and x^(10^30) + y^2 + z^3 one chain of 1.7e29.
OKA_VERTICES = 2 * 10**5


class PlumbingGraph:
    """Vertices carry selfintersection -b_v and genus g_v; edges may repeat.

    With check=True the graph must be connected and negative definite.  A
    tree is certified by `_subtree_dets`, once per graph, and its `data` is
    computed from the same pass when first read; any other graph is
    eliminated at once.  Either way a form that is not definite raises the
    dense elimination's NotNegativeDefinite, which names the first pivot
    that fails.
    """

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
        if check:
            self._check()

    @cached_property
    def data(self) -> "IntersectionData":
        """The graph's exact intersection data, eliminated once."""
        return intersection_data(self)

    @cached_property
    def _leaf_first(self) -> tuple:
        """(order, dets) of a tree: `_bfs_order` from vertex 0 and its
        `_subtree_dets`, once, for every certificate and `intersection_data`."""
        order = _bfs_order(self.neighbors, 0)
        return order, _subtree_dets(self, order)

    @cached_property
    def arms(self) -> dict:
        """arms[n][i] = self.arm(n, neighbors[n][i]) for every node n."""
        if self.nodes and not self.is_tree():
            raise NotTree("chains between nodes need a tree graph")
        return {n: tuple(self.arm(n, u) for u in self.neighbors[n]) for n in self.nodes}

    @cached_property
    def node_chains(self) -> tuple:
        """Per position i in self.nodes: (b_n, ((alpha, beta, far) per arm)),
        with far the position of the arm's far node, or None on a leg.
        `node_pairing` reads a node's pairing off it."""
        pos = {n: i for i, n in enumerate(self.nodes)}
        return tuple(
            (self.b[n], tuple((a[0], a[1], None if far is None else pos[far]) for _, far, a in self.arms[n]))
            for n in self.nodes
        )

    def arm(self, n, u) -> tuple:
        """(chain, far, alphas) read from vertex n toward its neighbour u.

        `chain` holds the vertices of degree <= 2 from u on, `far` the node
        the chain ends at, or None for a leg (a chain ending at a degree-1
        vertex).  alphas[j] is the numerator of the negative continued
        fraction [b of chain[j], ..., b of chain[-1]], followed by 1 and 0,
        so the fraction at chain[j] is alphas[j] / alphas[j + 1] (1/0 for an
        empty chain).  Laufer's completion along the chain is then
        x(chain[j]) = ceil((alphas[j + 1] x(previous) + z_far) / alphas[j]),
        with z_far = 0 on a leg.
        """
        chain, prev = [], n
        while self.degree[u] <= 2:
            chain.append(u)
            nxt = [x for x in self.neighbors[u] if x != prev]
            if not nxt:
                break  # a leg ends at a degree-1 vertex
            prev, u = u, nxt[0]
        far = None if chain and self.degree[chain[-1]] == 1 else u
        alphas = [0, 1]
        for v in reversed(chain):
            alphas.append(self.b[v] * alphas[-1] - alphas[-2])
        return tuple(chain), far, tuple(reversed(alphas))

    def _check(self):
        """Raise unless the graph is connected and negative definite."""
        self._check_connected()
        if not self.is_tree() or self._leaf_first[1] is None:
            self.data  # the dense elimination raises NotNegativeDefinite

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

    def to_dot(self):
        lines = ["graph plumbing {"]
        for v in range(self.nv):
            lines.append(f'  v{v} [label="v{v} [b={self.b[v]}, g={self.genus[v]}]"];')
        for u, v in self.edges:
            lines.append(f"  v{u} -- v{v};")
        lines.append("}")
        return "\n".join(lines)


def node_pairing(b_n, chains, z_n, z) -> int:
    """(x(z), E_n) at a node n of value z_n, summed over `chains` (some of
    its `node_chains` entries), for the chain fill x(z) of the node values z
    (in graph.nodes order): -b_n z_n plus, per chain, its first value
    ceil((beta z_n + z_o) / alpha), with z_o = 0 on a leg."""
    total = -b_n * z_n
    for alpha, beta, o in chains:
        total -= (-beta * z_n - (0 if o is None else z[o])) // alpha
    return total


class IntersectionData:
    """|det| of a graph's form and, on a definite tree, `_tree_data`'s
    arrays: row(v)[w] = |det| m_w(E_v^*) is one walk over them, built when
    first read, checked positive and cached; off trees `row` raises NotTree."""

    def __init__(self, group_order, tree=None):
        self.group_order, self.tree, self.rows = group_order, tree, {}

    def row(self, v) -> tuple:
        if v not in self.rows:
            if self.tree is None:
                raise NotTree("dual cycles are built on trees only")
            neighbors, parent, cofactor, edge = self.tree
            row = [0] * len(neighbors)
            row[v] = cofactor[v]
            for x, p in _bfs_order(neighbors, v)[1:]:
                row[x] = row[p] * cofactor[x] // edge[x if parent[x] == p else p]
            if any(x <= 0 for x in row):
                raise AssertionError("dual cycle entries must be positive")
            self.rows[v] = tuple(row)
        return self.rows[v]


def _bfs_order(neighbors, root) -> list:
    """(vertex, parent) pairs of a tree, given by its neighbour lists, in
    breadth-first order from root, whose parent is -1."""
    order = [(root, -1)]
    for v, parent in order:
        order.extend((u, v) for u in neighbors[v] if u != parent)
    return order


def _subtree_dets(g: PlumbingGraph, order):
    """(D, P) for the tree g rooted at order[0], or None when its form is
    not negative definite.

    D(v) is the determinant of minus the form on v's subtree and P(v) the
    product of D(c) over v's children c.  Eliminating leaves first makes no
    fill-in: the pivot at v is b_v - sum_c P(c)/D(c) = D(v)/P(v), so
    D(v) = b_v P(v) - sum_c P(c) P(v)/D(c), every division exact.  The form
    is negative definite iff every pivot is positive, i.e. every D(v) > 0.
    """
    det = [0] * g.nv
    prod = [1] * g.nv
    for v, parent in reversed(order):
        p = prod[v]
        d = g.b[v] * p - sum(prod[c] * (p // det[c]) for c in g.neighbors[v] if c != parent)
        if d <= 0:
            return None
        det[v] = d
        if parent >= 0:
            prod[parent] *= d
    return det, prod


def _tree_data(g: PlumbingGraph, order, det, prod) -> IntersectionData:
    """Intersection data of a definite tree from `_subtree_dets`.

    |det| m_x(E_w^*) is the product of the determinants of the branches off
    the path [w, x] (Eisenbud-Neumann 1985), and |det| = D(root).  up[v], the
    branch at v's parent p away from v, follows from expanding |det| across
    the edge (v, p): |det| = D(v) up[v] - P(v) (P(p)/D(v)) up[p], up[root] = 1.
    The diagonal at w is P(w) up[w]; `IntersectionData.row(w)` steps from p
    to x away from w, trading the branch at p toward x for the other branches
    at x, a factor P(x) up[x] / (D(c) up[c]) with c the child end of {p, x}.
    """
    total, parent, up = det[order[0][0]], dict(order), [1] * g.nv
    for v, p in order[1:]:
        up[v] = (total + prod[v] * (prod[p] // det[v]) * up[p]) // det[v]
    cofactor = [prod[v] * up[v] for v in range(g.nv)]
    edge = [det[v] * up[v] for v in range(g.nv)]  # the edge from v to its parent
    return IntersectionData(total, (g.neighbors, parent, cofactor, edge))


def intersection_data(g: PlumbingGraph) -> IntersectionData:
    """|det| of g's form, and on a definite tree the arrays of its rows: from
    the subtree determinants (rooted at vertex 0) on a definite tree, by
    `_bareiss` on any other graph, which on a tree names the pivot that fails."""
    if not g.is_tree():
        return IntersectionData(_bareiss(g))
    order, dets = g._leaf_first
    if dets is None:
        _bareiss(g)
        raise AssertionError("leaf-first certificate and elimination disagree")
    return _tree_data(g, order, *dets)


def _bareiss(g: PlumbingGraph) -> int:
    """|det| of g's form by one forward fraction-free elimination (Bareiss
    1968), which raises NotNegativeDefinite unless the form is definite.

    Pivot k is the leading principal minor of order k + 1, so the symmetric
    elimination pivot is minor_{k+1} / minor_k; all of these must be
    negative.  Every division is exact.
    """
    rows = g.intersection_matrix()
    prev = 1
    for k in range(g.nv):
        pivot_row = rows[k]
        p = pivot_row[k]
        if p * prev >= 0:
            raise NotNegativeDefinite(f"pivot {k} is {Fraction(p, prev)}")
        for i in range(k + 1, g.nv):
            f = rows[i][k]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = p
    return abs(prev)


def check_canonical(g: PlumbingGraph, z) -> tuple:
    """z as a tuple, after checking the adjunction equalities
    (z, E_v) = 2 - b_v - 2 g_v at every vertex of g.

    The form of a checked graph is nondegenerate, so Z_K is the one cycle
    that satisfies them: the check is as strong as solving for Z_K, at
    O(nv + edges).
    """
    z = tuple(z)
    bad = [v for v in range(g.nv) if g.dot_E(z, v) != 2 - g.b[v] - 2 * g.genus[v]]
    if bad:
        raise AssertionError(f"adjunction equalities fail at vertices {bad}")
    return z


@dataclass
class OkaGraph:
    """Oka's graph with its functionals and wt(f).  Its chains are
    `graph.arms`: read from a node n, an arm's (alphas[0], alphas[1]) is
    `pair_data`'s (alpha, beta) of l_n and the far functional (l_far, or the
    star normal of a leg)."""

    graph: PlumbingGraph
    polyhedron: NewtonPolyhedron
    ell: tuple  # vertex id -> primitive functional
    wtf: tuple  # vertex id -> wt(f), the least value of its functional on the diagram
    node_ids: dict  # compact face normal -> vertex id
    star_attach: dict  # vertex id -> star normal it abuts


def oka_graph(poly: NewtonPolyhedron) -> OkaGraph:
    """Resolution graph from the Newton diagram by Oka's algorithm.

    The graph is a function of `poly` alone, which is its `.polyhedron`; no
    support point is read after the polyhedron.  The caller owns the
    polyhedron: `SingularityModel` passes its own, and `make_convenient`
    each candidate's.  A graph of more than OKA_VERTICES vertices raises
    BudgetExceeded before the chain that would pass the budget is built.

    wt(f) is read at each vertex as it is built.  A node takes its face's
    value.  A chain vertex of the edge [p, q] between the faces of normals a
    and b has a functional l = lambda a + mu b with lambda, mu >= 0 (the
    chain subdivides the cone of a and b), and p lies on both faces, so
    l.s >= lambda a.p + mu b.p = l.p for every s in the diagram: wt(f) at
    the vertex is l.p.  `check_canonical` certifies Z_K = E + wt(f) -
    wt(x1 x2 x3) at every vertex of a convenient graph, and the adjunction
    equalities have one solution, so a wrong wt(f) fails there.
    """
    if not poly.compact_faces:
        raise NoCompactFace(f"{poly.support} has no compact face")

    compact = sorted(poly.compact_faces, key=lambda f: f.normal)
    node_ids = {f.normal: i for i, f in enumerate(compact)}
    ell = [f.normal for f in compact]
    wtf = [f.value for f in compact]
    b_values = [None] * len(compact)
    genus = [face_interior_points(f) for f in compact]  # Pick's theorem
    edges = []
    star_attach = {}

    def new_vertex(functional, selfint, p):
        ell.append(tuple(functional))
        wtf.append(dot(functional, p))
        b_values.append(int(selfint))
        genus.append(0)
        return len(ell) - 1

    for p, _, a_vec, b_vec, t in poly.edges:
        b_compact = b_vec in node_ids
        try:  # the edge's t chains must fit in the budget's remainder
            string, seq = pair_data(a_vec, b_vec, 0 if b_compact else 1, (OKA_VERTICES - len(ell)) // t)[2:]
        except BudgetExceeded:
            raise BudgetExceeded(f"Oka graph budget exceeded: the graph has more than {OKA_VERTICES} vertices") from None
        for _ in range(t):
            vids = tuple(new_vertex(vec, s, p) for vec, s in zip(seq, string))
            chain = [node_ids[a_vec], *vids]
            if b_compact:
                chain.append(node_ids[b_vec])
            for u, v in zip(chain, chain[1:]):
                edges.append((u, v))
            if not b_compact and vids:
                star_attach[vids[-1]] = b_vec

    # node selfintersections from the neighbour sum, at the normal's largest
    # coordinate; `_check_neighbor_sums` certifies them with every other vertex
    neighbor_lists = [[] for _ in range(len(ell))]
    for u, v in edges:
        neighbor_lists[u].append(v)
        neighbor_lists[v].append(u)
    for nid, normal in enumerate(ell[: len(compact)]):
        k = max(range(3), key=normal.__getitem__)
        b_values[nid] = sum(ell[u][k] for u in neighbor_lists[nid]) // normal[k]
    _check_neighbor_sums(ell, b_values, neighbor_lists, star_attach)

    graph = PlumbingGraph(b_values, genus, edges)
    return OkaGraph(graph, poly, tuple(ell), tuple(wtf), node_ids, star_attach)


def _check_neighbor_sums(ell, b_values, neighbor_lists, star_attach):
    """-b_v l_v + sum of neighbour functionals (+ the star normal v abuts) = 0
    at every vertex v, exactly.  At a node it also certifies b_n > 0: the
    neighbour functionals are nonnegative and not all zero, and l_n is
    positive."""
    for v, (x, y, z) in enumerate(ell):
        b = b_values[v]
        sx, sy, sz = star_attach.get(v, (0, 0, 0))
        sx, sy, sz = sx - b * x, sy - b * y, sz - b * z
        for u in neighbor_lists[v]:
            x, y, z = ell[u]
            sx, sy, sz = sx + x, sy + y, sz + z
        if sx or sy or sz:
            raise AssertionError(f"neighbour sum violated at vertex {v}: {(sx, sy, sz)}")


def x1x2x3_cycle(og: OkaGraph) -> tuple:
    return tuple(dot(f, ONES) for f in og.ell)


def merle_teissier_ZK(og: OkaGraph) -> tuple:
    """Z_K = E + wt(f) - wt(x1 x2 x3) on the Oka graph (Oka 1987), integral by
    construction; `check_canonical` certifies it."""
    wtxyz = x1x2x3_cycle(og)
    return tuple(1 + a - b for a, b in zip(og.wtf, wtxyz))


def minimal_model(g: PlumbingGraph) -> tuple:
    """(minimal, kept): blow down genus-0 (-1)-vertices of degree <= 2 until
    none remain; kept[i] is the vertex of g that vertex i of minimal came
    from.  A blow-down keeps every other coefficient of Z_K (K' = pi*K + E),
    so Z_K of minimal is Z_K of g read at kept.  The least eligible vertex
    goes first, from a min-heap over neighbour lists: O((V + E) log V).

    When nothing blows down, g itself is returned, with every vertex kept,
    after the checks its constructor runs (g may have been built with
    check=False): connected, and negative definite by the leaf-first
    certificate on a tree, by the dense elimination otherwise.
    """
    b = list(g.b)
    genus = g.genus
    nbr = [list(n) for n in g.neighbors]  # with multiplicity
    alive = [True] * g.nv

    def eligible(v):
        return b[v] == 1 and genus[v] == 0 and len(nbr[v]) <= 2

    heap = [v for v in range(g.nv) if eligible(v)]
    while heap:
        v = heapq.heappop(heap)
        if not alive[v] or not eligible(v):
            continue
        others = nbr[v]
        if len(others) == 2 and others[0] == others[1]:
            # a double edge is a cycle, so b1 > 0 and H1 of the link is infinite
            raise NotRationalHomologySphere("blow-down would create a loop edge: the graph has a cycle")
        alive[v] = False
        for u in others:
            nbr[u].remove(v)
            b[u] -= 1
        if len(others) == 2:
            u, w = others
            nbr[u].append(w)
            nbr[w].append(u)
        for u in others:
            if eligible(u):
                heapq.heappush(heap, u)

    kept = tuple(v for v in range(g.nv) if alive[v])
    if len(kept) == g.nv:
        g._check()
        return g, kept
    renum = {old: new for new, old in enumerate(kept)}
    return PlumbingGraph(
        [b[v] for v in kept],
        [genus[v] for v in kept],
        [[renum[u], renum[w]] for u in kept for w in nbr[u] if u < w],
    ), kept


def tree_code(g: PlumbingGraph) -> str:
    """Canonical encoding of a decorated tree, for isomorphism checks: the
    least code of the tree rooted at one of its centers.

    For graphs with cycles or genus (non rational-homology-sphere links) a
    weaker invariant tuple is encoded instead.
    """
    if g.nv == 0:
        return "()"
    if not g.is_tree():
        decorations = sorted(zip(g.b, g.genus, g.degree))
        return f"nontree{decorations}|{len(g.edges)}|{g.data.group_order}"

    return min(_rooted_code(g, c) for c in _centers(g))


def _centers(g: PlumbingGraph) -> list:
    """The one or two middle vertices of a longest path of the tree g.

    The last vertex of a breadth-first order is as far as any from its
    root; from such a vertex the last one is the other end of a longest
    path.  Every automorphism fixes the set of centers, so rooting there
    keeps the code canonical.
    """
    start = _bfs_order(g.neighbors, 0)[-1][0]
    order = _bfs_order(g.neighbors, start)
    parent = dict(order)
    path = [order[-1][0]]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[(len(path) - 1) // 2 : len(path) // 2 + 1]


def _rooted_code(g: PlumbingGraph, root) -> str:
    """Code of g rooted at `root`: (b,genus|children's codes, sorted)."""
    order = _bfs_order(g.neighbors, root)
    codes = {}
    for v, parent in reversed(order):
        subs = sorted(codes.pop(u) for u in g.neighbors[v] if u != parent)
        codes[v] = f"({g.b[v]},{g.genus[v]}|{''.join(subs)})"
    return codes[root]
