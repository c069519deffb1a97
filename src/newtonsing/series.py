"""Brute-force zeta/counting function coefficients and the step point sets.

These are the independent oracles.  Coefficients of
Z_0(t) = prod_v (1 - t^{E_v^*})^{deg v - 2} are enumerated from exponent
assignments (positivity of the dual cycles bounds the search); the counting
function walks the same terms through their cycles, whose chain coordinates
are pinned by the node values and end exponents.  The sets P_i come from
raw halfspace tests in Z^3.
"""

from dataclasses import dataclass
from math import comb

from . import kernels
from .errors import KindMismatch, NewtonsingError, NotTree
from .graph import OkaGraph, PlumbingGraph
from .lattice import dot
from .sequences import SequenceResult


def _require_tree(g: PlumbingGraph):
    if not g.is_tree() or any(g.genus):
        raise NotTree("zeta expansion needs a genus-0 tree graph")


def _vertex_factor(degree, exponent):
    """Coefficient of t^(exponent * E_v^*) contributed by vertex v."""
    k = degree - 2
    if k >= 0:
        return (-1) ** exponent * comb(k, exponent) if exponent <= k else 0
    if k == -1:
        return 1
    return exponent + 1  # k == -2, single-vertex graph


def _max_exponent(degree, remaining, dual):
    """Largest viable exponent for this vertex against the remaining budget."""
    cap = min(rem // e for rem, e in zip(remaining, dual))
    k = degree - 2
    if k >= 0:
        cap = min(cap, k)
    return cap


def zeta_coefficient(data, g: PlumbingGraph, lp) -> int:
    """Coefficient of t^lp in Z_0(t), by exponent-assignment enumeration."""
    _require_tree(g)
    duals, scale = data.scaled_duals, data.group_order
    target = [x * scale for x in lp]
    if any(x < 0 for x in target):
        return 0
    order = list(range(g.nv))
    total = 0

    def walk(idx, remaining, sign_weight):
        nonlocal total
        if idx == len(order):
            if all(x == 0 for x in remaining):
                total += sign_weight
            return
        v = order[idx]
        dual = duals[v]
        for a in range(_max_exponent(g.degree[v], remaining, dual) + 1):
            factor = _vertex_factor(g.degree[v], a)
            if factor == 0:
                continue
            walk(
                idx + 1,
                [r - a * e for r, e in zip(remaining, dual)],
                sign_weight * factor,
            )

    walk(0, target, 1)
    return total


def zeta_coefficient_convolution(data, g: PlumbingGraph, lp) -> int:
    """Same coefficient by truncated polynomial multiplication (second path)."""
    _require_tree(g)
    duals, scale = data.scaled_duals, data.group_order
    target = tuple(x * scale for x in lp)
    if any(x < 0 for x in target):
        return 0
    acc = {(0,) * g.nv: 1}
    for v in range(g.nv):
        dual = duals[v]
        nxt = {}
        for key, coeff in acc.items():
            a = 0
            while True:
                shifted = tuple(k + a * e for k, e in zip(key, dual))
                if any(s > t for s, t in zip(shifted, target)):
                    break
                factor = _vertex_factor(g.degree[v], a)
                if factor:
                    nxt[shifted] = nxt.get(shifted, 0) + coeff * factor
                k_v = g.degree[v] - 2
                if k_v >= 0 and a >= k_v:
                    break
                a += 1
        acc = nxt
    return acc.get(target, 0)


def _coordinate_bounds(data, lp):
    """Box certainly containing every cycle of the Lipman cone that stays
    below lp in some coordinate: entries of the dual cycles are positive,
    so l_w <= (m_w(E*)/m_w'(E*)) * l_w' termwise."""
    witnesses = [w for w in range(len(lp)) if lp[w] > 0]
    if not witnesses:
        return None
    return [
        max(row[wp][0] * (lp[wp] - 1) // row[wp][1] for wp in witnesses)
        for row in data.ratio_table
    ]


def counting_q(data, g: PlumbingGraph, lp, max_states=10_000_000) -> int:
    """q_lp = sum of z_l over l in lp + L with l - lp not effective.

    Since the dual cycles are a basis, every zeta term is indexed by its
    cycle l with exponents a_v = -(l, E_v); so the sum runs over lattice
    cycles directly.  Cycles in the support have a_v = 0 along every chain,
    so they are determined by the node values and the end exponents; the
    enumeration walks that reduced tree, with one divisibility condition
    per bamboo pinning the chain interior.  `max_states` bounds the visited
    states and raises rather than churn on pathological inputs.
    """
    _require_tree(g)
    if g.nv == 0:
        return 0
    target = list(lp)
    ub = _coordinate_bounds(data, target)
    if ub is None:
        return 0
    if not g.nodes:
        return _counting_q_chain(g, target, ub, max_states)
    return _ReducedCount(g, target, ub, max_states).run()


def _counting_q_chain(g, target, ub, max_states):
    """Node-free graphs: a single vertex or one chain of degree-2 vertices."""
    total = 0
    states = 0
    if g.nv == 1:
        for l0 in range(min(ub[0], target[0] - 1) + 1):
            total += _vertex_factor(g.degree[0], g.b[0] * l0)
        return total
    # order the chain from one extreme; two free values determine the rest
    start = g.ends[0]
    order = [start, g.neighbors[start][0]]
    while len(order) < g.nv:
        nxt = [u for u in g.neighbors[order[-1]] if u != order[-2]]
        order.append(nxt[0])
    for first in range(ub[order[0]] + 1):
        for second in range(ub[order[1]] + 1):
            states += 1
            if states > max_states:
                raise NewtonsingError(
                    "counting function enumeration exceeded its state budget"
                )
            values = {order[0]: first, order[1]: second}
            ok = g.b[order[0]] * first - second >= 0  # end exponent at the start
            prev, cur = first, second
            for v in order[1:-1]:
                nxt = g.b[v] * cur - prev  # a_v = 0 along the chain
                i = order.index(v)
                values[order[i + 1]] = nxt
                prev, cur = cur, nxt
                if nxt < 0:
                    ok = False
                    break
            if not ok:
                continue
            last = order[-1]
            a_last = g.b[last] * values[last] - values[order[-2]]
            if a_last < 0:
                continue
            if any(values[v] > ub[v] for v in order):
                continue
            if any(values[v] < target[v] for v in order):
                total += 1  # both end factors are 1, interior factors 1
    return total


class _ReducedCount:
    """Enumeration of the zeta support over the reduced tree.

    Support cycles have a_v = 0 along chains, so a cycle is fixed by the
    node values and one value per incident bamboo: the first chain
    coefficient f next to the node, which ranges over consecutive integers
    (for a leg, the end exponent is alpha*f - beta*m_n; for a bamboo to
    another node, the far value is alpha*f - beta*m_n).  The pending
    0 <= a_n <= deg-2 constraint of the node brackets each f by the
    congruence floors and box ceilings of the still-open slots.
    """

    def __init__(self, g, target, ub, max_states):
        self.g = g
        self.target = target
        self.ub = ub
        self.max_states = max_states
        self.states = 0
        self.total = 0
        self.values = [None] * g.nv
        self.root = g.nodes[0]
        # directed edge data per (node, first-vertex): chain, fraction, far node
        self.edge_from = {}
        self.edge_key = {}
        for n in g.nodes:
            for u in g.neighbors[n]:
                chain = [n, u]
                while g.degree[chain[-1]] == 2:
                    nxt = [x for x in g.neighbors[chain[-1]] if x != chain[-2]]
                    chain.append(nxt[0])
                tail = chain[-1]
                if g.degree[tail] >= 3:
                    interior = tuple(chain[1:-1])
                    alpha, beta = self._chain_fraction([g.b[v] for v in interior])
                    self.edge_from[(n, u)] = (interior, alpha, beta, tail)
                    self.edge_key[(n, u)] = (min(n, tail), max(n, tail), frozenset(interior))
                else:
                    string = tuple(chain[1:])
                    alpha, beta = self._chain_fraction([g.b[v] for v in string])
                    self.edge_from[(n, u)] = (string, alpha, beta, None)
                    self.edge_key[(n, u)] = (n, tail, frozenset(string))

    @staticmethod
    def _chain_fraction(string):
        """numerator/denominator of the negative continued fraction
        [b_1, ..., b_s]; (1, 0) for the empty string."""
        if not string:
            return 1, 0
        num, den = string[-1], 1
        for b_i in reversed(string[:-1]):
            num, den = b_i * num - den, num
        return num, den

    def _plan(self):
        """Task list: branch the root, then per node branch each open slot
        (recursing into newly reached nodes), then close the node."""
        tasks = [("root", self.root)]
        claimed = set()

        def expand(n):
            slots = []
            for u in self.g.neighbors[n]:
                key = self.edge_key[(n, u)]
                if key in claimed:
                    continue  # parent-side bamboo, already branched
                claimed.add(key)
                slots.append(u)
            for u in slots:
                tasks.append(("slot", n, u))
                far = self.edge_from[(n, u)][3]
                if far is not None:
                    expand(far)
            tasks.append(("close", n))

        expand(self.root)
        return tasks

    def _bump(self):
        self.states += 1
        if self.states > self.max_states:
            raise NewtonsingError(
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
        lo = max(self._congruence_floor(n, u), slack - fut_max - (g.degree[n] - 2))
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

    def run(self):
        tasks = self._plan()

        def walk(idx, weight):
            if idx == len(tasks):
                if any(self.values[v] < self.target[v] for v in range(self.g.nv)):
                    self.total += weight
                return
            kind = tasks[idx][0]
            if kind == "root":
                n = tasks[idx][1]
                for value in range(self.ub[n] + 1):
                    self._bump()
                    self.values[n] = value
                    walk(idx + 1, weight)
                self.values[n] = None
            elif kind == "close":
                f = self._node_factor(tasks[idx][1])
                if f:
                    walk(idx + 1, weight * f)
            else:
                _, n, u = tasks[idx]
                lo, hi = self._slot_interval(n, u)
                for f in range(lo, hi + 1):
                    self._bump()
                    written = self._fill_chain(n, u, f)
                    if written is not None:
                        walk(idx + 1, weight)
                        self._unset(written)

        walk(0, 1)
        return self.total


@dataclass
class PartitionReport:
    point_sets: list  # list of sets of lattice points, one per node step
    outside_points: set  # Z^3_{>=0} minus the polyhedron of the reached cycle
    sizes_match: list  # per step: |P_i| == a_i


def _in_polyhedron(ell, cycle, p):
    return all(dot(f, p) >= m for f, m in zip(ell, cycle))


def enumerate_P(og: OkaGraph, seq: SequenceResult, prefix_only=False) -> PartitionReport:
    """Per-step sets P_i = (polyhedron(Z_i) minus polyhedron(Z_{i+1})) in Z^3.

    The sequence must live on the Oka graph (functional data is needed).
    For kind II pass prefix_only=True to take the first period only.
    """
    if seq.graph is not og.graph:
        raise KindMismatch("sequence was not computed on this Oka graph")
    if seq.kind == "II" and not prefix_only:
        raise KindMismatch("kind II is infinite; use prefix_only=True")
    cycles = seq.cycles()
    final = cycles[-1]
    ell = og.ell
    hi = []
    for c in range(3):
        hi.append(max((m - 1) // f[c] if m > 0 else -1 for f, m in zip(ell, final)))
    outside = kernels.collect_violating(list(ell), list(final), [0, 0, 0], hi)
    sets = [set() for _ in range(len(cycles) - 1)]
    for p in outside:
        # last index i with p inside polyhedron(Z_i); memberships are
        # monotone along the sequence, so bisect
        lo_i, hi_i = 0, len(cycles) - 1
        while lo_i < hi_i:
            mid = (lo_i + hi_i + 1) // 2
            if _in_polyhedron(ell, cycles[mid], p):
                lo_i = mid
            else:
                hi_i = mid - 1
        sets[lo_i].add(tuple(p))
    steps = seq.steps[: len(sets)]
    sizes = [len(s) == st.a for s, st in zip(sets, steps)]
    return PartitionReport(sets, set(map(tuple, outside)), sizes)
