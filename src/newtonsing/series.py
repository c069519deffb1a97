"""Brute-force zeta/counting function coefficients and the step point sets.

These are the independent oracles.  Coefficients of
Z_0(t) = prod_v (1 - t^{E_v^*})^{deg v - 2} are enumerated from exponent
assignments, one coefficient per call (positivity of the dual cycles bounds
the search), and, as a second path, read off one truncated product for a
list of targets.  The counting function walks the same terms through their
cycles, whose chain coordinates are pinned by the node values and end
exponents.  That walk is one enumeration for every tree: a graph without
nodes is rooted at an end, and its chain is read by the same walker as a
node's arms (`PlumbingGraph.arm`).  It is also one enumeration for every
list of targets: q at each asked cycle is summed at the leaves of one walk
over the least box containing all of their boxes.  The sets P_i come from
raw halfspace tests in Z^3.
"""

from dataclasses import dataclass
from math import comb
from operator import lt

from . import kernels
from .errors import BudgetExceeded, KindMismatch, NotTree
from .graph import OkaGraph, PlumbingGraph
from .lattice import dot
from .sequences import SequenceResult

# Budget of one zeta call: the stack pops of `zeta_coefficient`'s search, or
# the shifted terms that `zeta_coefficient_convolution`'s product forms.
# `verify` on the recorded workloads needs at most about 4,700.
ZETA_TERMS = 10**5
_ZETA_BUDGET = f"zeta budget exceeded: the expansion forms more than {ZETA_TERMS} terms"


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


def zeta_coefficient(g: PlumbingGraph, lp) -> int:
    """Coefficient of t^lp in Z_0(t), by exponent-assignment enumeration.

    Raises BudgetExceeded past ZETA_TERMS stack pops.
    """
    _require_tree(g)
    duals, scale = g.data.scaled_duals, g.data.group_order
    target = [x * scale for x in lp]
    if any(x < 0 for x in target):
        return 0
    total = 0
    # depth-first over exponent assignments, vertex by vertex: (vertex,
    # remaining budget, signed weight), children pushed last-first so they
    # are visited in increasing exponent
    stack = [(0, target, 1)]
    pops = 0
    while stack:
        pops += 1
        if pops > ZETA_TERMS:
            raise BudgetExceeded(_ZETA_BUDGET)
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


def zeta_coefficient_convolution(g: PlumbingGraph, lps) -> list:
    """Coefficients of t^lp in Z_0(t) for every lp in `lps`, read off one
    truncated polynomial product (the second path).

    The product is truncated at the componentwise max of the targets.  That
    is exact at every target: dual entries are positive and exponents are
    >= 0, so each factor only raises coordinates, and a coefficient at c
    only sums terms whose partial products stay <= c.  Raises
    BudgetExceeded past ZETA_TERMS shifted terms.
    """
    _require_tree(g)
    duals, scale = g.data.scaled_duals, g.data.group_order
    targets = [tuple(x * scale for x in lp) for lp in lps]
    inside = [t for t in targets if all(x >= 0 for x in t)]
    if not inside:
        return [0] * len(targets)
    top = [max(col) for col in zip(*inside)]
    acc = {(0,) * g.nv: 1}
    terms = 0
    for v in range(g.nv):
        dual = duals[v]
        nxt = {}
        for key, coeff in acc.items():
            a = 0
            while True:
                terms += 1
                if terms > ZETA_TERMS:
                    raise BudgetExceeded(_ZETA_BUDGET)
                shifted = tuple(k + a * e for k, e in zip(key, dual))
                if any(s > t for s, t in zip(shifted, top)):
                    break
                factor = _vertex_factor(g.degree[v], a)
                if factor:
                    nxt[shifted] = nxt.get(shifted, 0) + coeff * factor
                k_v = g.degree[v] - 2
                if k_v >= 0 and a >= k_v:
                    break
                a += 1
        acc = nxt
    return [acc.get(t, 0) for t in targets]


def _coordinate_bounds(duals, lp):
    """Box certainly containing every cycle of the Lipman cone that stays
    below lp in some coordinate: dual cycle entries are positive, so
    l_w <= max_v (m_w(E_v^*) / m_w'(E_v^*)) l_w'.  On a tree the max is at
    v = w: G = -Q^-1 is the covariance of a Gaussian with tree-structured
    precision, so for x the projection of v onto the path [w, w'],
    G_vw / G_vw' = G_xw / G_xw' <= G_ww / G_ww', as G_xw^2 <= G_ww G_xx."""
    witnesses = [w for w in range(len(lp)) if lp[w] > 0]
    if not witnesses:
        return None
    return [max(row[w] * (lp[wp] - 1) // row[wp] for wp in witnesses) for w, row in enumerate(duals)]


def counting_q(g: PlumbingGraph, lps, max_states=10_000_000) -> list:
    """q_lp = sum of z_l over l in lp + L with l - lp not effective, for
    every lp in `lps`, from one enumeration.

    Since the dual cycles are a basis, every zeta term is indexed by its
    cycle l with exponents a_v = -(l, E_v); so the sum runs over lattice
    cycles directly.  Cycles in the support have a_v = 0 along every chain,
    so they are determined by the node values and the end exponents; the
    enumeration walks that reduced tree, with one divisibility condition
    per bamboo pinning the chain interior.

    One walk serves every target.  Every support cycle lies in the Lipman
    cone, so the box `_coordinate_bounds(lp)` contains each support cycle l
    that is not >= lp.  The walk runs over the componentwise max of the
    targets' boxes, which contains all of those cycles for every target at
    once; summing z_l over its leaves l that are not >= lp is therefore
    exact for each lp, and each leaf is tested against every target.  A
    target with no positive entry has no such l (support cycles are >= 0)
    and gets 0.  `max_states` bounds the visited states of that one walk,
    which raises BudgetExceeded rather than churn on pathological inputs.
    """
    _require_tree(g)
    targets = [tuple(lp) for lp in lps]
    boxes = [b for b in (_coordinate_bounds(g.data.scaled_duals, t) for t in targets) if b is not None]
    if not boxes:
        return [0] * len(targets)
    return _ReducedCount(g, targets, [max(col) for col in zip(*boxes)], max_states).run()


class _ReducedCount:
    """Enumeration of the zeta support over the reduced tree.

    Support cycles have a_v = 0 along chains, so a cycle is fixed by the
    node values and one value per incident bamboo: the first chain
    coefficient f next to the node, which ranges over consecutive integers
    (for a leg, the end exponent is alpha*f - beta*m_n; for a bamboo to
    another node, the far value is alpha*f - beta*m_n).  The pending
    0 <= a_n <= deg-2 constraint of the node brackets each f by the
    congruence floors and box ceilings of the still-open slots.  A graph
    without nodes is rooted at an end (or its one vertex) and has one leg.
    """

    def __init__(self, g, targets, ub, max_states):
        self.g = g
        self.targets = targets
        self.ub = ub
        self.max_states = max_states
        self.states = 0
        self.totals = [0] * len(targets)
        self.values = [None] * g.nv
        self.root = (g.nodes or g.ends or (0,))[0]
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


@dataclass
class PartitionReport:
    point_sets: list  # list of sets of lattice points, one per node step
    outside_points: set  # Z^3_{>=0} minus the polyhedron of the reached cycle
    sizes_match: list  # per step: |P_i| == a_i


def _in_polyhedron(ell, cycle, p):
    return all(dot(f, p) >= m for f, m in zip(ell, cycle))


def enumerate_P(og: OkaGraph, seq: SequenceResult) -> PartitionReport:
    """Per-step sets P_i = (polyhedron(Z_i) minus polyhedron(Z_{i+1})) in Z^3.

    The sequence must live on the Oka graph (functional data is needed).
    A kind-II sequence is its first period, so its sets partition the
    points outside the polyhedron of wt(f).
    """
    if seq.graph is not og.graph:
        raise KindMismatch("sequence was not computed on this Oka graph")
    cycles = seq.cycles()
    final = cycles[-1]
    ell = og.ell
    rows, bounds = list(ell), list(final)
    outside = kernels.collect_violating(rows, bounds, [0, 0, 0], kernels.violating_top(rows, bounds))
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
    sizes = [len(s) == st.a for s, st in zip(sets, seq.steps)]
    return PartitionReport(sets, set(map(tuple, outside)), sizes)
