"""Zeta/counting function coefficients and the step point sets.

These are the independent oracles.  The coefficient of t^lp in
Z_0(t) = prod_v (1 - t^{E_v^*})^{deg v - 2} is read off lp's exponents
a_v = -(lp, E_v), as the dual cycles are a basis, and, as a second path,
off one truncated product over the dual cycles for a list of targets.  The
counting function walks the same terms through their cycles, whose chain
coordinates are pinned by the node values and end exponents.  That walk is
one loop over a precomputed task list (the root node's value, one integer
record per chain slot, one close task per node).  Both readers of the
sequences compare Lipman-cone cycles with chain fills x(z), the least cycle
with node values z and (x, E_v) <= 0 off the nodes, and such a cycle l is
>= x(z) exactly when l_n >= z_n at every node: so each target is a vector
of node values, and cycles are compared at the nodes only.  q at each
asked fill is summed at the leaves of one walk over the box of the
targets' componentwise max, and on a nondecreasing list one bisection per
leaf places it.  The sets P_i come from raw halfspace tests in Z^3 at the
node rows.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import add, le, lt, sub

from . import kernels
from .errors import BudgetExceeded, KindMismatch, NotTree
from .graph import OkaGraph, PlumbingGraph
from .lattice import dot
from .sequences import SequenceResult

# Budget of one `zeta_coefficient_convolution` call: the shifted terms its
# product forms and the lookups that read its last factor off.  `verify` on
# the recorded workloads needs at most 1,374.
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


def zeta_coefficient(g: PlumbingGraph, lp) -> int:
    """Coefficient of t^lp in Z_0(t), read off lp's exponents.

    The dual cycles are a basis, so the one exponent assignment that can
    reach lp is a_v = -(lp, E_v) = b_v lp_v - sum of lp over v's
    neighbours.  The coefficient is the product of the vertex factors at
    those exponents, and 0 when one of them is negative.  This reads Q (b
    and the edges), not the dual cycles.
    """
    _require_tree(g)
    total = 1
    for v in range(g.nv):
        a = -g.dot_E(lp, v)
        if a < 0:
            return 0
        total *= _vertex_factor(g.degree[v], a)
    return total


def zeta_coefficient_convolution(g: PlumbingGraph, lps) -> list:
    """Coefficients of t^lp in Z_0(t) for every lp in `lps`, read off one
    truncated polynomial product (the second path, which reads the dual
    cycles).

    The product is truncated at the componentwise max of the targets.  That
    is exact at every target: dual entries are positive and exponents are
    >= 0, so each factor only raises coordinates, and a coefficient at c
    only sums terms whose partial products stay <= c.  Degree-2 vertices
    are skipped, as their factor is 1.  Each partial term takes its
    exponents up to the most that keeps it under the truncation, and the
    last factor is not expanded: at each target its coefficient sums the
    partial terms at target - a E_v^*.  Raises BudgetExceeded past
    ZETA_TERMS terms formed and lookups made.
    """
    _require_tree(g)
    duals, scale = g.data.scaled_duals, g.data.group_order
    targets = [tuple(x * scale for x in lp) for lp in lps]
    inside = [t for t in targets if all(x >= 0 for x in t)]
    if not inside:
        return [0] * len(targets)
    top = [max(col) for col in zip(*inside)]
    acc = {(0,) * g.nv: 1}
    # a tree has an end or is one vertex, so some factor is not 1
    factors = [v for v in range(g.nv) if g.degree[v] != 2]
    terms = 0
    for v in factors[:-1]:
        dual, factor = duals[v], _factor_table(g.degree[v], top, duals[v])
        nxt = {}
        for key, coeff in acc.items():
            most = min(len(factor) - 1, *((t - k) // e for t, k, e in zip(top, key, dual)))
            terms += most + 1
            if terms > ZETA_TERMS:
                raise BudgetExceeded(_ZETA_BUDGET)
            shifted = key
            for a in range(most + 1):
                nxt[shifted] = nxt.get(shifted, 0) + coeff * factor[a]
                shifted = tuple(map(add, shifted, dual))
        acc = nxt
    v = factors[-1]
    dual, factor = duals[v], _factor_table(g.degree[v], top, duals[v])
    out = []
    for t in targets:
        most = min(len(factor) - 1, *(x // e for x, e in zip(t, dual)))
        terms += max(most + 1, 0)
        if terms > ZETA_TERMS:
            raise BudgetExceeded(_ZETA_BUDGET)
        total, below = 0, t
        for a in range(most + 1):
            total += factor[a] * acc.get(below, 0)
            below = tuple(map(sub, below, dual))
        out.append(total)
    return out


def _factor_table(degree, top, dual) -> list:
    """Vertex factors for every exponent a with a E_v^* <= top; at most
    deg - 2 at a vertex of degree >= 2."""
    most = min(x // e for x, e in zip(top, dual))
    if degree >= 2:
        most = min(most, degree - 2)
    return [_vertex_factor(degree, a) for a in range(most + 1)]


def counting_q(g: PlumbingGraph, targets, max_states=10_000_000) -> list:
    """q at the chain fill x(z) of every node-value vector z in `targets`
    (in `g.nodes` order), from one enumeration: the sum of z_l over l in
    x(z) + L with l - x(z) not effective.

    Since the dual cycles are a basis, every zeta term is indexed by its
    cycle l with exponents a_v = -(l, E_v); so the sum runs over lattice
    cycles directly.  Cycles in the support have a_v = 0 along every chain,
    so they are determined by the node values and one value per slot (a
    node's neighbour): the first chain coefficient f next to the node, which
    ranges over consecutive integers.  Along the chain a_v = 0 propagates f,
    and the far value (the end exponent of a leg, the far node's value of a
    bamboo) is alpha*f - beta*m_n.  The node's pending 0 <= a_n <= deg - 2
    brackets each f by the congruence floors ceil(beta*m_n / alpha) and the
    box ceilings of its slots still open.  `_walk_tasks` lists the root
    value, one record per slot and one close task per node, and `_walk`
    runs them depth-first in one loop.

    A support cycle l has (l, E_v) <= 0 everywhere, so l >= x(z) exactly
    when l_n >= z_n at every node: min(l, x(z)) has z's node values and
    (., E_v) <= 0 off the nodes, so it is >= x(z) by the fill's minimality.
    Leaves are compared with the targets at the nodes only.  A leaf with
    l_n < z_n lies in the Lipman cone, so l_w <= max_v (G_vw / G_vn) l_n
    with G = -Q^-1, and on a tree the max is at v = w (G is the covariance
    of a Gaussian with tree-structured precision: for x the projection of
    v onto the path [w, n], G_vw / G_vn = G_xw / G_xn <= G_ww / G_wn, as
    G_xw^2 <= G_ww G_xx).  So the box ub_w = max over nodes n with z_n > 0
    of G_ww (z_n - 1) // G_wn, at the componentwise max z of the targets,
    holds every leaf that is not >= some target's fill.  When the targets
    are nondecreasing, as kind I's node values are, the targets a leaf is
    not >= form a suffix of the list: one bisection per leaf finds where it
    starts, the leaf's weight goes to a difference array there, and prefix
    sums give every q.  Any other list tests each leaf against every
    target.  A target with no positive entry has no such l (support cycles
    are >= 0) and gets 0, and a graph without nodes has only the fill 0, so
    every q there is 0.
    `max_states` bounds the visited states of that one walk, which raises
    BudgetExceeded rather than churn on pathological inputs.
    """
    _require_tree(g)
    targets = [tuple(z) for z in targets]
    if any(len(z) != len(g.nodes) for z in targets):
        raise ValueError(f"counting_q takes one value per node ({len(g.nodes)}) for each target")
    top = [max(col) for col in zip(*targets)]
    witnesses = [(n, z) for n, z in zip(g.nodes, top) if z > 0]
    if not witnesses:
        return [0] * len(targets)
    ub = [max(row[w] * (z - 1) // row[n] for n, z in witnesses) for w, row in enumerate(g.data.scaled_duals)]
    ascending = all(all(map(le, s, t)) for s, t in zip(targets, targets[1:]))
    return _walk(g, _walk_tasks(g, ub), ub, targets, ascending, max_states)


def _walk_tasks(g: PlumbingGraph, ub) -> list:
    """The walk's tasks in order: the first node, then per node a slot
    record for each neighbour whose chain leads away from the node's parent,
    each newly reached node's tasks right after the slot reaching it, then
    the node's close task (n,)."""
    root = g.nodes[0]
    tasks = [root]
    stack = [(root, _slot_records(g, ub, root, -1))]
    while stack:
        n, slots = stack[-1]
        if not slots:
            stack.pop()
            tasks.append((n,))
            continue
        tasks.append(slots.pop())
        far = tasks[-1][5]
        if far is not None:
            stack.append((far, _slot_records(g, ub, far, n)))
    return tasks


def _slot_records(g: PlumbingGraph, ub, n, parent) -> list:
    """Slot records of node n entered from `parent` (-1 at the root), last
    slot first: (n, first vertex, (v, b_v) along the chain, alpha, beta, far
    node, the neighbours of n set before the slot, (alpha, beta) of each
    slot still open after it, the sum of their first vertices' box
    ceilings)."""
    edges = list(zip(g.neighbors[n], g.arms[n]))
    done = [u for u, arm in edges if arm[1] == parent]
    slots = [(u, arm) for u, arm in edges if arm[1] != parent]
    records = []
    for k, (u, (chain, far, alphas)) in enumerate(slots):
        rest = slots[k + 1 :]
        chain = tuple((v, g.b[v]) for v in chain)
        open_ = tuple(arm[2][:2] for _, arm in rest)
        records.append((n, u, chain, *alphas[:2], far, tuple(done), open_, sum(ub[x] for x, _ in rest)))
        done.append(u)
    return records[::-1]


def _walk(g: PlumbingGraph, tasks, ub, targets, ascending, max_states) -> list:
    """Depth-first over `tasks`, one (task index, next value, last value,
    weight) frame per open branching task; each value tried is one state.
    A slot value f sets the chain from its first vertex and the far node,
    and fails when one of them leaves the box.  A close task multiplies the
    weight by the node's factor, never 0: the last slot's bracket puts a_n
    in [0, deg - 2].  Each vertex is written by one task and read only by
    later tasks of the same path, so no value is ever unset.  Each leaf is
    a support cycle l of the box, and its z_l counts toward every target
    it falls short of at some node: on a chain of targets, through a
    difference array at the first of them."""
    b, degree, neighbors, nodes = g.b, g.degree, g.neighbors, g.nodes
    values = [0] * g.nv
    totals = [0] * (len(targets) + ascending)

    def short_of(z):
        return any(map(lt, leaf, z))

    states = 0
    stack = [(0, 0, ub[tasks[0]], 1)]
    while stack:
        i, f, last, weight = stack[-1]
        if f > last:
            stack.pop()
            continue
        stack[-1] = (i, f + 1, last, weight)
        states += 1
        if states > max_states:
            raise BudgetExceeded("counting function enumeration exceeded its state budget")
        if i == 0:
            values[tasks[0]] = f
        else:
            n, _, chain, alpha, beta, far = tasks[i][:6]
            m = values[n]
            m_far = alpha * f - beta * m
            if far is not None and (m_far < 0 or m_far > ub[far]):
                continue
            prev, cur, fits = m, f, True
            for v, b_v in chain:
                if cur < 0 or cur > ub[v]:
                    fits = False
                    break
                values[v] = cur
                prev, cur = cur, b_v * cur - prev
            if not fits:
                continue
            if far is not None:
                if chain and cur != m_far:
                    raise AssertionError("bamboo propagation mismatch")
                values[far] = m_far
        i += 1
        while i < len(tasks):
            n = tasks[i][0]
            if len(tasks[i]) == 1:
                weight *= _vertex_factor(degree[n], b[n] * values[n] - sum(values[u] for u in neighbors[n]))
                i += 1
                continue
            _, u, _, alpha, beta, far, done, open_, open_ub = tasks[i]
            m = values[n]
            slack = b[n] * m - sum(values[x] for x in done)
            lo = max(-(-beta * m // alpha), slack - open_ub - (degree[n] - 2))
            hi = min(ub[u], slack - sum(-(-beta_x * m // alpha_x) for alpha_x, beta_x in open_))
            if far is not None:
                hi = min(hi, (beta * m + ub[far]) // alpha)
            stack.append((i, lo, hi, weight))
            break
        else:
            leaf = [values[n] for n in nodes]
            if ascending:
                totals[bisect_left(targets, True, key=short_of)] += weight
            else:
                for k, z in enumerate(targets):
                    if short_of(z):
                        totals[k] += weight
    return list(accumulate(totals[:-1])) if ascending else totals


@dataclass
class PartitionReport:
    point_sets: list  # list of sets of lattice points, one per node step
    outside_points: set  # Z^3_{>=0} minus the polyhedron of the reached cycle
    sizes_match: list  # per step: |P_i| == a_i


def enumerate_P(og: OkaGraph, seq: SequenceResult) -> PartitionReport:
    """Per-step sets P_i = (polyhedron(Z_i) minus polyhedron(Z_{i+1})) in Z^3.

    The sequence must live on the Oka graph (functional data is needed).
    A kind-II sequence is its first period, so its sets partition the
    points outside the polyhedron of wt(f).  A point p's values
    (l_v(p))_v are the exceptional part of div(x^p), a cycle of the Lipman
    cone, and every Z_i is a chain fill, so p lies in polyhedron(Z_i)
    exactly when l_n(p) >= (Z_i)_n at every node (see `counting_q`): only
    the node rows are scanned and compared.  Memberships are monotone along
    the sequence, and p lies in polyhedron(Z_0 = 0) but not in that of the
    reached cycle, so p belongs to the step before the first Z_i it falls
    short of.  At node n that is the step raising n from l_n(p) to
    l_n(p) + 1, `seq.positions()[n][l_n(p)]` when n takes more than l_n(p)
    steps, and p belongs to the first of those over the nodes: O(nodes)
    per point.
    """
    if seq.graph is not og.graph:
        raise KindMismatch("sequence was not computed on this Oka graph")
    nodes = og.graph.nodes
    rows = [og.ell[n] for n in nodes]
    bounds = [seq.reached[n] for n in nodes]
    outside = kernels.collect_violating(rows, bounds, [0, 0, 0], kernels.violating_top(rows, bounds))
    positions = seq.positions()
    sets = [set() for _ in seq.steps]
    for p in outside:
        values = [dot(f, p) for f in rows]
        sets[min(at[l] for at, l in zip(positions, values) if l < len(at))].add(p)
    sizes = [len(s) == a for s, a in zip(sets, seq.increments())]
    return PartitionReport(sets, set(outside), sizes)
