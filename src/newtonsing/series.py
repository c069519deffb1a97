"""Zeta/counting function coefficients and the step point sets.

These are the independent oracles.  The coefficient of t^lp in
Z_0(t) = prod_v (1 - t^{E_v^*})^{deg v - 2} is read off lp's exponents
a_v = -(lp, E_v), as the dual cycles are a basis, and, as a second path,
off one truncated product over the dual cycles for a list of targets.  The
counting function walks the same terms through their cycles, whose chain
coordinates are pinned by the node values and end exponents.  That walk is
one loop over a precomputed task list (the root value, one integer record
per chain slot, one close task per node) for every tree: a graph without
nodes is rooted at an end, and its chain is read like a node's arms
(`PlumbingGraph.arm`).  It is also one walk for every list of targets: q
at each asked cycle is summed at the leaves of one walk over the box of
the targets' componentwise max, and on a nondecreasing list one bisection
per leaf places it.  The sets P_i come from raw halfspace tests in Z^3.
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
    so they are determined by the node values and one value per slot (a
    node's neighbour): the first chain coefficient f next to the node, which
    ranges over consecutive integers.  Along the chain a_v = 0 propagates f,
    and the far value (the end exponent of a leg, the far node's value of a
    bamboo) is alpha*f - beta*m_n.  The node's pending 0 <= a_n <= deg - 2
    brackets each f by the congruence floors ceil(beta*m_n / alpha) and the
    box ceilings of its slots still open.  `_walk_tasks` lists the root
    value, one record per slot and one close task per node, and `_walk`
    runs them depth-first in one loop.

    One walk serves every target.  Every support cycle lies in the Lipman
    cone, so the box `_coordinate_bounds(lp)` contains each support cycle l
    that is not >= lp.  The walk runs over the box of the componentwise max
    of the targets, which is the componentwise max of their boxes (each
    witness of the max takes its value from a target it is a witness of,
    and the box is monotone in lp): it contains all of those cycles for
    every target at once, so summing z_l over its leaves l that are not
    >= lp is exact for each lp.  When the targets are nondecreasing, as
    kind I's cycles are, the targets a leaf is not >= form a suffix of the
    list: one bisection per leaf finds where it starts, the leaf's weight
    goes to a difference array there, and prefix sums give every q.  Any
    other list tests each leaf against every target.  A target with no
    positive entry has no such l (support cycles are >= 0) and gets 0.
    `max_states` bounds the visited states of that one walk, which raises
    BudgetExceeded rather than churn on pathological inputs.
    """
    _require_tree(g)
    targets = [tuple(lp) for lp in lps]
    ub = _coordinate_bounds(g.data.scaled_duals, [max(col) for col in zip(*targets)])
    if ub is None:
        return [0] * len(targets)
    ascending = all(all(map(le, s, t)) for s, t in zip(targets, targets[1:]))
    return _walk(g, _walk_tasks(g, ub), ub, targets, ascending, max_states)


def _walk_tasks(g: PlumbingGraph, ub) -> list:
    """The walk's tasks in order: the root vertex, then per node a slot
    record for each neighbour whose chain leads away from the node's parent,
    each newly reached node's tasks right after the slot reaching it, then
    the node's close task (n,).  A graph without nodes is rooted at an end
    (or its one vertex) and has one leg."""
    root = (g.nodes or g.ends or (0,))[0]
    arms = g.arms if g.nodes else {root: [g.arm(root, u) for u in g.neighbors[root]]}
    tasks = [root]
    stack = [(root, _slot_records(g, arms, ub, root, -1))]
    while stack:
        n, slots = stack[-1]
        if not slots:
            stack.pop()
            tasks.append((n,))
            continue
        tasks.append(slots.pop())
        far = tasks[-1][5]
        if far is not None:
            stack.append((far, _slot_records(g, arms, ub, far, n)))
    return tasks


def _slot_records(g: PlumbingGraph, arms, ub, n, parent) -> list:
    """Slot records of node n entered from `parent` (-1 at the root), last
    slot first: (n, first vertex, (v, b_v) along the chain, alpha, beta, far
    node, the neighbours of n set before the slot, (alpha, beta) of each
    slot still open after it, the sum of their first vertices' box
    ceilings)."""
    edges = list(zip(g.neighbors[n], arms[n]))
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
    in [0, deg - 2] at a node and a_n >= 0 at an end.  Each vertex is
    written by one task and read only by later tasks of the same path, so
    no value is ever unset.  Each leaf is a support cycle l of the box, and
    its z_l counts toward every target that l is not >=: on a chain of
    targets, through a difference array at the first of them."""
    b, degree, neighbors = g.b, g.degree, g.neighbors
    values = [0] * g.nv
    totals = [0] * (len(targets) + ascending)

    def short_of(t):
        return any(map(lt, values, t))

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
            lo = -(-beta * m // alpha)
            if degree[n] >= 2:
                # a_n <= deg - 2; an end's factor is 1 for every a_n >= 0
                lo = max(lo, slack - open_ub - (degree[n] - 2))
            hi = min(ub[u], slack - sum(-(-beta_x * m // alpha_x) for alpha_x, beta_x in open_))
            if far is not None:
                hi = min(hi, (beta * m + ub[far]) // alpha)
            stack.append((i, lo, hi, weight))
            break
        else:
            if ascending:
                totals[bisect_left(targets, True, key=short_of)] += weight
            else:
                for k, t in enumerate(targets):
                    if short_of(t):
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
        values = [dot(f, p) for f in ell]
        # last index i with p inside polyhedron(Z_i); memberships are
        # monotone along the sequence, so bisect
        lo_i, hi_i = 0, len(cycles) - 1
        while lo_i < hi_i:
            mid = (lo_i + hi_i + 1) // 2
            if any(map(lt, values, cycles[mid])):
                hi_i = mid - 1
            else:
                lo_i = mid
        sets[lo_i].add(tuple(p))
    sizes = [len(s) == st.a for s, st in zip(sets, seq.steps)]
    return PartitionReport(sets, set(map(tuple, outside)), sizes)
