"""Zeta/counting function coefficients and the step point sets.

These are the independent oracles.  The coefficient of t^lp in
Z_0(t) = prod_v (1 - t^{E_v^*})^{deg v - 2} is read off lp's exponents
a_v = -(lp, E_v), as the dual cycles are a basis, and, as a second path,
off one truncated product over the dual cycles for a list of targets.  The
counting function walks the same terms through their node values: a
bamboo's values are pinned by the nodes at its ends, and a leg's free first
value is summed into its node's factor in closed form.  That walk is one
loop over a precomputed task list on `PlumbingGraph.node_chains`, the
table the sequences read (the root node's value, one integer record per
bamboo slot, one close task per node).  Both readers of the sequences
compare Lipman-cone cycles with chain fills x(z), the least cycle with node
values z and (x, E_v) <= 0 off the nodes, and such a cycle l is >= x(z)
exactly when l_n >= z_n at every node: so each target is a vector of node
values, and cycles are compared at the nodes only.  q at each fill of a
nondecreasing chain of targets is summed at the leaves of one walk over
the node box of the last target, and one bisection per leaf places it.
The sets P_i come from raw halfspace tests in Z^3 at the node rows.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import add, le, lt, sub

from . import kernels
from .errors import BudgetExceeded, KindMismatch, NotTree
from .graph import OkaGraph, PlumbingGraph, node_pairing
from .lattice import dot
from .sequences import SequenceResult

# Budget of one `zeta_coefficient_convolution` call: the shifted terms its
# product forms and the lookups that read its last factor off.  `verify` on
# the recorded workloads needs at most 1,374.
ZETA_TERMS = 10**5
_ZETA_BUDGET = "zeta budget exceeded: the expansion forms more than {} terms"

# Budget of one `counting_q` call: the node values its walk tries.
COUNTING_STATES = 10**7


def _require_tree(g: PlumbingGraph):
    if not g.is_tree() or any(g.genus):
        raise NotTree("zeta expansion needs a genus-0 tree graph")


def _vertex_factor(degree, exponent):
    """Coefficient of t^exponent in (1 - t)^(degree - 2): the factor of a
    vertex of that degree at t^(exponent * E_v^*), and that of a node with
    its legs folded in when `degree` counts its bamboos only (each leg
    divides the factor by 1 - t; see `counting_q`)."""
    k = degree - 2
    if k >= 0:
        return (-1) ** exponent * comb(k, exponent) if exponent <= k else 0
    if k == -1:
        return 1
    return exponent + 1  # k == -2: a single vertex, or a node with legs only


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
    cycles at the vertices of degree other than 2 only).

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
    scale = g.data.group_order
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
        dual, factor = _factor_table(g, v, top)
        nxt = {}
        for key, coeff in acc.items():
            most = min(len(factor) - 1, *((t - k) // e for t, k, e in zip(top, key, dual)))
            terms += most + 1
            if terms > ZETA_TERMS:
                raise BudgetExceeded(_ZETA_BUDGET.format(ZETA_TERMS))
            shifted = key
            for a in range(most + 1):
                nxt[shifted] = nxt.get(shifted, 0) + coeff * factor[a]
                shifted = tuple(map(add, shifted, dual))
        acc = nxt
    dual, factor = _factor_table(g, factors[-1], top)
    out = []
    for t in targets:
        most = min(len(factor) - 1, *(x // e for x, e in zip(t, dual)))
        terms += max(most + 1, 0)
        if terms > ZETA_TERMS:
            raise BudgetExceeded(_ZETA_BUDGET.format(ZETA_TERMS))
        total, below = 0, t
        for a in range(most + 1):
            total += factor[a] * acc.get(below, 0)
            below = tuple(map(sub, below, dual))
        out.append(total)
    return out


def _factor_table(g, v, top) -> tuple:
    """(E_v^*'s row, scaled, and v's factors for every exponent a with
    a E_v^* <= top); at most deg - 2 exponents at a vertex of degree >= 2."""
    dual, degree = g.data.row(v), g.degree[v]
    most = min(x // e for x, e in zip(top, dual))
    if degree >= 2:
        most = min(most, degree - 2)
    return dual, [_vertex_factor(degree, a) for a in range(most + 1)]


def counting_q(g: PlumbingGraph, targets) -> list:
    """q at the chain fill x(z) of every node-value vector z in `targets`
    (in `g.nodes` order, a nondecreasing chain), from one enumeration: the
    sum of z_l over l in x(z) + L with l - x(z) not effective.

    Since the dual cycles are a basis, every zeta term is indexed by its
    cycle l with exponents a_v = -(l, E_v); so the sum runs over lattice
    cycles directly.  Cycles in the support have a_v = 0 along every chain,
    so a chain's values are fixed by its two ends: by the node values along
    a bamboo (a chain between two nodes), whose first value f next to node
    n is (beta m_n + m_o) / alpha, and on a leg by f, whose end exponent
    alpha f - beta m_n must be >= 0.  So the walk branches on node values
    only.  A leg's f is free above ceil(beta m_n / alpha), and summing the
    node's factor (1 - t)^(deg - 2) over it multiplies that factor by
    1 / (1 - t): with its k legs folded in, node n weighs the coefficient
    of t^s in (1 - t)^(deg - k - 2), where s = -(x(z), E_n) with every leg
    at its floor (`_vertex_factor`, `graph.node_pairing`).  The walk reads
    `g.node_chains`, the table the sequences read: `_walk_tasks` lists the
    root value, one record per bamboo slot (its f fixes the far node's
    value) and one close task per node, and `_walk` runs them depth-first
    in one loop.

    A support cycle l has (l, E_v) <= 0 everywhere, so l >= x(z) exactly
    when l_n >= z_n at every node: min(l, x(z)) has z's node values and
    (., E_v) <= 0 off the nodes, so it is >= x(z) by the fill's minimality.
    Leaves are compared with the targets at the nodes only.  A leaf with
    l_n < z_n lies in the Lipman cone, so l_w <= max_v (G_vw / G_vn) l_n
    with G = -Q^-1, and on a tree the max is at v = w (G is the covariance
    of a Gaussian with tree-structured precision: for x the projection of
    v onto the path [w, n], G_vw / G_vn = G_xw / G_xn <= G_ww / G_wn, as
    G_xw^2 <= G_ww G_xx).  So the box ub_w = max over nodes n with z_n > 0
    of G_ww (z_n - 1) // G_wn at the last target, the chain's
    componentwise max, holds every cycle that counts, at every vertex; the
    walk needs it, and G's rows, at the nodes only.  The targets a leaf is
    not >= form a suffix of the chain: one bisection per leaf finds where it
    starts, the leaf's weight goes to a difference array there, and prefix
    sums give every q.  Any other list of targets raises ValueError.  A
    target with no positive entry has no such l (support cycles are >= 0)
    and gets 0, and a graph without nodes has only the fill 0, so every q
    there is 0.  `COUNTING_STATES` bounds the node values the walk tries, and
    the walk raises BudgetExceeded rather than churn on pathological inputs.
    """
    _require_tree(g)
    targets = [tuple(z) for z in targets]
    if any(len(z) != len(g.nodes) for z in targets):
        raise ValueError(f"counting_q takes one value per node ({len(g.nodes)}) for each target")
    if not all(all(map(le, s, t)) for s, t in zip(targets, targets[1:])):
        raise ValueError("counting_q takes a nondecreasing chain of targets")
    witnesses = [(n, z) for n, z in zip(g.nodes, targets[-1]) if z > 0] if targets else []
    if not witnesses:
        return [0] * len(targets)
    rows = [g.data.row(w) for w in g.nodes]
    ub = [max(row[w] * (z - 1) // row[n] for n, z in witnesses) for w, row in zip(g.nodes, rows)]
    return _walk(g.node_chains, _walk_tasks(g.node_chains), ub, targets)


def _walk_tasks(local) -> list:
    """The walk's tasks over node positions in order: the root 0, then per
    node a slot record for each bamboo leading away from its parent, each
    newly reached node's tasks right after the slot reaching it, then the
    node's close task (i,)."""
    tasks = [0]
    stack = [(0, _slot_records(local, 0, None))]
    while stack:
        i, slots = stack[-1]
        if not slots:
            stack.pop()
            tasks.append((i,))
            continue
        tasks.append(slots.pop())
        far = tasks[-1][3]
        stack.append((far, _slot_records(local, far, i)))
    return tasks


def _slot_records(local, i, parent) -> list:
    """Slot records of node position i entered from `parent` (None at the
    root), last slot first: (i, alpha, beta, far position, the chains set
    before the slot, the bamboos still open after it).  Legs and the
    parent's bamboo are set from the start."""
    chains = local[i][1]
    fixed = [c for c in chains if c[2] in (None, parent)]
    slots = [c for c in chains if c[2] not in (None, parent)]
    records = []
    for k, chain in enumerate(slots):
        records.append((i, *chain, tuple(fixed), tuple(slots[k + 1 :])))
        fixed.append(chain)
    return records[::-1]


def _walk(local, tasks, ub, targets) -> list:
    """Depth-first over `tasks`, one (task index, next value, last value,
    weight) frame per open branching task; each value tried is one state.
    A slot value f is a bamboo's first value and sets its far node to
    alpha f - beta m, in [0, ub].  The bracket keeps the node's s = slack -
    f - (the open bamboos' first values) in [0, d - 2] when the node has
    d >= 2 bamboos, and >= 0 otherwise, where slack = b m - (the first
    values of the chains already set, legs at their floors).  A close task
    multiplies the weight by the node's factor and prunes the branch where
    it is 0.  Each leaf is the list of node values, and its weight counts
    toward every target it falls short of at some node, through a
    difference array at the first of them."""
    bamboos = [sum(o is not None for *_, o in chains) for _, chains in local]
    values = [0] * len(local)
    totals = [0] * (len(targets) + 1)

    def short_of(z):
        return any(map(lt, values, z))

    states = 0
    stack = [(0, 0, ub[0], 1)]
    while stack:
        k, f, last, weight = stack[-1]
        if f > last:
            stack.pop()
            continue
        stack[-1] = (k, f + 1, last, weight)
        states += 1
        if states > COUNTING_STATES:
            raise BudgetExceeded("counting function enumeration exceeded its state budget")
        if k == 0:
            values[0] = f
        else:
            i, alpha, beta, far = tasks[k][:4]
            values[far] = alpha * f - beta * values[i]
        k += 1
        while k < len(tasks):
            task = tasks[k]
            if len(task) == 1:
                i = task[0]
                s = -node_pairing(*local[i], values[i], values)
                factor = _vertex_factor(bamboos[i], s) if s >= 0 else 0
                if not factor:
                    break
                weight *= factor
                k += 1
                continue
            i, alpha, beta, far, fixed, open_ = task
            m = values[i]
            slack = -node_pairing(local[i][0], fixed, m, values)
            lo = -(-beta * m // alpha)
            hi = (beta * m + ub[far]) // alpha
            hi = min(hi, slack + sum(-beta_x * m // alpha_x for alpha_x, beta_x, _ in open_))
            if bamboos[i] >= 2:
                lo = max(lo, slack - sum((beta_x * m + ub[o]) // alpha_x for alpha_x, beta_x, o in open_) - bamboos[i] + 2)
            stack.append((k, lo, hi, weight))
            break
        else:
            totals[bisect_left(targets, True, key=short_of)] += weight
    return list(accumulate(totals[:-1]))


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
