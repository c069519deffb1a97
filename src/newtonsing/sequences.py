"""Laufer operator and the ratio-test computation sequences.

A sequence context packages the graph, the target cycle and two integer
node columns: the ratio at node value z is (z + offset) / denominator, every
denominator positive.  `run_sequence` keeps each node's ratio as one integer
key over D, the lcm of the denominators, and produces the node steps
(Z_i, v(i), a_i, r_i) as two integer columns, the node each step raises and
its pairing (Z_i, E_v), with no object per step (`SequenceResult`).  The
connecting Laufer steps contribute nothing to the sums, and only node
values move: along each chain from a node n toward o Laufer's completion is
ceil((beta z_n + z_o) / alpha) (`PlumbingGraph.arms`), so (Z_i, E_n) is
read off the node values.  No step's full cycle is ever filled (its readers
compare it at the nodes, see `series.counting_q`): `fill_cycle` fills the
reached cycle and the kind-III target x(Z_K - E).  `laufer_x` runs the
Laufer operator itself; the tests use it as the oracle for `fill_cycle`,
and no production path calls it.
"""

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from . import kernels
from .errors import BudgetExceeded, NewtonsingError
from .graph import OkaGraph, PlumbingGraph, node_pairing, x1x2x3_cycle

# Budget of a computation sequence: its node steps.  Kind I on
# (100,101,103) takes 1,009,498 of them, on (7,11,1000003) 59,000,101.  On
# a one-node graph a step takes about 1.1 µs (Python 3.11.7, shared 2-vCPU
# Xeon VM), so the budget admits about 11 s per sequence; each further node
# adds one ratio comparison per step.
SEQUENCE_STEPS = 10**7


def laufer_x(graph: PlumbingGraph, z) -> tuple:
    """Minimal cycle agreeing with z on the nodes, nonpositive elsewhere.

    Computed by the generalized Laufer sequence, which requires z <= x(z);
    that holds for the kind-III start Z_K - E and for cycles of the form
    x(Z) + E_n.
    """
    m = list(z)
    is_node = [graph.degree[v] >= 3 for v in range(graph.nv)]
    kernels.laufer_complete(list(graph.b), graph.neighbors, is_node, m)
    for v in range(graph.nv):
        if not is_node[v] and graph.dot_E(m, v) > 0:
            raise AssertionError("Laufer completion left a positive non-node pairing")
    return tuple(m)


def fill_cycle(graph: PlumbingGraph, z_nodes) -> tuple:
    """x(Z) for the node values z_nodes (in graph.nodes order), filled chain
    by chain: x_j = ceil((beta_j x_{j-1} + z_o) / alpha_j) from x_0 = z_n."""
    z = [0] * graph.nv
    for n, value in zip(graph.nodes, z_nodes):
        z[n] = value
    for n, arms in graph.arms.items():
        for chain, far, alphas in arms:
            if far is not None and far < n:
                continue  # filled from the other end
            z_o = 0 if far is None else z[far]
            prev = z[n]
            for j, v in enumerate(chain):
                prev = z[v] = -(-(alphas[j + 1] * prev + z_o) // alphas[j])
    return tuple(z)


@dataclass
class SequenceResult:
    """A computation sequence as two integer columns, one entry per node step.

    `steps[i]` is the position in graph.nodes of the node v(i) the step
    raises, `pairings[i]` is (Z_i, E_v), and a_i = max(0, 1 - pairings[i]).
    The rest is read back from the node column: the k-th step at node n has
    ratio (k + offsets[n]) / denominators[n], and the node values of Z_i are
    the counts of each node's steps before i.
    """

    kind: str  # "I" | "II" | "III"
    steps: list  # per step: the position in graph.nodes of the node raised
    pairings: list  # per step: (Z_i, E_v) at that node
    target: tuple
    reached: tuple
    graph: PlumbingGraph
    offsets: tuple  # per node position: the ratio's numerator at value 0
    denominators: tuple  # per node position: the ratio's denominator, positive
    denominator: int  # the lcm of the denominators: every ratio is an integer over it

    @cached_property
    def total(self) -> int:
        return sum(self.increments())

    def increments(self):
        """Each step's a_i = max(0, 1 - (Z_i, E_v)), one by one."""
        return (1 - p if p < 1 else 0 for p in self.pairings)

    def numerators(self):
        """Each step's ratio times `denominator`, one by one."""
        scale = [self.denominator // d for d in self.denominators]
        following = [o * s for o, s in zip(self.offsets, scale)]
        for i in self.steps:
            yield following[i]
            following[i] += scale[i]

    def node_values(self) -> list:
        """The node values of Z_i before each step, in graph.nodes order."""
        z = [0] * len(self.graph.nodes)
        out = []
        for i in self.steps:
            out.append(tuple(z))
            z[i] += 1
        return out

    def positions(self) -> list:
        """positions[n][k] is the step that raises node position n from k to k + 1."""
        out = [[] for _ in self.graph.nodes]
        for step, i in enumerate(self.steps):
            out[i].append(step)
        return out


@dataclass
class SequenceContext:
    kind: str
    graph: PlumbingGraph
    target: tuple
    offsets: tuple  # per node position: the ratio's numerator at value 0
    denominators: tuple  # per node position: the ratio's denominator, positive


def kind1_context(graph: PlumbingGraph, zk) -> SequenceContext:
    """Targets zk, the graph's Z_K; run on the minimal model (or an Oka graph).

    The ratio is z_n / max(Z_K,n - 1, 1): a node with Z_K,n <= 1 is raised at
    most once, from 0, at ratio 0 over any positive denominator.
    """
    nodes = graph.nodes
    return SequenceContext("I", graph, zk, (0,) * len(nodes), tuple(max(zk[n] - 1, 1) for n in nodes))


def kind2_context(og: OkaGraph) -> SequenceContext:
    """Targets wt(f): one period of the Newton-filtration sequence.

    The infinite sequence repeats this period shifted by wt(f).  The support
    function l -> min over the diagram of l is linear on each bamboo's cone,
    and 0 at every star normal when the diagram is convenient.  Applied to the
    neighbour relation l_{v-1} - b_v l_v + l_{v+1} (+ star) = 0 it gives
    (wt(f), E_v) = 0 at every non-node vertex v.  The cycles admissible for
    x(Z + wt(f)) are then those for x(Z) translated by wt(f), so
    x(Z + wt(f)) = x(Z) + wt(f).  With Z_k = wt(f), step i + j*k is
    (Z_i + j*wt(f), v_i, max(0, c_i - j*d_i), r_i + j), where
    c_i = 1 - (Z_i, E_{v_i}) and d_i = (wt(f), E_{v_i}).  The pairing is
    checked here, and the period's end in `SingularityModel.sequence`.
    """
    wtf = og.wtf
    graph = og.graph
    bad = [v for v in range(graph.nv) if graph.degree[v] < 3 and graph.dot_E(wtf, v)]
    if bad:
        raise NewtonsingError(
            f"(wt(f), E_v) != 0 at non-node vertices {bad}; kind II needs a convenient diagram"
        )
    nodes = graph.nodes
    return SequenceContext("II", graph, wtf, (0,) * len(nodes), tuple(wtf[n] for n in nodes))


def kind3_context(og: OkaGraph) -> SequenceContext:
    """Targets x(Z_K - E), with Z_K - E = wt(f) - wt(x1 x2 x3).

    The target is `fill_cycle` of the node values of Z_K - E.  When
    Z_K - E lies below that fill, Laufer's walk from Z_K - E ends exactly
    there (the fill is the least cycle with those node values and
    (x, E_v) <= 0 off the nodes), so the condition is checked and the walk
    is not run.
    """
    wtf = og.wtf
    wtxyz = x1x2x3_cycle(og)
    zk_e = tuple(a - b for a, b in zip(wtf, wtxyz))
    nodes = og.graph.nodes
    target = fill_cycle(og.graph, [zk_e[n] for n in nodes])
    if any(z > x for z, x in zip(zk_e, target)):
        raise AssertionError("Z_K - E exceeds the chain fill of its node values")
    offsets, denominators = tuple(wtxyz[n] for n in nodes), tuple(wtf[n] for n in nodes)
    return SequenceContext("III", og.graph, target, offsets, denominators)


def run_sequence(ctx: SequenceContext, tie_break="min") -> SequenceResult:
    """Node steps of the computation sequence for the context's target.

    Each step raises the node of least ratio; ties go to the node maximising
    (Z, E_n), remaining ties to the smallest node id (largest under
    tie_break="reversed", which the invariance tests use).  Every sequence
    is finite: kind II stops at wt(f), the end of its first period (see
    `kind2_context` for the rest).

    Each ratio is kept as the integer key (z_n + offset_n) D / den_n, D the
    lcm of the denominators, which a step at n raises by D / den_n.  Only
    node values move.  (Z, E_n) = -b_n z_n plus, per chain of n,
    ceil((beta z_n + z_o) / alpha) (`graph.node_pairing`); a step at n
    changes only the pairings of n and of the nodes its chains end at
    (`PlumbingGraph.node_chains`).

    Each step raises one node value below its target by 1, so no value
    passes max(target, 0) and the sum of those maxima bounds the number of
    steps; past SEQUENCE_STEPS the sequence is refused before its first step.
    """
    if tie_break not in ("min", "reversed"):
        raise ValueError(tie_break)
    if not all(d > 0 for d in ctx.denominators):
        raise ValueError(f"ratio denominators must be positive: {ctx.denominators}")
    graph = ctx.graph
    nodes = graph.nodes
    target = [ctx.target[n] for n in nodes]
    needed = sum(max(t, 0) for t in target)
    if needed > SEQUENCE_STEPS:
        raise BudgetExceeded(
            f"sequence step budget exceeded: kind {ctx.kind} needs {needed} steps, "
            f"more than {SEQUENCE_STEPS}"
        )
    local = graph.node_chains
    denominator = lcm(*ctx.denominators)
    scale = [denominator // d for d in ctx.denominators]
    key = [o * s for o, s in zip(ctx.offsets, scale)]
    z = [0] * len(nodes)
    pairings = [node_pairing(b_n, chains, 0, z) for b_n, chains in local]
    reversed_ties = tie_break == "reversed"
    steps, step_pairings = [], []
    while True:
        best = None
        for i in range(len(nodes)):
            if z[i] >= target[i]:
                continue
            k = key[i]
            if (
                best is None
                or k < b_key
                or (k == b_key and (pairings[i] > pairings[best] or (pairings[i] == pairings[best] and reversed_ties)))
            ):
                best, b_key = i, k
        if best is None:
            break
        if steps and b_key < last:
            raise AssertionError("sequence ratios must be nondecreasing")
        last = b_key
        steps.append(best)
        step_pairings.append(pairings[best])
        z[best] += 1
        key[best] += scale[best]
        b_n, chains = local[best]
        pairings[best] = node_pairing(b_n, chains, z[best], z)
        for _, _, o in chains:
            if o is not None:
                pairings[o] = node_pairing(*local[o], z[o], z)
    reached = fill_cycle(graph, z)
    return SequenceResult(
        ctx.kind, steps, step_pairings, ctx.target, reached, graph, ctx.offsets, ctx.denominators, denominator
    )
