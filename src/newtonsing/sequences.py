"""Laufer operator and the ratio-test computation sequences.

A sequence context packages the graph, the per-node ratio data and the
target cycle; `run_sequence` then produces the node steps (Z_i, v(i), a_i,
r_i).  The connecting Laufer steps contribute nothing to the sums and are
performed inside the Laufer operator.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import NewtonsingError
from .graph import OkaGraph, PlumbingGraph, wt_cycle, x1x2x3_cycle, zk_integer


def laufer_x(graph: PlumbingGraph, z, og: OkaGraph | None = None) -> tuple:
    """Minimal cycle agreeing with z on the nodes, nonpositive elsewhere.

    Computed by the generalized Laufer sequence, which requires z <= x(z);
    that holds at every call site here (nonnegative node data, or cycles of
    the form x(Z) + E_n).  When the Oka graph is supplied, the result is
    cross-checked against the ceil interpolation formula on every bamboo.
    """
    m = list(z)
    is_node = [graph.degree[v] >= 3 for v in range(graph.nv)]
    kernels.laufer_complete(list(graph.b), graph.neighbors, is_node, m)
    for v in range(graph.nv):
        if not is_node[v] and graph.dot_E(m, v) > 0:
            raise AssertionError("Laufer completion left a positive non-node pairing")
    result = tuple(m)
    if og is not None:
        _check_interpolation(og, result)
    return result


def _ceil_div(a, b):
    return -(-a // b)


def _check_interpolation(og: OkaGraph, m):
    for bam in og.bamboos:
        n_id = og.node_ids[bam.face_a]
        if bam.face_b in og.node_ids:
            m_other = m[og.node_ids[bam.face_b]]
        else:
            m_other = 0
        if not bam.vertex_ids:
            continue
        first = bam.vertex_ids[0]
        expect = _ceil_div(bam.beta * m[n_id] + m_other, bam.alpha)
        if m[first] != expect:
            raise AssertionError(
                f"interpolation mismatch at bamboo {bam.face_a}->{bam.face_b}: "
                f"{m[first]} != {expect}"
            )
        if bam.face_b in og.node_ids and bam.beta_reverse is not None:
            last = bam.vertex_ids[-1]
            expect = _ceil_div(bam.beta_reverse * m_other + m[n_id], bam.alpha)
            if m[last] != expect:
                raise AssertionError(
                    f"reverse interpolation mismatch at bamboo {bam.face_a}->{bam.face_b}"
                )


def leg_vertices(graph: PlumbingGraph):
    """Vertices lying on legs: chains from a node down to a degree-1 vertex."""
    legs = set()
    for end in graph.ends:
        chain = [end]
        prev, cur = None, end
        while graph.degree[cur] <= 2:
            nxt = [u for u in graph.neighbors[cur] if u != prev]
            if not nxt:
                break  # chain without a node (A_n graph): not a leg
            prev, cur = cur, nxt[0]
            if graph.degree[cur] >= 3:
                legs.update(chain)
                break
            chain.append(cur)
    return sorted(legs)


def z_legs_cycle(graph: PlumbingGraph) -> tuple:
    z = [0] * graph.nv
    for v in leg_vertices(graph):
        z[v] = 1
    return tuple(z)


def chi(graph: PlumbingGraph, zk, l) -> Fraction:
    """(-l, l - Z_K)/2."""
    diff = tuple(Fraction(a) - Fraction(b) for a, b in zip(l, zk))
    return Fraction(-graph.pairing(l, diff), 2)


@dataclass(frozen=True)
class SeqStep:
    Z: tuple  # cycle before the step
    v: int  # node incremented
    a: int  # max(0, (-Z, E_v) + 1)
    r: Fraction  # ratio of the chosen node


@dataclass
class SequenceResult:
    kind: str  # "I" | "II" | "III"
    steps: list
    target: tuple
    reached: tuple
    graph: PlumbingGraph

    @property
    def total(self) -> int:
        return sum(s.a for s in self.steps)

    def cycles(self):
        """Z_0 = 0, ..., Z_k: the cycle before each step, then the end."""
        return [s.Z for s in self.steps] + [self.reached]


@dataclass
class SequenceContext:
    kind: str
    graph: PlumbingGraph
    target: tuple
    numerator_offset: dict  # node -> int
    denominator: dict  # node -> int
    og: OkaGraph | None = None


def kind1_context(graph: PlumbingGraph, og: OkaGraph | None = None) -> SequenceContext:
    """Targets Z_K; run on the minimal model (or an Oka graph for the oracle)."""
    zk = zk_integer(graph)
    offsets = {n: 0 for n in graph.nodes}
    denominators = {n: zk[n] - 1 for n in graph.nodes}
    return SequenceContext("I", graph, zk, offsets, denominators, og)


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
    checked here and `run_sequence` checks that the period ends at wt(f).
    """
    wtf = wt_cycle(og, og.support.points)
    graph = og.graph
    bad = [v for v in range(graph.nv) if graph.degree[v] < 3 and graph.dot_E(wtf, v)]
    if bad:
        raise NewtonsingError(
            f"(wt(f), E_v) != 0 at non-node vertices {bad}; kind II needs a convenient diagram"
        )
    nodes = graph.nodes
    return SequenceContext("II", graph, wtf, {n: 0 for n in nodes}, {n: wtf[n] for n in nodes}, og)


def kind3_context(og: OkaGraph) -> SequenceContext:
    wtf = wt_cycle(og, og.support.points)
    wtxyz = x1x2x3_cycle(og)
    zk_e = tuple(a - b for a, b in zip(wtf, wtxyz))
    target = laufer_x(og.graph, zk_e, og)
    nodes = og.graph.nodes
    return SequenceContext(
        "III",
        og.graph,
        target,
        {n: wtxyz[n] for n in nodes},
        {n: wtf[n] for n in nodes},
        og,
    )


def _ratio(ctx: SequenceContext, z, n) -> Fraction:
    num = z[n] + ctx.numerator_offset[n]
    den = ctx.denominator[n]
    if den > 0:
        return Fraction(num, den)
    if num == 0:
        return Fraction(0)
    raise NewtonsingError(f"ratio test undefined at node {n}: {num}/{den}")


def run_sequence(ctx: SequenceContext, tie_break="min") -> SequenceResult:
    """Node steps of the computation sequence for the context's target.

    Ties in the ratio go to the node maximising (Z, E_n); remaining ties to
    the smallest node id (largest under tie_break="reversed", which the
    invariance tests use).  Every sequence is finite: kind II stops at
    wt(f), the end of its first period (see `kind2_context` for the rest).
    """
    if tie_break not in ("min", "reversed"):
        raise ValueError(tie_break)
    graph = ctx.graph
    z = tuple([0] * graph.nv)
    steps = []
    guard = 0
    while True:
        eligible = [n for n in graph.nodes if z[n] < ctx.target[n]]
        if not eligible:
            break
        guard += 1
        if guard > 10**7:
            raise NewtonsingError("computation sequence failed to terminate")
        ratios = {n: _ratio(ctx, z, n) for n in eligible}
        best = min(ratios.values())
        pool = [n for n in eligible if ratios[n] == best]
        top = max(graph.dot_E(z, n) for n in pool)
        pool = [n for n in pool if graph.dot_E(z, n) == top]
        n = min(pool) if tie_break == "min" else max(pool)
        a = max(0, -graph.dot_E(z, n) + 1)
        steps.append(SeqStep(z, n, a, best))
        bumped = list(z)
        bumped[n] += 1
        z = laufer_x(graph, bumped, ctx.og)
        if any(z[v] > max(ctx.target[v], 0) for v in graph.nodes):
            raise NewtonsingError("sequence overshot its target on a node")
    if z != ctx.target and (ctx.kind == "II" or ctx.og is None):
        raise NewtonsingError("sequence did not reach its target cycle")
    result = SequenceResult(ctx.kind, steps, ctx.target, z, graph)
    ratios = [s.r for s in result.steps]
    if any(b < a for a, b in zip(ratios, ratios[1:])):
        raise AssertionError("sequence ratios must be nondecreasing")
    return result
