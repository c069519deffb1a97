"""Headline invariants of a support: p_g, spectrum part, Poincare series, SW.

`SingularityModel` is the one owner of a support's derived objects.  Each
stage is a function of the stage before it, and the model builds each one
once and caches it: the polyhedron from the support, the Oka graph from the
polyhedron, the convenient Oka graph (the same graph for a convenient
support, else the one `make_convenient` accepted, which carries its own
polyhedron and comes with its blow-down), then the minimal model (that
blow-down, so a completion is blown down once) and the sequences.  After
the polyhedron and the convenience test no stage reads the support: the Oka
graph reads wt(f) off the diagram's edges.  Z_K is read once, off the
convenient diagram as E + wt(f) - wt(x1 x2 x3), and restricted to the
minimal model's vertices; on each graph the adjunction equalities certify
it, so no graph is eliminated to find it.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import floor

from . import kernels
from .errors import NewtonsingError, NoCompactFace, NotRationalHomologySphere
from .graph import (
    PlumbingGraph,
    check_canonical,
    merle_teissier_ZK,
    minimal_model,
    oka_graph,
)
from .newton import (
    NewtonPolyhedron,
    PuiseuxPoly,
    Support,
    is_convenient,
    is_rhs_link,
    make_convenient,
    newton_polyhedron,
    poincare_newton,
    saito_spectrum,
    weight_box,
)
from .sequences import (
    SequenceResult,
    kind1_context,
    kind2_context,
    kind3_context,
    run_sequence,
)


@dataclass(frozen=True)
class PgResult:
    value: int
    via_minimal: int  # sum over sequence I on the minimal model
    via_diagram: int  # sum over sequence III on the convenient Oka graph


@dataclass(frozen=True)
class SwResult:
    value: int  # normalized SW invariant = sum over sequence I
    zk_sq: int  # Z_K^2 on the minimal model
    vertex_count: int  # |V| of the minimal model

    @property
    def sw_canonical(self) -> Fraction:
        """sw^0 of the canonical spin-c structure itself."""
        return self.value + Fraction(self.zk_sq + self.vertex_count, 8)


class SingularityModel:
    """All derived data of one support, computed on demand and cached."""

    def __init__(self, support: Support):
        self.support = support
        self._contexts = {}
        self._sequences = {}

    @cached_property
    def polyhedron(self) -> NewtonPolyhedron:
        return newton_polyhedron(self.support)

    @cached_property
    def is_rhs(self) -> bool:
        return is_rhs_link(self.polyhedron)

    def require_rhs(self):
        if not self.polyhedron.compact_faces:
            raise NoCompactFace(f"{self.support} has no compact face")
        if not self.is_rhs:
            raise NotRationalHomologySphere(f"{self.support} has a non-RHS link")

    @cached_property
    def oka_raw(self):
        """Oka graph of the support as given."""
        return oka_graph(self.polyhedron)

    @cached_property
    def _convenient(self) -> tuple:
        """(the Oka graph of the convenient diagram, its (minimal, kept)
        pair or None): `make_convenient` hands a completion's blow-down back
        with it."""
        if is_convenient(self.support):
            return self.oka_raw, None
        return make_convenient(self.polyhedron)

    @cached_property
    def oka(self):
        """Oka graph of the convenient diagram; its `.polyhedron` is that diagram's."""
        return self._convenient[0]

    @cached_property
    def _blown_down(self) -> tuple:
        """(minimal, kept) of the Oka graph, blown down once: a completion's
        pair from `make_convenient`, else `minimal_model`'s."""
        return self._convenient[1] or minimal_model(self.oka.graph)

    @cached_property
    def minimal(self) -> PlumbingGraph:
        """Minimal model of the Oka graph."""
        return self._blown_down[0]

    @cached_property
    def kept(self) -> tuple:
        """kept[i] is the Oka vertex that vertex i of `minimal` came from."""
        return self._blown_down[1]

    @cached_property
    def zk_oka(self) -> tuple:
        """Z_K read off the diagram, certified by the adjunction equalities."""
        return check_canonical(self.oka.graph, merle_teissier_ZK(self.oka))

    @cached_property
    def zk_minimal(self) -> tuple:
        """Z_K of the Oka graph at the vertices that survive the blow-downs."""
        return check_canonical(self.minimal, [self.zk_oka[v] for v in self.kept])

    def _context(self, kind: str):
        """The kind's sequence context, built once and shared by both tie-breaks."""
        if kind not in self._contexts:
            if kind == "I":
                self._contexts[kind] = kind1_context(self.minimal, self.zk_minimal)
            elif kind == "II":
                self._contexts[kind] = kind2_context(self.oka)
            elif kind == "III":
                self._contexts[kind] = kind3_context(self.oka)
            else:
                raise ValueError(kind)
        return self._contexts[kind]

    def sequence(self, kind: str, tie_break="min") -> SequenceResult:
        self.require_rhs()
        key = (kind, tie_break)
        if key not in self._sequences:
            seq = run_sequence(self._context(kind), tie_break=tie_break)
            # kind III's target is a chain fill by construction
            if kind != "III" and seq.reached != seq.target:
                raise NewtonsingError("sequence did not reach its target cycle")
            self._sequences[key] = seq
        return self._sequences[key]

    def pg(self, tie_break="min") -> PgResult:
        one = self.sequence("I", tie_break=tie_break).total
        three = self.sequence("III", tie_break=tie_break).total
        if one != three:
            raise NewtonsingError(
                f"sequence I and III totals disagree: {one} != {three}"
            )
        return PgResult(one, one, three)

    def spectrum(self, tie_break="min") -> Counter:
        """Multiset of spectrum values in (-1, 0], as r_i - 1 per step with
        a_i > 0, counted by the ratio's integer numerator over the
        sequence's denominator."""
        seq = self.sequence("III", tie_break=tie_break)
        counts = Counter()
        for k, a in zip(seq.numerators(), seq.increments()):
            if a:
                counts[k] += a
        den = seq.denominator
        return Counter({Fraction(k - den, den): a for k, a in counts.items()})

    def saito_spectrum(self) -> Counter:
        self.require_rhs()
        return saito_spectrum(self.oka.polyhedron)

    def poincare_via_sequence(self, max_exponent, tie_break="min") -> PuiseuxPoly:
        """Sum of a at t^r over the kind-II steps with r <= max_exponent.

        Step i of the first period recurs in period j with ratio r_i + j and
        a = max(0, c_i - j*d_i), c_i = 1 - (Z_i, E_v), d_i = (wt(f), E_v)
        (see `kind2_context`).  Every ratio z_n / wt(f)_n is k_i / den with
        den the lcm of the node denominators, so the series is kept in the
        integer numerators k_i + j*den <= floor(max_exponent * den);
        `PuiseuxPoly` reduces them by their common gcd with den.
        """
        bound = Fraction(max_exponent)
        if bound <= 0:
            raise ValueError("max_exponent must be positive")
        self.require_rhs()
        weight_box(self.oka.polyhedron, bound)  # the scan's budget bounds the periods too
        seq = self.sequence("II", tie_break=tie_break)
        g = seq.graph
        den = seq.denominator
        cap = floor(bound * den)
        slope = [g.dot_E(seq.target, n) for n in g.nodes]
        terms = {}
        for k, i, pairing in zip(seq.numerators(), seq.steps, seq.pairings):
            # period j adds max(0, c - j*d) at k + j*den; its zeros add nothing
            for key, a in zip(range(k, cap + 1, den), count(1 - pairing, -slope[i])):
                if a > 0:
                    terms[key] = terms.get(key, 0) + a
        return PuiseuxPoly(terms, den)

    def poincare_newton(self, max_exponent) -> PuiseuxPoly:
        self.require_rhs()
        return poincare_newton(self.oka.polyhedron, max_exponent)

    def sw(self, tie_break="min") -> SwResult:
        seq = self.sequence("I", tie_break=tie_break)
        zk = self.zk_minimal
        zk_sq = self.minimal.pairing(zk, zk)
        return SwResult(seq.total, int(zk_sq), self.minimal.nv)

    def pg_lattice_count(self) -> int:
        """#(Z^3_{>=0} outside the polyhedron of Z_K - E), the point oracle.

        A point p's values l_v(p) form a Lipman-cone cycle, and Z_K - E lies
        below the chain fill of its node values (kind III's context checks
        it), so p lies in the polyhedron exactly when l_n(p) >= (Z_K - E)_n
        at every node, as in `series.enumerate_P`: only the node rows are
        scanned.
        """
        self.require_rhs()
        self._context("III")  # checks Z_K - E against its chain fill
        rows = [self.oka.ell[n] for n in self.oka.graph.nodes]
        bounds = [self.zk_oka[n] - 1 for n in self.oka.graph.nodes]
        return kernels.count_violating(rows, bounds, [0, 0, 0], kernels.violating_top(rows, bounds))
