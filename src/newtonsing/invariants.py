"""Headline invariants of a support: p_g, spectrum part, Poincare series, SW.

`SingularityModel` caches the derived objects (polyhedron, Oka graph,
minimal model, sequences) so that repeated queries against one support do
not recompute them.  The module-level functions mirror the one-shot API.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import NewtonsingError, NoCompactFace, NotRationalHomologySphere
from .graph import (
    PlumbingGraph,
    merle_teissier_ZK,
    minimal_model,
    oka_graph,
    zk_integer,
)
from .newton import (
    NewtonPolyhedron,
    PuiseuxPoly,
    Support,
    ensure_convenient,
    newton_polyhedron,
    poincare_newton,
    poincare_pol_part,
    saito_spectrum,
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
        self._sequences = {}

    @cached_property
    def polyhedron(self) -> NewtonPolyhedron:
        return newton_polyhedron(self.support)

    @cached_property
    def is_rhs(self) -> bool:
        from .newton import _positive_diagram_points

        return not _positive_diagram_points(self.polyhedron)

    def require_rhs(self):
        if not self.polyhedron.compact_faces:
            raise NoCompactFace(f"{self.support} has no compact face")
        if not self.is_rhs:
            raise NotRationalHomologySphere(f"{self.support} has a non-RHS link")

    @cached_property
    def convenient_support(self) -> Support:
        return ensure_convenient(self.support)

    @cached_property
    def convenient_polyhedron(self) -> NewtonPolyhedron:
        if self.convenient_support is self.support:
            return self.polyhedron
        return newton_polyhedron(self.convenient_support)

    @cached_property
    def oka(self):
        """Oka graph of the convenient diagram."""
        return oka_graph(self.convenient_support)

    @cached_property
    def oka_raw(self):
        """Oka graph of the support as given."""
        if self.convenient_support is self.support:
            return self.oka
        return oka_graph(self.support)

    @cached_property
    def minimal(self) -> PlumbingGraph:
        return minimal_model(self.oka.graph)

    @cached_property
    def zk_oka(self) -> tuple:
        zk = zk_integer(self.oka.graph)
        if zk != merle_teissier_ZK(self.oka):
            raise AssertionError("adjunction and weight-cycle computations of Z_K disagree")
        return zk

    @cached_property
    def zk_minimal(self) -> tuple:
        return zk_integer(self.minimal)

    def sequence(self, kind: str, max_ratio=None, tie_break="min") -> SequenceResult:
        self.require_rhs()
        key = (kind, Fraction(max_ratio) if max_ratio is not None else None, tie_break)
        if key not in self._sequences:
            if kind == "I":
                ctx = kind1_context(self.minimal)
            elif kind == "II":
                ctx = kind2_context(self.oka)
            elif kind == "III":
                ctx = kind3_context(self.oka)
            else:
                raise ValueError(kind)
            self._sequences[key] = run_sequence(ctx, max_ratio=max_ratio, tie_break=tie_break)
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
        """Multiset of spectrum values in (-1, 0], as r_i - 1 per step."""
        out = Counter()
        for step in self.sequence("III", tie_break=tie_break).steps:
            if step.a:
                out[step.r - 1] += step.a
        return out

    def saito_spectrum(self) -> Counter:
        self.require_rhs()
        return saito_spectrum(self.convenient_polyhedron)

    def poincare_via_sequence(self, max_exponent, tie_break="min") -> PuiseuxPoly:
        bound = Fraction(max_exponent)
        if bound <= 0:
            raise ValueError("max_exponent must be positive")
        terms = Counter()
        for step in self.sequence("II", max_ratio=bound, tie_break=tie_break).steps:
            if step.a and step.r <= bound:
                terms[step.r] += step.a
        return PuiseuxPoly(terms)

    def poincare_newton(self, max_exponent) -> PuiseuxPoly:
        self.require_rhs()
        return poincare_newton(self.convenient_polyhedron, max_exponent)

    def poincare_pol_part(self) -> PuiseuxPoly:
        self.require_rhs()
        return poincare_pol_part(self.convenient_polyhedron)

    def sw(self, tie_break="min") -> SwResult:
        seq = self.sequence("I", tie_break=tie_break)
        zk = self.zk_minimal
        zk_sq = self.minimal.pairing(zk, zk)
        return SwResult(seq.total, int(zk_sq), self.minimal.nv)

    def pg_lattice_count(self) -> int:
        """#(Z^3_{>=0} outside the polyhedron of Z_K - E), the point oracle."""
        from . import kernels

        self.require_rhs()
        og = self.oka
        zk_e = tuple(x - 1 for x in self.zk_oka)
        hi = []
        for c in range(3):
            hi.append(max((m - 1) // f[c] if m > 0 else -1 for f, m in zip(og.ell, zk_e)))
        return kernels.count_violating(list(og.ell), list(zk_e), [0, 0, 0], hi)


def geometric_genus(support: Support) -> PgResult:
    return SingularityModel(support).pg()


def spectrum_leq0(support: Support) -> Counter:
    return SingularityModel(support).spectrum()


def poincare_via_sequence(support: Support, max_exponent) -> PuiseuxPoly:
    return SingularityModel(support).poincare_via_sequence(max_exponent)


def sw_invariant(support: Support) -> SwResult:
    return SingularityModel(support).sw()
