"""Topological and analytic invariants of Newton nondegenerate surface
singularities, computed exactly from the monomial support."""

from .errors import (
    BudgetExceeded,
    Degenerate,
    Disconnected,
    EqualVectors,
    KindMismatch,
    NewtonsingError,
    NoCompactFace,
    NonCoprime,
    NonPrimitiveInput,
    NotAVertex,
    NotEmpty,
    NotIsolated,
    NotNegativeDefinite,
    NotRationalHomologySphere,
    NotTree,
)
from .graph import (
    OkaGraph,
    PlumbingGraph,
    check_canonical,
    intersection_data,
    merle_teissier_ZK,
    minimal_cycle,
    minimal_model,
    oka_graph,
    wt_cycle,
)
from .invariants import (
    PgResult,
    SingularityModel,
    SwResult,
    geometric_genus,
    poincare_via_sequence,
    spectrum_leq0,
    sw_invariant,
)
from .lattice import (
    canonical_primitive_sequence,
    content,
    denominator_beta,
    determinant_alpha,
    negative_cf,
)
from .newton import (
    NewtonPolyhedron,
    PuiseuxPoly,
    Support,
    brieskorn,
    classify_diagram,
    is_convenient,
    is_isolated,
    is_rhs_link,
    make_convenient,
    newton_polyhedron,
    newton_weight,
    poincare_newton,
    poincare_pol_part,
    saito_spectrum,
)
from .polygon import (
    DilatedPolygonSpec,
    LatticePolygon2,
    classify_empty_polygon,
    count_dilated_points,
    dilated_content,
    edge_support_function,
    vertex_is_regular,
)
from .sequences import chi, laufer_x, run_sequence, z_legs_cycle
from .series import counting_q, enumerate_P, zeta_coefficient

__version__ = "0.1.0"
