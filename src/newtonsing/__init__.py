"""Topological and analytic invariants of Newton nondegenerate surface
singularities, computed exactly from the monomial support."""

from .errors import (
    BudgetExceeded,
    Disconnected,
    EqualVectors,
    KindMismatch,
    NewtonsingError,
    NoCompactFace,
    NonCoprime,
    NonPrimitiveInput,
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
    minimal_model,
    oka_graph,
)
from .invariants import PgResult, SingularityModel, SwResult
from .lattice import (
    content,
    determinant_alpha,
    negative_cf,
)
from .newton import (
    NewtonPolyhedron,
    PuiseuxPoly,
    Support,
    classify_diagram,
    is_convenient,
    is_isolated,
    is_rhs_link,
    make_convenient,
    newton_polyhedron,
    newton_weight,
    poincare_newton,
    saito_spectrum,
)
from .sequences import laufer_x, run_sequence
from .series import counting_q, enumerate_P, zeta_coefficient

__version__ = "0.1.0"
