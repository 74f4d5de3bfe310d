"""Exact Waldschmidt constants on blowups of the projective plane.

Computes the Waldschmidt constant of a fat point subscheme at up to 8
essentially distinct points by exact rational linear programming over
the finitely generated effective cone, emits machine-checkable
certificates, and reproduces the degree-4 weak del Pezzo catalog.
"""

from .classes import (
    CandidateFamily,
    candidate_sets,
    enumerate_exceptional,
    enumerate_roots,
    is_exceptional,
    is_root,
    reflect,
    simple_roots,
    weyl_orbit,
)
from .cone import (
    Certificate,
    alpha_degree,
    certificate_failures,
    chudnovsky_check,
    cone_membership,
    is_nef,
    monoid_membership,
    verify_certificate,
    waldschmidt,
)
from .config import (
    ProximityMatrix,
    SurfaceConfig,
    ValidationReport,
    config_from_dict,
    derive_proximity,
    effective_generators,
    load_config,
    proximity_check,
    strict_transform_components,
    validate_config,
)
from .dp4 import Dp4Type, catalog, check_bounds, check_degenerations, compute_table
from .lattice import (
    DivisorClass,
    canonical_class,
    divisor,
    format_class,
    line_class,
    pairing,
    parse_class,
    point_class,
)
from .monomial import MonomialIdeal, parse_ideal

__version__ = "0.1.0"

__all__ = [
    "CandidateFamily",
    "Certificate",
    "DivisorClass",
    "Dp4Type",
    "MonomialIdeal",
    "ProximityMatrix",
    "SurfaceConfig",
    "ValidationReport",
    "alpha_degree",
    "canonical_class",
    "candidate_sets",
    "catalog",
    "certificate_failures",
    "check_bounds",
    "check_degenerations",
    "chudnovsky_check",
    "compute_table",
    "cone_membership",
    "config_from_dict",
    "derive_proximity",
    "divisor",
    "effective_generators",
    "enumerate_exceptional",
    "enumerate_roots",
    "format_class",
    "is_exceptional",
    "is_nef",
    "is_root",
    "line_class",
    "load_config",
    "monoid_membership",
    "pairing",
    "parse_class",
    "parse_ideal",
    "point_class",
    "proximity_check",
    "reflect",
    "simple_roots",
    "strict_transform_components",
    "validate_config",
    "verify_certificate",
    "waldschmidt",
    "weyl_orbit",
]
