"""Exact Waldschmidt constants on blowups of the projective plane.

Computes the Waldschmidt constant of a fat point subscheme at up to 8
essentially distinct points by exact rational linear programming over
the finitely generated effective cone, emits machine-checkable
certificates, and reproduces the degree-4 weak del Pezzo catalog.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, after the module that defines it.  Names resolve on
# first use (PEP 562), so `import waldschmidt` alone loads no submodule.
_PUBLIC = {
    "classes": "CandidateFamily candidate_sets enumerate_exceptional enumerate_roots "
    "is_exceptional is_root reflect simple_roots weyl_orbit",
    "cone": "Certificate alpha_degree certificate_failures chudnovsky_check "
    "cone_membership is_nef monoid_membership verify_certificate waldschmidt",
    "config": "ProximityMatrix SurfaceConfig ValidationReport config_from_dict "
    "derive_proximity effective_generators load_config proximity_check "
    "strict_transform_components validate_config",
    "dp4": "Dp4Type catalog check_bounds check_degenerations compute_table",
    "lattice": "DivisorClass canonical_class format_class line_class pairing "
    "parse_class point_class",
    "monomial": "MonomialIdeal parse_ideal",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
