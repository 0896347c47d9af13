"""Exact arithmetic dynamics over the rational function field Q(t).

Heights, canonical heights, chordal local heights, ramification data,
S-integrality scans of orbits and multiplicative-dependence searches for
rational self-maps of the projective line, all in exact rational arithmetic.

The public names below load their module on first access (PEP 562), so
importing one module, such as ``ffdyn.polynomials``, loads only what that
module imports.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ConfigError", "DomainError", "FFDynError", "OrbitBudgetError", "ParseError",
    ),
    "function_field": (
        "FieldElement", "Place", "PlaceSet", "height_elem", "height_elem_place_sum",
        "is_S_integer", "is_S_unit", "log_abs", "ord_at", "product_formula_defect",
        "s_free_part", "support",
    ),
    "heights": (
        "HeightInterval", "Orbit", "Preperiodic", "Wandering", "canonical_height",
        "classify_preperiodic", "displacement_bound", "iterate_height_check",
    ),
    "local_geometry": (
        "contact_comparison", "fiber_pullback_defect", "lambda_sum", "lambda_v",
    ),
    "maps": (
        "FiberDecomposition", "ProjectivePoint", "RationalMap", "apply_map",
        "bad_reduction_places", "choose_m", "compose", "fiber", "is_exceptional",
        "is_polynomial_iterate", "max_fiber_ram", "normalize_map", "power",
        "ramification_index", "ramification_totals", "resultant", "wronskian",
    ),
    "mult_dependence": (
        "DependenceQuery", "SplitMultilinearForm", "dependence_search",
        "poly_case_split", "split_multilinear_zero_scan", "unit_hits",
    ),
    "orbit_integrality": (
        "ceil_log_plus", "count_S_integral", "floor_log_plus", "estimate_gamma",
        "gamma_set", "gamma_set_bound_rhs", "integral_count_bound_rhs",
    ),
    "exprs": (
        "parse_field_elem", "parse_place", "parse_places", "parse_point",
        "parse_rational_map", "parse_split_form",
    ),
    "polynomials": (
        "Poly", "ZPoly",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
