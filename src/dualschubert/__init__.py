"""
Exact computation of dual Schubert and interval weight polynomials over the
symmetric group, their supports and Newton polytopes, and the staircase
tiling enumeration of Newton polytope vertices.

Each public name is imported from its module when it is first read, so
importing the package, or one module of it, loads nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module's public names
_EXPORTS = {
    "perm": (
        "Perm", "all_perms", "apply_t", "bruhat_leq", "contains_pattern",
        "down_covers", "format_perm", "identity", "inversions", "length",
        "longest_element", "parse_perm", "up_covers",
    ),
    "bruhat": (
        "SaturatedChain", "enumerate_chains", "generating_multiset",
        "greedy_chain", "interval_covers", "interval_elements", "is_greedy",
        "multiset_dominates",
    ),
    "poly": (
        "SparsePolynomial", "chain_weight", "dual_schubert",
        "dual_schubert_table", "global_weight", "postnikov_stanley_dp",
        "segment_poly",
    ),
    "polytope": (
        "GeneralizedPermutahedron", "gp_from_inversions", "hull_contains",
        "hull_vertices", "is_m_convex", "is_snp",
        "m_convex_certificate", "m_convex_failure", "newton_vertices_coeff1",
    ),
    "tiling": (
        "RectTiling", "StaircaseDiagram", "build_diagram", "enumerate_tilings",
        "render_diagram", "render_tiling", "tiling_vertex", "tiling_vertex_list",
        "vertices_via_tilings",
    ),
    "scnp": (
        "ConjectureReport", "ScnpVerdict", "is_scnp", "ps_support",
        "verify_ps_mconvex", "verify_scnp_pattern", "verify_theorems",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """Import a public name from its module on first read (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
