"""
Exact computation of dual Schubert and interval weight polynomials over the
symmetric group, their supports and Newton polytopes, and the staircase
tiling enumeration of Newton polytope vertices.
"""

from .perm import (
    Perm,
    all_perms,
    apply_t,
    bruhat_leq,
    contains_pattern,
    down_covers,
    format_perm,
    identity,
    inversions,
    length,
    longest_element,
    parse_perm,
    up_covers,
)
from .bruhat import (
    SaturatedChain,
    enumerate_chains,
    generating_multiset,
    greedy_chain,
    interval_covers,
    interval_elements,
    is_greedy,
    multiset_dominates,
    trivial_chain,
)
from .poly import (
    SparsePolynomial,
    chain_weight,
    dual_schubert,
    dual_schubert_table,
    global_weight,
    postnikov_stanley_chainsum,
    postnikov_stanley_dp,
    segment_poly,
)
from .polytope import (
    GeneralizedPermutahedron,
    gp_from_inversions,
    gp_from_segment,
    hull_contains,
    hull_vertices,
    is_m_convex,
    is_snp,
    m_convex_certificate,
    m_convex_failure,
    newton_vertices_coeff1,
)
from .tiling import (
    RectTiling,
    StaircaseDiagram,
    build_diagram,
    enumerate_tilings,
    render_diagram,
    render_tiling,
    tiling_vertex,
    tiling_vertex_list,
    vertices_via_tilings,
)
from .scnp import (
    ConjectureReport,
    ScnpVerdict,
    is_scnp,
    ps_support,
    support_table_above,
    verify_ps_mconvex,
    verify_scnp_pattern,
    verify_theorems,
)

__version__ = "0.1.0"
