"""Certified bounds for effective topological complexity and effective
LS-category of finite symmetric configuration spaces.

Upper bounds come from executable broken-path motion planners verified on
deterministic grids; lower bounds from exact F2 cohomology of simplicial
models (zero divisors of the saturated diagonal, cohomological-dimension
criteria, orbit-map nilpotency).
"""

from .bounds import (
    BoundReport,
    BoundValue,
    Certification,
    cd_bound_check,
    cd_positivity_criterion,
    chain_checks,
    orbit_nilpotency_lower_bound,
    reconcile,
    verify_cover,
    zero_divisor_cup_length,
)
from .complexes import (
    Cochain,
    CohomologySummary,
    SimplicialComplex,
    barycentric_subdivision,
    build_complex,
    coboundary_matrix,
    cohomology,
    cup_length,
    cup_product,
    f2_cd,
    read_complex_text,
    write_complex_text,
)
from .pathspace import Space, SpaceAction, leg_residuals
from .planners import (
    CoverSet,
    PlannerCover,
    cover_from_covering_lift,
    cover_from_strict_section,
    embed_cover,
    farber_sphere_cover,
    involution_three_stage_planner,
    involution_two_stage_cover,
)
from .scenarios import BUILTINS, emit_table, run_scenario
from .symmetry import (
    FiniteGroup,
    GroupAction,
    fixed_subcomplex,
    product_complex,
    quotient_complex,
    saturated_diagonal,
)

__version__ = "0.1.0"
