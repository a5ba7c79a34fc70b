"""Graph-directed fractal interpolation.

Builds a family of continuous interpolants, one per vertex of a directed
graph, where each interval of each data set is rewritten from the data set
of a wired source vertex through an affine contraction. A single self-wired
vertex reduces to classic fractal interpolation. The package validates the
construction hypotheses, solves the affine maps in closed form, finds the
interpolants as the fixed point of a contracting transfer operator, and
approximates the matching attractors by set-valued iteration or a chaos
game.
"""

from .attractor import (
    AttractorCloud,
    CloudBudgetError,
    chaos_game,
    data_clouds,
    directed_hausdorff,
    hausdorff_distance,
    hutchinson_step,
    iterate_attractor,
)
from .funcspace import (
    ConvergenceError,
    FixedPointResult,
    FunctionFamily,
    SampledFunction,
    apply_T,
    evaluate_exact,
    family_distance,
    fixed_point,
    initial_family,
    interpolation_residual,
    standard_grid,
    sup_distance,
)
from .maps import (
    AffineMap,
    GifsSystem,
    InvalidSystemError,
    apply_map,
    build_system,
    endpoint_residuals,
)
from .model import (
    CONDITION3_MODES,
    STRICT_MODE,
    USED_EDGES_MODE,
    DataSet,
    IntervalAssignment,
    ValidationReport,
    Violation,
    WiringPlan,
    edge_counts,
    validate,
)
from .render import export_csv, render_pgm, render_svg

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AttractorCloud",
    "CloudBudgetError",
    "CONDITION3_MODES",
    "ConvergenceError",
    "DataSet",
    "FixedPointResult",
    "FunctionFamily",
    "GifsSystem",
    "IntervalAssignment",
    "InvalidSystemError",
    "STRICT_MODE",
    "SampledFunction",
    "USED_EDGES_MODE",
    "ValidationReport",
    "Violation",
    "WiringPlan",
    "apply_T",
    "apply_map",
    "build_system",
    "chaos_game",
    "data_clouds",
    "directed_hausdorff",
    "edge_counts",
    "endpoint_residuals",
    "evaluate_exact",
    "export_csv",
    "family_distance",
    "fixed_point",
    "hausdorff_distance",
    "hutchinson_step",
    "initial_family",
    "interpolation_residual",
    "iterate_attractor",
    "render_pgm",
    "render_svg",
    "standard_grid",
    "sup_distance",
    "validate",
]
