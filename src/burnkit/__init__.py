"""burnkit: burning numbers of paths, path forests and spiders.

Simulation and verification of the burning process on arbitrary graphs,
conversions between burning schedules and radius-budgeted ball covers,
closed-form bounds with a greedy 3/2-approximation for path forests, a
ceil-sqrt constructive burner for paths and spiders, and exact solvers
for use as ground truth.
"""

from .bounds import BoundRow, bound_table, lower_bound, ub_floor, ub_sqrt
from .burning import (
    cover_from_schedule,
    schedule_from_cover,
    simulate,
    verify_schedule,
)
from .errors import (
    BudgetError,
    BurnkitError,
    CoverageError,
    InstanceError,
    InternalContradictionError,
    SizeGuardError,
    VerificationError,
)
from .exact import exact_burning_number, exact_path_forest, naive_schedule_search
from .gen import random_path_forest, random_spider
from .greedy import (
    GreedyStep,
    GreedyTrace,
    greedy_budget,
    greedy_burn,
    greedy_radius,
)
from .model import (
    HEAD,
    BudgetedCover,
    BurnSchedule,
    LabeledGraph,
    PathForest,
    SegmentGraph,
    Spider,
    VertexId,
    arm_vertex,
    ceil_sqrt,
    comp_vertex,
    format_vertex,
    graph_vertex,
    parse_vertex,
    path_center,
    path_forest_to_graph,
    spider_to_graph,
)
from .spider import burn_path, burn_spider

__version__ = "0.1.0"

__all__ = [
    "BoundRow",
    "BudgetError",
    "BudgetedCover",
    "BurnSchedule",
    "BurnkitError",
    "CoverageError",
    "GreedyStep",
    "GreedyTrace",
    "HEAD",
    "InstanceError",
    "InternalContradictionError",
    "LabeledGraph",
    "PathForest",
    "SegmentGraph",
    "SizeGuardError",
    "Spider",
    "VerificationError",
    "VertexId",
    "arm_vertex",
    "bound_table",
    "burn_path",
    "burn_spider",
    "ceil_sqrt",
    "comp_vertex",
    "cover_from_schedule",
    "exact_burning_number",
    "exact_path_forest",
    "format_vertex",
    "graph_vertex",
    "greedy_budget",
    "greedy_burn",
    "greedy_radius",
    "lower_bound",
    "naive_schedule_search",
    "parse_vertex",
    "path_center",
    "path_forest_to_graph",
    "random_path_forest",
    "random_spider",
    "schedule_from_cover",
    "simulate",
    "spider_to_graph",
    "ub_floor",
    "ub_sqrt",
    "verify_schedule",
    "__version__",
]
