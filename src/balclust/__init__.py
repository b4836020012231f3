"""Balanced clusterings with per-cluster size bounds.

Solvers for the balanced k-center, k-median, and k-means problems in
Euclidean or abstract metric spaces. Points are compressed into coverage or
ring regions so that the per-tuple assignment work (a count test on at most
2^k coverage masks for k-center, a tiny min-cost flow for k-median/k-means)
is independent of the number of points.
"""

from .core import (
    BalanceBounds,
    BalancedAssignment,
    CallbackOracle,
    ClusteringResult,
    EuclideanOracle,
    InfeasibleBoundsError,
    InputError,
    MatrixOracle,
    OptimalityViolationError,
    PointSet,
    StructureError,
    as_oracle,
    distance_table,
    evaluate_objective,
    extreme_distances,
)
from .candidates import (
    BicriteriaGenerator,
    CandidateGenerator,
    GonzalezGenerator,
    SeedSequence,
    bicriteria_centers,
    enumerate_tuples,
    gonzalez,
)
from .kcenter import check_feasible, solve_kbcenter
from .kmedian import AssignmentLPResult, assignment_lp, solve_balanced
from .regions import LevelSchedule, RegionTable, build_coverage_regions, build_level_regions, build_level_schedule
from .flow import FlowNetwork, FlowSolution, expand_assignment, max_flow, min_cost_max_flow
from .rounding import round_to_integral

__version__ = "0.1.0"

__all__ = [
    "AssignmentLPResult",
    "BalanceBounds",
    "BalancedAssignment",
    "BicriteriaGenerator",
    "CallbackOracle",
    "CandidateGenerator",
    "ClusteringResult",
    "EuclideanOracle",
    "FlowNetwork",
    "FlowSolution",
    "GonzalezGenerator",
    "InfeasibleBoundsError",
    "InputError",
    "LevelSchedule",
    "MatrixOracle",
    "OptimalityViolationError",
    "PointSet",
    "RegionTable",
    "SeedSequence",
    "StructureError",
    "as_oracle",
    "assignment_lp",
    "bicriteria_centers",
    "build_coverage_regions",
    "build_level_regions",
    "build_level_schedule",
    "check_feasible",
    "distance_table",
    "enumerate_tuples",
    "evaluate_objective",
    "expand_assignment",
    "extreme_distances",
    "gonzalez",
    "max_flow",
    "min_cost_max_flow",
    "round_to_integral",
    "solve_balanced",
    "solve_kbcenter",
    "__version__",
]
