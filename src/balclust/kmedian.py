"""Balanced k-median / k-means: for each candidate center tuple, solve the
ring-level assignment program as a min-cost max flow and keep the best tuple.

Ring coefficients over-charge every point by less than a (1 + epsilon)
factor, so the flow objective sandwiches the true assignment cost:
cost <= flow objective < (1 + epsilon) * cost for the sum objective and
(1 + epsilon)^2 for sum-of-squares. Points at exact distance zero sit in a
reserved free ring, which keeps zero-cost placements representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .candidates import BicriteriaGenerator, CandidateGenerator, enumerate_tuples
from .core import (
    BalanceBounds,
    BalancedAssignment,
    ClusteringResult,
    InputError,
    StructureError,
    as_oracle,
    check_objective,
    distance_table,
    evaluate_objective,
    extreme_distances,
    nearest_distances,
    round_robin_assignment,
)
from .flow import FlowNetwork, FlowSolution, level_network, min_cost_max_flow
from .kcenter import expand_assignment
from .regions import LevelSchedule, build_level_regions, build_level_schedule
from .rounding import round_to_integral

#: Fall back to the exact per-point assignment when the ring-region space
#: (T + 2)^k exceeds this cap; the fallback is exact, just not n-independent.
REGION_CAP = 1 << 20


@dataclass
class AssignmentLPResult:
    """Solved assignment for one fixed center tuple."""

    lp_objective: float
    true_cost: float
    assignment: BalancedAssignment | None
    region_flows: FlowSolution | None = None
    degenerate: bool = False
    fallback: bool = False


def _exact_point_assignment(cols: np.ndarray, bounds: BalanceBounds, squared: bool) -> tuple[float, BalancedAssignment]:
    """Per-point min-cost flow with unit supplies: exact but O(n)-sized."""
    n, k = cols.shape
    costs = cols**2 if squared else cols
    net = FlowNetwork(
        supplies=np.ones(n, dtype=np.int64),
        k=k,
        lower=bounds.lower,
        upper=bounds.upper,
        edge_region=np.repeat(np.arange(n, dtype=np.int64), k),
        edge_cluster=np.tile(np.arange(k, dtype=np.int64), n),
        edge_cost=costs.ravel().astype(np.float64),
    )
    sol = min_cost_max_flow(net)
    if sol is None:
        raise StructureError("exact assignment infeasible despite validated bounds")
    flows = np.rint(sol.flows).astype(np.int64).reshape(n, k)
    labels = np.argmax(flows, axis=1)
    assignment = BalancedAssignment.from_labels(labels, k, bounds)
    return float(sol.cost), assignment


def _schedule(extremes: tuple[float, float] | None, epsilon: float) -> LevelSchedule | None:
    """Ring schedule of a tuple from its (r_min, r_max); None when every
    distance is zero."""
    return None if extremes is None else build_level_schedule(*extremes, epsilon)


def _takes_fallback(schedule: LevelSchedule, k: int, region_cap: int) -> bool:
    """Whether the ring-region space (T + 2)^k exceeds the cap."""
    return float(schedule.alphas.size + 1) ** k > region_cap


def _lp_from_columns(
    cols: np.ndarray,
    schedule: LevelSchedule | None,
    bounds: BalanceBounds,
    objective: str,
    region_cap: int = REGION_CAP,
    with_assignment: bool = True,
) -> AssignmentLPResult:
    """Assignment LP of the tuple behind ``cols`` under its ring ``schedule``
    (``_schedule`` of the columns' extreme distances).

    ``with_assignment=False`` skips member bookkeeping and expansion; the
    tuple sweep uses it to rank tuples by lp_objective alone and re-solves
    only the winner in full."""
    n, k = cols.shape
    squared = objective == "means"
    if schedule is None:
        assignment = round_robin_assignment(n, k, bounds) if with_assignment else None
        return AssignmentLPResult(
            lp_objective=0.0, true_cost=0.0, assignment=assignment, degenerate=True
        )
    if _takes_fallback(schedule, k, region_cap):
        cost, assignment = _exact_point_assignment(cols, bounds, squared)
        return AssignmentLPResult(
            lp_objective=cost, true_cost=cost, assignment=assignment, fallback=True
        )
    regions = build_level_regions(cols, schedule, with_members=with_assignment)
    net = level_network(regions, schedule, bounds.lower, bounds.upper, squared=squared)
    sol = min_cost_max_flow(net)
    if sol is None:
        raise StructureError("level network infeasible despite validated bounds")
    if not with_assignment:
        return AssignmentLPResult(
            lp_objective=float(sol.cost), true_cost=float("nan"), assignment=None, region_flows=sol
        )
    sol = round_to_integral(sol, net, mode="min-cost")
    assignment = expand_assignment(sol, net, regions, bounds)
    per_point = cols[np.arange(n), assignment.labels]
    if squared:
        per_point = per_point**2
    true_cost = float(per_point.sum())
    return AssignmentLPResult(
        lp_objective=float(sol.cost),
        true_cost=true_cost,
        assignment=assignment,
        region_flows=sol,
    )


def assignment_lp(
    centers,
    source,
    bounds: BalanceBounds,
    epsilon: float,
    objective: str = "median",
    region_cap: int = REGION_CAP,
) -> AssignmentLPResult:
    """Best balanced assignment to ``centers`` under ring costs.

    Reports both the flow objective (ring coefficients) and the true cost of
    the expanded assignment; the two satisfy the (1 + epsilon) sandwich.
    """
    check_objective(objective)
    if objective == "center":
        raise InputError("assignment_lp handles the sum objectives; use check_feasible for center")
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    oracle = as_oracle(source)
    k = len(centers)
    bounds.validate(oracle.n, k)
    cols = distance_table(oracle, centers)
    return _lp_from_columns(cols, _schedule(extreme_distances(cols), epsilon), bounds, objective, region_cap)


def _tie_tolerance(a: float, b: float) -> float:
    """Float dust below which two flow objectives count as tied."""
    return 1e-12 * max(1.0, abs(a), abs(b))


def _improves(key, incumbent):
    """Smaller flow objective wins; ties within float dust (1e-12 relative)
    fall back to generation order so near-equal tuples rank identically on
    every kernel backend."""
    lp, order = key
    best_lp, best_order = incumbent
    tol = _tie_tolerance(lp, best_lp)
    if lp < best_lp - tol:
        return True
    if lp > best_lp + tol:
        return False
    return order < best_order


def nearest_bound(nearest: np.ndarray, schedule: LevelSchedule, squared: bool, exact: bool) -> float:
    """Lower bound on a tuple's objective from each point's distance to its
    nearest center: the cost of the assignment with the [L, U] bounds dropped.

    For the ring flow this is sum_i ring(nearest_i) with ring = [0, alpha_0,
    ..., alpha_T] (squared for means) indexed by the point's ring digit; ring
    cost is non-decreasing in distance, so it equals the flow optimum without
    size bounds. For the exact fallback (``exact``) it is sum_i nearest_i^p.
    """
    power = 2 if squared else 1
    if exact:
        return float((nearest**power).sum())
    ring = np.concatenate(([0.0], schedule.alphas**power))
    return float(ring[kernels.level_codes(nearest[:, None], schedule.alphas)].sum())


def _evaluate_tuples(table, tuple_list, bounds, epsilon, objective, region_cap):
    """Smallest ((lp_objective, order), tuple) over ``tuple_list``, plus the
    counters ``fallbacks`` (exact fallbacks actually run), ``degenerate`` and
    ``pruned``.

    Each tuple's r_min/r_max, and so its ring schedule, come in O(k) from
    per-candidate extremes computed once. Once an incumbent exists, a tuple
    is first bounded by ``nearest_bound``; when the bound exceeds the
    incumbent by more than the ``_improves`` tolerance the tuple cannot win,
    not even a tie, and is skipped before its columns are copied.
    """
    squared = objective == "means"
    rows = np.ascontiguousarray(table.T)
    col_max = rows.max(axis=1).tolist()
    col_min = [float(row[row > 0].min()) if max_d > 0.0 else np.inf for row, max_d in zip(rows, col_max)]
    best = None
    stats = {"fallbacks": 0, "degenerate": 0, "pruned": 0}
    for order, tup in enumerate(tuple_list):
        r_max = max(col_max[t] for t in tup)
        extremes = (min(col_min[t] for t in tup), r_max) if r_max > 0.0 else None
        schedule = _schedule(extremes, epsilon)
        if best is not None and schedule is not None:
            exact = _takes_fallback(schedule, len(tup), region_cap)
            bound = nearest_bound(nearest_distances(rows, tup), schedule, squared, exact)
            best_lp = best[0][0]
            if bound > best_lp + _tie_tolerance(bound, best_lp):
                stats["pruned"] += 1
                continue
        cols = np.ascontiguousarray(table[:, tup])
        res = _lp_from_columns(cols, schedule, bounds, objective, region_cap, with_assignment=False)
        stats["fallbacks"] += int(res.fallback)
        stats["degenerate"] += int(res.degenerate)
        key = (res.lp_objective, order)
        if best is None or _improves(key, best[0]):
            best = (key, tup)
    return best, stats


def solve_balanced(
    source,
    k: int,
    bounds: BalanceBounds,
    epsilon: float = 1.0,
    objective: str = "median",
    generator: CandidateGenerator | None = None,
    seed: int = 0,
    region_cap: int = REGION_CAP,
) -> ClusteringResult:
    """Evaluate every k-multiset of the candidates (``enumerate_tuples``) and
    return the one with the smallest flow objective, expanded to a balanced
    assignment. Ties within float dust go to the earliest tuple.

    A multiset whose nearest-center lower bound already exceeds the best flow
    objective so far by more than that float dust is skipped without a flow
    (``_evaluate_tuples``); it could not have won, so the result is the one a
    full sweep gives. ``diagnostics`` counts the swept multisets
    (``tuples_evaluated``), the skipped ones (``tuples_pruned``) and the exact
    per-point fallbacks actually run (``fallbacks``).

    epsilon trades ring resolution for work; 1.0 already preserves the
    constant-factor guarantee of the candidate set.
    """
    check_objective(objective)
    if objective == "center":
        raise InputError("use solve_kbcenter for the center objective")
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    oracle = as_oracle(source)
    n = oracle.n
    bounds.validate(n, k)
    if generator is None:
        generator = BicriteriaGenerator(seed=seed)
    candidate_idx = np.asarray(generator.generate(oracle, k, objective), dtype=np.int64)
    if candidate_idx.size < 1:
        raise InputError("candidate generator produced no centers")
    tuple_list = enumerate_tuples(int(candidate_idx.size), k)
    table = oracle.columns(candidate_idx)
    best, stats = _evaluate_tuples(table, tuple_list, bounds, epsilon, objective, region_cap)

    (lp_objective, order), tup = best
    cols = np.ascontiguousarray(table[:, tup])
    schedule = _schedule(extreme_distances(cols), epsilon)
    res = _lp_from_columns(cols, schedule, bounds, objective, region_cap, with_assignment=True)
    if abs(res.lp_objective - lp_objective) > 1e-9 * max(1.0, abs(lp_objective)):
        raise StructureError("winning tuple re-solve disagrees with the sweep")
    chosen = candidate_idx[list(tup)]
    value = evaluate_objective(res.assignment, chosen, oracle, objective)
    if abs(value - res.true_cost) > 1e-9 * max(1.0, abs(value)):
        raise StructureError("reported cost disagrees with independent recomputation")
    diagnostics = {
        "generator": generator.name,
        "num_candidates": int(candidate_idx.size),
        "tuples_evaluated": len(tuple_list),
        "epsilon": float(epsilon),
        "lp_objective": float(lp_objective),
        "best_tuple_positions": list(tup),
        "best_tuple_order": order,
        "tuples_pruned": stats["pruned"],
        "fallbacks": stats["fallbacks"],
        "degenerate_tuples": stats["degenerate"],
    }
    if isinstance(generator, BicriteriaGenerator) and generator.last_cost is not None:
        diagnostics["unconstrained_candidate_cost"] = generator.last_cost
    return ClusteringResult(
        objective=objective,
        k=k,
        bounds=bounds,
        centers=chosen,
        assignment=res.assignment,
        value=value,
        diagnostics=diagnostics,
    )
