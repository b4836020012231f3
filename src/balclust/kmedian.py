"""Balanced k-median / k-means: for each candidate center tuple, solve the
ring-level assignment program as a min-cost max flow and keep the best tuple.

Ring coefficients over-charge every point by less than a (1 + epsilon)
factor, so the flow objective sandwiches the true assignment cost:
cost <= flow objective < (1 + epsilon) * cost for the sum objective and
(1 + epsilon)^2 for sum-of-squares. Points at exact distance zero sit in a
reserved free ring, which keeps zero-cost placements representable.

Every tuple with a ring schedule takes the same path: ring regions
(``build_level_regions``), their network (``level_network``) and one
min-cost max flow, whose size is at most min(n, (T + 2)^k) regions times k.
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
    round_robin_assignment,
)
from .flow import level_network, min_cost_max_flow
from .kcenter import expand_assignment
from .regions import LevelSchedule, build_level_regions, build_level_schedule, level_codes_overflow
from .rounding import round_to_integral


@dataclass
class AssignmentLPResult:
    """Solved assignment for one fixed center tuple."""

    lp_objective: float
    true_cost: float
    assignment: BalancedAssignment | None
    degenerate: bool = False


def _schedule(extremes: tuple[float, float] | None, epsilon: float) -> LevelSchedule | None:
    """Ring schedule of a tuple from its (r_min, r_max); None when every
    distance is zero."""
    return None if extremes is None else build_level_schedule(*extremes, epsilon)


def _lp_from_columns(
    cols: np.ndarray,
    schedule: LevelSchedule | None,
    bounds: BalanceBounds,
    objective: str,
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
    regions = build_level_regions(cols, schedule, with_members=with_assignment)
    net = level_network(regions, schedule, bounds.lower, bounds.upper, squared=squared)
    sol = min_cost_max_flow(net)
    if sol is None:
        raise StructureError("level network infeasible despite validated bounds")
    if not with_assignment:
        return AssignmentLPResult(lp_objective=float(sol.cost), true_cost=float("nan"), assignment=None)
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
    )


def assignment_lp(
    centers,
    source,
    bounds: BalanceBounds,
    epsilon: float,
    objective: str = "median",
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
    return _lp_from_columns(cols, _schedule(extreme_distances(cols), epsilon), bounds, objective)


def _tie_tolerance(a: float, b: float) -> float:
    """Float dust below which two flow objectives count as tied."""
    return 1e-12 * max(1.0, abs(a), abs(b))


def _improves(key, incumbent):
    """Smaller flow objective wins; ties within float dust (1e-12 relative)
    fall back to generation order, so tuples whose objectives differ only by
    rounding rank by the order they were generated in."""
    lp, order = key
    best_lp, best_order = incumbent
    tol = _tie_tolerance(lp, best_lp)
    if lp < best_lp - tol:
        return True
    if lp > best_lp + tol:
        return False
    return order < best_order


def nearest_bound(nearest: np.ndarray, schedule: LevelSchedule, squared: bool) -> float:
    """Lower bound on a tuple's flow objective from each point's distance to
    its nearest center: the ring cost of the assignment with the [L, U]
    bounds dropped.

    This is sum_i ring(nearest_i) with ring = ``schedule.ring_costs(squared)``
    indexed by the point's ring digit; ring cost is non-decreasing in
    distance, so it equals the flow optimum without size bounds.

    The sweep computes it from shared digit rows (``_SharedRings.bound``);
    this form stays as the reference that the shared bound must equal.
    """
    ring = schedule.ring_costs(squared)
    return float(ring[kernels.level_codes(nearest[:, None], schedule.alphas)].sum())


class _SharedRings:
    """Ring schedules and ring digits of one sweep, shared across tuples.

    ``rows`` is the candidate table transposed to C-contiguous (m, n) rows.
    A tuple's ladder is r_min * (1 + epsilon)^t, where r_min is the smallest
    positive distance of its *source*: the member with the smallest
    ``col_min`` (ties to the lowest position). Every ladder from one source
    is a prefix of the source's long ladder, which runs up to the largest
    distance of any candidate, and ring digits are monotone in distance. So
    a candidate's digits under the long ladder are its digits under every
    tuple ladder from that source, and the digit of a point's nearest
    distance is the minimum of the members' digits.

    Three lazy dicts hold the work: the long ladder's alphas and ring costs
    per source, one digit row per (source, candidate) pair (n uint8 values,
    wider once the ladder passes 255 rungs; at most m(m+1)/2 rows, since a
    source never has a larger ``col_min`` than its members) and one
    schedule per (r_min, r_max).
    """

    def __init__(self, rows: np.ndarray, epsilon: float, squared: bool):
        self.rows = rows
        self.epsilon = epsilon
        self.squared = squared
        self.col_max = rows.max(axis=1).tolist()
        self.col_min = [float(row[row > 0].min()) if max_d > 0.0 else np.inf for row, max_d in zip(rows, self.col_max)]
        self.ladders: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.digits: dict[tuple[int, int], np.ndarray] = {}
        self.schedules: dict[tuple[float, float], LevelSchedule] = {}

    def schedule(self, tup) -> LevelSchedule | None:
        """The tuple's ring schedule; None when every distance is zero."""
        r_max = max(self.col_max[t] for t in tup)
        if r_max <= 0.0:
            return None
        key = (min(self.col_min[t] for t in tup), r_max)
        if key not in self.schedules:
            self.schedules[key] = build_level_schedule(*key, self.epsilon)
        return self.schedules[key]

    def _digit_row(self, source: int, t: int) -> np.ndarray:
        if source not in self.ladders:
            long = build_level_schedule(self.col_min[source], max(self.col_max), self.epsilon)
            self.ladders[source] = (long.alphas, long.ring_costs(self.squared))
        row = self.digits.get((source, t))
        if row is None:
            alphas = self.ladders[source][0]
            digits = kernels.level_digits(self.rows[t], alphas)
            row = self.digits[(source, t)] = digits.astype(np.min_scalar_type(alphas.size))
        return row

    def bound(self, tup) -> float:
        """``nearest_bound`` of a tuple with a schedule, bit for bit:
        sum_i ring_s[min_j digits[s, t_j]_i] for source s."""
        source = min(tup, key=self.col_min.__getitem__)
        nearest = self._digit_row(source, tup[0])
        for t in tup[1:]:
            nearest = np.minimum(nearest, self._digit_row(source, t))
        return float(self.ladders[source][1][nearest].sum())


def _evaluate_tuples(table, tuple_list, bounds, epsilon, objective):
    """Smallest ((lp_objective, order), tuple) over ``tuple_list``, plus the
    counters ``fallbacks`` (flows whose regions were grouped by digit rows
    because their ring codes would overflow int64), ``degenerate`` and
    ``pruned``, and ``work``: the digit rows and tuple schedules built.

    Schedules, and the ring digits behind the bound, are shared across
    tuples through ``_SharedRings``: a tuple's schedule is built once per
    (r_min, r_max), and each point's ring digit once per (source, candidate)
    pair rather than once per tuple. Once an incumbent exists, a tuple is
    first bounded by the ring cost of its nearest-center assignment with the
    size bounds dropped (``_SharedRings.bound``). When the bound exceeds the
    incumbent by more than the ``_improves`` tolerance the tuple cannot win,
    not even a tie, and is skipped before its columns are copied.
    """
    squared = objective == "means"
    rows = np.ascontiguousarray(table.T)
    rings = _SharedRings(rows, epsilon, squared)
    best = None
    stats = {"fallbacks": 0, "degenerate": 0, "pruned": 0}
    for order, tup in enumerate(tuple_list):
        schedule = rings.schedule(tup)
        if best is not None and schedule is not None:
            bound = rings.bound(tup)
            best_lp = best[0][0]
            if bound > best_lp + _tie_tolerance(bound, best_lp):
                stats["pruned"] += 1
                continue
        cols = np.ascontiguousarray(table[:, tup])
        res = _lp_from_columns(cols, schedule, bounds, objective, with_assignment=False)
        stats["fallbacks"] += int(schedule is not None and level_codes_overflow(schedule, len(tup)))
        stats["degenerate"] += int(res.degenerate)
        key = (res.lp_objective, order)
        if best is None or _improves(key, best[0]):
            best = (key, tup)
    stats["work"] = {"digit_rows": len(rings.digits), "schedules": len(rings.schedules)}
    return best, stats


def solve_balanced(
    source,
    k: int,
    bounds: BalanceBounds,
    epsilon: float = 1.0,
    objective: str = "median",
    generator: CandidateGenerator | None = None,
    seed: int = 0,
) -> ClusteringResult:
    """Evaluate every k-multiset of the candidates (``enumerate_tuples``) and
    return the one with the smallest flow objective, expanded to a balanced
    assignment. Ties within float dust go to the earliest tuple.

    A multiset whose nearest-center lower bound already exceeds the best flow
    objective so far by more than that float dust is skipped without a flow
    (``_evaluate_tuples``); it could not have won, so the result is the one a
    full sweep gives. ``diagnostics`` counts the swept multisets
    (``tuples_evaluated``), the skipped ones (``tuples_pruned``) and the
    swept flows whose ring regions were grouped by rows of ring digits
    because their mixed-radix ring codes would overflow int64
    (``fallbacks``; see ``build_level_regions``). ``diagnostics["work"]``
    counts the work the sweep shared across multisets: ``digit_rows``, the
    ring digit rows built (one per source and candidate pair), and
    ``schedules``, the ring schedules built (one per distinct (r_min, r_max)).

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
    best, stats = _evaluate_tuples(table, tuple_list, bounds, epsilon, objective)

    (lp_objective, order), tup = best
    cols = np.ascontiguousarray(table[:, tup])
    schedule = _schedule(extreme_distances(cols), epsilon)
    res = _lp_from_columns(cols, schedule, bounds, objective, with_assignment=True)
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
        "work": stats["work"],
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
