"""Balanced k-median / k-means: for each candidate center tuple, solve the
ring-level assignment program as a min-cost max flow and keep the best tuple.

Ring coefficients over-charge every point by less than a (1 + epsilon)
factor, so the flow objective sandwiches the true assignment cost:
cost <= flow objective < (1 + epsilon) * cost for the sum objective and
(1 + epsilon)^2 for sum-of-squares. Points at exact distance zero sit in a
reserved free ring, which keeps zero-cost placements representable.

Every tuple takes the same path (``_solve_flow``):
ring regions (``build_level_regions``), their network (``level_network``)
and one min-cost max flow, whose size is at most min(n, (T + 2)^k) regions
times k. Each flow is solved once: the sweep keeps its incumbent's network
and flow, and only the winner's flow is rounded and expanded into labels
(``_expand_flow``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .candidates import BicriteriaGenerator, CandidateGenerator, enumerate_tuples
from .core import (
    BalanceBounds,
    BalancedAssignment,
    ClusteringResult,
    InputError,
    PhaseClock,
    StructureError,
    as_oracle,
    check_indices,
    check_objective,
    distance_table,
    evaluate_objective,
    extreme_distances,
    tuple_columns,
)
from .flow import expand_assignment, level_network, min_cost_max_flow
from .regions import LevelSchedule, build_level_regions, build_level_schedule, level_codes_overflow
from .rounding import round_to_integral


@dataclass
class AssignmentLPResult:
    """Solved assignment for one fixed center tuple."""

    lp_objective: float
    true_cost: float
    assignment: BalancedAssignment


def _solve_flow(cols: np.ndarray, schedule: LevelSchedule, bounds: BalanceBounds, squared: bool, with_members=True):
    """(region table, network, flow): the ring regions of the tuple behind
    ``cols`` under its ring ``schedule``, their level network and its
    min-cost max flow. ``with_members=False`` skips the member permutation,
    which only an expansion reads."""
    regions = build_level_regions(cols, schedule, with_members=with_members)
    net = level_network(regions, schedule, bounds.lower, bounds.upper, squared=squared)
    sol = min_cost_max_flow(net)
    if sol is None:
        raise StructureError("level network infeasible despite validated bounds")
    return regions, net, sol


def _expand_flow(cols: np.ndarray, regions, net, sol, bounds: BalanceBounds, squared: bool) -> AssignmentLPResult:
    """Round a solved flow to an integral one, expand it into point labels
    over the members of ``regions`` and compute the labels' true cost."""
    sol = round_to_integral(sol, net, mode="min-cost")
    assignment = expand_assignment(sol, net, regions, bounds)
    per_point = cols[np.arange(cols.shape[0]), assignment.labels]
    if squared:
        per_point = per_point**2
    return AssignmentLPResult(lp_objective=float(sol.cost), true_cost=float(per_point.sum()), assignment=assignment)


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
    # all distances zero: one rung, so every point has digit 0 and costs 0
    extremes = extreme_distances(cols) or (1.0, 1.0)
    squared = objective == "means"
    solved = _solve_flow(cols, build_level_schedule(*extremes, epsilon), bounds, squared)
    return _expand_flow(cols, *solved, bounds, squared)


def _tie_tolerance(a, b):
    """Float dust below which two flow objectives count as tied (1e-12
    relative); element-wise on arrays."""
    return 1e-12 * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def nearest_bound(nearest: np.ndarray, schedule: LevelSchedule, squared: bool) -> float:
    """Lower bound on a tuple's flow objective from each point's distance to
    its nearest center: the ring cost of the assignment with the [L, U]
    bounds dropped.

    This is math.fsum of count_t * ring_t over ring digits t, where count_t
    is the number of points whose nearest distance has digit t and ring =
    ``schedule.ring_costs(squared)``. Ring cost is non-decreasing in
    distance, so it equals the flow optimum without size bounds. fsum
    rounds the exact sum once, so the value depends neither on the order of
    the terms nor on trailing zero counts: a longer ladder from the same
    r_min gives the same float.

    The sweep bounds all its tuples at once from packed bit planes
    (``_SharedRings.bounds``); this form is the reference that the batched
    bound must equal bit for bit.
    """
    ring = schedule.ring_costs(squared)
    counts = np.bincount(kernels.level_digits(nearest, schedule.alphas), minlength=ring.size)
    return math.fsum((counts * ring).tolist())


#: Byte budget of one block of bit planes, and of one chunk of ANDed
#: planes, in ``_SharedRings.bounds``. From 128 KB to 2 MB the bound pass
#: took the same time within noise at n = 600 to 100,000 (2-vCPU Xeon,
#: numpy 2.4); at 8 MB it was up to 1.7x slower.
PLANE_CHUNK_BYTES = 1 << 20
#: Tuples whose digit counts are summed per batch of ``math.fsum`` calls.
_FSUM_ROWS = 1024


class _SharedRings:
    """Ring schedules and nearest-center bounds of one sweep, shared across
    tuples.

    ``rows`` holds the candidates' distances as C-contiguous (m, n) rows.
    A tuple's ladder is r_min * (1 + epsilon)^t, where r_min is the
    ``col_min`` of its *source*: the member with the smallest ``col_min``
    (ties to the lowest position). A row's ``col_min`` is its smallest
    positive distance, or ``top`` for a row of zeros, where ``top`` is the
    largest distance of any candidate (1.0 if that is zero too). A tuple of
    zero rows thus gets the one rung [top], on which every distance has
    digit 0 and costs 0; a zero row can tie only a member whose
    ``col_min`` is already ``top``, so it never changes another tuple's
    ladder. Every ladder from one source is a prefix of the source's long
    ladder, which runs up to ``top``, and ring digits are monotone in
    distance. So a candidate's digits under the long ladder are its digits
    under every tuple ladder from that source, and the digit of a point's
    nearest distance is the minimum of the members' digits.

    ``bounds`` uses this for all tuples in one pass. Per source it codes
    each candidate row its tuples use as packed bit planes "digit > j", one
    per rung of the long ladder (``kernels.rung_planes``); a point's
    nearest digit exceeds j iff every member's does, so ANDing the members'
    planes and counting bits gives the exact number of points at each
    nearest digit. Planes are coded in blocks of rungs and ANDed in chunks
    of tuples, each at most ``PLANE_CHUNK_BYTES``, so their memory grows
    neither with the ladder nor with the number of tuples.
    Schedules are built lazily, one per (r_min, r_max), and only for tuples
    that get a flow.
    """

    def __init__(self, rows: np.ndarray, epsilon: float, squared: bool):
        self.rows = rows
        self.epsilon = epsilon
        self.squared = squared
        self.col_max = rows.max(axis=1)
        self.top = float(self.col_max.max()) or 1.0
        self.col_min = np.array(
            [float(row[row > 0].min()) if max_d > 0.0 else self.top for row, max_d in zip(rows, self.col_max)]
        )
        self.schedules: dict[tuple[float, float], LevelSchedule] = {}
        self.coded_rows = 0

    def schedule(self, tup) -> LevelSchedule:
        """The tuple's ring schedule, from its r_min to its largest distance."""
        r_min = float(self.col_min[tup].min())
        key = (r_min, max(r_min, float(self.col_max[tup].max())))
        if key not in self.schedules:
            self.schedules[key] = build_level_schedule(*key, self.epsilon)
        return self.schedules[key]

    def ladder(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """The source's long ladder, from its r_min to ``top``, as
        (thresholds, ring costs). Plane j of a row marks "digit > j":
        the positive distances for j = 0, those beyond alpha_{j-1} after."""
        ladder = build_level_schedule(float(self.col_min[source]), self.top, self.epsilon)
        return np.concatenate(([0.0], ladder.alphas[:-1])), ladder.ring_costs(self.squared)

    def bounds(self, tuples: np.ndarray) -> np.ndarray:
        """``nearest_bound`` of every tuple (the rows of an (N, k) array of
        candidate positions) under its own schedule, bit for bit."""
        k = tuples.shape[1]
        sources = tuples[:, 0].copy()
        for member in tuples.T[1:]:
            np.copyto(sources, member, where=self.col_min[member] < self.col_min[sources])
        n = self.rows.shape[1]
        out = np.empty(len(tuples))
        by_source = np.argsort(sources, kind="stable")
        keys, starts = np.unique(sources[by_source], return_index=True)
        for source, group in zip(keys.tolist(), np.split(by_source, starts[1:])):
            candidates, members = np.unique(tuples[group], return_inverse=True)
            thresholds, ring = self.ladder(source)
            above = self._above(thresholds, candidates, members.reshape(group.size, k))
            for start in range(0, group.size, _FSUM_ROWS):
                at = -np.diff(above[start : start + _FSUM_ROWS], axis=1, prepend=n, append=0)
                out[group[start : start + _FSUM_ROWS]] = [math.fsum(terms) for terms in (at * ring).tolist()]
        return out

    def _above(self, thresholds: np.ndarray, candidates: np.ndarray, members: np.ndarray) -> np.ndarray:
        """(tuples, p) counts of the points whose nearest distance exceeds
        ``thresholds[j]``, for tuples given as rows of positions in
        ``candidates``: the bits of the AND of the members' planes."""
        self.coded_rows += candidates.size
        n = self.rows.shape[1]
        above = np.empty((len(members), thresholds.size), dtype=np.int64)
        rungs = max(1, PLANE_CHUNK_BYTES // (candidates.size * 8 * -(-n // 64)))
        for j in range(0, thresholds.size, rungs):
            planes = np.stack([kernels.rung_planes(self.rows[c], thresholds[j : j + rungs]) for c in candidates])
            step = max(1, PLANE_CHUNK_BYTES // planes[0].nbytes)
            for start in range(0, len(members), step):
                chunk = members[start : start + step]
                both = planes[chunk[:, 0]]
                for member in chunk.T[1:]:
                    both &= planes[member]
                above[start : start + step, j : j + rungs] = np.bitwise_count(both).sum(axis=2)
        return above


def _evaluate_tuples(rows, tuples, bounds, epsilon, objective):
    """The sweep's winner as (lp_objective, order, solved): the first of
    the rows of ``tuples`` (an (N, k) array of candidate positions) with the
    smallest flow objective, its row index, and its (schedule, region
    table, network, flow). The region table has no members; the flow is not
    rounded. Also returns the counters ``fallbacks`` (flows whose regions
    were grouped by digit rows because their ring codes would overflow
    int64) and ``pruned``, and ``work``: the candidate rows coded into bit
    planes, the schedules built for flows, and the flows with their region
    counts.

    Before the sweep, ``_SharedRings.bounds`` gives every tuple the ring
    cost of its nearest-center assignment with the size bounds dropped, in
    one batched pass over packed bit planes. The sweep then runs in
    generation order over an array of pending row indices. A new incumbent
    takes over only below the old one by more than ``_tie_tolerance``, and
    each time one does, the pending tuples whose bound exceeds it by more
    than that tolerance are dropped in one array comparison: they cannot
    win, not even a tie, so they get neither a schedule nor a column copy.
    Flow objectives are never negative, so an incumbent at 0.0 ends the
    sweep: no later tuple can undercut it.
    ``rows`` holds the candidates' distances as C-contiguous (m, n) rows.
    """
    squared = objective == "means"
    rings = _SharedRings(rows, epsilon, squared)
    lower = rings.bounds(tuples)
    pending = np.arange(len(tuples))
    best = None
    stats = {"fallbacks": 0}
    regions = []
    while pending.size:
        order, pending = int(pending[0]), pending[1:]
        tup = tuples[order]
        schedule = rings.schedule(tup)
        table, net, sol = _solve_flow(tuple_columns(rows, tup), schedule, bounds, squared, with_members=False)
        lp = float(sol.cost)
        stats["fallbacks"] += int(level_codes_overflow(schedule, len(tup)))
        regions.append(table.num_regions)
        if best is None or lp < best[0] - _tie_tolerance(lp, best[0]):
            best = (lp, order, (schedule, table, net, sol))
            if lp == 0.0:
                break
            bound = lower[pending]
            pending = pending[bound <= lp + _tie_tolerance(bound, lp)]
    stats["pruned"] = len(tuples) - len(regions)  # every tuple without a flow was skipped
    stats["work"] = {
        "digit_rows": rings.coded_rows,
        "schedules": len(rings.schedules),
        "flows": len(regions),
        "regions_mean": sum(regions) / len(regions) if regions else 0.0,
        "regions_max": max(regions, default=0),
    }
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
    """Evaluate every k-multiset of the candidates (``enumerate_tuples``,
    one (N, k) array from enumeration to sweep) and return the one with the
    smallest flow objective, expanded to a balanced assignment. Ties within
    float dust go to the earliest tuple.

    Every multiset is first given a nearest-center lower bound, the ring
    cost of sending each point to its nearest center with the size bounds
    dropped, summed exactly with ``math.fsum`` (``nearest_bound``). All
    bounds come from one batched pass over packed ring bit planes before
    the sweep (``_SharedRings.bounds``). The sweep then runs in generation
    order, and each new incumbent drops, in one array comparison, the
    pending multisets whose bound exceeds its flow objective by more than
    that float dust; they could not have won, so the result is the one a
    full sweep gives (``_evaluate_tuples``). The winner's flow is not
    solved again: its ring regions are grouped once more, now with their
    members, under the schedule of its sweep flow, and the flow the sweep
    kept is rounded and expanded over them. A regrouping whose keys or
    counts differ from the sweep's raises ``StructureError``. Flow
    objectives are never negative, so a multiset whose flow costs 0.0 ends
    the sweep.

    Every multiset takes this one path, coincident points included: a
    multiset whose distances are all zero gets a one-rung schedule, on
    which every point has ring digit 0, so its bound and its flow cost 0.0
    and the labels come from that flow like any other winner's.

    ``diagnostics`` counts the swept multisets (``tuples_evaluated``), the
    skipped ones (``tuples_pruned``) and the swept flows whose ring regions
    were grouped by rows of ring digits because their mixed-radix ring codes
    would overflow int64 (``fallbacks``; see ``build_level_regions``).
    ``diagnostics["work"]`` counts the sweep's work: ``digit_rows``, the
    candidate rows coded into bit planes (one per source and candidate
    pair); ``schedules``, the ring schedules built for flows (one per
    distinct (r_min, r_max)); ``flows``, the flows run; and
    ``regions_mean`` and ``regions_max``, their ring regions.
    ``diagnostics["timings"]`` holds the wall seconds of each phase
    (``core.PHASES``).

    The default bicriteria generator hands over the distance rows it
    computed while sampling (``BicriteriaGenerator.take_rows``), so each
    candidate column is computed once; other generators' candidates get
    their columns from one ``oracle.columns`` call. A candidate index that
    is not an integer or lies outside [0, n) raises ``InputError`` before
    any column is read, and so does a generator output that is not a
    non-empty 1-d array.

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
    clock = PhaseClock()
    candidate_idx = np.asarray(generator.generate(oracle, k, objective))
    if candidate_idx.ndim != 1 or candidate_idx.size == 0:
        raise InputError("candidate generator must return a non-empty 1-d array of point indices")
    check_indices(candidate_idx, n)
    candidate_idx = candidate_idx.astype(np.int64, copy=False)
    tuples = enumerate_tuples(int(candidate_idx.size), k)
    clock.lap("candidates")
    rows = generator.take_rows(candidate_idx) if isinstance(generator, BicriteriaGenerator) else None
    if rows is None:
        rows = np.ascontiguousarray(oracle.columns(candidate_idx).T)
    clock.lap("columns")
    (lp_objective, order, solved), stats = _evaluate_tuples(rows, tuples, bounds, epsilon, objective)
    clock.lap("sweep")

    tup = tuples[order].tolist()
    cols = tuple_columns(rows, tup)
    schedule, swept, net, sol = solved
    table = build_level_regions(cols, schedule)
    if not (np.array_equal(table.keys, swept.keys) and np.array_equal(table.counts, swept.counts)):
        raise StructureError("winning tuple's regions differ from those of its sweep flow")
    clock.lap("winner")
    res = _expand_flow(cols, table, net, sol, bounds, objective == "means")
    clock.lap("rounding")
    chosen = candidate_idx[tup]
    value = evaluate_objective(res.assignment, chosen, oracle, objective)
    clock.lap("evaluation")
    if abs(value - res.true_cost) > 1e-9 * max(1.0, abs(value)):
        raise StructureError("reported cost disagrees with independent recomputation")
    diagnostics = {
        "generator": generator.name,
        "num_candidates": int(candidate_idx.size),
        "tuples_evaluated": len(tuples),
        "epsilon": float(epsilon),
        "lp_objective": float(lp_objective),
        "best_tuple_positions": tup,
        "best_tuple_order": order,
        "tuples_pruned": stats["pruned"],
        "fallbacks": stats["fallbacks"],
        "work": stats["work"],
        "timings": clock.timings,
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
