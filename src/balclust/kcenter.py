"""Balanced k-center: farthest-point seeding, a candidate radius ladder, and
a binary-searched feasibility probe per center tuple.

The optimal radius of any tuple is one of the point-to-candidate distances,
and tuple feasibility is monotone in the radius, which licenses the binary
search over the sorted, deduplicated ladder. A probe counts the points per
coverage mask and decides feasibility by Hall's condition on those 2^k
counts (``hall_feasible``); no flow runs until the winner's labels are
needed, and ``flow.expand_assignment`` turns that one flow into labels.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .candidates import enumerate_tuples, gonzalez
from .core import (
    BalanceBounds,
    ClusteringResult,
    InputError,
    PhaseClock,
    StructureError,
    as_oracle,
    evaluate_objective,
    nearest_distances,
    round_robin_assignment,
)
from .flow import FlowSolution, coverage_network, expand_assignment, max_flow
from .regions import CONTAINMENT_SLACK, build_coverage_regions, coverage_region_counts
from .rounding import round_to_integral


def radius_ladder(table: np.ndarray) -> np.ndarray:
    """Sorted, deduplicated candidate radii (all point-to-candidate distances)."""
    return np.unique(table)


def check_feasible(table: np.ndarray, r: float, bounds: BalanceBounds) -> FlowSolution | None:
    """Feasibility of radius r for the k centers behind ``table`` (their n x k
    distance columns): coverage regions, then a zero-cost max flow. Feasible
    iff the flow routes all n points."""
    counted = coverage_region_counts(table, r)
    if counted is None:
        return None
    keys, counts = counted
    net = coverage_network(keys, counts, table.shape[1], bounds.lower, bounds.upper)
    return max_flow(net)


def hall_feasible(counts: np.ndarray, lower: int, upper: int) -> bool:
    """Whether points counted per coverage mask (``counts[M]`` points may go
    to exactly the clusters in bitmask M; length 2^k) can be split so that
    every cluster gets between ``lower`` and ``upper`` of them.

    Hall's condition for degree-constrained bipartite subgraphs: feasible iff
    for every cluster set S the points whose mask lies inside S number at
    most upper * |S|, and the points whose mask meets S number at least
    lower * |S|. With f(S) the points whose mask lies inside S, the second
    family, read at the complement of S, is f(S) <= n - lower * (k - |S|).
    f is the subset-sum (zeta) transform of the counts, O(k 2^k). Points
    counted at mask 0 fit no cluster and fail the check at S = {}.
    """
    k = counts.size.bit_length() - 1
    inside = np.array(counts, dtype=np.int64)
    size = np.zeros(counts.size, dtype=np.int64)
    for j in range(k):
        half = inside.reshape(-1, 2, 1 << j)
        half[:, 1] += half[:, 0]
        size[1 << j : 2 << j] = size[: 1 << j] + 1
    n = inside[-1]
    return bool(np.all(inside <= np.minimum(upper * size, n - lower * (k - size))))


def _search_tuples(table, ladder, tuples, bounds):
    """Smallest feasible (ladder index, order) over the rows of ``tuples``
    (an (N, k) array of candidate positions), plus the probe count and the
    number of tuples skipped; ties keep the earliest tuple.

    A probe at rung r counts the points per coverage mask under the
    threshold r * (1 + CONTAINMENT_SLACK) that ``check_feasible`` applies,
    rejects r when a point is uncovered and otherwise asks ``hall_feasible``;
    it agrees with ``check_feasible`` and builds no network. Each binary
    search runs from the rung of r_cov = max_i min_j d(i, t_j), the first
    ladder value whose threshold covers the tuple's farthest point (every
    lower rung leaves that point uncovered), up to one rung below the best
    so far. A tuple whose r_cov rung is not below the best is skipped
    without a probe or a column copy.
    """
    rows = np.ascontiguousarray(table.T)
    thresholds = ladder * (1.0 + CONTAINMENT_SLACK)
    best = None
    probes = pruned = 0
    for order, row in enumerate(tuples):
        tup = row.tolist()  # list indexing is cheaper than an int32 row's
        lo = int(np.searchsorted(thresholds, nearest_distances(rows, tup).max(), side="left"))
        hi = (best[0] - 1) if best is not None else len(ladder) - 1
        if lo > hi:
            pruned += 1
            continue
        cols = np.ascontiguousarray(table[:, tup])
        found = None
        while lo <= hi:
            mid = (lo + hi) // 2
            probes += 1
            counts, uncovered = kernels.coverage_counts(cols, thresholds[mid])
            if not uncovered and hall_feasible(counts, bounds.lower, bounds.upper):
                found = mid
                hi = mid - 1
            else:
                lo = mid + 1
        if found is not None:
            best = (found, order)
    return best, probes, pruned


def solve_kbcenter(
    source,
    k: int,
    bounds: BalanceBounds,
    first_index: int | None = 0,
    seed: int | None = None,
    centers=None,
    tuples=None,
) -> ClusteringResult:
    """Balanced k-center solve.

    Candidate centers default to the k farthest-point seeds; every k-multiset
    of the candidates (``enumerate_tuples``) is binary-searched for its
    smallest feasible radius. Each probe counts the points per coverage mask
    and applies Hall's condition to the counts (``hall_feasible``), so no
    probe runs a flow. Only the best tuple gets a flow network, whose
    feasible flow is expanded to point labels. Ties go to the earliest
    tuple. ``tuples`` replaces the searched tuples (any iterable of
    k-tuples of candidate positions, in any order, such as an (N, k)
    array); ``centers`` overrides the candidate set with explicit point
    indices.

    A search starts at the rung of the radius that covers every point with
    its nearest center of the tuple, and a tuple whose rung is not below the
    best so far is skipped unprobed (``_search_tuples``); neither step can
    change the result. ``diagnostics`` counts the swept tuples
    (``tuples_evaluated``), the skipped ones (``tuples_pruned``) and the
    feasibility probes (``probes``), and ``diagnostics["timings"]`` holds
    the wall seconds of each phase (``core.PHASES``).
    """
    oracle = as_oracle(source)
    n = oracle.n
    bounds.validate(n, k)
    clock = PhaseClock()
    if centers is None:
        seeds = gonzalez(oracle, k, first_index, seed=seed)
        candidate_idx = seeds.indices
    else:
        candidate_idx = np.asarray(centers, dtype=np.int64)
        if candidate_idx.ndim != 1 or candidate_idx.size == 0:
            raise InputError("centers must be a non-empty 1-d list of point indices")
    m = int(candidate_idx.size)
    if tuples is None:
        tuples = enumerate_tuples(m, k)
    else:
        tuple_list = [tuple(int(p) for p in tup) for tup in tuples]
        for tup in tuple_list:
            if len(tup) != k or any(not 0 <= p < m for p in tup):
                raise InputError(f"tuple {tup} is not a valid k-tuple of candidate positions")
        if not tuple_list:
            raise InputError("empty tuple list")
        tuples = np.array(tuple_list, dtype=np.int32)
    clock.lap("candidates")
    table = oracle.columns(candidate_idx)
    clock.lap("columns")
    ladder = radius_ladder(table)
    diagnostics: dict = {
        "candidates": candidate_idx.tolist(),
        "ladder_size": int(ladder.size),
        "timings": clock.timings,
    }

    if ladder[-1] <= 0.0:
        # All candidate distances are zero: any balanced split costs zero.
        assignment = round_robin_assignment(n, k, bounds)
        clock.lap("rounding")
        chosen = candidate_idx[np.zeros(k, dtype=np.int64)]
        diagnostics.update({"degenerate": True, "tuples_evaluated": 0, "tuples_pruned": 0, "probes": 0})
        return ClusteringResult(
            objective="center",
            k=k,
            bounds=bounds,
            centers=chosen,
            assignment=assignment,
            value=0.0,
            diagnostics=diagnostics,
        )

    best, probes, pruned = _search_tuples(table, ladder, tuples, bounds)
    clock.lap("sweep")
    if best is None:
        raise StructureError("no feasible radius found despite validated bounds")
    ladder_idx, order = best
    tup = tuples[order].tolist()
    search_radius = float(ladder[ladder_idx])
    cols = np.ascontiguousarray(table[:, tup])
    regions = build_coverage_regions(cols, search_radius)
    if regions is None:
        raise StructureError("winning radius failed region construction")
    net = coverage_network(regions.keys, regions.counts, k, bounds.lower, bounds.upper)
    solution = max_flow(net)
    if solution is None:
        raise StructureError("winning radius failed the feasibility re-solve")
    clock.lap("winner")
    solution = round_to_integral(solution, net, mode="feasibility")
    assignment = expand_assignment(solution, net, regions, bounds)
    clock.lap("rounding")
    chosen = candidate_idx[tup]
    value = evaluate_objective(assignment, chosen, oracle, "center")
    clock.lap("evaluation")
    diagnostics.update(
        {
            "tuples_evaluated": len(tuples),
            "tuples_pruned": pruned,
            "probes": probes,
            "best_tuple_positions": tup,
            "best_tuple_order": order,
            "search_radius": search_radius,
            "radius": value,
        }
    )
    return ClusteringResult(
        objective="center",
        k=k,
        bounds=bounds,
        centers=chosen,
        assignment=assignment,
        value=value,
        diagnostics=diagnostics,
    )
