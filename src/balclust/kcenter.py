"""Balanced k-center: farthest-point seeding, a candidate radius ladder, and
a binary-searched feasibility probe per center tuple.

Every input takes one path from seeds to labels. The candidates' distances
are read once, as C-contiguous (m, n) rows, and every probe and the winner
slice their tuple's columns from those rows (``core.tuple_columns``). The
optimal radius of any tuple is one of the point-to-candidate distances,
and tuple feasibility is monotone in the radius, which licenses the binary
search over the sorted, deduplicated ladder. Every probe is one
``check_feasible`` call, which counts the points per coverage mask and
decides feasibility by Hall's condition on those 2^k counts
(``hall_feasible``); no flow runs until the winner's labels are needed, and
``flow.expand_assignment`` turns that one flow into labels.
"""

from __future__ import annotations

import numpy as np

from .candidates import enumerate_tuples, gonzalez
from .core import (
    BalanceBounds,
    ClusteringResult,
    InputError,
    PhaseClock,
    StructureError,
    as_oracle,
    check_indices,
    evaluate_objective,
    nearest_distances,
    tuple_columns,
)
from .flow import coverage_network, expand_assignment, max_flow
from .regions import CONTAINMENT_SLACK, build_coverage_regions, coverage_region_counts
from .rounding import round_to_integral


def check_feasible(table: np.ndarray, r: float, bounds: BalanceBounds) -> tuple[np.ndarray, np.ndarray] | None:
    """Feasibility of radius r for the k centers behind ``table`` (their n x k
    distance columns): the points are counted per coverage mask
    (``coverage_region_counts``) and the 2^k counts decided by Hall's
    condition (``hall_feasible``). Returns those (keys, counts) when r is
    feasible, else None; no network is built and no flow runs."""
    counted = coverage_region_counts(table, r)
    if counted is None:
        return None
    counts = np.zeros(1 << table.shape[1], dtype=np.int64)
    counts[counted[0]] = counted[1]
    return counted if hall_feasible(counts, bounds.lower, bounds.upper) else None


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


def _search_tuples(rows, ladder, tuples, bounds):
    """Smallest feasible (ladder index, order) over the rows of ``tuples``
    (an (N, k) array of candidate positions), plus the probe count and the
    number of tuples skipped; ties keep the earliest tuple. ``rows`` holds
    the candidates' distances as C-contiguous (m, n) rows, and ``ladder``
    their sorted, deduplicated values.

    A probe at rung r is one ``check_feasible`` call at r, which applies
    the threshold r * (1 + CONTAINMENT_SLACK). Each binary search runs from
    the rung of r_cov = max_i min_j d(i, t_j), the first ladder value whose
    threshold covers the tuple's farthest point (every lower rung leaves
    that point uncovered), up to one rung below the best so far. A tuple
    whose r_cov rung is not below the best is skipped without a probe or a
    column copy. When every distance is zero the ladder is [0]: the first
    tuple's one probe succeeds at rung 0 and every later tuple is skipped.
    """
    thresholds = ladder * (1.0 + CONTAINMENT_SLACK)  # the ones check_feasible applies
    best = None
    probes = pruned = 0
    for order, row in enumerate(tuples):
        tup = row.tolist()  # list indexing is cheaper than an int32 row's
        lo = int(np.searchsorted(thresholds, nearest_distances(rows, tup).max(), side="left"))
        hi = (best[0] - 1) if best is not None else len(ladder) - 1
        if lo > hi:
            pruned += 1
            continue
        cols = tuple_columns(rows, tup)
        found = None
        while lo <= hi:
            mid = (lo + hi) // 2
            probes += 1
            if check_feasible(cols, float(ladder[mid]), bounds) is not None:
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
    smallest feasible radius. Each probe is one ``check_feasible`` call:
    it counts the points per coverage mask and applies Hall's condition to
    the counts (``hall_feasible``), so no probe runs a flow. Only the best
    tuple gets a flow network, whose
    feasible flow is expanded to point labels. Ties go to the earliest
    tuple. ``tuples`` replaces the searched tuples (any iterable of
    k-tuples of integer candidate positions, in any order, such as an
    (N, k) array); ``centers`` overrides the candidate set with explicit
    point indices. A position or index that is not an integer, or lies out
    of range, raises ``InputError``.

    Every input takes this one path, coincident points included: when every
    candidate distance is zero, one probe at radius 0 finds the first
    multiset feasible, every later one is skipped, and the labels come from
    its flow like any other winner's.

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
        candidate_idx = gonzalez(oracle, k, first_index, seed=seed).indices
    else:
        candidate_idx = np.asarray(centers)
        if candidate_idx.ndim != 1 or candidate_idx.size == 0:
            raise InputError("centers must be a non-empty 1-d list of point indices")
        check_indices(candidate_idx, n)
        candidate_idx = candidate_idx.astype(np.int64, copy=False)
    m = int(candidate_idx.size)
    if tuples is None:
        tuples = enumerate_tuples(m, k)
    else:
        tuple_list = [np.asarray(tup) for tup in tuples]
        for tup in tuple_list:
            if tup.shape != (k,) or not np.issubdtype(tup.dtype, np.integer) or np.any((tup < 0) | (tup >= m)):
                raise InputError(f"tuple {tuple(tup.tolist())} is not a valid k-tuple of candidate positions")
        if not tuple_list:
            raise InputError("empty tuple list")
        tuples = np.array(tuple_list, dtype=np.int32)
    clock.lap("candidates")
    rows = np.ascontiguousarray(oracle.columns(candidate_idx).T)
    clock.lap("columns")
    ladder = np.unique(rows)
    best, probes, pruned = _search_tuples(rows, ladder, tuples, bounds)
    clock.lap("sweep")
    if best is None:
        raise StructureError("no feasible radius found despite validated bounds")
    ladder_idx, order = best
    tup = tuples[order].tolist()
    search_radius = float(ladder[ladder_idx])
    cols = tuple_columns(rows, tup)
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
    diagnostics = {
        "candidates": candidate_idx.tolist(),
        "ladder_size": int(ladder.size),
        "timings": clock.timings,
        "tuples_evaluated": len(tuples),
        "tuples_pruned": pruned,
        "probes": probes,
        "best_tuple_positions": tup,
        "best_tuple_order": order,
        "search_radius": search_radius,
        "radius": value,
    }
    return ClusteringResult(
        objective="center",
        k=k,
        bounds=bounds,
        centers=chosen,
        assignment=assignment,
        value=value,
        diagnostics=diagnostics,
    )
