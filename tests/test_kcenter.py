import itertools
import math

import numpy as np
import pytest

import balclust as bc
from balclust import kernels
from balclust.flow import coverage_network, max_flow
from balclust.kcenter import hall_feasible, radius_ladder
from balclust.oracle import (
    brute_force_optimum,
    exists_balanced_assignment,
    tight_line_fixture,
    two_column_fixture,
)
from balclust.regions import CONTAINMENT_SLACK

from conftest import random_bounds, random_points


def test_gonzalez_tight_line_seeds():
    fx = tight_line_fixture(0.1)
    seeds = bc.gonzalez(bc.PointSet(fx.points), 3, first_index=1)
    assert seeds.indices.tolist() == [1, 4, 0]


def test_gonzalez_two_column_seeds():
    fx = two_column_fixture()
    seeds = bc.gonzalez(bc.PointSet(fx.points), 3, first_index=0)
    assert seeds.indices.tolist() == [0, 4, 5]


def test_gonzalez_exhausts_all_points():
    ps = random_points(2, 5, 2)
    seeds = bc.gonzalez(ps, 5, first_index=3)
    assert sorted(seeds.indices.tolist()) == [0, 1, 2, 3, 4]
    assert seeds.indices[0] == 3


def test_gonzalez_seeded_random_start():
    ps = random_points(2, 9, 2)
    a = bc.gonzalez(ps, 3, first_index=None, seed=7)
    b = bc.gonzalez(ps, 3, first_index=None, seed=7)
    assert a.indices.tolist() == b.indices.tolist()
    assert a.first_index == b.first_index


def test_gonzalez_unconstrained_two_approx():
    # the max-min distance after k picks is at most twice the best possible
    # unconstrained k-center radius with centers from the input
    import itertools

    for seed in range(10):
        ps = random_points(seed, 9, 2)
        k = 3
        seeds = bc.gonzalez(ps, k)
        table = bc.distance_table(ps, np.arange(9))
        best = min(
            table[:, list(sub)].min(axis=1).max()
            for sub in itertools.combinations(range(9), k)
        )
        assert seeds.next_min_distance <= 2 * best + 1e-9


def test_check_feasible_extremes():
    ps = random_points(4, 9, 2)
    bounds = bc.BalanceBounds(3, 3)
    table = bc.distance_table(ps, [0, 4, 8])
    r_max = float(table.max())
    assert bc.check_feasible(table, r_max, bounds) is not None
    r_tiny = float(table[table > 0].min()) * 0.5
    assert bc.check_feasible(table, r_tiny, bounds) is None


def test_check_feasible_matches_point_oracle_on_fixture():
    fx = tight_line_fixture(0.1)
    table = bc.distance_table(bc.PointSet(fx.points), [0, 1, 4])
    for r in np.unique(table):
        if r <= 0:
            continue
        verdict = bc.check_feasible(table, float(r), fx.bounds) is not None
        allowed = table <= r * (1 + CONTAINMENT_SLACK)
        assert verdict == exists_balanced_assignment(allowed, 2, 2)


def test_solve_single_cluster():
    ps = random_points(6, 7, 3)
    res = bc.solve_kbcenter(ps, 1, bc.BalanceBounds(7, 7))
    assert res.centers.tolist() == [bc.gonzalez(ps, 1).indices[0]]
    table = bc.distance_table(ps, res.centers)
    assert res.value == pytest.approx(float(table.max()))


def test_solve_tight_line_pinned_value():
    fx = tight_line_fixture(0.1)
    res = bc.solve_kbcenter(bc.PointSet(fx.points), 3, fx.bounds, first_index=1)
    assert res.value == pytest.approx(3.9, abs=1e-12)
    assert 2 < res.value / fx.facts["optimal_radius"] <= 4


def test_solve_respects_four_approximation():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        k = int(rng.integers(2, 4))
        ps = random_points(seed + 1000, n, int(rng.integers(1, 4)))
        bounds = random_bounds(rng, n, k)
        res = bc.solve_kbcenter(ps, k, bounds)
        opt, _, _ = brute_force_optimum(ps, k, bounds, "center")
        assert res.value <= 4 * opt + 1e-9
        assert np.all(res.assignment.sizes >= bounds.lower)
        assert np.all(res.assignment.sizes <= bounds.upper)


def test_reported_radius_equals_recomputation():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 20))
        k = int(rng.integers(2, 4))
        ps = random_points(seed + 50, n, 3)
        bounds = random_bounds(rng, n, k)
        res = bc.solve_kbcenter(ps, k, bounds)
        again = bc.evaluate_objective(res.assignment, res.centers, ps, "center")
        assert res.value == again
        assert res.value <= res.diagnostics["search_radius"] * (1 + 1e-10)


def test_binary_search_matches_linear_scan():
    # feasibility is monotone in the radius, so the binary search must find
    # exactly the first feasible ladder value
    for seed in range(10):
        rng = np.random.default_rng(seed + 7)
        n = int(rng.integers(5, 11))
        k = 2
        ps = random_points(seed + 99, n, 2)
        bounds = random_bounds(rng, n, k)
        seeds = bc.gonzalez(ps, k)
        table = bc.distance_table(ps, seeds.indices)
        ladder = radius_ladder(table)
        for tup in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            cols = np.ascontiguousarray(table[:, tup])
            verdicts = [bc.check_feasible(cols, float(r), bounds) is not None for r in ladder if r > 0]
            positive = [float(r) for r in ladder if r > 0]
            # monotone: once feasible, stays feasible
            assert verdicts == sorted(verdicts)
            first = positive[verdicts.index(True)] if True in verdicts else None
            res = bc.solve_kbcenter(ps, k, bounds, tuples=[tup])
            if first is not None:
                assert res.diagnostics["search_radius"] == pytest.approx(first)


def test_expand_assignment_index_order():
    from balclust.flow import FlowSolution, coverage_network
    from balclust.regions import build_coverage_regions

    table = np.array([[0.1, 0.2], [0.1, 0.2], [0.1, 0.2]])
    regions = build_coverage_regions(table, 1.0)
    net = coverage_network(regions.keys, regions.counts, 2, 1, 2)
    sol = FlowSolution(flows=np.array([2.0, 1.0]), total=3.0, cost=0.0)
    assignment = bc.expand_assignment(sol, net, regions, bc.BalanceBounds(1, 2))
    assert assignment.labels.tolist() == [0, 0, 1]


def test_expand_assignment_rejects_bad_flow():
    from balclust.flow import FlowSolution, coverage_network
    from balclust.regions import build_coverage_regions

    table = np.array([[0.1, 0.2], [0.1, 0.2], [0.1, 0.2]])
    regions = build_coverage_regions(table, 1.0)
    net = coverage_network(regions.keys, regions.counts, 2, 1, 2)
    for flows in ([2.0, 2.0], [4.0, -1.0], [1.5, 1.5], [1.0, 1.0]):  # over, negative, non-integral, under
        bad = FlowSolution(flows=np.array(flows), total=sum(flows), cost=0.0)
        with pytest.raises(bc.StructureError):
            bc.expand_assignment(bad, net, regions, bc.BalanceBounds(1, 2))


def test_expanded_points_stay_within_radius():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 25))
        k = int(rng.integers(2, 4))
        ps = random_points(seed + 10, n, 2)
        bounds = random_bounds(rng, n, k)
        res = bc.solve_kbcenter(ps, k, bounds)
        table = bc.distance_table(ps, res.centers)
        per_point = table[np.arange(n), res.assignment.labels]
        assert np.all(per_point <= res.diagnostics["search_radius"] * (1 + 1e-10))


def test_degenerate_coincident_input():
    ps = bc.PointSet(np.zeros((6, 2)))
    res = bc.solve_kbcenter(ps, 2, bc.BalanceBounds(3, 3))
    assert res.value == 0.0
    assert res.assignment.sizes.tolist() == [3, 3]


def test_planted_groups_solve_to_zero_radius():
    # the ladder contains the zero self-distances, so radius 0 is probed and
    # wins when each group coincides with a candidate center
    from balclust.oracle import planted_fixture

    fx = planted_fixture(k=2, group=3, gap=10.0)
    res = bc.solve_kbcenter(bc.PointSet(fx.points), 2, fx.bounds)
    assert res.value == 0.0
    assert res.assignment.labels.tolist() == [0, 0, 0, 1, 1, 1]


def test_infeasible_bounds_rejected_before_solving():
    ps = random_points(0, 6, 2)
    with pytest.raises(bc.InfeasibleBoundsError):
        bc.solve_kbcenter(ps, 3, bc.BalanceBounds(3, 3))


def test_multiset_sweep_matches_ordered_product():
    # uniform bounds make clusters interchangeable, so the sorted multisets
    # find the same winner as the full k-fold product, ties included
    for seed in range(8):
        rng = np.random.default_rng(seed + 300)
        k = 3 if seed % 2 else 4
        n = int(rng.integers(12, 30))
        ps = random_points(seed + 301, n, 2)
        bounds = random_bounds(rng, n, k)
        multisets = bc.solve_kbcenter(ps, k, bounds)
        product = bc.solve_kbcenter(ps, k, bounds, tuples=list(itertools.product(range(k), repeat=k)))
        assert multisets.diagnostics["tuples_evaluated"] == math.comb(2 * k - 1, k)
        assert product.diagnostics["tuples_evaluated"] == k**k
        assert multisets.value == product.value
        assert multisets.centers.tolist() == product.centers.tolist()
        assert multisets.assignment.labels.tolist() == product.assignment.labels.tolist()


def test_matrix_oracle_solve():
    from conftest import euclidean_matrix

    pts = random_points(77, 12, 2).points
    oracle = bc.MatrixOracle(euclidean_matrix(pts))
    bounds = bc.BalanceBounds(4, 8)
    res_m = bc.solve_kbcenter(oracle, 2, bounds)
    res_e = bc.solve_kbcenter(bc.PointSet(pts), 2, bounds)
    assert res_m.value == pytest.approx(res_e.value, rel=1e-12)


def _first_feasible_rung(cols, ladder, bounds):
    for idx, r in enumerate(ladder):
        if bc.check_feasible(cols, float(r), bounds) is not None:
            return idx
    return None


def test_pruned_search_matches_full_ladder_scan():
    # starting each search at the r_cov rung and skipping tuples whose rung
    # is not below the incumbent must find the winner of a full scan
    from balclust.oracle import planted_fixture

    cases = []
    for seed in range(8):
        rng = np.random.default_rng(seed + 700)
        n = int(rng.integers(12, 30))
        k = 2 + seed % 3
        ps = random_points(seed + 701, n, 2)
        centers = None if seed % 2 else rng.choice(n, size=k + 2, replace=False)
        cases.append((ps, k, random_bounds(rng, n, k), centers))
    fx = planted_fixture(k=2, group=3, gap=10.0)  # many tuples tie at radius zero
    cases.append((bc.PointSet(fx.points), 2, fx.bounds, np.arange(6)))

    pruned = 0
    for ps, k, bounds, centers in cases:
        res = bc.solve_kbcenter(ps, k, bounds, centers=centers)
        candidates = np.asarray(res.diagnostics["candidates"])
        table = bc.distance_table(ps, candidates)
        ladder = radius_ladder(table)
        best = None
        for tup in bc.enumerate_tuples(len(candidates), k):
            rung = _first_feasible_rung(np.ascontiguousarray(table[:, tup]), ladder, bounds)
            if rung is not None and (best is None or rung < best[0]):
                best = (rung, tup)
        rung, tup = best
        winner = bc.solve_kbcenter(ps, k, bounds, centers=candidates, tuples=[tup])
        assert winner.diagnostics["search_radius"] == ladder[rung]
        assert res.diagnostics["search_radius"] == ladder[rung]
        assert res.centers.tolist() == candidates[list(tup)].tolist()
        assert res.assignment.labels.tolist() == winner.assignment.labels.tolist()
        assert res.value == winner.value
        assert 0 <= res.diagnostics["tuples_pruned"] < res.diagnostics["tuples_evaluated"]
        pruned += res.diagnostics["tuples_pruned"]
    assert pruned > 0


def test_covering_rung_is_the_search_floor():
    # below the rung of r_cov = max_i min_j d(i, t_j) some point is uncovered;
    # at that rung every point is covered
    from balclust.regions import coverage_region_counts

    for seed in range(12):
        rng = np.random.default_rng(seed + 800)
        n = int(rng.integers(6, 25))
        k = int(rng.integers(1, 4))
        ps = random_points(seed + 801, n, 2)
        bounds = random_bounds(rng, n, k)
        table = bc.distance_table(ps, rng.choice(n, size=4, replace=False))
        ladder = radius_ladder(table)
        for _ in range(4):
            cols = np.ascontiguousarray(table[:, rng.integers(0, 4, size=k)])
            lo = int(np.searchsorted(ladder * (1 + CONTAINMENT_SLACK), cols.min(axis=1).max(), side="left"))
            if lo > 0:
                assert bc.check_feasible(cols, float(ladder[lo - 1]), bounds) is None
            assert coverage_region_counts(cols, float(ladder[lo])) is not None


def _mask_instance(rng, k, num_masks):
    masks = rng.choice(np.arange(1, 1 << k), size=num_masks, replace=False)
    keys = np.sort(masks).astype(np.int64)
    supplies = rng.integers(1, 6, size=keys.size).astype(np.int64)
    counts = np.zeros(1 << k, dtype=np.int64)
    counts[keys] = supplies
    return keys, supplies, counts


def test_hall_condition_matches_max_flow():
    # each region's edges are exactly the clusters in its mask, as in a
    # coverage network; the mask-count check must agree with the flow
    rng = np.random.default_rng(1600)
    cases = []
    for _ in range(1500):
        k = int(rng.integers(1, 6))
        keys, supplies, counts = _mask_instance(rng, k, int(rng.integers(1, (1 << k))))
        n = int(supplies.sum())
        lower = int(rng.integers(0, n // k + 2))
        upper = int(rng.integers(max(lower, 1), n + 2))
        cases.append((k, keys, supplies, counts, lower, upper))
    for k, num_masks in ((1, 1), (3, 1), (4, 1), (3, 7), (5, 12)):
        keys, supplies, counts = _mask_instance(rng, k, num_masks)
        supplies[-1] += -int(supplies.sum()) % k  # make L k = n reachable
        counts[keys[-1]] = supplies[-1]
        n = int(supplies.sum())
        cases.append((k, keys, supplies, counts, 0, n))  # L = 0, U = n
        cases.append((k, keys, supplies, counts, n // k, n // k))  # L k = n = U k
        cases.append((k, keys, supplies, counts, n // k, n))  # L k = n
    verdicts = {True: 0, False: 0}
    for k, keys, supplies, counts, lower, upper in cases:
        expected = max_flow(coverage_network(keys, supplies, k, lower, upper)) is not None
        assert hall_feasible(counts, lower, upper) == expected, (k, keys, supplies, lower, upper)
        verdicts[expected] += 1
    assert min(verdicts.values()) > 300


def test_hall_condition_rejects_uncovered_points():
    # the probe rejects a radius that leaves a point uncovered before the
    # Hall check; counted at mask 0, such a point also fails the check
    table = np.array([[0.5, 3.0], [2.0, 0.4], [0.9, 1.1], [5.0, 6.0]])
    bounds = bc.BalanceBounds(1, 4)
    counts, uncovered = kernels.coverage_counts(table, 1.5)
    assert uncovered == 1 and counts.tolist() == [0, 1, 1, 1]
    assert bc.check_feasible(table, 1.5, bounds) is None
    assert hall_feasible(counts, bounds.lower, bounds.upper)
    counts[0] = uncovered
    assert not hall_feasible(counts, bounds.lower, bounds.upper)


def test_tuples_argument_rejects_malformed_tuples():
    ps = random_points(360, 12, 2)
    bounds = bc.BalanceBounds(5, 7)
    with pytest.raises(bc.InputError, match=r"^tuple \(0, 1, 0\) is not a valid k-tuple of candidate positions$"):
        bc.solve_kbcenter(ps, 2, bounds, tuples=[(0, 1), (0, 1, 0)])
    with pytest.raises(bc.InputError, match=r"^tuple \(0, 2\) is not a valid k-tuple of candidate positions$"):
        bc.solve_kbcenter(ps, 2, bounds, tuples=[(0, 2)])
    with pytest.raises(bc.InputError, match=r"^tuple \(-1, 0\) is not a valid k-tuple of candidate positions$"):
        bc.solve_kbcenter(ps, 2, bounds, tuples=np.array([[-1, 0]]))
    with pytest.raises(bc.InputError, match=r"^empty tuple list$"):
        bc.solve_kbcenter(ps, 2, bounds, tuples=[])


def test_tuples_argument_takes_an_array_like_a_list():
    # an (N, k) array, here not C-contiguous, searches the tuples in its
    # row order just as the same tuples given as a list
    for seed in range(4):
        rng = np.random.default_rng(seed + 370)
        k = 3
        n = int(rng.integers(12, 30))
        ps = random_points(seed + 371, n, 2)
        bounds = random_bounds(rng, n, k)
        candidates = bc.gonzalez(ps, 5).indices
        array = bc.enumerate_tuples(candidates.size, k)[::-1]
        listed = [tuple(t) for t in array.tolist()]
        a = bc.solve_kbcenter(ps, k, bounds, centers=candidates, tuples=array)
        b = bc.solve_kbcenter(ps, k, bounds, centers=candidates, tuples=listed)
        assert a.value == b.value
        assert a.centers.tolist() == b.centers.tolist()
        assert a.assignment.labels.tolist() == b.assignment.labels.tolist()
        for key in ("tuples_evaluated", "tuples_pruned", "probes", "best_tuple_order", "best_tuple_positions"):
            assert a.diagnostics[key] == b.diagnostics[key]
