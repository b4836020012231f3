import dataclasses
import itertools

import numpy as np
import pytest

import balclust as bc
from balclust import kernels, kmedian
from balclust.candidates import enumerate_tuples
from balclust.core import nearest_distances
from balclust.flow import level_network, max_flow
from balclust.kmedian import _SharedRings, nearest_bound
from balclust.oracle import (
    brute_force_optimum,
    exact_balanced_assignment,
    planted_fixture,
)
from balclust.regions import build_level_regions, build_level_schedule

from conftest import euclidean_matrix, random_bounds, random_metric_oracle, random_points, region_members


def test_single_center_forced_assignment():
    ps = random_points(1, 6, 2)
    bounds = bc.BalanceBounds(6, 6)
    res = bc.assignment_lp([2], ps, bounds, epsilon=0.5, objective="median")
    table = bc.distance_table(ps, [2])
    assert res.true_cost == pytest.approx(float(table.sum()), rel=1e-12)
    assert res.true_cost <= res.lp_objective < (1 + 0.5) * res.true_cost


def test_coincident_pairs_zero_cost():
    pts = np.array([[0.0], [0.0], [10.0], [10.0]])
    res = bc.assignment_lp([0, 2], bc.PointSet(pts), bc.BalanceBounds(2, 2), 0.5, "median")
    assert res.true_cost == 0.0
    assert res.lp_objective == 0.0


def test_sandwich_against_exact_assignment():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        ps = random_points(seed + 7, n, 2)
        bounds = random_bounds(rng, n, 2)
        centers = rng.choice(n, size=2, replace=False).tolist()
        for objective, power in (("median", 1), ("means", 2)):
            res = bc.assignment_lp(centers, ps, bounds, 0.25, objective)
            w, _ = exact_balanced_assignment(centers, ps, bounds, objective)
            assert w <= res.lp_objective + 1e-9
            if w > 0:
                assert res.lp_objective < (1 + 0.25) ** power * w
            else:
                assert res.lp_objective == 0.0
            assert res.true_cost <= res.lp_objective + 1e-9


def test_lp_partition_round_trip():
    # any balanced assignment yields a feasible integral region flow, and the
    # solved flow expands back to a balanced assignment
    rng = np.random.default_rng(5)
    ps = random_points(42, 9, 2)
    bounds = bc.BalanceBounds(3, 6)
    centers = [1, 6]
    cols = bc.distance_table(ps, centers)
    r_min, r_max = bc.extreme_distances(cols)
    schedule = build_level_schedule(r_min, r_max, 0.5)
    regions = build_level_regions(cols, schedule)

    labels = np.array([0, 0, 0, 1, 1, 1, 0, 1, 1])
    point_region = np.empty(9, dtype=np.int64)
    for ridx, members in enumerate(region_members(regions)):
        point_region[members] = ridx
    net = level_network(regions, schedule, 3, 6)
    flows = np.zeros(net.num_edges)
    for e in range(net.num_edges):
        r, j = int(net.edge_region[e]), int(net.edge_cluster[e])
        flows[e] = int(np.sum((point_region == r) & (labels == j)))
    from balclust.flow import validate_solution, FlowSolution

    validate_solution(net, FlowSolution(flows=flows, total=9.0, cost=float(flows @ net.edge_cost)))

    solved = max_flow(net)
    assignment = bc.expand_assignment(solved, net, regions, bc.BalanceBounds(3, 6))
    assert assignment.sizes.sum() == 9
    del rng


def test_solve_recovers_planted_optimum():
    fx = planted_fixture(k=2, group=3, gap=25.0)
    ps = bc.PointSet(fx.points)

    class PlantedGenerator(bc.CandidateGenerator):
        name = "planted"

        def generate(self, source, k, objective):
            return np.array([0, 3])

    for objective in ("median", "means"):
        res = bc.solve_balanced(ps, 2, fx.bounds, objective=objective, generator=PlantedGenerator())
        assert res.value == 0.0


def test_solve_bounded_ratio_on_metric_instances():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        oracle = random_metric_oracle(seed + 31, n)
        bounds = random_bounds(rng, n, 2)
        res = bc.solve_balanced(
            oracle, 2, bounds, objective="median", generator=bc.BicriteriaGenerator(seed=seed)
        )
        opt, _, _ = brute_force_optimum(oracle, 2, bounds, "median")
        ratio = res.value / opt if opt > 0 else 1.0
        assert np.isfinite(ratio)
        assert ratio >= 1 - 1e-12


def test_epsilon_refinement():
    ps = random_points(13, 10, 2)
    bounds = bc.BalanceBounds(3, 7)
    centers = [0, 9]
    coarse = bc.assignment_lp(centers, ps, bounds, 0.5, "median")
    fine = bc.assignment_lp(centers, ps, bounds, 0.05, "median")
    assert fine.lp_objective <= coarse.lp_objective * (1.5 / 1.05) + 1e-12
    w, _ = exact_balanced_assignment(centers, ps, bounds, "median")
    for eps, res in ((0.5, coarse), (0.05, fine)):
        assert w <= res.lp_objective + 1e-9 < (1 + eps) * w + 1e-9


def test_reported_cost_matches_recomputation():
    ps = random_points(3, 12, 3)
    bounds = bc.BalanceBounds(4, 8)
    res = bc.solve_balanced(ps, 2, bounds, objective="means", seed=5)
    again = bc.evaluate_objective(res.assignment, res.centers, ps, "means")
    assert abs(res.value - again) <= 1e-9 * max(1.0, res.value)


def _assert_sandwich(lp_objective, true_cost, w, epsilon, objective):
    power = 2 if objective == "means" else 1
    assert w <= true_cost * (1 + 1e-12)
    assert true_cost <= lp_objective * (1 + 1e-12)
    assert lp_objective < (1 + epsilon) ** power * w


def test_near_duplicate_solves_on_ring_regions():
    # a point 1e-9 from the first Gonzalez seed stretches the ring ladder of
    # every tuple holding that seed to about 33 rungs; such tuples still take
    # the ring-region flow and meet the (1 + epsilon) sandwich
    rng = np.random.default_rng(101)
    points = rng.standard_normal((160, 8))
    step = rng.standard_normal(8)
    points[1] = points[0] + 1e-9 * step / np.linalg.norm(step)
    ps = bc.PointSet(points)
    bounds = bc.BalanceBounds(36, 44)
    generator = bc.GonzalezGenerator()
    seeds = generator.generate(ps, 4, "median")
    assert seeds[0] == 0
    res = bc.solve_balanced(ps, 4, bounds, epsilon=1.0, objective="median", generator=generator)
    assert res.diagnostics["fallbacks"] == 0
    w, _ = exact_balanced_assignment(res.centers, ps, bounds, "median")
    _assert_sandwich(res.diagnostics["lp_objective"], res.value, w, 1.0, "median")
    lp = bc.assignment_lp(seeds, ps, bounds, 1.0, "median")
    w, _ = exact_balanced_assignment(seeds, ps, bounds, "median")
    _assert_sandwich(lp.lp_objective, lp.true_cost, w, 1.0, "median")


def test_overflowing_ring_codes_solve_on_digit_rows():
    # at k = 6 and epsilon 1e-3 every ladder has about 3,050 rungs, so the
    # ring codes (T + 2)^6 overflow int64 and regions group by digit rows
    ps = random_points(1, 30, 3)
    bounds = bc.BalanceBounds(4, 6)
    generator = FixedGenerator([0, 3, 7, 11, 19, 23])
    for objective in ("median", "means"):
        res = bc.solve_balanced(ps, 6, bounds, epsilon=1e-3, objective=objective, generator=generator)
        assert res.diagnostics["fallbacks"] > 0
        w, _ = exact_balanced_assignment(res.centers, ps, bounds, objective)
        _assert_sandwich(res.diagnostics["lp_objective"], res.value, w, 1e-3, objective)


def test_coincident_points_take_the_flow():
    # every distance is zero: a one-rung schedule puts every point at ring
    # digit 0, and the labels come from the flow like any other tuple's
    pts = np.zeros((6, 2))
    bounds = bc.BalanceBounds(3, 3)
    res = bc.assignment_lp([0, 1], bc.PointSet(pts), bounds, 1.0, "median")
    assert res.lp_objective == res.true_cost == 0.0
    assert np.all((bounds.lower <= res.assignment.sizes) & (res.assignment.sizes <= bounds.upper))
    assert not hasattr(res, "degenerate")


def test_permuted_tuples_share_lp_objective():
    # the sweep keeps one sorted tuple per multiset; every reordering of its
    # centers must give the same flow objective within the tie tolerance
    for seed in range(4):
        rng = np.random.default_rng(seed + 40)
        n = int(rng.integers(10, 16))
        ps = random_points(seed + 41, n, 2)
        for objective, k in (("median", 3), ("means", 2)):
            bounds = random_bounds(rng, n, k)
            candidates, _ = bc.bicriteria_centers(ps, k, seed=seed, objective=objective, oversample=2)
            for tup in bc.enumerate_tuples(candidates, k):
                centers = candidates[list(tup)]
                lps = [
                    bc.assignment_lp(centers[list(perm)], ps, bounds, 0.5, objective).lp_objective
                    for perm in set(itertools.permutations(range(k)))
                ]
                tol = 1e-12 * max(1.0, max(abs(v) for v in lps))
                assert max(lps) - min(lps) <= tol


def test_center_objective_rejected():
    ps = random_points(0, 6, 2)
    with pytest.raises(bc.InputError):
        bc.solve_balanced(ps, 2, bc.BalanceBounds(3, 3), objective="center")
    with pytest.raises(bc.InputError):
        bc.assignment_lp([0, 1], ps, bc.BalanceBounds(3, 3), 1.0, "center")


class FixedGenerator(bc.CandidateGenerator):
    name = "fixed"

    def __init__(self, indices):
        self.indices = np.asarray(indices)

    def generate(self, source, k, objective):
        return self.indices


def _unpruned_reference(ps, candidates, k, bounds, epsilon, objective):
    """assignment_lp on every multiset; the first one strictly below the
    incumbent by more than the 1e-12 tie tolerance takes over."""
    best_lp, best_tup = None, None
    for tup in bc.enumerate_tuples(len(candidates), k):
        centers = candidates[list(tup)]
        lp = bc.assignment_lp(centers, ps, bounds, epsilon, objective).lp_objective
        if best_lp is None or lp < best_lp - 1e-12 * max(1.0, abs(lp), abs(best_lp)):
            best_lp, best_tup = lp, tup
    centers = candidates[list(best_tup)]
    res = bc.assignment_lp(centers, ps, bounds, epsilon, objective)
    value = bc.evaluate_objective(res.assignment, centers, ps, objective)
    return best_lp, centers, res.assignment.labels, value


def test_pruned_sweep_matches_unpruned_reference():
    # skipping tuples whose nearest-center bound cannot beat the incumbent
    # must leave the winner, its labels and its flow objective unchanged
    cases = []
    for seed in range(6):
        rng = np.random.default_rng(seed + 500)
        n = int(rng.integers(12, 30))
        k = 2 + seed % 2
        ps = random_points(seed + 501, n, 2)
        for objective in ("median", "means"):
            candidates, _ = bc.bicriteria_centers(ps, k, seed=seed, objective=objective, oversample=2)
            cases.append((ps, candidates, k, random_bounds(rng, n, k), 0.5, objective))
    for k in (2, 3):
        fx = planted_fixture(k=k, group=3, gap=25.0)  # many tuples tie at cost zero
        for objective in ("median", "means"):
            cases.append((bc.PointSet(fx.points), np.arange(3 * k), k, fx.bounds, 1.0, objective))
    rng = np.random.default_rng(7)
    points = rng.standard_normal((14, 3))
    points[1] = points[0] + 1e-9 * rng.standard_normal(3)  # ladders of about 30 rings at the pair
    near = bc.PointSet(points)
    for objective in ("median", "means"):
        cases.append((near, np.array([0, 1, 5, 9]), 2, bc.BalanceBounds(5, 9), 1.0, objective))

    pruned = 0
    for ps, candidates, k, bounds, epsilon, objective in cases:
        res = bc.solve_balanced(
            ps, k, bounds, epsilon=epsilon, objective=objective, generator=FixedGenerator(candidates)
        )
        lp, centers, labels, value = _unpruned_reference(ps, candidates, k, bounds, epsilon, objective)
        assert res.diagnostics["lp_objective"] == lp
        assert res.centers.tolist() == centers.tolist()
        assert res.assignment.labels.tolist() == labels.tolist()
        assert res.value == value
        assert 0 <= res.diagnostics["tuples_pruned"] < res.diagnostics["tuples_evaluated"]
        pruned += res.diagnostics["tuples_pruned"]
    assert pruned > 0


def _kept(bound, best):
    """The per-tuple prune test of a generation-order scan, inverted."""
    return not bound > best + 1e-12 * max(1.0, abs(bound), abs(best))


def _tie_edge(best):
    """The largest float that a tuple may be bounded at and still be kept
    by the incumbent ``best``."""
    edge = best * (1.0 + 1e-12)
    while _kept(edge, best):
        edge = float(np.nextafter(edge, np.inf))
    while not _kept(edge, best):
        edge = float(np.nextafter(edge, -np.inf))
    return edge


def test_array_prune_at_the_tie_threshold(monkeypatch):
    # a tuple bounded at the largest float its incumbent keeps gets a flow,
    # one bounded a float above it is pruned, under several incumbents, as a
    # per-tuple scan in generation order decides them
    ps = random_points(520, 24, 2)
    bounds = bc.BalanceBounds(7, 9)
    candidates, _ = bc.bicriteria_centers(ps, 3, seed=1, oversample=2)
    tuples = enumerate_tuples(candidates.size, 3)
    crafted = np.zeros(len(tuples))
    best = None
    flows = 0
    incumbents = {"kept": set(), "pruned": set()}
    for order, tup in enumerate(tuples):
        if best is not None and order % 3:
            edge = _tie_edge(best)
            if order % 3 == 1:
                crafted[order] = edge
                incumbents["kept"].add(best)
            else:
                crafted[order] = np.nextafter(edge, np.inf)
                assert not _kept(crafted[order], best)
                incumbents["pruned"].add(best)
                continue
        flows += 1
        lp = bc.assignment_lp(candidates[tup], ps, bounds, 0.5, "median").lp_objective
        if best is None or lp < best - 1e-12 * max(1.0, abs(lp), abs(best)):
            best = lp
    assert len(incumbents["kept"]) >= 3 and len(incumbents["pruned"]) >= 3
    monkeypatch.setattr(_SharedRings, "bounds", lambda self, got: crafted)
    res = bc.solve_balanced(ps, 3, bounds, epsilon=0.5, generator=FixedGenerator(candidates))
    assert res.diagnostics["lp_objective"] == best
    assert res.diagnostics["work"]["flows"] == flows
    assert res.diagnostics["tuples_pruned"] == len(tuples) - flows


def test_nearest_bounds_are_lower_bounds():
    # the ring bound is the flow optimum without [L, U]
    for seed in range(12):
        rng = np.random.default_rng(seed + 600)
        n = int(rng.integers(8, 25))
        k = int(rng.integers(1, 4))
        ps = random_points(seed + 601, n, 2)
        bounds = random_bounds(rng, n, k)
        for _ in range(4):
            centers = rng.integers(0, n, size=k)  # repeats allowed, as in multisets
            cols = bc.distance_table(ps, centers)
            extremes = bc.extreme_distances(cols)
            if extremes is None:
                continue
            schedule = build_level_schedule(*extremes, 0.5)
            nearest = cols.min(axis=1)
            for objective in ("median", "means"):
                squared = objective == "means"
                ring = nearest_bound(nearest, schedule, squared)
                lp = bc.assignment_lp(centers, ps, bounds, 0.5, objective).lp_objective
                assert ring <= lp * (1 + 1e-12)


def test_level_ladders_from_one_radius_nest():
    # the shared bound relies on every ladder from one r_min being an
    # element-for-element prefix of every longer ladder from it
    rng = np.random.default_rng(800)
    for _ in range(400):
        epsilon = float(rng.choice([0.01, 0.1, 0.5, 1.0, rng.uniform(0.001, 3.0)]))
        r = float(rng.uniform(1e-6, 10.0))
        r1 = r * float(np.exp(rng.uniform(0.0, 6.0)))
        r2 = r1 * float(np.exp(rng.uniform(0.0, 6.0)))
        short = build_level_schedule(r, r1, epsilon).alphas
        long = build_level_schedule(r, r2, epsilon).alphas
        assert short.size <= long.size
        assert np.array_equal(short, long[: short.size])


def _shared_bound_instances():
    rng = np.random.default_rng(810)
    for seed in range(6):
        ps = random_points(seed + 811, int(rng.integers(10, 30)), 2)
        yield ps, rng.choice(ps.n, size=4, replace=False), 0.5
    # duplicated points put several points at distance 0 from a candidate
    points = rng.standard_normal((16, 2))
    points[5:8] = points[0]
    yield bc.PointSet(points), np.array([0, 3, 9, 12]), 0.5
    # candidates 0 and 1 are each other's nearest other point, at distance 1,
    # so their smallest positive distances are equal
    points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 1.0], [-4.0, 3.0], [3.0, -6.0], [0.5, 7.0], [-6.0, -2.0]])
    yield bc.PointSet(points), np.array([0, 1, 2, 3]), 0.5
    # distances from 1e-3 to about 100 need over 255 rungs at epsilon 0.01
    points = rng.standard_normal((20, 2)) * 40.0
    points[1] = points[0] + [1e-3, 0.0]
    yield bc.PointSet(points), np.array([0, 1, 4, 7, 11]), 0.01


def _reference_bounds(rings, rows, tuples, epsilon, squared):
    """nearest_bound of each tuple under its own schedule; a tuple whose
    distances are all zero gets the one rung at the largest candidate
    distance (1.0 if that is zero too)."""
    top = float(rows.max()) or 1.0
    out = []
    for tup in tuples:
        extremes = bc.extreme_distances(rows[list(tup)].T) or (top, top)
        schedule = rings.schedule(tup)
        reference = build_level_schedule(*extremes, epsilon)
        assert np.array_equal(schedule.alphas, reference.alphas)
        out.append(nearest_bound(nearest_distances(rows, tup), reference, squared))
    return out


def test_shared_ring_bound_matches_nearest_bound():
    # the sweep's batched plane bound must equal nearest_bound of each
    # tuple's own schedule bit for bit, so pruning and the winner stay as
    # a per-tuple bound decides them
    equal_sources = long_ladders = 0
    for ps, candidates, epsilon in _shared_bound_instances():
        rows = np.ascontiguousarray(bc.distance_table(ps, candidates).T)
        m = candidates.size
        for objective in ("median", "means"):
            squared = objective == "means"
            rings = _SharedRings(rows, epsilon, squared)
            for k in (1, 2, 3):
                tuples = enumerate_tuples(m, k)  # multisets repeat candidates
                coded = rings.coded_rows
                assert rings.bounds(tuples).tolist() == _reference_bounds(rings, rows, tuples, epsilon, squared)
                # a source never has a larger col_min than its members
                assert rings.coded_rows - coded <= m * (m + 1) // 2
            for s in range(m):
                thresholds, _ = rings.ladder(s)
                # plane 0 marks the positive distances; a candidate is at
                # distance 0 from itself
                assert np.bitwise_count(kernels.rung_planes(rows[s], thresholds[:1])).sum() < ps.n
                long_ladders += thresholds.size > 255
        equal_sources += len(set(rings.col_min.tolist())) < m
    assert equal_sources > 0
    assert long_ladders > 0


def test_shared_ring_bound_chunk_seams(monkeypatch):
    # blocks of rungs and chunks of tuples cut anywhere give the bounds and
    # the solve of one unchunked pass
    ps = random_points(830, 150, 2)
    bounds = bc.BalanceBounds(45, 55)
    candidates, _ = bc.bicriteria_centers(ps, 3, seed=3, objective="median")
    rows = np.ascontiguousarray(bc.distance_table(ps, candidates).T)
    tuples = enumerate_tuples(candidates.size, 3)
    generator = FixedGenerator(candidates)
    results = {}
    for budget in (kmedian.PLANE_CHUNK_BYTES, 5000, 200, 1):
        monkeypatch.setattr(kmedian, "PLANE_CHUNK_BYTES", budget)
        rings = _SharedRings(rows, 0.1, False)
        res = bc.solve_balanced(ps, 3, bounds, epsilon=0.1, objective="median", generator=generator)
        results[budget] = (rings.bounds(tuples).tolist(), res.centers.tolist(), res.assignment.labels.tolist(),
                           res.value, res.diagnostics["lp_objective"], res.diagnostics["tuples_pruned"])
    # the default budget holds each source's planes whole
    longest = max(rings.ladder(s)[0].size for s in range(candidates.size))
    assert longest * candidates.size * 8 * -(-ps.n // 64) <= max(results)
    unchunked = results.pop(max(results))
    assert all(got == unchunked for got in results.values())


def test_shared_ring_bound_mixes_tuples_without_schedule():
    # point 2 is at distance 0 from every point (a non-metric matrix), so
    # multisets of only that candidate get a one-rung schedule and bound
    # 0.0, while the other multisets in the same batch are bounded as usual
    mat = euclidean_matrix(np.random.default_rng(840).standard_normal((12, 2)))
    mat[2, :] = mat[:, 2] = 0.0
    oracle = bc.MatrixOracle(mat)
    candidates = np.array([5, 2, 9, 0])
    rows = np.ascontiguousarray(bc.distance_table(oracle, candidates).T)
    for squared in (False, True):
        rings = _SharedRings(rows, 0.5, squared)
        for k in (1, 2, 3):
            tuples = enumerate_tuples(candidates.size, k)
            got = rings.bounds(tuples).tolist()
            assert got == _reference_bounds(rings, rows, tuples, 0.5, squared)
            assert got[tuples.tolist().index([1] * k)] == 0.0
            assert any(bound > 0.0 for bound in got)
    bounds = bc.BalanceBounds(3, 5)
    for objective in ("median", "means"):
        res = bc.solve_balanced(oracle, 3, bounds, objective=objective, generator=FixedGenerator(candidates))
        lp, centers, labels, value = _unpruned_reference(oracle, candidates, 3, bounds, 1.0, objective)
        assert res.diagnostics["lp_objective"] == lp
        assert res.centers.tolist() == centers.tolist()
        assert res.assignment.labels.tolist() == labels.tolist()
        assert res.value == value
        assert res.diagnostics["work"]["flows"] > 0


@pytest.mark.parametrize("objective", ["median", "means"])
def test_degenerate_coincident_input(objective):
    # every candidate distance is zero: the first multiset's one-rung flow
    # costs 0.0, which ends the sweep, and the labels come from that flow
    ps = bc.PointSet(np.zeros((12, 2)))
    res = bc.solve_balanced(ps, 3, bc.BalanceBounds(2, 6), objective=objective, seed=3)
    assert res.value == 0.0
    assert res.assignment.labels.tolist() == [0] * 6 + [1] * 4 + [2] * 2
    diag = res.diagnostics
    assert diag["work"]["flows"] == 1
    assert diag["tuples_pruned"] == diag["tuples_evaluated"] - 1
    # a non-metric matrix whose candidates' rows are partly all zero gives
    # what a flow on every multiset gives; with L = 4 only the multisets of
    # zero rows cost 0.0, so one wins after flows of mixed multisets
    mat = euclidean_matrix(np.random.default_rng(850).standard_normal((12, 2)))
    mat[[1, 4]] = mat[:, [1, 4]] = 0.0
    oracle = bc.MatrixOracle(mat)
    candidates = np.array([6, 9, 1, 0, 4])
    bounds = bc.BalanceBounds(4, 6)
    for k in (2, 3):
        res = bc.solve_balanced(oracle, k, bounds, objective=objective, generator=FixedGenerator(candidates))
        lp, centers, labels, value = _unpruned_reference(oracle, candidates, k, bounds, 1.0, objective)
        assert res.diagnostics["lp_objective"] == lp == 0.0
        assert res.centers.tolist() == centers.tolist()
        assert res.assignment.labels.tolist() == labels.tolist()
        assert res.value == value


@pytest.mark.parametrize("objective", ["median", "means"])
def test_default_solve_computes_each_candidate_column_once(objective):
    # the sweep reads the distance rows that the bicriteria sampler built, so
    # a solve asks the oracle for n (m + k) distances: m sampled columns
    # plus the k columns of the final evaluation
    n, k = 30, 2
    points = random_points(44, n, 2).points
    calls = [0]

    def fn(i, j):
        calls[0] += 1
        return float(np.sqrt(((points[i] - points[j]) ** 2).sum()))

    oracle = bc.CallbackOracle(fn, n)
    bounds = bc.BalanceBounds(12, 18)
    res = bc.solve_balanced(oracle, k, bounds, objective=objective, seed=9)
    m = res.diagnostics["num_candidates"]
    assert m == 8 * k
    assert calls[0] == n * (m + k)

    # the same candidates through the plain generator path, which asks the
    # oracle for the columns again, give the same solve
    candidates, _ = bc.bicriteria_centers(oracle, k, seed=9, objective=objective)
    plain = bc.solve_balanced(oracle, k, bounds, objective=objective, generator=FixedGenerator(candidates))
    assert plain.centers.tolist() == res.centers.tolist()
    assert plain.assignment.labels.tolist() == res.assignment.labels.tolist()
    assert plain.value == res.value
    assert plain.diagnostics["lp_objective"] == res.diagnostics["lp_objective"]


def test_each_flow_is_solved_once(monkeypatch):
    # the winner is expanded from the flow the sweep kept, so a solve runs
    # exactly the sweep's flows; an all-coincident input runs one
    calls = [0]
    solve = kmedian.min_cost_max_flow

    def counted(net):
        calls[0] += 1
        return solve(net)

    monkeypatch.setattr(kmedian, "min_cost_max_flow", counted)
    cases = [
        (random_points(50, 40, 2), bc.BalanceBounds(10, 16), lambda flows: flows > 0),
        (bc.PointSet(np.zeros((12, 2))), bc.BalanceBounds(4, 4), lambda flows: flows == 1),
    ]
    for objective in ("median", "means"):
        for ps, bounds, expected in cases:
            calls[0] = 0
            res = bc.solve_balanced(ps, 3, bounds, objective=objective, seed=3)
            assert calls[0] == res.diagnostics["work"]["flows"]
            assert expected(calls[0])


@pytest.mark.parametrize("field", ["keys", "counts"])
def test_winner_regrouping_must_match_its_sweep_flow(monkeypatch, field):
    # the kept flow is expanded over the winner's regions grouped again with
    # members; a grouping whose keys or counts differ must not be expanded
    group = kmedian.build_level_regions

    def regroup(cols, schedule, with_members=True):
        table = group(cols, schedule, with_members=with_members)
        if not with_members:
            return table
        return dataclasses.replace(table, **{field: getattr(table, field) + 1})

    monkeypatch.setattr(kmedian, "build_level_regions", regroup)
    with pytest.raises(bc.StructureError, match="^winning tuple's regions differ from those of its sweep flow$"):
        bc.solve_balanced(random_points(52, 30, 2), 2, bc.BalanceBounds(12, 18), seed=1)


@pytest.mark.parametrize("matrix", [False, True])
def test_candidate_indices_out_of_range_rejected(matrix):
    # a candidate index outside [0, n) fails before any column is read;
    # negative indices do not wrap to the end
    ps = random_points(51, 12, 2)
    source = bc.MatrixOracle(euclidean_matrix(ps.points)) if matrix else ps
    bounds = bc.BalanceBounds(3, 6)
    for indices, bad in (([-2, 3, 7, 9], -2), ([40, 3], 40), ([3, 12], 12)):
        with pytest.raises(bc.InputError, match=rf"^center index {bad} out of range for 12 points$"):
            bc.solve_balanced(source, 2, bounds, generator=FixedGenerator(indices))


def test_non_integer_candidate_indices_rejected():
    # a generator's float indices fail instead of being truncated to points
    ps = random_points(53, 12, 2)
    with pytest.raises(bc.InputError, match="^center indices must be integers, got dtype float64$"):
        bc.solve_balanced(ps, 2, bc.BalanceBounds(3, 6), generator=FixedGenerator([0.5, 3.7, 7.2]))


@pytest.mark.parametrize("indices", [[[0, 5, 9]], [[0, 5], [9, 11]]])
def test_candidate_indices_not_1d_rejected(indices):
    # a generator output of another shape fails before any column is read
    ps = random_points(54, 30, 2)
    with pytest.raises(bc.InputError, match="^candidate generator must return a non-empty 1-d array of point indices$"):
        bc.solve_balanced(ps, 3, bc.BalanceBounds(8, 12), generator=FixedGenerator(indices))
