"""Acceptance suite: one test per release criterion, each printing a PASS
line (run with ``pytest tests/test_acceptance.py -v -s``).

Pinned constants derive from independent computations: the tightness values
come from an exhaustive tuple-by-radius evaluation with the per-point flow
oracle, and the ratio percentiles were measured once on the seeded instance
stream and frozen as regression thresholds.
"""

import time

import numpy as np
import pytest

import balclust as bc
from balclust import kernels
from balclust.cli import run_scaling_bench
from balclust.flow import FlowSolution, cluster_inflows, max_flow, min_cost_max_flow
from balclust.kcenter import hall_feasible
from balclust.oracle import (
    brute_force_optimum,
    exact_balanced_assignment,
    exists_balanced_assignment,
    planted_fixture,
    tight_line_fixture,
    two_column_fixture,
)
from balclust.regions import CONTAINMENT_SLACK
from balclust.rounding import FRACTIONAL_TOL, round_to_integral

from conftest import euclidean_matrix, random_bounds, random_points
from test_flow import make_net

# Exhaustive evaluation over all 27 seed tuples and every candidate radius
# (per-point feasibility oracle) pins the solved radius per line-gap delta.
TIGHTNESS_EXPECTED = {
    0.4: 3.5999999999999996,
    0.2: 3.8,
    0.1: 3.9,
    0.05: 3.95,
}

# 95th percentile of solver/brute-force cost ratios on the seeded metric
# stream below, measured once and frozen as the regression threshold
# (measured 1.24448... and 1.53486...).
RATIO_P95_PINNED = {"median": 1.2445, "means": 1.5349}


def _random_center_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 13))
    d = int(rng.integers(1, 4))
    k = int(rng.integers(2, 4))
    points = random_points(seed + 7000, n, d, scale=float(rng.uniform(0.5, 3.0)))
    bounds = random_bounds(rng, n, k)
    return points, k, bounds


def _metric_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    d = int(rng.integers(1, 4))
    pts = np.random.default_rng(seed).standard_normal((n, d))
    oracle = bc.MatrixOracle(euclidean_matrix(pts))
    bounds = random_bounds(rng, n, 2)
    return oracle, 2, bounds


def test_criterion_1_four_approximation():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        points, k, bounds = _random_center_instance(seed)
        result = bc.solve_kbcenter(points, k, bounds)
        optimum, _, _ = brute_force_optimum(points, k, bounds, "center")
        assert result.value <= 4.0 * optimum + 1e-9, (seed, result.value, optimum)
        if optimum > 0:
            worst = max(worst, result.value / optimum)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (4-approximation, 200 instances, worst ratio {worst:.3f}, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_2_tightness_fixture():
    values = {}
    for delta in (0.4, 0.2, 0.1, 0.05):
        fx = tight_line_fixture(delta)
        result = bc.solve_kbcenter(bc.PointSet(fx.points), fx.k, fx.bounds, first_index=1)
        ratio = result.value / fx.facts["optimal_radius"]
        assert 2.0 < ratio <= 4.0
        assert result.value == pytest.approx(TIGHTNESS_EXPECTED[delta], abs=1e-9)
        values[delta] = ratio
    ordered = [values[d] for d in (0.4, 0.2, 0.1, 0.05)]
    assert ordered == sorted(ordered)  # approaches 4 as the gap shrinks
    assert ordered[-1] > ordered[0]
    print(f"\nACCEPTANCE 2 (tightness fixture, ratios {ordered}): PASS")


def test_criterion_3_tuple_product_necessity():
    fx = two_column_fixture(l=1.0, r=1.0, h=100.0)
    points = bc.PointSet(fx.points)
    pinned = bc.solve_kbcenter(points, fx.k, fx.bounds, first_index=0, tuples=[(0, 1, 2)])
    assert pinned.value >= 100.0 * (1 - 1e-9)
    full = bc.solve_kbcenter(points, fx.k, fx.bounds, first_index=0)
    assert full.value <= 4.0
    print(f"\nACCEPTANCE 3 (seed-set tuple {pinned.value:.1f} vs full search "
          f"{full.value:.1f}): PASS")


def _perturb_cycles(rng, net, flows, attempts=4):
    pairs = list(zip(net.edge_region.tolist(), net.edge_cluster.tolist()))
    index = {p: i for i, p in enumerate(pairs)}
    applied = 0
    for _ in range(attempts):
        r1, r2 = rng.choice(net.num_regions, size=2, replace=False)
        j1, j2 = rng.choice(net.k, size=2, replace=False)
        delta = float(rng.uniform(0.05, 0.45))
        for sign in (1, -1):
            d = sign * delta
            pattern = {
                index[(r1, j1)]: +d,
                index[(r1, j2)]: -d,
                index[(r2, j1)]: -d,
                index[(r2, j2)]: +d,
            }
            if all(flows[e] + dd >= 0 for e, dd in pattern.items()):
                for e, dd in pattern.items():
                    flows[e] += dd
                applied += 1
                break
    return applied


def _perturb_path(rng, net, flows):
    index = {(r, j): i for i, (r, j) in enumerate(zip(net.edge_region.tolist(), net.edge_cluster.tolist()))}
    inflow = cluster_inflows(net, flows)
    for _ in range(6):
        r = int(rng.integers(net.num_regions))
        j1, j2 = rng.choice(net.k, size=2, replace=False)
        delta = float(rng.uniform(0.05, 0.45))
        e1, e2 = index[(r, int(j1))], index[(r, int(j2))]
        if flows[e1] >= delta and inflow[j1] - delta >= net.lower and inflow[j2] + delta <= net.upper:
            flows[e1] -= delta
            flows[e2] += delta
            return 1
    return 0


def _fuzz_network(rng, additive_costs):
    k = int(rng.integers(2, 4))
    nr = int(rng.integers(2, 6))
    supplies = rng.integers(1, 6, size=nr)
    n = int(supplies.sum())
    if n < k:
        k = 2
    lower = int(rng.integers(1, n // k + 1))
    upper = int(rng.integers((n + k - 1) // k, n + 1))
    edges = [(r, j) for r in range(nr) for j in range(k)]
    if additive_costs:
        base = rng.uniform(0, 4, size=nr)
        off = rng.uniform(0, 2, size=k)
        costs = [base[r] + off[j] for r, j in edges]
    else:
        base = rng.uniform(0, 4, size=nr)
        costs = [base[r] for r, _ in edges]
    return make_net(supplies, k, lower, upper, edges, costs)


def test_criterion_4_rounding_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    alternating_sums = []

    def make_inspect(net, counts_log):
        def inspect(kind, edges, snapshot):
            inflow = cluster_inflows(net, snapshot)
            assert np.all(inflow >= net.lower - 1e-9)
            assert np.all(inflow <= net.upper + 1e-9)
            counts_log.append(
                int(sum(1 for x in snapshot if abs(x - round(x)) > FRACTIONAL_TOL))
            )
            gap = 0.0
            for i, e in enumerate(edges):
                c = float(net.edge_cost[e])
                gap += c if i % 2 == 0 else -c
            alternating_sums.append(abs(gap))

        return inspect

    trials = 0
    for trial in range(1000):
        min_cost_mode = trial % 2 == 1
        net = _fuzz_network(rng, additive_costs=min_cost_mode and trial % 4 == 1)
        solution = min_cost_max_flow(net) if min_cost_mode else max_flow(net)
        assert solution is not None
        flows = solution.flows.copy()
        applied = _perturb_cycles(rng, net, flows)
        if not min_cost_mode or trial % 4 == 3:
            applied += _perturb_path(rng, net, flows)
        frac = FlowSolution(
            flows=flows, total=float(flows.sum()), cost=float(flows @ net.edge_cost)
        )
        counts_log = [int(sum(1 for x in flows if abs(x - round(x)) > FRACTIONAL_TOL))]
        mode = "min-cost" if min_cost_mode else "feasibility"
        rounded = round_to_integral(frac, net, mode=mode, inspect=make_inspect(net, counts_log))
        assert rounded.is_integral()
        assert rounded.total == pytest.approx(solution.total, abs=1e-9)
        assert np.all(rounded.flows >= 0)
        if min_cost_mode:
            assert abs(rounded.cost - frac.cost) <= max(1, net.num_edges) * 1e-9
        assert all(b < a for a, b in zip(counts_log, counts_log[1:]))
        trials += 1
    elapsed = time.perf_counter() - start
    assert trials == 1000
    assert elapsed < 30.0
    if alternating_sums:
        assert max(alternating_sums) <= 1e-9
    print(f"\nACCEPTANCE 4 (rounding fuzz, {trials} trials, "
          f"max alternating sum {max(alternating_sums):.2e}, {elapsed:.1f}s): PASS")


def test_criterion_5_lp_sandwich():
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        points = random_points(seed + 3000, n, 2)
        bounds = random_bounds(rng, n, 2)
        centers = rng.choice(n, size=2, replace=False).tolist()
        for epsilon in (0.25, 1.0):
            for objective, power in (("median", 1), ("means", 2)):
                res = bc.assignment_lp(centers, points, bounds, epsilon, objective)
                w, _ = exact_balanced_assignment(centers, points, bounds, objective)
                assert w <= res.lp_objective + 1e-9, (seed, epsilon, objective)
                if w > 0:
                    assert res.lp_objective < (1 + epsilon) ** power * w, (seed, epsilon, objective)
                else:
                    assert res.lp_objective == 0.0
                checked += 1
    print(f"\nACCEPTANCE 5 (ring sandwich, {checked} solves): PASS")


def test_criterion_6_feasibility_oracle_agreement():
    rng = np.random.default_rng(99)
    agreements = 0
    for _ in range(500):
        n = int(rng.integers(5, 16))
        k = int(rng.integers(2, 4))
        points = random_points(int(rng.integers(1 << 30)), n, int(rng.integers(1, 4)))
        bounds = random_bounds(rng, n, k)
        tup = rng.integers(0, n, size=k)
        table = bc.distance_table(points, tup)
        ladder = np.unique(table)
        positive = ladder[ladder > 0]
        if positive.size == 0:
            continue
        if rng.uniform() < 0.7:
            r = float(rng.choice(positive))
        else:
            r = float(rng.choice(positive)) * float(rng.uniform(0.6, 1.4))
        verdict = bc.check_feasible(table, r, bounds) is not None
        allowed = table <= r * (1 + CONTAINMENT_SLACK)
        expected = exists_balanced_assignment(allowed, bounds.lower, bounds.upper)
        assert verdict == expected
        counts, uncovered = kernels.coverage_counts(table, r * (1 + CONTAINMENT_SLACK))
        assert (not uncovered and hall_feasible(counts, bounds.lower, bounds.upper)) == expected
        agreements += 1
    assert agreements >= 490
    print(f"\nACCEPTANCE 6 (feasibility oracle agreement, {agreements} probes): PASS")


def test_criterion_7_constant_factor_envelope():
    for objective in ("median", "means"):
        ratios = []
        for seed in range(100):
            oracle, k, bounds = _metric_instance(seed)
            result = bc.solve_balanced(
                oracle, k, bounds, epsilon=1.0, objective=objective,
                generator=bc.BicriteriaGenerator(seed=seed),
            )
            optimum, _, _ = brute_force_optimum(oracle, k, bounds, objective)
            ratio = result.value / optimum if optimum > 0 else 1.0
            assert np.isfinite(ratio)
            assert ratio >= 1 - 1e-12
            ratios.append(ratio)
        p95 = float(np.percentile(ratios, 95))
        assert p95 <= 30.0
        assert p95 <= RATIO_P95_PINNED[objective], (objective, p95)
        print(f"\nACCEPTANCE 7 ({objective} ratio p95 {p95:.4f} <= "
              f"{RATIO_P95_PINNED[objective]}): PASS")

    for objective in ("median", "means"):
        fx = planted_fixture(k=2, group=4, gap=40.0)
        oracle = bc.MatrixOracle(euclidean_matrix(fx.points))
        for seed in range(5):
            res = bc.solve_balanced(
                oracle, 2, fx.bounds, objective=objective,
                generator=bc.BicriteriaGenerator(seed=seed),
            )
            assert res.value == 0.0
    print("ACCEPTANCE 7 (planted zero-cost instances return exactly 0): PASS")


def test_criterion_8_scaling():
    sizes = [10_000, 20_000, 40_000]
    for objective in ("center", "median"):
        rows = run_scaling_bench(
            sizes, dim=32, k=3, objective=objective, seed=0,
            repeats=3,
        )
        times = [row["seconds"] for row in rows]
        ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
        for ratio in ratios:
            assert ratio < 2.6, (objective, times)
        print(f"\nACCEPTANCE 8 ({objective} scaling, times "
              f"{['%.3fs' % t for t in times]}, ratios {['%.2f' % r for r in ratios]}): PASS")


def test_criterion_9_balance_invariant():
    checked = 0
    for seed in range(30):
        points, k, bounds = _random_center_instance(seed)
        res = bc.solve_kbcenter(points, k, bounds)
        assert np.all(res.assignment.sizes >= bounds.lower)
        assert np.all(res.assignment.sizes <= bounds.upper)
        assert res.assignment.sizes.sum() == points.n
        checked += 1
    for seed in range(30):
        oracle, k, bounds = _metric_instance(seed)
        for objective in ("median", "means"):
            res = bc.solve_balanced(oracle, k, bounds, objective=objective, seed=seed)
            assert np.all(res.assignment.sizes >= bounds.lower)
            assert np.all(res.assignment.sizes <= bounds.upper)
            assert res.assignment.sizes.sum() == oracle.n
            checked += 1
    # expansion refuses out-of-bounds label vectors outright
    with pytest.raises(bc.StructureError):
        bc.BalancedAssignment.from_labels([0, 0, 0, 1], 2, bc.BalanceBounds(2, 2))
    print(f"\nACCEPTANCE 9 (balance invariant over {checked} solves): PASS")
