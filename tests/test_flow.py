import numpy as np
import pytest
from scipy.optimize import linprog

import balclust as bc
from balclust.flow import (
    FlowNetwork,
    coverage_network,
    level_network,
    max_flow,
    min_cost_max_flow,
    validate_solution,
)
from balclust.oracle import exists_balanced_assignment, residual_has_negative_cycle
from balclust.regions import build_level_regions, build_level_schedule

from conftest import enumerate_network_optimum


def make_net(supplies, k, lower, upper, edges, costs=None):
    er = np.array([e[0] for e in edges], dtype=np.int64)
    ec = np.array([e[1] for e in edges], dtype=np.int64)
    cost = np.zeros(len(edges)) if costs is None else np.asarray(costs, dtype=np.float64)
    return FlowNetwork(
        supplies=np.asarray(supplies, dtype=np.int64),
        k=k,
        lower=lower,
        upper=upper,
        edge_region=er,
        edge_cluster=ec,
        edge_cost=cost,
    )


def allowed_matrix(net):
    """Per-point allowed-cluster matrix for the independent per-point oracle."""
    rows = []
    for r in range(net.num_regions):
        row = np.zeros(net.k, dtype=bool)
        for e in range(net.num_edges):
            if net.edge_region[e] == r:
                row[net.edge_cluster[e]] = True
        for _ in range(int(net.supplies[r])):
            rows.append(row)
    return np.array(rows)


def test_feasibility_matches_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        nr = int(rng.integers(1, 5))
        supplies = rng.integers(1, 4, size=nr)
        edges = []
        for r in range(nr):
            incident = rng.permutation(k)[: int(rng.integers(1, k + 1))]
            edges.extend((r, int(j)) for j in sorted(incident))
        n = int(supplies.sum())
        lower = int(rng.integers(0, max(1, n // k) + 1))
        upper = int(rng.integers(max(1, lower), n + 1))
        net = make_net(supplies, k, lower, upper, edges)
        feasible, _, _ = enumerate_network_optimum(net)
        sol = max_flow(net)
        assert (sol is not None) == feasible
        if sol is not None:
            assert sol.total == n
            assert sol.is_integral()
            validate_solution(net, sol)


def test_max_flow_forced_assignment():
    net = make_net([2, 2], 2, 2, 2, [(0, 0), (1, 1)])
    sol = max_flow(net)
    assert sol.flows.tolist() == [2.0, 2.0]


def test_max_flow_unreachable_demand():
    net = make_net([3], 2, 1, 2, [(0, 0)])
    assert max_flow(net) is None


def test_feasibility_agrees_with_point_oracle():
    rng = np.random.default_rng(14)
    for _ in range(60):
        k = int(rng.integers(2, 4))
        nr = int(rng.integers(1, 8))
        supplies = rng.integers(1, 3, size=nr)
        edges = []
        for r in range(nr):
            incident = rng.permutation(k)[: int(rng.integers(1, k + 1))]
            edges.extend((r, int(j)) for j in sorted(incident))
        n = int(supplies.sum())
        lower = int(rng.integers(0, max(1, n // k) + 1))
        upper = int(rng.integers(max(1, lower), n + 1))
        net = make_net(supplies, k, lower, upper, edges)
        verdict = max_flow(net) is not None
        oracle_verdict = exists_balanced_assignment(allowed_matrix(net), lower, upper)
        assert verdict == oracle_verdict


def test_min_cost_symmetric_split():
    schedule = build_level_schedule(1.0, 1.0, 1.0)
    regions = build_level_regions(np.array([[1.0, 1.0], [1.0, 1.0]]), schedule)
    net = level_network(regions, schedule, 1, 1)
    sol = min_cost_max_flow(net)
    assert sol is not None
    assert sol.cost == pytest.approx(2 * schedule.alphas[0])
    assert sorted(sol.flows.tolist()) == [1.0, 1.0]


def test_min_cost_prefers_cheap_edge():
    net = make_net([2], 2, 0, 2, [(0, 0), (0, 1)], costs=[1.0, 10.0])
    sol = min_cost_max_flow(net)
    assert sol.flows.tolist() == [2.0, 0.0]
    assert sol.cost == pytest.approx(2.0)


def test_min_cost_matches_exhaustive_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        nr = int(rng.integers(1, 5))
        supplies = rng.integers(1, 4, size=nr)
        edges = []
        costs = []
        for r in range(nr):
            incident = rng.permutation(k)[: int(rng.integers(1, k + 1))]
            for j in sorted(incident):
                edges.append((r, int(j)))
                costs.append(float(rng.uniform(0, 5)))
        n = int(supplies.sum())
        lower = int(rng.integers(0, max(1, n // k) + 1))
        upper = int(rng.integers(max(1, lower), n + 1))
        net = make_net(supplies, k, lower, upper, edges, costs)
        feasible, best_cost, _ = enumerate_network_optimum(net)
        sol = min_cost_max_flow(net)
        assert (sol is not None) == feasible
        if sol is not None:
            assert sol.is_integral()
            assert sol.cost == pytest.approx(best_cost, abs=1e-9)
            validate_solution(net, sol)
            assert not residual_has_negative_cycle(net, sol)


def test_coverage_network_structure():
    net = coverage_network(np.array([0b01, 0b11]), np.array([2, 3]), 2, 1, 4)
    assert net.num_edges == 3
    assert net.edge_region.tolist() == [0, 1, 1]
    assert net.edge_cluster.tolist() == [0, 0, 1]


def test_network_validation():
    with pytest.raises(bc.InputError):
        make_net([0], 1, 0, 1, [(0, 0)])  # empty region
    with pytest.raises(bc.InputError):
        make_net([1], 1, 2, 1, [(0, 0)])  # lower > upper
    with pytest.raises(bc.InputError):
        make_net([1], 1, 0, 1, [(0, 0)], costs=[-1.0])


def transport_lp(net):
    """Region-level transportation LP of the network, independent of the
    flow engine: (feasible, optimal cost)."""
    m = net.num_edges
    a_eq = np.zeros((net.num_regions, m))
    a_eq[net.edge_region, np.arange(m)] = 1.0
    inflow = np.zeros((net.k, m))
    inflow[net.edge_cluster, np.arange(m)] = 1.0
    res = linprog(
        net.edge_cost,
        A_ub=np.vstack([inflow, -inflow]),
        b_ub=np.concatenate([np.full(net.k, net.upper), np.full(net.k, -net.lower)]),
        A_eq=a_eq,
        b_eq=net.supplies,
        bounds=(0, None),
        method="highs",
    )
    return res.status == 0, res.fun


def random_net(rng, k, nr, complete, cost_kind):
    supplies = rng.integers(1, 6, size=nr)
    edges = []
    for r in range(nr):
        incident = range(k) if complete else sorted(rng.permutation(k)[: int(rng.integers(1, k + 1))])
        edges.extend((r, int(j)) for j in incident)
    if cost_kind == "zero":
        costs = np.zeros(len(edges))
    elif cost_kind == "discrete":
        costs = rng.integers(0, 4, size=len(edges)).astype(np.float64)
    else:
        costs = rng.uniform(0, 5, size=len(edges))
    n = int(supplies.sum())
    lower = int(rng.integers(0, min(n, n // k + 1) + 1))
    upper = int(rng.integers(max(1, lower), n + 1))
    return make_net(supplies, k, lower, upper, edges, costs)


def assert_matches_lp(net):
    feasible, lp_cost = transport_lp(net)
    sol = min_cost_max_flow(net)
    assert (sol is not None) == feasible
    if sol is None:
        return False
    assert sol.cost == pytest.approx(lp_cost, rel=1e-9, abs=1e-9)
    assert sol.is_integral()
    validate_solution(net, sol)
    assert not residual_has_negative_cycle(net, sol)
    return True


@pytest.mark.filterwarnings("error::RuntimeWarning")  # e.g. inf - inf of two missing edges
def test_min_cost_matches_transportation_lp():
    rng = np.random.default_rng(17)
    verdicts = []
    for i in range(240):
        k = int(rng.integers(1, 7))
        nr = int(rng.integers(100, 201)) if i % 20 == 0 else int(rng.integers(1, 30))
        net = random_net(rng, k, nr, complete=i % 2 == 0, cost_kind=("zero", "discrete", "continuous")[i % 3])
        verdicts.append(assert_matches_lp(net))
    assert 20 < sum(verdicts) < len(verdicts) - 20  # both verdicts occur


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_min_cost_edge_cases_match_transportation_lp():
    rng = np.random.default_rng(18)
    for i in range(30):
        kind = ("zero", "discrete", "continuous")[i % 3]
        k = int(rng.integers(1, 7))
        # L = 0 and U = n: every region stays at its cheapest cluster
        net = random_net(rng, k, 12, complete=False, cost_kind=kind)
        edges = list(zip(net.edge_region.tolist(), net.edge_cluster.tolist()))
        assert assert_matches_lp(make_net(net.supplies, k, 0, net.total_supply, edges, net.edge_cost))
        # one cluster, with bounds around n
        net = random_net(rng, 1, 5, complete=True, cost_kind=kind)
        n = net.total_supply
        for lower, upper in ((n, n), (0, n - 1), (n + 1, n + 2)):
            one = make_net(net.supplies, 1, lower, upper, [(r, 0) for r in range(5)], net.edge_cost)
            assert assert_matches_lp(one) == (lower <= n <= upper)
        # a single region
        net = random_net(rng, k, 1, complete=True, cost_kind=kind)
        assert_matches_lp(net)
    # infeasible bounds: too little room, too much demand, unreachable cluster
    assert not assert_matches_lp(make_net([5, 4], 2, 0, 4, [(0, 0), (0, 1), (1, 1)]))
    assert not assert_matches_lp(make_net([5, 4], 3, 4, 9, [(0, 0), (0, 1), (1, 1), (1, 2)]))
    assert not assert_matches_lp(make_net([3, 3], 3, 1, 6, [(0, 0), (1, 0), (1, 1)], [0.0, 1.0, 0.0]))


def test_min_cost_region_spread_over_three_clusters():
    """One region split over three clusters gives exchange cycles whose
    costs telescope to zero but sum to float dust, such as
    (0.2 - 0.1) + (0.3 - 0.2) + (0.1 - 0.3); they must neither count as
    negative cycles nor send the path walk round in a loop."""
    costs = [0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.3, 0.1, 0.2]
    edges = [(r, j) for r in range(3) for j in range(3)]
    for lower, upper in ((4, 4), (3, 6), (0, 4), (2, 5)):
        assert assert_matches_lp(make_net([6, 3, 3], 3, lower, upper, edges, costs))
    net = make_net([12], 4, 3, 3, [(0, j) for j in range(4)], [0.1, 0.2, 0.3, 0.7])
    sol = min_cost_max_flow(net)
    assert sol.flows.tolist() == [3.0, 3.0, 3.0, 3.0]
    assert sol.cost == pytest.approx(3 * (0.1 + 0.2 + 0.3 + 0.7))


def test_min_cost_moves_along_negative_path_once_bounds_hold():
    """Mending both violated clusters at once leaves a negative exchange
    path between clusters inside their bounds; the flow must follow it."""
    costs = [0.0, 2.0, 8.0, 0.0, 4.0, 3.0, 0.0, 8.0, 5.0, 1.0, 1.0, 8.0]
    edges = [(r, j) for r in range(3) for j in range(4)]
    net = make_net([2, 1, 3], 4, 1, 2, edges, costs)
    feasible, best_cost, _ = enumerate_network_optimum(net)
    sol = min_cost_max_flow(net)
    assert feasible and sol.cost == pytest.approx(best_cost) == 3.0
    assert not residual_has_negative_cycle(net, sol)
