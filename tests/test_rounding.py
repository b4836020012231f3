import numpy as np
import pytest

import balclust as bc
from balclust.flow import FlowSolution, cluster_inflows, max_flow, min_cost_max_flow
from balclust.rounding import (
    FRACTIONAL_TOL,
    adjust_cycle,
    adjust_path,
    build_residue,
    grow_structure,
    round_to_integral,
)

from test_flow import make_net


def fractional_count(flows):
    return int(sum(1 for x in flows if abs(x - round(x)) > FRACTIONAL_TOL))


def check_structure(kind, edges, nodes, net, residue):
    """Independent structural checker: alternation, incidence, maximality."""
    assert len(set(edges)) == len(edges)
    if kind == "cycle":
        assert len(edges) % 2 == 0 and len(edges) == len(nodes)
        ring = nodes + [nodes[0]]
    else:
        assert len(nodes) == len(edges) + 1
        assert nodes[0] >= net.num_regions and nodes[-1] >= net.num_regions
        # endpoints have exactly one fractional edge
        for endpoint in (nodes[0], nodes[-1]):
            assert len(residue.adjacency[endpoint]) == 1
        ring = nodes
    for i, e in enumerate(edges):
        u, v = ring[i], ring[i + 1]
        r = int(net.edge_region[e])
        b = net.num_regions + int(net.edge_cluster[e])
        assert {u, v} == {r, b}
    # alternation between region and cluster nodes
    for i in range(len(nodes) - 1):
        assert (nodes[i] >= net.num_regions) != (nodes[i + 1] >= net.num_regions)


def test_grow_four_cycle():
    net = make_net([2, 2], 2, 1, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
    flows = np.array([1.5, 0.5, 0.5, 1.5])
    residue = build_residue(net, flows)
    kind, edges, nodes = grow_structure(residue, net)
    assert kind == "cycle"
    assert sorted(edges) == [0, 1, 2, 3]
    check_structure(kind, edges, nodes, net, residue)


def test_grow_cluster_path():
    net = make_net([2], 2, 1, 3, [(0, 0), (0, 1)])
    flows = np.array([0.5, 1.5])
    residue = build_residue(net, flows)
    kind, edges, nodes = grow_structure(residue, net)
    assert kind == "path"
    assert sorted(edges) == [0, 1]
    check_structure(kind, edges, nodes, net, residue)


def test_residue_rejects_single_fractional_region_edge():
    net = make_net([2], 2, 0, 2, [(0, 0), (0, 1)])
    with pytest.raises(bc.StructureError):
        build_residue(net, np.array([0.5, 1.0]))


def test_cycle_rounding_preserves_throughputs():
    # edge-id order (R0B0, R0B1, R1B0, R1B1) with flows (1.5, 0.5, 1.5, 0.5)
    net = make_net([2, 2], 2, 1, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
    flows = np.array([1.5, 0.5, 1.5, 0.5])
    sol = FlowSolution(flows=flows, total=4.0, cost=0.0)
    before = cluster_inflows(net, flows).copy()
    rounded = round_to_integral(sol, net, mode="feasibility")
    assert rounded.flows.tolist() in ([1.0, 1.0, 2.0, 0.0], [2.0, 0.0, 1.0, 1.0])
    assert np.allclose(cluster_inflows(net, rounded.flows), before)


def test_adjust_cycle_delta():
    net = make_net([3, 3], 2, 2, 4, [(0, 0), (0, 1), (1, 1), (1, 0)])
    # cycle order: e0 (R0,B0), e1 (R0,B1), e2 (R1,B1), e3 (R1,B0)
    flows = np.array([2.3, 0.7, 1.3, 1.7])
    delta = adjust_cycle(flows, [0, 1, 2, 3], net)
    assert delta == pytest.approx(0.3)
    assert abs(flows[0] - 2.0) < 1e-12


def test_adjust_cycle_detects_nonzero_alternating_sum():
    net = make_net(
        [2, 2], 2, 1, 3,
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        costs=[1.0, 0.5, 1.0, 1.0],
    )
    flows = np.array([1.5, 0.5, 0.5, 1.5])
    with pytest.raises(bc.OptimalityViolationError):
        adjust_cycle(flows, [0, 1, 3, 2], net, mode="min-cost")


def test_path_rounding_endpoints_hit_bounds():
    # B0 carries 2.5 = 0.5 + 2 (integral side edge), B1 carries 3.5 = 1.5 + 2
    net = make_net(
        [2, 2, 2], 2, 2, 4,
        [(0, 0), (0, 1), (1, 0), (2, 1)],
    )
    flows = np.array([0.5, 1.5, 2.0, 2.0])
    residue = build_residue(net, flows)
    kind, edges, nodes = grow_structure(residue, net)
    assert kind == "path"
    delta = adjust_path(flows, edges, nodes, net)
    assert delta == pytest.approx(0.5)
    assert flows[0] == pytest.approx(0.0) and flows[1] == pytest.approx(2.0)
    inflows = cluster_inflows(net, flows)
    # endpoints land exactly on the closed bounds and stay legal
    assert inflows.tolist() == [2.0, 4.0]


def test_round_integral_input_unchanged():
    net = make_net([2, 2], 2, 2, 2, [(0, 0), (1, 1)])
    sol = max_flow(net)
    rounded = round_to_integral(sol, net)
    assert np.array_equal(rounded.flows, sol.flows)


def test_round_restores_equal_cost_after_neutral_perturbation():
    rng = np.random.default_rng(3)
    restored = 0
    for _ in range(50):
        k = 2
        nr = int(rng.integers(2, 5))
        supplies = rng.integers(2, 5, size=nr)
        edges = [(r, j) for r in range(nr) for j in range(k)]
        # identical cluster-cost gap per region makes every 4-cycle neutral
        base = rng.uniform(0, 3, size=nr)
        costs = np.empty(nr * k)
        for r in range(nr):
            costs[r * k] = base[r]
            costs[r * k + 1] = base[r] + 1.0
        n = int(supplies.sum())
        net = make_net(supplies, k, 1, n, edges, costs)
        sol = min_cost_max_flow(net)
        assert sol is not None
        flows = sol.flows.copy()
        delta = 0.25
        applied = False
        for r1 in range(nr):
            for r2 in range(r1 + 1, nr):
                for sign in (+1, -1):
                    d = sign * delta
                    pattern = {r1 * k: +d, r1 * k + 1: -d, r2 * k: -d, r2 * k + 1: +d}
                    if all(flows[e] + dd >= 0 for e, dd in pattern.items()):
                        for e, dd in pattern.items():
                            flows[e] += dd
                        applied = True
                        break
                if applied:
                    break
            if applied:
                break
        if not applied:
            continue
        frac = FlowSolution(flows=flows, total=float(flows.sum()), cost=float(flows @ net.edge_cost))
        assert frac.cost == pytest.approx(sol.cost, abs=1e-9)
        rounded = round_to_integral(frac, net, mode="min-cost")
        assert rounded.is_integral()
        assert rounded.cost == pytest.approx(sol.cost, abs=1e-9)
        assert rounded.total == pytest.approx(sol.total)
        restored += 1
    assert restored >= 30


def test_round_three_cluster_fractional_flow_against_enumeration():
    from conftest import enumerate_network_optimum

    net = make_net(
        [2, 2, 2], 3, 2, 2,
        [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)],
    )
    flows = np.array([1.5, 0.5, 1.5, 0.5, 1.5, 0.5])
    frac = FlowSolution(flows=flows, total=6.0, cost=0.0)
    rounded = round_to_integral(frac, net, mode="feasibility")
    assert rounded.is_integral()
    assert rounded.total == 6.0
    feasible, _, _ = enumerate_network_optimum(net)
    assert feasible


def test_fractional_count_strictly_decreases():
    net = make_net(
        [3, 3, 2], 2, 2, 6,
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)],
    )
    flows = np.array([1.25, 1.75, 2.5, 0.5, 0.75, 1.25])
    frac = FlowSolution(flows=flows, total=8.0, cost=0.0)
    counts = [fractional_count(flows)]

    def watch(kind, edges, snapshot):
        counts.append(fractional_count(snapshot))
        inflows = cluster_inflows(net, snapshot)
        assert np.all(inflows >= net.lower - 1e-9)
        assert np.all(inflows <= net.upper + 1e-9)

    rounded = round_to_integral(frac, net, mode="feasibility", inspect=watch)
    assert rounded.is_integral()
    assert all(b < a for a, b in zip(counts, counts[1:]))


def test_fuzz_structures_verified_by_checker():
    rng = np.random.default_rng(9)
    for _ in range(40):
        k = int(rng.integers(2, 4))
        nr = int(rng.integers(2, 6))
        supplies = rng.integers(2, 6, size=nr)
        edges = [(r, j) for r in range(nr) for j in range(k)]
        n = int(supplies.sum())
        net = make_net(supplies, k, 1, n, edges)
        sol = max_flow(net)
        flows = sol.flows.copy()
        # random feasibility-preserving cycle perturbations
        for _ in range(3):
            r1, r2 = rng.choice(nr, size=2, replace=False)
            j1, j2 = rng.choice(k, size=2, replace=False)
            eps = float(rng.uniform(0.05, 0.45))
            e = {(r1, j1): +eps, (r1, j2): -eps, (r2, j1): -eps, (r2, j2): +eps}
            ids = {pair: list(zip(net.edge_region, net.edge_cluster)).index(pair) for pair in e}
            if all(flows[ids[p]] + d >= 0 for p, d in e.items()):
                for p, d in e.items():
                    flows[ids[p]] += d
        if fractional_count(flows) == 0:
            continue
        residue = build_residue(net, flows)
        kind, edges_out, nodes = grow_structure(residue, net)
        check_structure(kind, edges_out, nodes, net, residue)
        frac = FlowSolution(flows=flows, total=float(flows.sum()), cost=0.0)
        rounded = round_to_integral(frac, net, mode="feasibility")
        assert rounded.is_integral()
        assert rounded.total == pytest.approx(n)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan and inf arithmetic
def test_round_rejects_non_finite_flow():
    # a non-finite flow is not fractional, so it reaches validate_solution
    net = make_net([2, 2], 2, 1, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
    for bad in (np.nan, np.inf, -np.inf):
        for flows in ([1.0, 1.0, bad, 1.0], [1.5, 0.5, bad, 1.5]):
            flows = np.array(flows)
            with pytest.raises(bc.StructureError):
                round_to_integral(FlowSolution(flows, float(flows.sum()), 0.0), net)
