"""Small bipartite flow engine for region-to-cluster assignment counts.

Networks here have one supply node per nonempty region and k cluster nodes
with demand L and capacity U, so graph sizes are independent of n. Node
demands are removed with the standard super-source/super-sink reduction,
and one engine, successive shortest paths with potentials, solves every
flow: min-cost max flow directly, and the feasibility question of
``max_flow`` as a min-cost flow. All supplies and capacities are integers,
so every returned flow is integral. k-center probes need no flow; they
decide feasibility from mask counts (``kcenter.hall_feasible``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import InputError, StructureError
from .regions import RegionTable, LevelSchedule

COST_TOL = 1e-9


@dataclass(frozen=True)
class FlowNetwork:
    """Bipartite counting network: regions supply points, clusters take
    between ``lower`` and ``upper`` of them; one edge per admissible
    (region, cluster) pair with an optional cost per unit."""

    supplies: np.ndarray
    k: int
    lower: int
    upper: int
    edge_region: np.ndarray
    edge_cluster: np.ndarray
    edge_cost: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("network needs k >= 1")
        if self.lower < 0 or self.upper < self.lower:
            raise InputError(f"need 0 <= lower <= upper, got [{self.lower}, {self.upper}]")
        if np.any(self.supplies < 1):
            raise InputError("every region must supply at least one point")
        if np.any(self.edge_cost < 0):
            raise InputError("edge costs must be non-negative")

    @property
    def num_regions(self) -> int:
        return int(self.supplies.size)

    @property
    def num_edges(self) -> int:
        return int(self.edge_region.size)

    @property
    def total_supply(self) -> int:
        return int(self.supplies.sum())


@dataclass
class FlowSolution:
    """Per-edge flow values (aligned with the network's edge arrays)."""

    flows: np.ndarray
    total: float
    cost: float

    def is_integral(self, tol: float = 1e-9) -> bool:
        return bool(np.all(np.abs(self.flows - np.rint(self.flows)) <= tol))


def coverage_network(keys: np.ndarray, counts: np.ndarray, k: int, lower: int, upper: int) -> FlowNetwork:
    """Zero-cost network from coverage bitmask regions: region -> cluster j
    edge exists iff bit j of the region's mask is set."""
    er, ec = [], []
    for r, mask in enumerate(keys):
        m = int(mask)
        if m == 0:
            raise InputError("coverage region with empty mask")
        for j in range(k):
            if m >> j & 1:
                er.append(r)
                ec.append(j)
    return FlowNetwork(
        supplies=np.asarray(counts, dtype=np.int64),
        k=k,
        lower=int(lower),
        upper=int(upper),
        edge_region=np.asarray(er, dtype=np.int64),
        edge_cluster=np.asarray(ec, dtype=np.int64),
        edge_cost=np.zeros(len(er)),
    )


def level_network(
    regions: RegionTable,
    schedule: LevelSchedule,
    lower: int,
    upper: int,
    squared: bool = False,
) -> FlowNetwork:
    """Cost network from ring-level regions: every region connects to all k
    clusters; the edge to cluster j costs the region's ring radius at j
    (squared for the sum-of-squares objective, zero for exact hits)."""
    if regions.levels is None:
        raise InputError("level network needs a level-kind region table")
    nr = regions.num_regions
    k = regions.k
    er = np.repeat(np.arange(nr, dtype=np.int64), k)
    ec = np.tile(np.arange(k, dtype=np.int64), nr)
    cost = schedule.ring_costs(squared)[regions.levels + 1].ravel()
    return FlowNetwork(
        supplies=regions.counts.astype(np.int64),
        k=k,
        lower=int(lower),
        upper=int(upper),
        edge_region=er,
        edge_cluster=ec,
        edge_cost=cost,
    )


class _Graph:
    """Adjacency-array residual graph; arc i and i^1 are mutual reverses."""

    __slots__ = ("num_nodes", "to", "cap", "cost", "adj")

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]

    def add(self, u: int, v: int, cap: int, cost: float = 0.0) -> int:
        arc = len(self.to)
        self.to.append(v)
        self.cap.append(int(cap))
        self.cost.append(float(cost))
        self.adj[u].append(arc)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-float(cost))
        self.adj[v].append(arc + 1)
        return arc


@dataclass
class ReducedInstance:
    """Standard max-flow instance equivalent to the demand-constrained
    network: a max flow saturating ``required`` units from source to sink
    corresponds one-to-one with a feasible flow of the original."""

    graph: _Graph
    source: int
    sink: int
    required: int
    edge_arcs: np.ndarray  # arc id of each original region->cluster edge
    cluster_demand_arcs: np.ndarray  # cluster -> aux sink arcs carrying L each


def reduce_demands_to_capacities(net: FlowNetwork) -> ReducedInstance:
    """Replace the cluster demand L with shifted capacities plus auxiliary
    source/sink arcs.

    Node layout: 0 aux source, 1 inner source, 2 inner sink, 3 aux sink,
    then regions, then clusters. The region supply equalities become
    aux-source arcs of capacity n_sig; each cluster's lower bound L moves to
    a cluster -> aux-sink arc; the residual U - L stays on cluster -> inner
    sink; a closing inner-sink -> inner-source arc makes it a circulation.
    """
    nr, k = net.num_regions, net.k
    g = _Graph(4 + nr + k)
    s_aux, s_in, t_in, t_aux = 0, 1, 2, 3
    region0, cluster0 = 4, 4 + nr
    n = net.total_supply

    for r in range(nr):
        g.add(s_aux, region0 + r, int(net.supplies[r]))
    if net.lower > 0:
        g.add(s_aux, t_in, net.lower * k)
    g.add(s_in, t_aux, n)
    g.add(t_in, s_in, n)

    edge_arcs = np.empty(net.num_edges, dtype=np.int64)
    for e in range(net.num_edges):
        r = int(net.edge_region[e])
        j = int(net.edge_cluster[e])
        edge_arcs[e] = g.add(region0 + r, cluster0 + j, int(net.supplies[r]), float(net.edge_cost[e]))

    demand_arcs = np.empty(k, dtype=np.int64)
    for j in range(k):
        g.add(cluster0 + j, t_in, net.upper - net.lower)
        demand_arcs[j] = g.add(cluster0 + j, t_aux, net.lower) if net.lower > 0 else -1

    required = n + net.lower * k
    return ReducedInstance(
        graph=g,
        source=s_aux,
        sink=t_aux,
        required=required,
        edge_arcs=edge_arcs,
        cluster_demand_arcs=demand_arcs,
    )


def _extract_solution(net: FlowNetwork, red: ReducedInstance) -> FlowSolution:
    g = red.graph
    flows = np.empty(net.num_edges)
    for e in range(net.num_edges):
        arc = int(red.edge_arcs[e])
        flows[e] = g.cap[arc ^ 1]  # reverse capacity equals pushed flow
    sol = FlowSolution(flows=flows, total=float(flows.sum()), cost=float(flows @ net.edge_cost))
    validate_solution(net, sol)
    return sol


def max_flow(net: FlowNetwork) -> FlowSolution | None:
    """Feasible integral assignment flow of value n, or None when the
    demands cannot be met. Any min-cost flow is feasible; on the zero-cost
    coverage networks every feasible flow is a min-cost one."""
    return min_cost_max_flow(net)


def min_cost_max_flow(net: FlowNetwork) -> FlowSolution | None:
    """Minimum-cost feasible flow via successive shortest paths.

    Potentials keep reduced costs non-negative, so Dijkstra suffices after
    the zero initialization (all arc costs are non-negative by construction).
    """
    red = reduce_demands_to_capacities(net)
    g = red.graph
    num = g.num_nodes
    potential = [0.0] * num
    pushed = 0
    inf = float("inf")
    while pushed < red.required:
        dist = [inf] * num
        parent_arc = [-1] * num
        done = [False] * num
        dist[red.source] = 0.0
        heap = [(0.0, red.source)]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for arc in g.adj[u]:
                if g.cap[arc] <= 0:
                    continue
                v = g.to[arc]
                if done[v]:
                    continue
                # Residual arcs have non-negative reduced cost up to float
                # noise; clamping keeps Dijkstra's settled-node invariant.
                rc = g.cost[arc] + potential[u] - potential[v]
                if rc < 0.0:
                    rc = 0.0
                nd = d + rc
                if nd < dist[v]:
                    dist[v] = nd
                    parent_arc[v] = arc
                    heapq.heappush(heap, (nd, v))
        if dist[red.sink] == inf:
            return None
        for v in range(num):
            if dist[v] < inf:
                potential[v] += dist[v]
        bottleneck = red.required - pushed
        v = red.sink
        while v != red.source:
            arc = parent_arc[v]
            bottleneck = min(bottleneck, g.cap[arc])
            v = g.to[arc ^ 1]
        v = red.sink
        while v != red.source:
            arc = parent_arc[v]
            g.cap[arc] -= bottleneck
            g.cap[arc ^ 1] += bottleneck
            v = g.to[arc ^ 1]
        pushed += bottleneck
    return _extract_solution(net, red)


def validate_solution(net: FlowNetwork, sol: FlowSolution, tol: float = 1e-9) -> None:
    """Post-hoc conservation and bound checks; raises on violation."""
    if np.any(sol.flows < -tol):
        raise StructureError("negative edge flow")
    region_out = np.bincount(net.edge_region, weights=sol.flows, minlength=net.num_regions)
    if not np.allclose(region_out, net.supplies, rtol=0, atol=tol):
        raise StructureError("region outflow does not match supply")
    cluster_in = np.bincount(net.edge_cluster, weights=sol.flows, minlength=net.k)
    if np.any(cluster_in < net.lower - tol) or np.any(cluster_in > net.upper + tol):
        raise StructureError(
            f"cluster inflow {cluster_in.tolist()} violates [{net.lower}, {net.upper}]"
        )


def cluster_inflows(net: FlowNetwork, flows: np.ndarray) -> np.ndarray:
    return np.bincount(net.edge_cluster, weights=flows, minlength=net.k)


def residual_has_negative_cycle(net: FlowNetwork, sol: FlowSolution, tol: float = COST_TOL) -> bool:
    """Bellman-Ford certificate: an optimal solution admits no residual cycle
    of negative total cost among the region/cluster edges."""
    nodes = net.num_regions + net.k
    arcs = []
    for e in range(net.num_edges):
        r = int(net.edge_region[e])
        j = net.num_regions + int(net.edge_cluster[e])
        c = float(net.edge_cost[e])
        if sol.flows[e] < net.supplies[r] - tol:  # forward residual capacity
            arcs.append((r, j, c))
        if sol.flows[e] > tol:
            arcs.append((j, r, -c))
    dist = [0.0] * nodes
    for _ in range(nodes):
        changed = False
        for u, v, c in arcs:
            if dist[u] + c < dist[v] - tol:
                dist[v] = dist[u] + c
                changed = True
        if not changed:
            return False
    return True
