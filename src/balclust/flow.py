"""Small bipartite flow engine for region-to-cluster assignment counts.

Networks here have one supply node per nonempty region and k cluster nodes
with demand L and capacity U, so graph sizes are independent of n. One
routine, successive shortest paths over the k clusters, solves every flow:
regions start at their cheapest clusters, and flow then moves between
clusters along cheapest exchange paths until every load lies in [L, U]
(after Tokuyama & Nakano, "Efficient algorithms for the Hitchcock
transportation problem", SIAM J. Comput. 24(3), 1995). ``max_flow`` asks the
feasibility question as a min-cost flow. All supplies and bounds are
integers and every move is a whole number of units, so every returned flow
is integral. k-center probes need no flow; they decide feasibility from
mask counts (``kcenter.hall_feasible``).
"""

from __future__ import annotations

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
    keys = np.asarray(keys, dtype=np.int64)
    if np.any(keys == 0):
        raise InputError("coverage region with empty mask")
    er, ec = np.nonzero((keys[:, None] >> np.arange(k)) & 1)
    return FlowNetwork(
        supplies=np.asarray(counts, dtype=np.int64),
        k=k,
        lower=int(lower),
        upper=int(upper),
        edge_region=er.astype(np.int64),
        edge_cluster=ec.astype(np.int64),
        edge_cost=np.zeros(er.size),
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


def max_flow(net: FlowNetwork) -> FlowSolution | None:
    """Feasible integral assignment flow of value n, or None when the
    demands cannot be met. Any min-cost flow is feasible; on the zero-cost
    coverage networks every feasible flow is a min-cost one."""
    return min_cost_max_flow(net)


def _exchange_paths(arc: list[float], k: int, tol: float) -> tuple[list, list]:
    """All-pairs shortest paths of the k-node exchange graph whose arc
    a -> b costs ``arc[a * k + b]``: distances and next hops (Floyd-Warshall).

    A relaxation must gain more than ``tol``: exchange cycles telescope to
    zero in real arithmetic but to float dust here, and relaxing on dust
    would leave a cycle in the next-hop table."""
    inf = float("inf")
    dist = [arc[a * k : (a + 1) * k] for a in range(k)]
    hop = [[b if d < inf else -1 for b, d in enumerate(row)] for row in dist]
    for a in range(k):
        dist[a][a] = 0.0
        hop[a][a] = a
    for m in range(k):
        dm = dist[m]
        for a in range(k):
            dam = dist[a][m]
            if dam == inf:
                continue
            da, ha = dist[a], hop[a]
            for b in range(k):
                if dam + dm[b] < da[b] - tol:
                    da[b] = dam + dm[b]
                    ha[b] = ha[m]
    if any(dist[a][a] < -tol for a in range(k)):
        raise StructureError("negative exchange cycle: the flow is not minimum-cost")
    return dist, hop


def min_cost_max_flow(net: FlowNetwork) -> FlowSolution | None:
    """Minimum-cost feasible flow by successive shortest paths over the k
    clusters, or None when the bounds cannot be met.

    Every region starts at its cheapest cluster (lowest index on ties), the
    minimum-cost flow for the loads it gives. Moving a unit of region r from
    cluster a to b costs c[r, b] - c[r, a], so the exchange arc a -> b costs
    the least such step over the regions with flow at a. While a cluster
    lies outside [L, U], flow moves along the cheapest exchange path that
    mends a violated cluster at both ends, else at one end; then along any
    path of negative cost. Shortest paths keep the flow minimum-cost for its
    loads, and once no negative path from a cluster above L to one below U
    remains it is optimal. A violated cluster with no such path proves the
    bounds infeasible (Hall's condition fails on the clusters it reaches).
    """
    nr, k, lower, upper = net.num_regions, net.k, net.lower, net.upper
    cost = np.full((nr, k), np.inf)
    cost[net.edge_region, net.edge_cluster] = net.edge_cost
    admissible = np.isfinite(cost)
    if not admissible.any(axis=1).all():
        return None
    x = np.zeros((nr, k), dtype=np.int64)
    x[np.arange(nr), np.argmin(cost, axis=1)] = net.supplies
    loads = x.sum(axis=0).tolist()
    tol = COST_TOL * max(1.0, float(net.edge_cost.max(initial=0.0)))
    inf = float("inf")
    # step[r, a*k + b]: cost of moving one unit of r from a to b. Region r
    # never has flow at a cluster it has no edge to, so those entries are
    # never live; they subtract 0 instead of inf, so inf - inf never occurs.
    step = (cost[:, None, :] - np.where(admissible, cost, 0.0)[:, :, None]).reshape(nr, k * k)
    live = np.where(np.repeat(x > 0, k, axis=1), step, inf)
    while True:
        dist, hop = _exchange_paths(live.min(axis=0, initial=inf).tolist(), k, tol)
        best = None
        for a in range(k):
            if loads[a] <= lower:
                continue
            for b in range(k):
                if b == a or loads[b] >= upper or dist[a][b] == inf:
                    continue
                key = (-(loads[a] > upper) - (loads[b] < lower), dist[a][b])
                if best is None or key < best[0]:
                    best = (key, a, b)
        if best is None or best[0][0] == 0:
            if any(load < lower or load > upper for load in loads):
                return None
            if best is None or best[0][1] >= -tol:
                break
        _, a, b = best
        amount = min(
            loads[a] - (upper if loads[a] > upper else lower),
            (lower if loads[b] < lower else upper) - loads[b],
        )
        path = []
        u = a
        while u != b:
            if len(path) >= k:
                raise StructureError("exchange path does not reach its end")
            v = hop[u][b]
            r = int(live[:, u * k + v].argmin())
            amount = min(amount, int(x[r, u]))
            path.append((r, u, v))
            u = v
        for r, u, v in path:
            x[r, u] -= amount
            x[r, v] += amount
        loads[a] -= amount
        loads[b] += amount
        rows = [r for r, _, _ in path]
        live[rows] = np.where(np.repeat(x[rows] > 0, k, axis=1), step[rows], inf)
    flows = x[net.edge_region, net.edge_cluster].astype(np.float64)
    sol = FlowSolution(flows=flows, total=float(flows.sum()), cost=float(flows @ net.edge_cost))
    validate_solution(net, sol)
    return sol


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

