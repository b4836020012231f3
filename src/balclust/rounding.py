"""Round fractional region-to-cluster flows to integral ones.

The residue graph of fractional edges is grown from an arbitrary edge into
either an alternating cycle or a maximal path whose endpoints are cluster
nodes. Shifting a value delta alternately along the structure makes at least
one edge integral without changing region throughputs, without leaving the
[L, U] cluster window, and (for cost-optimal inputs) without changing the
cost: at optimum the alternating cost sum of any such structure must vanish,
otherwise one of the two shift directions would have improved the objective.

The production flow solvers already return integral solutions, so in the
solver pipelines this runs as a checked pass-through; it is exposed as
first-class, independently testable code because injected fractional
solutions (e.g. from an external LP) must round correctly too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OptimalityViolationError, StructureError
from .flow import COST_TOL, FlowNetwork, FlowSolution, cluster_inflows, validate_solution

FRACTIONAL_TOL = 1e-9


@dataclass
class FractionalResidue:
    """Edges with non-integral flow plus adjacency restricted to them.

    Nodes are encoded as ints: region r is r, cluster j is num_regions + j.
    Any region node touching the residue has at least two residue edges,
    because its total outflow is the integer region supply.
    """

    edges: list
    adjacency: dict
    num_regions: int
    k: int

    def is_cluster(self, node: int) -> bool:
        return node >= self.num_regions


def build_residue(net: FlowNetwork, flows: np.ndarray, tol: float = FRACTIONAL_TOL) -> FractionalResidue:
    """Residue of the edges whose flow lies more than ``tol`` from an
    integer; each node's incident residue edges are listed ascending.
    Non-finite flows are not fractional here; ``validate_solution`` rejects
    them."""
    edges = np.flatnonzero(np.abs(flows - np.round(flows)) > tol)
    if not edges.size:  # every solver flow is integral; skip the grouping
        return FractionalResidue(edges=[], adjacency={}, num_regions=net.num_regions, k=net.k)
    ends = np.concatenate((net.edge_region[edges], net.num_regions + net.edge_cluster[edges]))
    order = np.argsort(ends, kind="stable")
    nodes, starts, degree = np.unique(ends[order], return_index=True, return_counts=True)
    if np.any((nodes < net.num_regions) & (degree < 2)):
        raise StructureError(
            "region node with a single fractional edge: outflow cannot equal "
            "its integer supply, the input flow is corrupted"
        )
    incident = np.split(np.tile(edges, 2)[order], starts[1:])
    adjacency = dict(zip(nodes.tolist(), map(np.ndarray.tolist, incident)))
    return FractionalResidue(edges=edges.tolist(), adjacency=adjacency, num_regions=net.num_regions, k=net.k)


def _other_end(residue: FractionalResidue, net: FlowNetwork, edge: int, node: int) -> int:
    r = int(net.edge_region[edge])
    b = residue.num_regions + int(net.edge_cluster[edge])
    return b if node == r else r


def grow_structure(residue: FractionalResidue, net: FlowNetwork) -> tuple[str, list, list]:
    """Grow the lowest-index residue edge into a cycle or a maximal path.

    Returns ("cycle", edges, nodes) with edge i joining nodes[i] and
    nodes[(i+1) % len], or ("path", edges, nodes) with len(nodes) ==
    len(edges) + 1 and both endpoint nodes clusters. Extension always picks
    the lowest-index unused residue edge, so the result is deterministic.
    """
    if not residue.edges:
        raise StructureError("cannot grow a structure from an empty residue")
    start = residue.edges[0]
    r = int(net.edge_region[start])
    b = residue.num_regions + int(net.edge_cluster[start])
    nodes = [r, b]
    edges = [start]
    used = {start}

    while True:
        extended = False
        for end in (0, -1):
            node = nodes[end]
            nxt = None
            for e in residue.adjacency[node]:
                if e not in used:
                    nxt = e
                    break
            if nxt is None:
                continue
            other = _other_end(residue, net, nxt, node)
            if other in nodes:
                # Closing edge found: carve the enclosed segment out as a cycle.
                # Edge i of the result joins nodes i and (i+1) % len.
                pos = nodes.index(other)
                if end == -1:
                    cyc_nodes = nodes[pos:]
                    cyc_edges = edges[pos:] + [nxt]
                else:
                    cyc_nodes = nodes[: pos + 1]
                    cyc_edges = edges[:pos] + [nxt]
                if len(cyc_edges) % 2 or len(cyc_edges) != len(cyc_nodes):
                    raise StructureError("grown cycle is not alternating")
                # rotate so the lowest edge id leads (deterministic anchor)
                lead = cyc_edges.index(min(cyc_edges))
                cyc_edges = cyc_edges[lead:] + cyc_edges[:lead]
                cyc_nodes = cyc_nodes[lead:] + cyc_nodes[:lead]
                return "cycle", cyc_edges, cyc_nodes
            used.add(nxt)
            if end == -1:
                nodes.append(other)
                edges.append(nxt)
            else:
                nodes.insert(0, other)
                edges.insert(0, nxt)
            extended = True
        if not extended:
            break

    if not (residue.is_cluster(nodes[0]) and residue.is_cluster(nodes[-1])):
        raise StructureError("maximal residue path ends at a region node")
    if edges[-1] < edges[0]:  # orient the path off its lower end edge
        edges.reverse()
        nodes.reverse()
    return "path", edges, nodes


def _alternating_cost(net: FlowNetwork, edges: list) -> float:
    """Sum of costs on minus-edges (even positions) minus plus-edges."""
    total = 0.0
    for i, e in enumerate(edges):
        c = float(net.edge_cost[e])
        total += c if i % 2 == 0 else -c
    return total


def _check_neutral(net: FlowNetwork, edges: list, mode: str) -> None:
    if mode != "min-cost":
        return
    gap = _alternating_cost(net, edges)
    if abs(gap) > COST_TOL:
        raise OptimalityViolationError(
            f"alternating cost sum {gap:.3e} is nonzero: the input flow was not cost-optimal"
        )


def _apply_alternating(flows: np.ndarray, edges: list, delta: float) -> None:
    for i, e in enumerate(edges):
        flows[e] += -delta if i % 2 == 0 else delta
        snapped = round(float(flows[e]))
        if abs(flows[e] - snapped) <= FRACTIONAL_TOL:
            flows[e] = float(snapped)
    if np.any(flows[edges] < 0):
        raise StructureError("alternating adjustment produced a negative flow")


def adjust_cycle(flows: np.ndarray, edges: list, net: FlowNetwork, mode: str = "feasibility") -> float:
    """Shift delta around an alternating cycle, starting with a subtraction
    on the first edge; delta is the smallest slack to the nearest integer
    over the cycle, so at least one edge lands on an integer. Node
    throughputs are unchanged. Returns the applied delta."""
    if len(edges) % 2:
        raise StructureError("cycle must have an even number of edges")
    _check_neutral(net, edges, mode)
    slacks = []
    for i, e in enumerate(edges):
        x = float(flows[e])
        slacks.append(x - np.floor(x) if i % 2 == 0 else np.ceil(x) - x)
    delta = float(min(slacks))
    if delta <= 0:
        raise StructureError("cycle adjustment found no positive slack")
    _apply_alternating(flows, edges, delta)
    return delta


def adjust_path(
    flows: np.ndarray,
    edges: list,
    nodes: list,
    net: FlowNetwork,
    mode: str = "feasibility",
) -> float:
    """Shift delta along a cluster-to-cluster path (subtracting on the first
    edge). The first endpoint's inflow drops by delta and the last one's
    rises, so delta is additionally capped by (m_first - L) and (U - m_last);
    when an endpoint cap is the minimum, the endpoint inflow lands exactly on
    the bound, which also makes its single fractional edge integral."""
    if len(edges) % 2:
        raise StructureError("cluster-to-cluster path must have an even number of edges")
    nr = net.num_regions
    first, last = nodes[0], nodes[-1]
    if first < nr or last < nr:
        raise StructureError("path endpoints must be cluster nodes")
    _check_neutral(net, edges, mode)
    inflows = cluster_inflows(net, flows)
    m_first = float(inflows[first - nr])
    m_last = float(inflows[last - nr])
    slacks = [m_first - net.lower, net.upper - m_last]
    for i, e in enumerate(edges):
        x = float(flows[e])
        slacks.append(x - np.floor(x) if i % 2 == 0 else np.ceil(x) - x)
    delta = float(min(slacks))
    if delta <= 0:
        raise StructureError("path adjustment found no positive slack")
    _apply_alternating(flows, edges, delta)
    return delta


def round_to_integral(
    solution: FlowSolution,
    net: FlowNetwork,
    mode: str = "feasibility",
    inspect=None,
) -> FlowSolution:
    """Eliminate all fractional flows without losing flow value and, in
    "min-cost" mode, without changing cost beyond accumulated float noise.

    Each grow/adjust pass makes at least one more edge integral, so the loop
    terminates within num_edges passes. ``inspect(kind, edges, flows)`` is
    called after every adjustment (testing hook).
    """
    if mode not in ("feasibility", "min-cost"):
        raise ValueError(f"unknown rounding mode {mode!r}")
    flows = np.array(solution.flows, dtype=np.float64)
    start_cost = float(flows @ net.edge_cost)
    for _ in range(net.num_edges + 1):
        residue = build_residue(net, flows)
        if not residue.edges:
            break
        kind, edges, nodes = grow_structure(residue, net)
        if kind == "cycle":
            adjust_cycle(flows, edges, net, mode)
        else:
            adjust_path(flows, edges, nodes, net, mode)
        if inspect is not None:
            inspect(kind, edges, flows)
    else:
        raise StructureError("rounding did not converge within the edge budget")

    flows = np.rint(flows)
    result = FlowSolution(flows=flows, total=float(flows.sum()), cost=float(flows @ net.edge_cost))
    validate_solution(net, result)
    if abs(result.total - solution.total) > 1e-9 * max(1.0, abs(solution.total)):
        raise StructureError("rounding changed the total flow")
    if mode == "min-cost":
        budget = max(1, net.num_edges) * COST_TOL
        if abs(result.cost - start_cost) > budget:
            raise OptimalityViolationError(
                f"rounding moved the cost by {result.cost - start_cost:.3e} (budget {budget:.1e})"
            )
    return result
