"""Shared instance generators for the test suite."""

import itertools

import numpy as np

import balclust as bc


def region_members(regions):
    """``regions.members`` split by ``counts``, one array per region. Checks
    first that ``members`` is a permutation of the n points ordered by
    region in key order (the keys ascend)."""
    assert np.array_equal(np.sort(regions.members), np.arange(regions.total))
    assert np.all(np.diff(regions.keys) > 0)
    return np.split(regions.members, np.cumsum(regions.counts)[:-1])


def random_points(seed, n, d, scale=1.0):
    rng = np.random.default_rng(seed)
    return bc.PointSet(rng.standard_normal((n, d)) * scale)


def euclidean_matrix(points):
    """Exact pairwise distance matrix of a coordinate array (a true metric)."""
    pts = np.asarray(points, dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    mat = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    mat = 0.5 * (mat + mat.T)
    np.fill_diagonal(mat, 0.0)
    return mat


def random_metric_oracle(seed, n, d=3):
    rng = np.random.default_rng(seed)
    return bc.MatrixOracle(euclidean_matrix(rng.standard_normal((n, d))))


def random_bounds(rng, n, k):
    lo = int(rng.integers(1, n // k + 1))
    hi = int(rng.integers((n + k - 1) // k, n + 1))
    return bc.BalanceBounds(lo, hi)


def brute_distance(points, i, j):
    return float(np.sqrt(((points[i] - points[j]) ** 2).sum()))


def compositions(total, parts):
    """All non-negative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_network_optimum(net):
    """Exhaustive search over integral region-to-cluster splits.

    Returns (feasible, best_cost, best_flows). Independent of the flow
    solvers: plain enumeration of per-region compositions.
    """
    per_region_edges = [
        [e for e in range(net.num_edges) if net.edge_region[e] == r]
        for r in range(net.num_regions)
    ]
    best_cost = None
    best_flows = None
    options = [
        list(compositions(int(net.supplies[r]), len(per_region_edges[r])))
        for r in range(net.num_regions)
    ]
    for combo in itertools.product(*options):
        flows = np.zeros(net.num_edges)
        for r, split in enumerate(combo):
            for e, amount in zip(per_region_edges[r], split):
                flows[e] = amount
        inflow = np.bincount(net.edge_cluster, weights=flows, minlength=net.k)
        if np.any(inflow < net.lower) or np.any(inflow > net.upper):
            continue
        cost = float(flows @ net.edge_cost)
        if best_cost is None or cost < best_cost - 1e-12:
            best_cost = cost
            best_flows = flows
    return best_cost is not None, best_cost, best_flows
