"""Exact reference implementations for tests and acceptance runs.

Everything here favors obviousness over speed and deliberately avoids the
production region/flow machinery: feasibility goes through scipy's max-flow
on a per-point bipartite graph, optimal assignments through scipy's LP
solver on the per-point transportation program, and global optima through
plain enumeration; a Bellman-Ford search certifies that a region flow has
no negative residual cycle. Intended for desk-scale instances only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .core import (
    BalanceBounds,
    BalancedAssignment,
    InputError,
    StructureError,
    as_oracle,
    check_objective,
    distance_table,
)
from .flow import COST_TOL, FlowNetwork, FlowSolution
from .regions import CONTAINMENT_SLACK

BRUTE_FORCE_MAX_N = 14
BRUTE_FORCE_MAX_K = 4


def _point_flow_graph(allowed: np.ndarray, lower: int, upper: int):
    """Super-source/super-sink reduction of the per-point bipartite instance
    with unit point supplies and cluster bounds [lower, upper]."""
    n, k = allowed.shape
    # nodes: 0 aux source, 1 aux sink, 2 inner source, 3 inner sink,
    # 4..n+3 points, n+4..n+k+3 clusters
    s_aux, t_aux, s_in, t_in = 0, 1, 2, 3
    p0, c0 = 4, 4 + n
    rows, cols, caps = [], [], []

    def arc(u, v, c):
        rows.append(u)
        cols.append(v)
        caps.append(int(c))

    for i in range(n):
        arc(s_aux, p0 + i, 1)
    ii, jj = np.nonzero(allowed)
    for i, j in zip(ii.tolist(), jj.tolist()):
        arc(p0 + i, c0 + j, 1)
    for j in range(k):
        if upper - lower > 0:
            arc(c0 + j, t_in, upper - lower)
        if lower > 0:
            arc(c0 + j, t_aux, lower)
    if lower > 0:
        arc(s_aux, t_in, lower * k)
    arc(t_in, s_in, n)
    arc(s_in, t_aux, n)

    num = 4 + n + k
    graph = csr_matrix((np.asarray(caps, dtype=np.int32), (rows, cols)), shape=(num, num))
    return graph, s_aux, t_aux, n + lower * k, (p0, c0)


def exists_balanced_assignment(allowed: np.ndarray, lower: int, upper: int) -> bool:
    """Can each point go to one of its allowed clusters with every cluster
    size in [lower, upper]? Decided by a per-point max flow."""
    n, k = allowed.shape
    if lower * k > n or upper * k < n:
        return False
    if not allowed.any(axis=1).all():
        return False
    graph, s, t, required, _ = _point_flow_graph(allowed, lower, upper)
    return int(maximum_flow(graph, s, t).flow_value) == required


def _assignment_from_flow(allowed: np.ndarray, lower: int, upper: int) -> np.ndarray | None:
    n, k = allowed.shape
    graph, s, t, required, (p0, c0) = _point_flow_graph(allowed, lower, upper)
    result = maximum_flow(graph, s, t)
    if int(result.flow_value) != required:
        return None
    flow = result.flow.tocsr()
    labels = np.full(n, -1, dtype=np.int64)
    block = flow[p0 : p0 + n, c0 : c0 + k].toarray()
    for i in range(n):
        carriers = np.nonzero(block[i] > 0)[0]
        if carriers.size != 1:
            return None
        labels[i] = carriers[0]
    return labels


def _min_feasible_radius(
    cols: np.ndarray, bounds: BalanceBounds, candidates: np.ndarray | None = None, stop_at: float | None = None
) -> float | None:
    """Smallest feasible covering radius among the candidate values (the
    distinct distances in ``cols``), or None when nothing below ``stop_at``
    is feasible."""
    values = np.unique(cols) if candidates is None else candidates
    if stop_at is not None:
        values = values[values < stop_at]
    lo, hi = 0, values.size - 1
    found = None
    while lo <= hi:
        mid = (lo + hi) // 2
        r = float(values[mid])
        allowed = cols <= r * (1.0 + CONTAINMENT_SLACK)
        if exists_balanced_assignment(allowed, bounds.lower, bounds.upper):
            found = r
            hi = mid - 1
        else:
            lo = mid + 1
    return found


def exact_balanced_assignment(
    centers,
    source,
    bounds: BalanceBounds,
    objective: str = "median",
) -> tuple[float, BalancedAssignment]:
    """Optimal balanced assignment for fixed centers.

    Sum objectives solve the per-point transportation LP (its vertices are
    integral); the center objective binary-searches the distinct radii with a
    per-point feasibility flow.
    """
    check_objective(objective)
    oracle = as_oracle(source)
    cols = distance_table(oracle, centers)
    n, k = cols.shape
    bounds.validate(n, k)

    if objective == "center":
        radius = _min_feasible_radius(cols, bounds)
        if radius is None:
            raise StructureError("no feasible radius despite validated bounds")
        allowed = cols <= radius * (1.0 + CONTAINMENT_SLACK)
        labels = _assignment_from_flow(allowed, bounds.lower, bounds.upper)
        if labels is None:
            raise StructureError("feasible radius failed assignment extraction")
        assignment = BalancedAssignment.from_labels(labels, k, bounds)
        cost = float(cols[np.arange(n), labels].max())
        return cost, assignment

    weights = cols**2 if objective == "means" else cols
    cost_vec = weights.ravel()
    rows_eq = np.repeat(np.arange(n), k)
    cols_eq = np.arange(n * k)
    a_eq = csr_matrix((np.ones(n * k), (rows_eq, cols_eq)), shape=(n, n * k))
    rows_ub = np.concatenate([np.tile(np.arange(k), n), k + np.tile(np.arange(k), n)])
    cols_ub = np.concatenate([np.arange(n * k), np.arange(n * k)])
    data_ub = np.concatenate([np.ones(n * k), -np.ones(n * k)])
    a_ub = csr_matrix((data_ub, (rows_ub, cols_ub)), shape=(2 * k, n * k))
    b_ub = np.concatenate([np.full(k, bounds.upper), np.full(k, -bounds.lower)])
    res = linprog(cost_vec, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(n), method="highs")
    if not res.success:
        raise StructureError(f"transportation LP failed: {res.message}")
    x = res.x.reshape(n, k)
    if np.abs(x - np.rint(x)).max() > 1e-6:
        raise StructureError("transportation LP returned a non-integral vertex")
    labels = np.argmax(np.rint(x), axis=1)
    assignment = BalancedAssignment.from_labels(labels, k, bounds)
    cost = float(weights[np.arange(n), labels].sum())
    return cost, assignment


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


def enumerate_balanced_labelings(n: int, k: int, bounds: BalanceBounds) -> np.ndarray:
    """All label vectors with every cluster size in bounds, as an (m, n) array."""
    if k**n > 1 << 21:
        raise InputError(f"label space {k}^{n} too large to enumerate")
    codes = np.arange(k**n, dtype=np.int64)
    digits = (codes[:, None] // k ** np.arange(n, dtype=np.int64)) % k
    ok = np.ones(codes.size, dtype=bool)
    for j in range(k):
        size = (digits == j).sum(axis=1)
        ok &= (size >= bounds.lower) & (size <= bounds.upper)
    return digits[ok].astype(np.int8)


def _circumcenter(pts: np.ndarray) -> np.ndarray | None:
    """The point of the subset's affine hull equidistant from all of them."""
    if pts.shape[0] == 1:
        return pts[0]
    base = pts[0]
    d = pts[1:] - base
    gram = d @ d.T
    rhs = 0.5 * np.einsum("ij,ij->i", d, d)
    try:
        t = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    return base + t @ d


def minimum_enclosing_ball(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact smallest enclosing ball of a tiny point set by trying every
    support subset of size at most d + 1."""
    pts = np.asarray(pts, dtype=np.float64)
    m, d = pts.shape
    best_r = np.inf
    best_c = pts[0]
    for size in range(1, min(m, d + 1) + 1):
        for sub in itertools.combinations(range(m), size):
            c = _circumcenter(pts[list(sub)])
            if c is None:
                continue
            r = float(np.sqrt(((pts - c) ** 2).sum(axis=1)).max())
            if r < best_r - 1e-15:
                best_r = r
                best_c = c
    return best_c, best_r


def brute_force_optimum(
    source,
    k: int,
    bounds: BalanceBounds,
    objective: str = "center",
    center_mode: str = "discrete",
) -> tuple[float, np.ndarray, BalancedAssignment]:
    """Global optimum by enumeration; tiny instances only.

    ``center_mode="discrete"`` enumerates all center multisets drawn from
    the input points (repetition allowed, since uniform bounds make tuple
    order irrelevant but a repeated center can strictly beat all distinct
    choices). ``center_mode="continuous"`` enumerates balanced labelings
    with analytically optimal centers: centroids for sum-of-squares and
    smallest enclosing balls for the center objective; the sum objective has
    no closed-form center and is only offered in discrete mode.
    """
    check_objective(objective)
    oracle = as_oracle(source)
    n = oracle.n
    bounds.validate(n, k)
    if n > BRUTE_FORCE_MAX_N or k > BRUTE_FORCE_MAX_K:
        raise InputError(
            f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, k <= {BRUTE_FORCE_MAX_K}"
        )

    if center_mode == "continuous":
        return _continuous_optimum(oracle, k, bounds, objective)
    if center_mode != "discrete":
        raise InputError(f"unknown center_mode {center_mode!r}")

    best: tuple[float, tuple, BalancedAssignment] | None = None
    for tup in itertools.combinations_with_replacement(range(n), k):
        cols = oracle.columns(list(tup))
        if objective == "center":
            stop = best[0] if best is not None else None
            radius = _min_feasible_radius(cols, bounds, stop_at=stop)
            if radius is None:
                continue
            allowed = cols <= radius * (1.0 + CONTAINMENT_SLACK)
            labels = _assignment_from_flow(allowed, bounds.lower, bounds.upper)
            assignment = BalancedAssignment.from_labels(labels, k, bounds)
            cost = float(cols[np.arange(n), labels].max())
            best = (cost, tup, assignment)
        else:
            weights = cols**2 if objective == "means" else cols
            floor = float(weights.min(axis=1).sum())
            if best is not None and floor >= best[0] - 1e-12:
                continue
            cost, assignment = exact_balanced_assignment(list(tup), oracle, bounds, objective)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, tup, assignment)
    if best is None:
        raise StructureError("enumeration found no feasible solution")
    cost, tup, assignment = best
    return cost, np.asarray(tup, dtype=np.int64), assignment


def _continuous_optimum(oracle, k, bounds, objective):
    from .core import EuclideanOracle

    if not isinstance(oracle, EuclideanOracle):
        raise InputError("continuous centers require Euclidean input")
    if objective == "median":
        raise InputError("continuous optimum not offered for the sum objective")
    points = oracle.point_set.points
    n = oracle.n
    labelings = enumerate_balanced_labelings(n, k, bounds)
    if labelings.size == 0:
        raise StructureError("no balanced labelings despite validated bounds")

    if objective == "means":
        norms = np.einsum("ij,ij->i", points, points)
        total = np.zeros(labelings.shape[0])
        for j in range(k):
            sel = labelings == j
            cnt = sel.sum(axis=1)
            sums = sel @ points
            total += sel @ norms - np.einsum("ij,ij->i", sums, sums) / cnt
        idx = int(np.argmin(total))
        labels = labelings[idx].astype(np.int64)
        assignment = BalancedAssignment.from_labels(labels, k, bounds)
        centers = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
        return float(total[idx]), centers, assignment

    # center objective: max over clusters of the smallest enclosing ball radius
    best = None
    for labels in labelings:
        radius = 0.0
        centers = np.zeros((k, points.shape[1]))
        for j in range(k):
            c, r = minimum_enclosing_ball(points[labels == j])
            centers[j] = c
            radius = max(radius, r)
        if best is None or radius < best[0] - 1e-15:
            best = (radius, centers, labels.astype(np.int64))
    radius, centers, labels = best
    assignment = BalancedAssignment.from_labels(labels, k, bounds)
    return float(radius), centers, assignment


# ----------------------------------------------------------------- fixtures


@dataclass(frozen=True)
class Fixture:
    """A pinned instance with its known facts."""

    name: str
    points: np.ndarray
    k: int
    bounds: BalanceBounds
    first_index: int
    facts: dict = field(default_factory=dict)


def tight_line_fixture(delta: float = 0.1) -> Fixture:
    """Six collinear points whose balanced 3-clustering has radius 1 with
    free centers, while farthest-point candidates force radius 4 - delta."""
    if not 0 < delta < 2:
        raise InputError(f"delta must lie in (0, 2), got {delta}")
    xs = [0.0, 2.0, 4.0 - delta, 6.0 - delta, 8.0 - 2 * delta, 8.0 - 2 * delta]
    points = np.asarray(xs)[:, None]
    return Fixture(
        name="tight-line",
        points=points,
        k=3,
        bounds=BalanceBounds(2, 2),
        first_index=1,
        facts={"optimal_radius": 1.0, "delta": delta},
    )


def two_column_fixture(l: float = 1.0, r: float = 1.0, h: float = 100.0) -> Fixture:
    """Two coincident vertical pairs plus a 2r-separated pair far away: the
    seed set itself is a terrible center tuple (radius >= h), but its k-fold
    product contains a tuple within 4r."""
    if l >= 2 * r:
        raise InputError(f"need l < 2r, got l={l}, r={r}")
    if h <= 2 * r:
        raise InputError(f"need h much larger than 2r, got h={h}, r={r}")
    points = np.asarray(
        [
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, l],
            [0.0, l],
            [h, -r],
            [h, r],
        ]
    )
    return Fixture(
        name="two-columns",
        points=points,
        k=3,
        bounds=BalanceBounds(2, 2),
        first_index=0,
        facts={"optimal_radius": r, "single_tuple_radius": h, "l": l, "r": r, "h": h},
    )


def planted_fixture(k: int = 2, group: int = 3, gap: float = 10.0, d: int = 2) -> Fixture:
    """k groups of coincident points, pairwise ``gap`` apart: any objective
    has optimal cost exactly zero."""
    if k < 1 or group < 1:
        raise InputError("need k >= 1 and group >= 1")
    base = np.zeros((k, d))
    for j in range(k):
        base[j, 0] = j * gap
    points = np.repeat(base, group, axis=0)
    return Fixture(
        name="planted-groups",
        points=points,
        k=k,
        bounds=BalanceBounds(group, group),
        first_index=0,
        facts={"optimal_cost": 0.0, "gap": gap},
    )


def fixtures() -> list[Fixture]:
    return [tight_line_fixture(), two_column_fixture(), planted_fixture()]
