"""Output checks for every solve, computed apart from the solvers' region and
flow path: distances in plain numpy, feasibility by scipy's per-point max
flow, optimal assignments by the per-point transportation LP (or, for k = 2,
its closed form).

Each check is a property the method must have, never a copy of an earlier
output. A failed check raises CheckFailed with the reason.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

#: The solvers' ball-containment slack: a radius r admits distances up to
#: r * (1 + SLACK).
SLACK = 1e-12
#: Relative tolerance between the solver's reported value and the cost
#: recomputed here.
COST_RTOL = 1e-9
#: Sample sizes for the "no other tuple beats the answer" checks.
CENTER_SAMPLE = 24
SUM_SAMPLE = 12


class CheckFailed(Exception):
    pass


def distances(points: np.ndarray, idx, squared: bool = False) -> np.ndarray:
    """(n, len(idx)) Euclidean distances from every point to points[idx]."""
    out = np.empty((points.shape[0], len(idx)))
    for c, i in enumerate(idx):
        diff = points - points[i]
        out[:, c] = np.einsum("ij,ij->i", diff, diff)
    return out if squared else np.sqrt(out)


def gonzalez_seeds(points: np.ndarray, k: int, first: int = 0) -> list[int]:
    """Farthest-point traversal from ``first``, ties to the lowest index."""
    seeds = [first]
    mind = distances(points, [first])[:, 0]
    while len(seeds) < k:
        masked = mind.copy()
        masked[seeds] = -1.0
        nxt = int(np.argmax(masked))
        seeds.append(nxt)
        np.minimum(mind, distances(points, [nxt])[:, 0], out=mind)
    return seeds


def balanced_feasible(allowed: np.ndarray, lower: int, upper: int) -> bool:
    """Can every point take one allowed cluster with all sizes in
    [lower, upper]? Per-point max flow with the cluster lower bounds moved
    to an auxiliary source/sink pair."""
    n, k = allowed.shape
    if not allowed.any(axis=1).all():
        return False
    s_aux, t_aux, s_in, t_in, p0, c0 = 0, 1, 2, 3, 4, 4 + n
    ii, jj = np.nonzero(allowed)
    cl = np.arange(k)
    rows = [np.zeros(n, int), p0 + ii, c0 + cl, c0 + cl, [s_aux, t_in, s_in]]
    cols = [p0 + np.arange(n), c0 + jj, np.full(k, t_in), np.full(k, t_aux), [t_in, s_in, t_aux]]
    caps = [np.ones(n), np.ones(ii.size), np.full(k, upper - lower), np.full(k, lower), [lower * k, n, n]]
    graph = csr_matrix(
        (np.concatenate(caps).astype(np.int32), (np.concatenate(rows), np.concatenate(cols))),
        shape=(4 + n + k, 4 + n + k),
    )
    return int(maximum_flow(graph, s_aux, t_aux).flow_value) == n + lower * k


def optimal_assignment_cost(costs: np.ndarray, lower: int, upper: int) -> float:
    """Minimum total cost of a balanced assignment under an (n, k) cost table."""
    n, k = costs.shape
    if k == 2:
        # Send the m points with the smallest c0 - c1 to cluster 0, for the
        # best m that keeps both sizes in bounds.
        gain = np.sort(costs[:, 0] - costs[:, 1])
        prefix = np.concatenate(([0.0], np.cumsum(gain)))
        lo, hi = max(lower, n - upper), min(upper, n - lower)
        return float(costs[:, 1].sum() + prefix[lo : hi + 1].min())
    a_eq = csr_matrix((np.ones(n * k), (np.repeat(np.arange(n), k), np.arange(n * k))), shape=(n, n * k))
    cluster = np.tile(np.arange(k), n)
    a_ub = csr_matrix(
        (np.concatenate([np.ones(n * k), -np.ones(n * k)]), (np.concatenate([cluster, k + cluster]), np.tile(np.arange(n * k), 2))),
        shape=(2 * k, n * k),
    )
    b_ub = np.concatenate([np.full(k, upper), np.full(k, -lower)])
    res = linprog(costs.ravel(), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(n), method="highs")
    if not res.success:
        raise CheckFailed(f"transportation LP failed: {res.message}")
    x = res.x.reshape(n, k)
    if np.abs(x - np.rint(x)).max() > 1e-6:
        raise CheckFailed("transportation LP returned a non-integral vertex")
    labels = np.argmax(x, axis=1)
    return float(costs[np.arange(n), labels].sum())


def check_common(result, points: np.ndarray, k: int, bounds: tuple[int, int], objective: str) -> np.ndarray:
    """Labels cover all points, sizes lie in bounds, centers are valid point
    indices, and the value matches a recomputed cost. Returns the centers'
    distance columns (squared for means)."""
    n = points.shape[0]
    lower, upper = bounds
    labels = np.asarray(result.assignment.labels)
    if labels.shape != (n,) or labels.min() < 0 or labels.max() >= k:
        raise CheckFailed(f"labels do not assign all {n} points to clusters 0..{k - 1}")
    sizes = np.bincount(labels, minlength=k)
    if sizes.min() < lower or sizes.max() > upper:
        raise CheckFailed(f"cluster sizes {sizes.tolist()} outside [{lower}, {upper}]")
    centers = np.asarray(result.centers)
    if centers.shape != (k,) or not np.issubdtype(centers.dtype, np.integer) or centers.min() < 0 or centers.max() >= n:
        raise CheckFailed(f"centers {centers.tolist()} are not {k} point indices")
    cols = distances(points, centers.tolist(), squared=objective == "means")
    per_point = cols[np.arange(n), labels]
    cost = float(per_point.max() if objective == "center" else per_point.sum())
    if abs(cost - result.value) > COST_RTOL * max(1.0, abs(cost)):
        raise CheckFailed(f"reported value {result.value!r} but the labels cost {cost!r}")
    return cols


class CenterChecks:
    """Optimality of a balanced k-center answer over the Gonzalez seeds."""

    def __init__(self, points: np.ndarray, k: int, bounds: tuple[int, int], rng: np.random.Generator):
        self.bounds = bounds
        self.seeds = gonzalez_seeds(points, k)
        self.seed_cols = distances(points, self.seeds)
        multisets = list(itertools.combinations_with_replacement(range(k), k))
        pick = rng.choice(len(multisets), size=min(CENTER_SAMPLE, len(multisets)), replace=False)
        self.sample = [multisets[i] for i in sorted(pick)]

    def _feasible(self, cols: np.ndarray, r: float) -> bool:
        return balanced_feasible(cols <= r * (1.0 + SLACK), *self.bounds)

    def _beats(self, cols: np.ndarray, value: float) -> bool:
        """Is these columns' largest distance below ``value`` a feasible radius?"""
        smaller = cols[cols * (1.0 + SLACK) < value]
        return smaller.size > 0 and self._feasible(cols, float(smaller.max()))

    def check(self, result, cols: np.ndarray) -> None:
        value = float(result.value)
        if not set(np.asarray(result.centers).tolist()) <= set(self.seeds):
            raise CheckFailed(f"centers {result.centers.tolist()} are not among the seeds {self.seeds}")
        if not self._feasible(cols, value):
            raise CheckFailed(f"radius {value!r} is not feasible for the returned centers")
        if self._beats(cols, value):
            raise CheckFailed("a smaller distance in the returned centers' columns is feasible")
        for tup in self.sample:
            if self._beats(self.seed_cols[:, list(tup)], value):
                raise CheckFailed(f"seed multiset {tup} has a feasible radius below {value!r}")


class SumChecks:
    """The (1 + epsilon)^p sandwich for k-median (p = 1) and k-means (p = 2):
    against the optimal assignment to the returned centers, and against a
    seeded sample of candidate tuples the sweep must not lose to."""

    def __init__(self, points, k, bounds, objective, epsilon, candidates, rng):
        self.bounds = bounds
        self.factor = (1.0 + epsilon) ** (2 if objective == "means" else 1)
        self.candidates = [int(c) for c in candidates]
        self.cand_cols = distances(points, self.candidates, squared=objective == "means")
        m = len(self.candidates)
        self.sample = [tuple(t) for t in rng.integers(m, size=(SUM_SAMPLE, k)).tolist()]
        self.sample_exact = [optimal_assignment_cost(self.cand_cols[:, list(t)], *bounds) for t in self.sample]

    def check(self, result, cols: np.ndarray) -> None:
        value = float(result.value)
        if not set(np.asarray(result.centers).tolist()) <= set(self.candidates):
            raise CheckFailed(f"centers {result.centers.tolist()} are not among the candidates")
        exact = optimal_assignment_cost(cols, *self.bounds)
        if not exact <= value * (1 + COST_RTOL) or not value <= self.factor * exact * (1 + COST_RTOL):
            raise CheckFailed(f"value {value!r} outside [{exact!r}, {self.factor} * {exact!r}]")
        for tup, exact_t in zip(self.sample, self.sample_exact):
            if value > self.factor * exact_t * (1 + 1e-12):
                raise CheckFailed(f"candidate tuple {tup} has optimal cost {exact_t!r}, below value / {self.factor}")
