"""Core data model: point sets, distance oracles, bounds, and objectives.

Everything here is immutable after construction; solvers only ever read
these objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kernels

OBJECTIVES = ("center", "median", "means")


class InputError(ValueError):
    """Malformed input data or configuration (CLI exit code 2)."""


class InfeasibleBoundsError(ValueError):
    """Cluster-size bounds no partition can satisfy (CLI exit code 3)."""


class StructureError(RuntimeError):
    """An internal flow/rounding structure violated its invariants."""


class OptimalityViolationError(RuntimeError):
    """A rounding step detected that its input flow was not cost-optimal."""


def check_objective(objective: str) -> str:
    if objective not in OBJECTIVES:
        raise InputError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    return objective


@dataclass(frozen=True)
class BalanceBounds:
    """Cluster-size window [lower, upper], validated against (n, k) at solve time."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if not (isinstance(self.lower, (int, np.integer)) and isinstance(self.upper, (int, np.integer))):
            raise InputError("bounds must be integers")
        if self.lower < 1 or self.upper < self.lower:
            raise InputError(f"bounds must satisfy 1 <= lower <= upper, got [{self.lower}, {self.upper}]")

    def validate(self, n: int, k: int) -> None:
        """Enforce 1 <= L <= floor(n/k) <= ceil(n/k) <= U <= n."""
        lo, up = self.lower, self.upper
        if k < 1 or k > n:
            raise InfeasibleBoundsError(f"need 1 <= k <= n, got k={k}, n={n}")
        if lo * k > n or up * k < n or up > n:
            raise InfeasibleBoundsError(
                f"bounds [{lo}, {up}] infeasible for n={n}, k={k}: "
                f"need 1 <= L <= floor(n/k) <= ceil(n/k) <= U <= n"
            )


class PointSet:
    """Immutable set of n points in d dimensions."""

    __slots__ = ("points", "n", "d")

    def __init__(self, points: np.ndarray | Sequence[Sequence[float]]):
        arr = np.ascontiguousarray(points, dtype=np.float64)
        if arr.ndim != 2:
            raise InputError(f"points must be a 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError(f"need n >= 1 and d >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InputError("points contain non-finite coordinates")
        arr.setflags(write=False)
        self.points = arr
        self.n = arr.shape[0]
        self.d = arr.shape[1]


class EuclideanOracle:
    """Distance access backed by explicit coordinates."""

    kind = "euclidean"

    def __init__(self, points: PointSet | np.ndarray):
        self.point_set = points if isinstance(points, PointSet) else PointSet(points)
        self.n = self.point_set.n

    def dist(self, i: int, j: int) -> float:
        p = self.point_set.points
        return float(np.sqrt(np.sum((p[i] - p[j]) ** 2)))

    def columns(self, centers: Sequence[int], squared: bool = False) -> np.ndarray:
        c = self.point_set.points[np.asarray(centers, dtype=np.int64)]
        return kernels.euclidean_columns(self.point_set.points, c, squared)

    def columns_to(self, vectors: np.ndarray, squared: bool = False) -> np.ndarray:
        vecs = np.ascontiguousarray(vectors, dtype=np.float64)
        if vecs.ndim != 2 or vecs.shape[1] != self.point_set.d:
            raise InputError(
                f"center vectors must have shape (m, {self.point_set.d}), got {vecs.shape}"
            )
        return kernels.euclidean_columns(self.point_set.points, vecs, squared)


class MatrixOracle:
    """Distance access backed by a precomputed n x n matrix.

    The matrix is checked for symmetry, a zero diagonal, and non-negative
    entries. The triangle inequality is deliberately not checked: callers may
    pass non-metric matrices, in which case the approximation guarantees of
    the solvers are void.
    """

    kind = "matrix"

    def __init__(self, matrix: np.ndarray):
        m = np.ascontiguousarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"distance matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("distance matrix contains non-finite entries")
        if np.any(m < 0):
            raise InputError("distance matrix contains negative entries")
        if np.any(np.abs(np.diagonal(m)) > 0):
            raise InputError("distance matrix diagonal must be zero")
        if not np.allclose(m, m.T, rtol=0, atol=1e-12):
            raise InputError("distance matrix must be symmetric")
        m.setflags(write=False)
        self.matrix = m
        self.n = m.shape[0]

    def dist(self, i: int, j: int) -> float:
        return float(self.matrix[i, j])

    def columns(self, centers: Sequence[int], squared: bool = False) -> np.ndarray:
        cols = self.matrix[:, np.asarray(centers, dtype=np.int64)].copy()
        return cols**2 if squared else cols


class CallbackOracle:
    """Distance access through a user callback d(i, j). O(1) storage, slow."""

    kind = "callback"

    def __init__(self, fn: Callable[[int, int], float], n: int):
        if n < 1:
            raise InputError("callback oracle needs n >= 1")
        self.fn = fn
        self.n = int(n)

    def dist(self, i: int, j: int) -> float:
        return float(self.fn(i, j))

    def columns(self, centers: Sequence[int], squared: bool = False) -> np.ndarray:
        centers = list(centers)
        out = np.empty((self.n, len(centers)))
        for c, cj in enumerate(centers):
            for i in range(self.n):
                out[i, c] = self.fn(i, cj)
        return out**2 if squared else out


DistanceOracle = EuclideanOracle | MatrixOracle | CallbackOracle


def as_oracle(source) -> DistanceOracle:
    """Coerce points / arrays / oracles into a distance oracle."""
    if isinstance(source, (EuclideanOracle, MatrixOracle, CallbackOracle)):
        return source
    if isinstance(source, PointSet):
        return EuclideanOracle(source)
    arr = np.asarray(source, dtype=np.float64)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1] and arr.shape[0] > 2:
        raise InputError(
            "ambiguous square array: wrap it in PointSet(...) or MatrixOracle(...)"
        )
    return EuclideanOracle(PointSet(arr))


def distance_table(source, centers, squared: bool = False) -> np.ndarray:
    """n x m table of distances from every point to each center reference.

    Center references are point indices for any oracle kind, or explicit
    coordinate vectors (2-d float array) for Euclidean oracles only.
    """
    oracle = as_oracle(source)
    if len(centers) == 0:
        raise InputError("need at least one center")
    arr = np.asarray(centers)
    if arr.ndim == 2:
        if not isinstance(oracle, EuclideanOracle):
            raise InputError("explicit center vectors require Euclidean input")
        return oracle.columns_to(arr, squared)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise InputError("centers must be point indices or a 2-d array of vectors")
    if np.any(arr < 0) or np.any(arr >= oracle.n):
        raise InputError("center index out of range")
    return oracle.columns(arr, squared)


def extreme_distances(table: np.ndarray) -> tuple[float, float] | None:
    """(r_min, r_max) of a distance table, where r_min is the smallest
    strictly positive entry. Returns None when every entry is zero
    (all-coincident degenerate input)."""
    if table.size == 0:
        raise InputError("empty distance table")
    r_max = float(table.max())
    if r_max <= 0.0:
        return None
    positive = table[table > 0]
    return float(positive.min()), r_max


def nearest_distances(rows: np.ndarray, tup) -> np.ndarray:
    """Distance from every point to its nearest center of ``tup``, where
    ``rows`` is the candidate table transposed to C-contiguous (m, n) rows.

    An element-wise ``np.minimum`` over the k rows; reducing an n x k column
    copy with ``min(axis=1)`` is several times slower at large n.
    """
    nearest = rows[tup[0]].copy()
    for t in tup[1:]:
        np.minimum(nearest, rows[t], out=nearest)
    return nearest


@dataclass(frozen=True)
class BalancedAssignment:
    """Per-point cluster labels plus per-cluster sizes within [L, U]."""

    labels: np.ndarray
    sizes: np.ndarray

    @classmethod
    def from_labels(cls, labels: np.ndarray, k: int, bounds: BalanceBounds | None = None) -> "BalancedAssignment":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise InputError("labels must be 1-d")
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            raise InputError(f"labels must lie in [0, {k})")
        sizes = np.bincount(labels, minlength=k).astype(np.int64)
        if bounds is not None and (np.any(sizes < bounds.lower) or np.any(sizes > bounds.upper)):
            raise StructureError(
                f"cluster sizes {sizes.tolist()} violate bounds [{bounds.lower}, {bounds.upper}]"
            )
        labels.setflags(write=False)
        sizes.setflags(write=False)
        return cls(labels=labels, sizes=sizes)

    @property
    def k(self) -> int:
        return int(self.sizes.size)


def round_robin_assignment(n: int, k: int, bounds: BalanceBounds) -> BalancedAssignment:
    """Any balanced split; used for degenerate all-coincident inputs."""
    bounds.validate(n, k)
    labels = np.arange(n, dtype=np.int64) % k
    return BalancedAssignment.from_labels(labels, k, bounds)


def evaluate_objective(
    assignment: BalancedAssignment,
    centers,
    source,
    objective: str,
) -> float:
    """Objective value of an assignment: max, sum, or sum-of-squares of
    point-to-assigned-center distances."""
    check_objective(objective)
    oracle = as_oracle(source)
    if len(centers) != assignment.k:
        raise InputError(f"expected {assignment.k} centers, got {len(centers)}")
    squared = objective == "means"
    table = distance_table(oracle, centers, squared=squared)
    per_point = table[np.arange(oracle.n), assignment.labels]
    if objective == "center":
        value = float(per_point.max())
    else:
        value = float(per_point.sum())
    if not np.isfinite(value) or value < 0:
        raise StructureError(f"objective evaluated to invalid value {value}")
    return value


@dataclass
class ClusteringResult:
    """Solver output: centers, balanced assignment, objective, diagnostics."""

    objective: str
    k: int
    bounds: BalanceBounds
    centers: np.ndarray
    assignment: BalancedAssignment
    value: float
    diagnostics: dict = field(default_factory=dict)
