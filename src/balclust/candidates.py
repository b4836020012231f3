"""Candidate-center generation behind a pluggable interface, and the
enumeration of the center tuples the solvers sweep.

Two generators ship: the farthest-point seed set (k-center), one traversal
over oracle columns for every oracle kind, and a distance-proportional
oversampling scheme producing O(k) centers for the median/means pipelines.
Any object with the same ``generate`` signature can be plugged into the
solvers, e.g. a stronger sampling-based candidate set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import InputError, as_oracle

#: Most center tuples one solve may sweep.
TUPLE_CAP = 1 << 20


@dataclass(frozen=True)
class SeedSequence:
    """Ordered farthest-point seeds; each seed after the first maximizes the
    minimum distance to the ones before it (ties to the lowest index)."""

    indices: np.ndarray
    first_index: int
    #: max-min distance a (k+1)-th pick would have; 2-approximates the
    #: unconstrained optimal radius.
    next_min_distance: float


def gonzalez(source, k: int, first_index: int | None = 0, seed: int | None = None) -> SeedSequence:
    """Farthest-point traversal; O(nk) distance reads.

    The start is ``first_index``, or a seeded random point when it is None.
    Every oracle kind takes the same traversal
    (``kernels.farthest_point_order``), reading one ``oracle.columns``
    column per pick.
    """
    oracle = as_oracle(source)
    n = oracle.n
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    if first_index is None:
        first_index = int(np.random.default_rng(seed).integers(n))
    if not 0 <= first_index < n:
        raise InputError(f"first_index {first_index} out of range for n={n}")
    idx, mind = kernels.farthest_point_order(lambda c: oracle.columns([c])[:, 0], n, k, first_index)
    idx.setflags(write=False)
    return SeedSequence(indices=idx, first_index=int(first_index), next_min_distance=float(mind.max()))


def _bicriteria_sample(
    source, k: int, seed: int, objective: str, oversample: int
) -> tuple[np.ndarray, float, np.ndarray]:
    """``bicriteria_centers`` plus the chosen centers' distance rows: an
    (m, n) C-contiguous array whose row i holds the distances from every
    point to center i, written as each center is drawn."""
    oracle = as_oracle(source)
    n = oracle.n
    if k > n:
        raise InputError(f"need k <= n, got k={k}, n={n}")
    target = max(k, min(n, oversample * k))
    rng = np.random.default_rng(seed)
    power = 2 if objective == "means" else 1

    rows = np.empty((target, n))
    first = int(rng.integers(n))
    chosen = [first]
    rows[0] = oracle.columns([first])[:, 0]
    mind = rows[0].copy()
    while len(chosen) < target:
        weights = mind**power
        total = float(weights.sum())
        if total <= 0.0:
            break
        nxt = int(rng.choice(n, p=weights / total))
        rows[len(chosen)] = oracle.columns([nxt])[:, 0]
        np.minimum(mind, rows[len(chosen)], out=mind)
        chosen.append(nxt)
    while len(chosen) < k:  # fewer distinct locations than k: pad with repeats
        rows[len(chosen)] = rows[0]
        chosen.append(chosen[0])
    cost = float((mind**power).sum())
    return np.asarray(chosen, dtype=np.int64), cost, rows[: len(chosen)]


def bicriteria_centers(
    source,
    k: int,
    seed: int = 0,
    objective: str = "median",
    oversample: int = 8,
) -> tuple[np.ndarray, float]:
    """Sequential sampling of up to ``oversample * k`` centers, each drawn
    with probability proportional to its current distance (squared distance
    for the sum-of-squares objective) to the chosen set.

    Returns the chosen point indices and the unconstrained clustering cost of
    the final set (diagnostic). Sampling stops early once every point
    coincides with a chosen center; the result always has at least k entries.
    """
    centers, cost, _ = _bicriteria_sample(source, k, seed, objective, oversample)
    return centers, cost


def enumerate_tuples(candidates, k: int) -> np.ndarray:
    """All C(|C| + k - 1, k) sorted k-multisets of candidate positions, in
    lexicographic order (repetition inside a tuple is allowed), as the rows
    of one C-contiguous (N, k) int32 array.

    Every cluster has the same size bounds, so reordering a tuple's centers
    gives an isomorphic flow network with the same optimum; one sorted tuple
    per multiset covers the whole k-fold product. The sorted form is also
    each multiset's first permutation in product order, so tie-breaking by
    row order picks the winner the product would pick. Raises InputError,
    before building any tuple, when there are more than ``TUPLE_CAP`` of
    them.
    """
    m = int(candidates if isinstance(candidates, (int, np.integer)) else len(candidates))
    if m < 1:
        raise InputError("need at least one candidate center")
    count = math.comb(m + k - 1, k)
    if count > TUPLE_CAP:
        raise InputError(
            f"{count} center multisets of size {k} over {m} candidates exceed the cap of "
            f"{TUPLE_CAP}; reduce k or the candidate oversampling factor"
        )
    flat = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(m), k))
    return np.fromiter(flat, np.int32, count * k).reshape(count, k)


class CandidateGenerator:
    """Deterministic producer of candidate center indices for a given seed."""

    name = "base"

    def generate(self, source, k: int, objective: str) -> np.ndarray:
        raise NotImplementedError


class GonzalezGenerator(CandidateGenerator):
    """Exactly the k farthest-point seeds; the solvers sweep their k-multisets."""

    name = "gonzalez"

    def __init__(self, first_index: int = 0):
        self.first_index = int(first_index)

    def generate(self, source, k: int, objective: str) -> np.ndarray:
        return gonzalez(source, k, self.first_index).indices


class BicriteriaGenerator(CandidateGenerator):
    name = "bicriteria"

    def __init__(self, seed: int = 0, oversample: int = 8):
        self.seed = int(seed)
        self.oversample = int(oversample)
        self.last_cost: float | None = None
        self._sample: tuple[np.ndarray, np.ndarray] | None = None

    def generate(self, source, k: int, objective: str) -> np.ndarray:
        centers, cost, rows = _bicriteria_sample(source, k, self.seed, objective, self.oversample)
        self.last_cost = cost
        self._sample = (centers, rows)
        return centers

    def take_rows(self, centers: np.ndarray) -> np.ndarray | None:
        """The (m, n) distance rows that the last ``generate`` computed, if
        it returned ``centers``; None otherwise. The generator lets go of
        them, so they are handed out at most once."""
        sample, self._sample = self._sample, None
        if sample is None or not np.array_equal(sample[0], centers):
            return None
        return sample[1]
