"""The benchmark's workloads: a seeded instance generator per workload and
the public solver call that runs on it.

Every instance is Gaussian data sized so that one solve takes seconds, and
each workload is led by a different layer of the program (see README.md).
Cluster bounds are about +-10 % of n/k everywhere, and the sum objectives
use the solver's default ring ratio 1 + EPSILON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

EPSILON = 1.0


def _blobs(rng: np.random.Generator, n: int, d: int, shares: tuple[int, ...], gap: float) -> np.ndarray:
    """Unit-variance Gaussian blobs centered ``gap`` out along the first
    axes, with fixed sizes in the ratio ``shares``. Only the noise and the
    point order depend on the seed, which keeps the work of a solve nearly
    the same from seed to seed."""
    sizes = np.floor(np.asarray(shares) / sum(shares) * n).astype(int)
    sizes[0] += n - sizes.sum()
    centers = np.zeros((len(shares), d))
    centers[np.arange(len(shares)), np.arange(len(shares))] = gap
    labels = rng.permutation(np.repeat(np.arange(len(shares)), sizes))
    return centers[labels] + rng.standard_normal((n, d))


def _near_duplicate(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Standard normal points with point 1 planted 1e-9 from point 0, the
    first Gonzalez seed. Every tuple that holds that seed then has a ring
    ladder of about 33 levels, and (T + 2)^4 exceeds the solver's region cap."""
    points = rng.standard_normal((n, d))
    step = rng.standard_normal(d)
    points[1] = points[0] + 1e-9 * step / np.linalg.norm(step)
    return points


@dataclass(frozen=True)
class Workload:
    name: str
    objective: str  # "center", "median" or "means"
    k: int
    n: int
    d: int
    generator: str  # "gonzalez" (the first k farthest-point seeds) or "bicriteria"
    make: Callable[[np.random.Generator, int, int], np.ndarray]  # (rng, n, d) -> points

    def points(self, seed: int) -> np.ndarray:
        return self.make(np.random.default_rng(seed), self.n, self.d)

    @property
    def bounds(self) -> tuple[int, int]:
        """(floor(0.9 n/k), ceil(1.1 n/k))."""
        return (9 * self.n) // (10 * self.k), -(-11 * self.n // (10 * self.k))

    def solve(self, bc, oracle, seed: int):
        """One call of the public solver on an already loaded instance."""
        bounds = bc.BalanceBounds(*self.bounds)
        if self.objective == "center":
            return bc.solve_kbcenter(oracle, self.k, bounds)
        if self.generator == "gonzalez":
            return bc.solve_balanced(
                oracle, self.k, bounds, epsilon=EPSILON, objective=self.objective,
                generator=bc.GonzalezGenerator(),
            )
        return bc.solve_balanced(
            oracle, self.k, bounds, epsilon=EPSILON, objective=self.objective, seed=seed
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Uneven, well separated blobs: the +-10 % bounds force cross-blob
        # assignments, so the tuples of distinct seeds reach the max flow.
        # Fixed blob sizes keep the probe count at one of two values, by
        # whether the winning radius lies below or above the 2^13-th rung of
        # the radius ladder (about 41,013 or 43,940 probes).
        Workload("center-k5", "center", 5, 6400, 32, "gonzalez", lambda rng, n, d: _blobs(rng, n, d, (13, 11, 10, 9, 7), 20.0)),
        Workload("median-bicriteria-k3", "median", 3, 600, 16, "bicriteria", lambda rng, n, d: _blobs(rng, n, d, (1,) * 6, 3.0)),
        Workload("means-large-n", "means", 2, 100_000, 32, "bicriteria", lambda rng, n, d: _blobs(rng, n, d, (1,) * 4, 3.0)),
        Workload("median-neardup-k4", "median", 4, 160, 8, "gonzalez", _near_duplicate),
    )
}
