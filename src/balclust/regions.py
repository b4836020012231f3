"""Compress points into regions keyed by ball coverage or ring levels.

Regions make all downstream flow work independent of n: coverage bitmasks
give at most 2^k - 1 nonempty regions for a single radius, ring-level codes
give at most min(n, (T + 2)^k) for a geometric radius schedule. Only
nonempty regions are materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import InputError

#: Relative slack for ball-containment tests. Candidate radii are drawn from
#: the same distance tables they are tested against, so exact equality must
#: count as covered even after float rounding.
CONTAINMENT_SLACK = 1e-12

#: Level value reserved for points at exact distance zero from a center.
#: Such points cost nothing when assigned there, which positive rings cannot
#: express; see build_level_regions.
ZERO_LEVEL = -1


@dataclass(frozen=True)
class LevelSchedule:
    """Geometric radius ladder alpha_t = (1+eps)^t * r_min, t = 0..T."""

    alphas: np.ndarray
    epsilon: float
    levels: int  # T

    def ring_costs(self, squared: bool = False) -> np.ndarray:
        """Cost coefficient of each ring, indexed by ring digit (level + 1):
        [0, alpha_0, ..., alpha_T], squared for the sum-of-squares objective.
        Digit 0, the reserved zero level, is free."""
        return np.concatenate(([0.0], self.alphas**2 if squared else self.alphas))


@dataclass(frozen=True)
class RegionTable:
    """Nonempty regions: unique signature keys, per-region counts closing to n,
    and (optionally) per-region member index lists, each sorted ascending.

    ``kind`` is "coverage" (keys are ball bitmasks) or "level" (``levels``
    holds the (R, k) level matrix with ZERO_LEVEL marking exact center hits;
    keys are mixed-radix ring codes, or region ids 0..R-1 where those codes
    would overflow int64, see ``level_codes_overflow``).
    """

    kind: str
    k: int
    keys: np.ndarray
    counts: np.ndarray
    members: tuple | None = None
    levels: np.ndarray | None = None

    @property
    def num_regions(self) -> int:
        return int(self.keys.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _group_by_code(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    order = np.argsort(codes, kind="stable")
    keys, starts, counts = np.unique(codes[order], return_index=True, return_counts=True)
    members = tuple(np.sort(chunk) for chunk in np.split(order, starts[1:]))
    return keys, counts.astype(np.int64), members


def build_coverage_regions(table: np.ndarray, r: float) -> RegionTable | None:
    """Group points by the set of balls of radius r that contain them.

    Returns None as soon as any point lies outside all k balls (the radius is
    then trivially infeasible). Bit j of a signature is set iff the point's
    distance to center j is at most r (up to CONTAINMENT_SLACK). Radius 0 is
    legal: candidate ladders contain the zero self-distances, and a zero
    radius covers exactly the points coinciding with a center.
    """
    if r < 0:
        raise InputError(f"radius must be non-negative, got {r}")
    k = table.shape[1]
    threshold = r * (1.0 + CONTAINMENT_SLACK)
    masks = kernels.coverage_masks(table, threshold)
    if np.any(masks == 0):
        return None
    keys, counts, members = _group_by_code(masks)
    return RegionTable(kind="coverage", k=k, keys=keys, counts=counts, members=members)


def coverage_region_counts(table: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Counts-only regions for ``kcenter.check_feasible``: (keys, counts) or
    None when some point is uncovered. Equivalent to build_coverage_regions
    up to the omitted member lists."""
    threshold = r * (1.0 + CONTAINMENT_SLACK)
    counts, uncovered = kernels.coverage_counts(table, threshold)
    if uncovered:
        return None
    keys = np.flatnonzero(counts).astype(np.int64)
    return keys, counts[keys]


def build_level_schedule(r_min: float, r_max: float, epsilon: float) -> LevelSchedule:
    """Radius ladder covering [r_min, r_max] with ratio (1 + epsilon).

    T = ceil(log_{1+eps}(r_max / r_min)); T = 0 when the two radii agree.
    """
    if not (0 < r_min <= r_max):
        raise InputError(f"need 0 < r_min <= r_max, got ({r_min}, {r_max})")
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    if r_max == r_min:
        levels = 0
    else:
        levels = int(np.ceil(np.log(r_max / r_min) / np.log1p(epsilon) - 1e-12))
        levels = max(levels, 1)
    alphas = r_min * (1.0 + epsilon) ** np.arange(levels + 1)
    while alphas[-1] < r_max:  # guard against float undershoot of the ceil
        levels += 1
        alphas = r_min * (1.0 + epsilon) ** np.arange(levels + 1)
    alphas.setflags(write=False)
    return LevelSchedule(alphas=alphas, epsilon=float(epsilon), levels=levels)


def level_codes_overflow(schedule: LevelSchedule, k: int) -> bool:
    """Whether the mixed-radix ring codes of k columns, up to (T + 2)^k - 1,
    overflow int64."""
    return (schedule.alphas.size + 1) ** k > 1 << 63


def build_level_regions(table: np.ndarray, schedule: LevelSchedule, with_members: bool = True) -> RegionTable:
    """Group points by their ring level vector under the schedule.

    Level t >= 0 means the distance lies in (alpha_{t-1}, alpha_t] (boundary
    points belong to the inner ring's closure); exact distance 0 maps to the
    reserved ZERO_LEVEL so zero-cost placements stay representable.

    Points are grouped by their mixed-radix ring code. Where that code would
    overflow int64 they are grouped by their rows of ring digits instead, in
    lexicographic row order, and the keys are region ids.
    """
    k = table.shape[1]
    if schedule.alphas[-1] < table.max():
        raise InputError("level schedule does not cover the largest table distance")
    overflow = level_codes_overflow(schedule, k)
    if overflow:
        rows, codes = np.unique(kernels.level_digits(table, schedule.alphas), axis=0, return_inverse=True)
        codes = codes.ravel()
    else:
        codes = kernels.level_codes(table, schedule.alphas)
    if with_members:
        keys, counts, members = _group_by_code(codes)
    else:
        keys, counts = np.unique(codes, return_counts=True)
        counts = counts.astype(np.int64)
        members = None
    levels = rows.astype(np.int64) - 1 if overflow else decode_level_keys(keys, k, schedule)
    return RegionTable(kind="level", k=k, keys=keys, counts=counts, members=members, levels=levels)


def decode_level_keys(keys: np.ndarray, k: int, schedule: LevelSchedule) -> np.ndarray:
    """Inverse of the mixed-radix ring coding: (R, k) level matrix. Valid
    only for keys that are ring codes (not ``level_codes_overflow``)."""
    base = np.int64(schedule.alphas.size + 1)
    digits = (keys[:, None] // base ** np.arange(k, dtype=np.int64)) % base
    return (digits - 1).astype(np.int64)
