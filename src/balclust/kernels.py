"""Hot numeric kernels in numpy: distance columns, coverage masks, ring codes,
ring bit planes and the farthest-point traversal.

The traversal reads its distances through a column callback, so every
oracle kind shares it; Euclidean columns come from ``euclidean_columns``.

Ring digits come in the narrowest unsigned type that holds the ladder's
digits. A ladder of at most ``COUNT_RUNGS`` rungs is coded by counting the
rungs below each distance, one comparison pass per rung; a longer ladder is
binary-searched with ``np.searchsorted``. Both give the same digits.

Callers look each kernel up as ``kernels.<fn>`` at call time, so a kernel can
be wrapped (for timing, say) by rebinding the module attribute.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------- distances


#: Row-block size; keeps the per-center difference temporaries cache-resident
#: instead of streaming n x d arrays per center.
_BLOCK = 4096


def euclidean_columns(points: np.ndarray, centers: np.ndarray, squared: bool = False) -> np.ndarray:
    """Distances (or squared distances) from every point to every center."""
    n = points.shape[0]
    out = np.empty((n, centers.shape[0]))
    for start in range(0, n, _BLOCK):
        block = points[start : start + _BLOCK]
        for c in range(centers.shape[0]):
            diff = block - centers[c]
            out[start : start + _BLOCK, c] = np.einsum("ij,ij->i", diff, diff)
    if not squared:
        np.sqrt(out, out=out)
    return out


# --------------------------------------------------- coverage mask counting


def coverage_masks(cols: np.ndarray, threshold: float) -> np.ndarray:
    """Per-point bitmask of the centers within ``threshold`` (bit j = center j).

    Bits are set one column at a time: the integer product of the (n, k)
    booleans with the bit weights took about 1.5 times as long at
    n = 10,000-40,000 and k = 3-5 (numpy 2.4, 2-vCPU Xeon).
    """
    inside = cols <= threshold
    masks = inside[:, 0].astype(np.int64)
    for j in range(1, cols.shape[1]):
        masks |= inside[:, j].astype(np.int64) << j
    return masks


def coverage_counts(cols: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    """Per-bitmask point counts plus the number of uncovered points."""
    counts = np.bincount(coverage_masks(cols, threshold), minlength=1 << cols.shape[1]).astype(np.int64)
    uncovered = int(counts[0])
    counts[0] = 0  # uncovered points are reported separately, not as a region
    return counts, uncovered


# ------------------------------------------------------- level ring coding
#
# Codes are mixed-radix integers with base T+2 per coordinate: digit 0 means
# an exact distance-0 hit, digit t+1 means ring t (smallest t with
# alpha_t >= distance).


#: Longest ladder, in rungs, whose digits are counted rung by rung. Counting
#: is one comparison pass per rung, searching one binary search per value.
#: On one row (2-vCPU Xeon, numpy 2.4) counting wins up to 4 rungs at
#: n = 600 (12 against 14 us) and through 34 rungs at n = 100,000 (4 rungs:
#: 0.10 against 1.5 ms; 34 rungs: 0.9 against 3.2 ms). At n = 600 the
#: search leads by 1.7x at 8 rungs and by 4x at 34, where a near-duplicate
#: pair puts its ladders.
COUNT_RUNGS = 8


def level_digits(cols: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Ring digit per point and center (0 = exact hit on the center), in the
    narrowest unsigned type that holds ``alphas.size``.

    The digit of a positive distance x is min(searchsorted(alphas, x,
    "left"), T) + 1: one plus the number of rungs among alphas[:-1] below x.
    """
    dtype = np.min_scalar_type(alphas.size)
    if alphas.size <= COUNT_RUNGS:
        digits = (cols > 0.0).astype(dtype)
        for alpha in alphas[:-1].tolist():
            digits += cols > alpha
        return digits
    lev = np.searchsorted(alphas, cols, side="left")
    np.minimum(lev, alphas.size - 1, out=lev)
    lev += 1
    digits = lev.astype(dtype)
    digits[cols == 0.0] = 0
    return digits


def rung_planes(row: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Packed bit planes of one row, (p, ceil(n / 64)) uint64: bit i of
    plane j is set iff row[i] > thresholds[j]; bits past n are clear."""
    n = row.size
    above = np.zeros((thresholds.size, -(-n // 64) * 64), dtype=bool)
    np.greater(row, thresholds[:, None], out=above[:, :n])
    return np.packbits(above, axis=1, bitorder="little").view(np.uint64)


def level_codes(cols: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Mixed-radix ring code per point; wraps once (T + 2)^k exceeds 2^63."""
    base = np.int64(alphas.size + 1)
    weights = base ** np.arange(cols.shape[1], dtype=np.int64)
    return level_digits(cols, alphas).astype(np.int64) @ weights


# ------------------------------------------------- farthest-point traversal


def farthest_point_order(column, n: int, k: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-min traversal of n points from ``first``, where
    ``column(i)`` returns the (n,) distances from point i. Each pick after
    the first maximizes the minimum distance to the picks before it (ties to
    the lowest index). Returns the k picks and every point's final
    min-distance to them; the traversal itself computes no distance."""
    idx = np.empty(k, np.int64)
    mind = np.full(n, np.inf)
    selected = np.zeros(n, dtype=bool)
    cur = int(first)
    for step in range(k):
        idx[step] = cur
        selected[cur] = True
        np.minimum(mind, column(cur), out=mind)
        if step + 1 < k:
            cur = int(np.argmax(np.where(selected, -1.0, mind)))
    return idx, mind
