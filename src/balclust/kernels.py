"""Hot numeric kernels in numpy: distance columns, coverage masks, ring codes
and farthest-point order.

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
    """Per-point bitmask of the centers within ``threshold`` (bit j = center j)."""
    bits = np.int64(1) << np.arange(cols.shape[1], dtype=np.int64)
    return (cols <= threshold) @ bits


def coverage_counts(cols: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    """Per-bitmask point counts plus the number of uncovered points."""
    masks = coverage_masks(cols, threshold)
    uncovered = int(np.count_nonzero(masks == 0))
    counts = np.bincount(masks, minlength=1 << cols.shape[1]).astype(np.int64)
    counts[0] = 0  # uncovered points are reported separately, not as a region
    return counts, uncovered


# ------------------------------------------------------- level ring coding
#
# Codes are mixed-radix integers with base T+2 per coordinate: digit 0 means
# an exact distance-0 hit, digit t+1 means ring t (smallest t with
# alpha_t >= distance).


def level_codes(cols: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Mixed-radix ring code per point (digit 0 = exact hit on the center)."""
    k = cols.shape[1]
    base = np.int64(alphas.size + 1)
    lev = np.searchsorted(alphas, cols, side="left")
    np.minimum(lev, alphas.size - 1, out=lev)
    digits = (lev + 1).astype(np.int64)
    digits[cols == 0.0] = 0
    weights = base ** np.arange(k, dtype=np.int64)
    return digits @ weights


# ------------------------------------------------- farthest-point traversal


def farthest_point_order(points: np.ndarray, k: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-min traversal; returns chosen indices and final min-distances."""
    n = points.shape[0]
    idx = np.empty(k, np.int64)
    mind = np.full(n, np.inf)
    selected = np.zeros(n, dtype=bool)
    cur = int(first)
    for step in range(k):
        idx[step] = cur
        selected[cur] = True
        center = points[cur]
        for start in range(0, n, _BLOCK):
            block = points[start : start + _BLOCK]
            diff = block - center
            d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            np.minimum(mind[start : start + _BLOCK], d, out=mind[start : start + _BLOCK])
        if step + 1 < k:
            cur = int(np.argmax(np.where(selected, -1.0, mind)))
    return idx, mind
