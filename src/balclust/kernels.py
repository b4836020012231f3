"""Hot numeric kernels: numba-jitted fast path with a pure-numpy fallback.

The backend is picked once at import: numba is used when it imports cleanly
and the environment variable ``BALCLUST_NO_NUMBA`` is unset (or falsy).
Tests and the benchmark flip :data:`USE_NUMBA` directly to compare the two
backends in-process; both implementations of every kernel are importable.
"""

from __future__ import annotations

import os

import numpy as np

_DISABLED = os.environ.get("BALCLUST_NO_NUMBA", "").lower() in ("1", "true", "yes")

NUMBA_AVAILABLE = False
if not _DISABLED:
    try:
        from numba import njit

        NUMBA_AVAILABLE = True
    except ImportError:  # numba is an optional extra (balclust[numba])
        pass

#: Active backend switch. Resolved from the environment at import time;
#: mutable so benchmarks/tests can force either path.
USE_NUMBA = NUMBA_AVAILABLE


# ---------------------------------------------------------------- distances


#: Row-block size for the numpy fallbacks; keeps the per-center difference
#: temporaries cache-resident instead of streaming n x d arrays per center.
_BLOCK = 4096


def _euclidean_columns_np(points: np.ndarray, centers: np.ndarray, squared: bool) -> np.ndarray:
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


def _coverage_counts_np(cols: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    k = cols.shape[1]
    bits = np.int64(1) << np.arange(k, dtype=np.int64)
    masks = (cols <= threshold) @ bits
    uncovered = int(np.count_nonzero(masks == 0))
    counts = np.bincount(masks, minlength=1 << k).astype(np.int64)
    counts[0] = 0  # uncovered points are reported separately, not as a region
    return counts, uncovered


def _coverage_masks_np(cols: np.ndarray, threshold: float) -> np.ndarray:
    bits = np.int64(1) << np.arange(cols.shape[1], dtype=np.int64)
    return (cols <= threshold) @ bits


# ------------------------------------------------------- level ring coding
#
# Codes are mixed-radix integers with base T+2 per coordinate: digit 0 means
# an exact distance-0 hit, digit t+1 means ring t (smallest t with
# alpha_t >= distance).


def _level_codes_np(cols: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    k = cols.shape[1]
    base = np.int64(alphas.size + 1)
    lev = np.searchsorted(alphas, cols, side="left")
    np.minimum(lev, alphas.size - 1, out=lev)
    digits = (lev + 1).astype(np.int64)
    digits[cols == 0.0] = 0
    weights = base ** np.arange(k, dtype=np.int64)
    return digits @ weights


# ------------------------------------------------- farthest-point traversal


def _farthest_order_np(points: np.ndarray, k: int, first: int) -> tuple[np.ndarray, np.ndarray]:
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


if NUMBA_AVAILABLE:

    @njit(cache=True)
    def _euclidean_columns_nb(points, centers, squared):
        n, d = points.shape
        m = centers.shape[0]
        out = np.empty((n, m))
        for i in range(n):
            for c in range(m):
                s = 0.0
                for t in range(d):
                    diff = points[i, t] - centers[c, t]
                    s += diff * diff
                out[i, c] = s if squared else np.sqrt(s)
        return out

    @njit(cache=True)
    def _coverage_counts_nb(cols, threshold):
        n, k = cols.shape
        counts = np.zeros(1 << k, np.int64)
        uncovered = 0
        for i in range(n):
            m = 0
            for j in range(k):
                if cols[i, j] <= threshold:
                    m |= 1 << j
            if m == 0:
                uncovered += 1
            else:
                counts[m] += 1
        return counts, uncovered

    @njit(cache=True)
    def _coverage_masks_nb(cols, threshold):
        n, k = cols.shape
        masks = np.zeros(n, np.int64)
        for i in range(n):
            m = 0
            for j in range(k):
                if cols[i, j] <= threshold:
                    m |= 1 << j
            masks[i] = m
        return masks

    @njit(cache=True)
    def _level_codes_nb(cols, alphas):
        n, k = cols.shape
        top = alphas.size - 1
        base = np.int64(alphas.size + 1)
        out = np.empty(n, np.int64)
        for i in range(n):
            code = np.int64(0)
            mul = np.int64(1)
            for j in range(k):
                d = cols[i, j]
                if d == 0.0:
                    dig = np.int64(0)
                else:
                    lev = np.searchsorted(alphas, d)
                    if lev > top:
                        lev = top
                    dig = np.int64(lev + 1)
                code += dig * mul
                mul *= base
            out[i] = code
        return out

    @njit(cache=True)
    def _farthest_order_nb(points, k, first):
        n, d = points.shape
        idx = np.empty(k, np.int64)
        mind = np.full(n, np.inf)
        selected = np.zeros(n, np.bool_)
        cur = first
        for step in range(k):
            idx[step] = cur
            selected[cur] = True
            best = -1.0
            arg = 0
            for i in range(n):
                s = 0.0
                for t in range(d):
                    diff = points[i, t] - points[cur, t]
                    s += diff * diff
                dd = np.sqrt(s)
                if dd < mind[i]:
                    mind[i] = dd
                if not selected[i] and mind[i] > best:
                    best = mind[i]
                    arg = i
            cur = arg
        return idx, mind


def euclidean_columns(points: np.ndarray, centers: np.ndarray, squared: bool = False) -> np.ndarray:
    """Distances (or squared distances) from every point to every center."""
    if USE_NUMBA:
        return _euclidean_columns_nb(points, centers, squared)
    return _euclidean_columns_np(points, centers, squared)


def coverage_counts(cols: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    """Per-bitmask point counts plus the number of uncovered points."""
    if USE_NUMBA:
        return _coverage_counts_nb(cols, threshold)
    return _coverage_counts_np(cols, threshold)


def coverage_masks(cols: np.ndarray, threshold: float) -> np.ndarray:
    if USE_NUMBA:
        return _coverage_masks_nb(cols, threshold)
    return _coverage_masks_np(cols, threshold)


def level_codes(cols: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Mixed-radix ring code per point (digit 0 = exact hit on the center)."""
    if USE_NUMBA:
        return _level_codes_nb(cols, alphas)
    return _level_codes_np(cols, alphas)


def farthest_point_order(points: np.ndarray, k: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-min traversal; returns chosen indices and final min-distances."""
    if USE_NUMBA:
        return _farthest_order_nb(points, int(k), int(first))
    return _farthest_order_np(points, k, first)
