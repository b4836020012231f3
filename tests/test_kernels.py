"""Each kernel against a plain per-point Python loop."""

import math

import numpy as np
import pytest

from balclust import kernels


def random_cols(seed, n, k):
    rng = np.random.default_rng(seed)
    cols = rng.uniform(0, 5, size=(n, k))
    cols[rng.uniform(size=cols.shape) < 0.08] = 0.0
    return cols


def reference_columns(points, centers, squared):
    out = np.empty((points.shape[0], centers.shape[0]))
    for i, p in enumerate(points):
        for c, q in enumerate(centers):
            s = sum((float(a) - float(b)) ** 2 for a, b in zip(p, q))
            out[i, c] = s if squared else math.sqrt(s)
    return out


def reference_masks(cols, threshold):
    masks = []
    for row in cols:
        m = 0
        for j, d in enumerate(row):
            if d <= threshold:
                m |= 1 << j
        masks.append(m)
    return masks


def reference_counts(cols, threshold):
    counts = [0] * (1 << cols.shape[1])
    uncovered = 0
    for m in reference_masks(cols, threshold):
        if m == 0:
            uncovered += 1
        else:
            counts[m] += 1
    return counts, uncovered


def reference_codes(cols, alphas):
    top = alphas.size - 1
    base = alphas.size + 1
    codes = []
    for row in cols:
        code, mul = 0, 1
        for d in row:
            if d == 0.0:
                dig = 0
            else:
                lev = next((t for t, a in enumerate(alphas) if a >= d), top + 1)
                dig = min(lev, top) + 1
            code += dig * mul
            mul *= base
        codes.append(code)
    return codes


def reference_farthest(points, k, first):
    n = points.shape[0]
    idx, mind, selected = [], [math.inf] * n, [False] * n
    cur = first
    for _ in range(k):
        idx.append(cur)
        selected[cur] = True
        best, arg = -1.0, 0
        for i in range(n):
            d = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(points[i], points[cur])))
            mind[i] = min(mind[i], d)
            if not selected[i] and mind[i] > best:
                best, arg = mind[i], i
        cur = arg
    return idx, np.array(mind)


# The default block holds every test instance in one block; 8 rows make the
# kernels cross block boundaries, with a partial last block.
@pytest.mark.parametrize("block", [kernels._BLOCK, 8])
def test_euclidean_columns_match_reference(monkeypatch, block):
    monkeypatch.setattr(kernels, "_BLOCK", block)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 7))
    ctrs = pts[[3, 11, 40]]
    for squared in (False, True):
        got = kernels.euclidean_columns(pts, ctrs, squared)
        want = reference_columns(pts, ctrs, squared)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
    # a center that is one of the points is at distance exactly 0 from it
    assert kernels.euclidean_columns(pts, ctrs)[11, 1] == 0.0


def test_coverage_matches_reference():
    for seed in range(8):
        for k in (1, 3, 5):
            cols = random_cols(seed, 60, k)
            for thr in (0.0, float(np.median(cols)), 5.0):
                counts, uncovered = kernels.coverage_counts(cols, thr)
                want_counts, want_uncovered = reference_counts(cols, thr)
                assert uncovered == want_uncovered
                assert counts.dtype == np.int64
                assert counts.tolist() == want_counts
                assert kernels.coverage_masks(cols, thr).tolist() == reference_masks(cols, thr)


def test_level_codes_match_reference():
    alphas = 0.5 * 2.0 ** np.arange(5)
    for seed in range(8):
        for k in (1, 2, 3):
            cols = random_cols(seed, 40, k)
            cols[0, 0] = alphas[2]  # on a ring boundary: the ring itself, not the next
            cols[1, 0] = alphas[-1] * 1.5  # beyond the top ring: clamped to it
            cols[2, 0] = 0.0  # exact hit: digit 0
            codes = kernels.level_codes(cols, alphas)
            assert codes.tolist() == reference_codes(cols, alphas)


def test_levels_clamped_to_schedule_top():
    alphas = np.array([1.0, 2.0])
    cols = np.array([[2.0 + 1e-13]])  # float dust above the top radius
    codes = kernels.level_codes(cols, alphas)
    assert codes[0] == 2  # ring 1, not out of range


@pytest.mark.parametrize("block", [kernels._BLOCK, 8])
def test_farthest_order_matches_reference(monkeypatch, block):
    # the traversal reads Euclidean columns, so the block size reaches it
    # through euclidean_columns
    monkeypatch.setattr(kernels, "_BLOCK", block)
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((30, 4))
    pts[5] = pts[2]  # coincident pair exercises the tie-break

    def column(c):
        return kernels.euclidean_columns(pts, pts[[c]])[:, 0]

    for k, first in ((6, 2), (30, 0)):
        idx, mind = kernels.farthest_point_order(column, 30, k, first)
        want_idx, want_mind = reference_farthest(pts, k, first)
        assert idx.tolist() == want_idx
        assert np.allclose(mind, want_mind, rtol=1e-12)
        assert len(set(idx.tolist())) == k


@pytest.mark.parametrize("rungs", sorted({1, 4, 8, 9, 40, 300, kernels.COUNT_RUNGS, kernels.COUNT_RUNGS + 1}))
def test_level_digits_match_searchsorted(rungs):
    # counted ladders (at most COUNT_RUNGS rungs) and searched ones must give
    # the same digits, in the narrowest unsigned type that holds T + 1
    rng = np.random.default_rng(rungs)
    alphas = 0.25 * 1.1 ** np.arange(rungs)
    x = rng.uniform(0.0, alphas[-1] * 1.2, size=(500, 3))
    x[:rungs, 0] = alphas  # exactly on a rung: that rung, not the next
    x[0, 1] = alphas[-1] + 1e-13 * alphas[-1]  # float dust above the top rung
    x[1, 1] = np.nextafter(alphas[0], 0.0)  # just inside the first rung
    x[rng.uniform(size=x.shape) < 0.05] = 0.0  # exact hits
    x[2, 2] = 0.0
    want = np.minimum(np.searchsorted(alphas, x, side="left"), rungs - 1) + 1
    want[x == 0.0] = 0
    for cols in (x, x[:, 1]):  # a table and one 1-d row
        got = kernels.level_digits(cols, alphas)
        assert got.dtype == (np.uint16 if rungs > 255 else np.uint8)
        assert got.shape == cols.shape
        assert got.tolist() == (want if cols.ndim == 2 else want[:, 1]).tolist()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_rung_planes_match_per_point_loop(n):
    # bit i of plane j is row[i] > thresholds[j]; the padding past n is clear
    rng = np.random.default_rng(n)
    row = rng.uniform(0.0, 2.0, size=n)
    row[rng.uniform(size=n) < 0.2] = 0.0
    thresholds = np.array([0.0, 0.5, 1.0, float(row.max())])
    planes = kernels.rung_planes(row, thresholds)
    assert planes.dtype == np.uint64
    assert planes.shape == (thresholds.size, math.ceil(n / 64))
    for j, t in enumerate(thresholds.tolist()):
        words = planes[j].tolist()
        bits = [(words[i // 64] >> (i % 64)) & 1 for i in range(64 * len(words))]
        assert bits == [int(i < n and row[i] > t) for i in range(64 * len(words))]
