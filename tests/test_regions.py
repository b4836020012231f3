import numpy as np
import pytest

import balclust as bc
from balclust.regions import (
    ZERO_LEVEL,
    build_coverage_regions,
    build_level_regions,
    build_level_schedule,
    coverage_region_counts,
    decode_level_keys,
    level_codes_overflow,
)
from balclust.oracle import tight_line_fixture

from conftest import random_points


def test_coverage_single_point():
    table = np.array([[0.5, 3.0]])
    regions = build_coverage_regions(table, 1.0)
    assert regions.keys.tolist() == [0b01]
    assert regions.counts.tolist() == [1]


def test_coverage_tight_line_scan():
    fx = tight_line_fixture(0.1)
    table = bc.distance_table(bc.PointSet(fx.points), [1, 4, 0])
    r = 1.9
    regions = build_coverage_regions(table, r)
    assert regions is not None
    point_to_mask = {}
    for key, members in zip(regions.keys, regions.members):
        for m in members:
            point_to_mask[int(m)] = int(key)
    # p3 (index 2) has distances (1.9, 3.9, 3.9): ball 1 only
    assert point_to_mask[2] == 0b001
    # independent containment scan
    for i in range(6):
        expected = 0
        for j in range(3):
            if table[i, j] <= r * (1 + 1e-12):
                expected |= 1 << j
        assert point_to_mask[i] == expected


def test_coverage_uncovered_point_infeasible():
    table = np.array([[0.5, 0.5], [9.0, 9.0]])
    assert build_coverage_regions(table, 1.0) is None
    assert coverage_region_counts(table, 1.0) is None


def test_coverage_counts_fast_path_matches():
    rng = np.random.default_rng(8)
    for _ in range(25):
        table = rng.uniform(0, 4, size=(rng.integers(2, 30), rng.integers(1, 4)))
        r = float(rng.uniform(0.5, 4.5))
        full = build_coverage_regions(table, r)
        fast = coverage_region_counts(table, r)
        if full is None:
            assert fast is None
        else:
            keys, counts = fast
            assert keys.tolist() == full.keys.tolist()
            assert counts.tolist() == full.counts.tolist()


def test_level_schedule_powers_of_two():
    schedule = build_level_schedule(1.0, 8.0, 1.0)
    assert schedule.levels == 3
    assert np.allclose(schedule.alphas, [1.0, 2.0, 4.0, 8.0])


def test_level_schedule_single_level():
    schedule = build_level_schedule(5.0, 5.0, 1.0)
    assert schedule.levels == 0
    assert schedule.alphas.tolist() == [5.0]


def test_level_schedule_formula():
    # T = ceil(log_1.5(7.8 / 1.9)) = 4
    schedule = build_level_schedule(1.9, 7.8, 0.5)
    assert schedule.levels == 4
    assert np.allclose(schedule.alphas, [1.9, 2.85, 4.275, 6.4125, 9.61875], rtol=1e-12)
    assert schedule.alphas[-1] >= 7.8
    assert np.all(np.diff(schedule.alphas) > 0)


def test_level_schedule_validation():
    with pytest.raises(bc.InputError):
        build_level_schedule(0.0, 1.0, 1.0)
    with pytest.raises(bc.InputError):
        build_level_schedule(1.0, 2.0, 0.0)


def test_level_vector_lookup():
    schedule = build_level_schedule(1.0, 8.0, 1.0)
    table = np.array([[0.0, 5.0]])
    regions = build_level_regions(table, schedule)
    assert regions.num_regions == 1
    # exact hits on a center live in the reserved free ring, not ring 0
    assert regions.levels[0].tolist() == [ZERO_LEVEL, 3]
    # a positive distance within the innermost radius maps to ring 0
    regions2 = build_level_regions(np.array([[0.5, 5.0]]), schedule)
    assert regions2.levels[0].tolist() == [0, 3]


def test_level_boundary_belongs_to_inner_ring():
    schedule = build_level_schedule(1.0, 8.0, 1.0)
    regions = build_level_regions(np.array([[2.0, 8.0]]), schedule)
    assert regions.levels[0].tolist() == [1, 3]


def test_two_center_annulus_region():
    # two centers, one ring split: a point in the outer ring of both
    schedule = build_level_schedule(1.0, 2.0, 1.0)
    table = np.array([[1.5, 1.8]])
    regions = build_level_regions(table, schedule)
    assert regions.levels[0].tolist() == [1, 1]


def test_partition_and_signature_soundness():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, 4))
        table = rng.uniform(0, 5, size=(n, k))
        table[rng.uniform(size=table.shape) < 0.1] = 0.0

        extremes = bc.extreme_distances(table)
        if extremes is None:
            continue
        schedule = build_level_schedule(*extremes, epsilon=0.5)
        regions = build_level_regions(table, schedule)
        seen = np.concatenate(regions.members)
        assert sorted(seen.tolist()) == list(range(n))
        assert regions.counts.sum() == n
        assert all(np.all(np.diff(m) > 0) for m in regions.members)
        assert regions.num_regions <= min(n, (schedule.levels + 2) ** k)
        # re-derive each member's signature from the raw distances
        for key, members, levels in zip(regions.keys, regions.members, regions.levels):
            for i in members:
                for j in range(k):
                    d = table[i, j]
                    lev = int(levels[j])
                    if d == 0.0:
                        assert lev == ZERO_LEVEL
                    else:
                        assert lev >= 0
                        assert d <= schedule.alphas[lev] * (1 + 1e-12)
                        if lev >= 1:
                            assert d > schedule.alphas[lev - 1]

        r = float(rng.uniform(0.2, 5.0))
        cov = build_coverage_regions(table, r)
        if cov is None:
            continue
        seen = np.concatenate(cov.members)
        assert sorted(seen.tolist()) == list(range(n))
        assert cov.num_regions <= (1 << k) - 1
        for key, members in zip(cov.keys, cov.members):
            for i in members:
                mask = 0
                for j in range(k):
                    if table[i, j] <= r * (1 + 1e-12):
                        mask |= 1 << j
                assert mask == int(key)


def test_level_sandwich_property():
    rng = np.random.default_rng(23)
    for eps in (0.25, 1.0):
        table = rng.uniform(0.1, 9.0, size=(30, 3))
        r_min, r_max = bc.extreme_distances(table)
        schedule = build_level_schedule(r_min, r_max, eps)
        regions = build_level_regions(table, schedule)
        for members, levels in zip(regions.members, regions.levels):
            for i in members:
                for j in range(3):
                    lev = int(levels[j])
                    if lev >= 1:
                        alpha = schedule.alphas[lev]
                        assert alpha / (1 + eps) < table[i, j] <= alpha * (1 + 1e-12)


def test_decode_level_keys_roundtrip():
    schedule = build_level_schedule(1.0, 8.0, 1.0)
    table = np.array([[0.0, 3.0], [1.0, 8.0], [0.5, 0.0]])
    regions = build_level_regions(table, schedule)
    decoded = decode_level_keys(regions.keys, 2, schedule)
    assert np.array_equal(decoded, regions.levels)


def test_zero_distance_to_two_centers():
    schedule = build_level_schedule(1.0, 2.0, 1.0)
    regions = build_level_regions(np.array([[0.0, 0.0], [1.5, 2.0]]), schedule)
    lookup = {tuple(lev): cnt for lev, cnt in zip(regions.levels.tolist(), regions.counts.tolist())}
    assert lookup[(ZERO_LEVEL, ZERO_LEVEL)] == 1


def test_level_codes_overflow_boundary():
    # a one-rung ladder has base 2: codes of 63 columns reach 2^63 - 1 and
    # still fit int64, codes of 64 columns do not
    schedule = build_level_schedule(1.0, 1.0, 1.0)
    assert not level_codes_overflow(schedule, 63)
    assert level_codes_overflow(schedule, 64)
    rng = np.random.default_rng(31)
    for k in (63, 64):
        table = rng.choice([0.0, 0.5, 1.0], size=(40, k))
        table[0] = 1.0  # the largest code, (T + 2)^k - 1
        regions = build_level_regions(table, schedule)
        expected = (table > 0.0).astype(np.int64) - 1
        for members, levels in zip(regions.members, regions.levels):
            assert all(expected[i].tolist() == levels.tolist() for i in members)


def test_level_regions_when_ring_codes_overflow_int64():
    # at k = 6 and epsilon 1e-3 the ladder has 3,054 rungs, so the ring
    # codes run up to 3,055^6 > 2^63; every member of a region must still
    # carry exactly that region's levels
    table = bc.distance_table(random_points(1, 30, 3), [0, 3, 7, 11, 19, 23])
    schedule = build_level_schedule(*bc.extreme_distances(table), 1e-3)
    assert schedule.alphas.size + 1 == 3055
    expected = np.searchsorted(schedule.alphas, table, side="left")
    expected[table == 0.0] = ZERO_LEVEL
    regions = build_level_regions(table, schedule)
    assert sorted(np.concatenate(regions.members).tolist()) == list(range(30))
    assert regions.keys.tolist() == list(range(regions.num_regions))
    assert len({tuple(lev) for lev in regions.levels.tolist()}) == regions.num_regions
    for members, levels in zip(regions.members, regions.levels):
        for i in members:
            assert expected[i].tolist() == levels.tolist()
    counts_only = build_level_regions(table, schedule, with_members=False)
    assert counts_only.counts.tolist() == regions.counts.tolist()
    assert np.array_equal(counts_only.levels, regions.levels)
