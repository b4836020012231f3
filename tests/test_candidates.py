import itertools
import math

import numpy as np
import pytest

import balclust as bc
from balclust import candidates
from balclust.oracle import planted_fixture, tight_line_fixture

from conftest import random_points


def test_exhaustive_when_n_equals_k():
    ps = random_points(0, 3, 2)
    centers, cost = bc.bicriteria_centers(ps, 3, seed=1)
    assert sorted(centers.tolist()) == [0, 1, 2]
    assert cost == pytest.approx(0.0)


def test_planted_groups_both_hit():
    fx = planted_fixture(k=2, group=4, gap=50.0)
    ps = bc.PointSet(fx.points)
    for seed in range(10):
        centers, cost = bc.bicriteria_centers(ps, 2, seed=seed)
        groups = {0 if ps.points[c, 0] < 25 else 1 for c in centers}
        assert groups == {0, 1}
        assert cost == pytest.approx(0.0)


def test_sampling_determinism():
    ps = random_points(5, 40, 3)
    a, _ = bc.bicriteria_centers(ps, 3, seed=11)
    b, _ = bc.bicriteria_centers(ps, 3, seed=11)
    c, _ = bc.bicriteria_centers(ps, 3, seed=12)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert len(a) >= 3


def test_enumerate_tuples_products():
    assert bc.enumerate_tuples(2, 2).tolist() == [[0, 0], [0, 1], [1, 1]]
    for m, k in ((1, 4), (3, 3), (5, 2), (4, 4)):
        array = bc.enumerate_tuples(m, k)
        assert array.dtype == np.int32
        assert array.shape == (math.comb(m + k - 1, k), k)
        assert array.flags.c_contiguous
        tuples = [tuple(t) for t in array.tolist()]
        assert len(set(tuples)) == len(tuples)
        assert tuples == sorted(tuples)
        assert all(list(t) == sorted(t) for t in tuples)
        # one sorted representative per multiset of the k-fold product
        assert set(tuples) == {tuple(sorted(t)) for t in itertools.product(range(m), repeat=k)}


def test_enumerate_tuples_matches_seed_products_on_fixture():
    fx = tight_line_fixture(0.1)
    seeds = bc.gonzalez(bc.PointSet(fx.points), 3, first_index=1)
    tuples = bc.enumerate_tuples(seeds.indices, 3)
    assert len(tuples) == 10


def test_enumerate_tuples_cap(monkeypatch):
    # the cap counts the C(m + k - 1, k) multisets swept, inclusively
    monkeypatch.setattr(candidates, "TUPLE_CAP", 10)
    assert len(bc.enumerate_tuples(3, 3)) == 10
    assert len(bc.enumerate_tuples(2, 9)) == 10
    with pytest.raises(bc.InputError, match="cap"):
        bc.enumerate_tuples(4, 3)
    with pytest.raises(bc.InputError, match="cap"):
        bc.enumerate_tuples(2, 10)
    monkeypatch.undo()
    assert math.comb(69 + 3, 4) <= candidates.TUPLE_CAP < math.comb(70 + 3, 4)
    with pytest.raises(bc.InputError, match="cap"):
        bc.enumerate_tuples(70, 4)
    with pytest.raises(bc.InputError):
        bc.enumerate_tuples(0, 2)


def test_candidate_quality_percentile():
    # unconstrained cost of the best k-subset of the oversampled centers vs
    # the brute-force unconstrained optimum over all k-subsets of the input
    k = 2
    good = 0
    trials = 200
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 11))
        ps = random_points(seed + 2025, n, 2)
        table = bc.distance_table(ps, np.arange(n))
        best_all = min(
            table[:, list(sub)].min(axis=1).sum()
            for sub in itertools.combinations(range(n), k)
        )
        centers, _ = bc.bicriteria_centers(ps, k, seed=seed)
        unique = sorted(set(centers.tolist()))
        best_c = min(
            table[:, list(sub)].min(axis=1).sum()
            for sub in itertools.combinations(unique, min(k, len(unique)))
        )
        if best_c <= 25 * best_all + 1e-12:
            good += 1
    assert good >= 0.95 * trials


def test_gonzalez_generator_delegates():
    ps = random_points(4, 12, 2)
    gen = bc.GonzalezGenerator(first_index=2)
    centers = gen.generate(ps, 3, "median")
    assert centers.tolist() == bc.gonzalez(ps, 3, 2).indices.tolist()


def test_sampler_rows_equal_oracle_columns():
    # the rows the bicriteria generator hands to the sweep are the oracle's
    # own columns, bit for bit, and are handed out once, to the centers the
    # generator returned
    ps = random_points(8, 300, 5)
    for oracle in (bc.EuclideanOracle(ps), bc.MatrixOracle(bc.distance_table(ps, np.arange(300)))):
        for objective in ("median", "means"):
            gen = bc.BicriteriaGenerator(seed=3)
            centers = gen.generate(oracle, 3, objective)
            assert gen.take_rows(centers[::-1]) is None
            centers = gen.generate(oracle, 3, objective)
            rows = gen.take_rows(centers)
            assert rows.flags.c_contiguous
            assert np.array_equal(rows, oracle.columns(centers).T)
            assert gen.take_rows(centers) is None
    # fewer distinct points than k: sampling stops early and pads with repeats
    duplicates = bc.PointSet(np.zeros((5, 2)))
    gen = bc.BicriteriaGenerator(seed=0)
    centers = gen.generate(duplicates, 3, "median")
    assert centers.tolist() == [centers[0]] * 3
    assert np.array_equal(gen.take_rows(centers), np.zeros((3, 5)))
