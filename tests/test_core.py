import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import balclust as bc
from balclust.oracle import tight_line_fixture

from conftest import euclidean_matrix, random_points


def test_single_point_zero_objective():
    ps = bc.PointSet([[0.0, 0.0]])
    assignment = bc.BalancedAssignment.from_labels([0], 1)
    for objective in ("center", "median", "means"):
        assert bc.evaluate_objective(assignment, [0], ps, objective) == 0.0


def test_tight_line_midpoint_centers_radius_one():
    fx = tight_line_fixture(0.1)
    ps = bc.PointSet(fx.points)
    assignment = bc.BalancedAssignment.from_labels([0, 0, 1, 1, 2, 2], 3)
    midpoints = np.array([[1.0], [5.0 - 0.1], [8.0 - 0.2]])
    value = bc.evaluate_objective(assignment, midpoints, ps, "center")
    assert value == pytest.approx(1.0, abs=1e-12)


def test_objective_matches_independent_recomputation():
    ps = random_points(11, 8, 3)
    rng = np.random.default_rng(5)
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    assignment = bc.BalancedAssignment.from_labels(labels, 2)
    centers = [2, 6]
    pts = ps.points
    for objective in ("center", "median", "means"):
        value = bc.evaluate_objective(assignment, centers, ps, objective)
        dists = [
            float(np.sqrt(((pts[i] - pts[centers[labels[i]]]) ** 2).sum()))
            for i in range(8)
        ]
        if objective == "center":
            expected = max(dists)
        elif objective == "median":
            expected = sum(dists)
        else:
            expected = sum(d * d for d in dists)
        assert value == pytest.approx(expected, rel=1e-12)
    del rng


def test_distance_table_single_column():
    ps = bc.PointSet([[0.0], [3.0]])
    table = bc.distance_table(ps, [0])
    assert table.shape == (2, 1)
    assert np.allclose(table[:, 0], [0.0, 3.0])


def test_distance_table_tight_line_row():
    # centers (p2, p5, p1); the p4 row follows from the cumulative gaps
    # 2, 2-delta, 2, 2-delta on the line, so d(p4, p2) = 4 - delta.
    fx = tight_line_fixture(0.1)
    table = bc.distance_table(bc.PointSet(fx.points), [1, 4, 0])
    assert np.allclose(table[3], [3.9, 1.9, 5.9], atol=1e-12)


def test_distance_table_matches_per_pair_norms():
    ps = random_points(3, 10, 5)
    centers = [0, 3, 7, 9, 2]
    table = bc.distance_table(ps, centers)
    for i in range(10):
        for j, c in enumerate(centers):
            expected = float(np.sqrt(((ps.points[i] - ps.points[c]) ** 2).sum()))
            assert table[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_distance_table_symmetric_consistency():
    oracle = bc.MatrixOracle(euclidean_matrix(random_points(9, 7, 2).points))
    centers = [1, 5]
    table = bc.distance_table(oracle, centers)
    for i in range(7):
        for j, c in enumerate(centers):
            assert table[i, j] == oracle.dist(i, c) == oracle.dist(c, i)


def test_extreme_distances():
    assert bc.extreme_distances(np.array([[0.0, 2.0], [1.0, 3.0]])) == (1.0, 3.0)
    assert bc.extreme_distances(np.array([[0.0, 0.0]])) is None
    fx = tight_line_fixture(0.1)
    table = bc.distance_table(bc.PointSet(fx.points), [1, 4, 0])
    r_min, r_max = bc.extreme_distances(table)
    positive = table[table > 0]
    assert r_min == pytest.approx(1.9, abs=1e-12)
    assert r_min == positive.min() and r_max == table.max()
    assert 0 < r_min <= r_max


def test_explicit_center_dimension_mismatch():
    ps = bc.PointSet([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(bc.InputError):
        bc.distance_table(ps, np.array([[0.0, 0.0, 0.0]]))


def test_vectors_rejected_for_matrix_oracle():
    oracle = bc.MatrixOracle(euclidean_matrix([[0.0], [1.0]]))
    with pytest.raises(bc.InputError):
        bc.distance_table(oracle, np.array([[0.5]]))


def test_matrix_oracle_validation():
    with pytest.raises(bc.InputError):
        bc.MatrixOracle(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(bc.InputError):
        bc.MatrixOracle(np.array([[1.0, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(bc.InputError):
        bc.MatrixOracle(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative


def test_point_set_validation():
    with pytest.raises(bc.InputError):
        bc.PointSet(np.array([[np.inf]]))
    with pytest.raises(bc.InputError):
        bc.PointSet(np.zeros((0, 2)))
    with pytest.raises(bc.InputError):
        bc.PointSet(np.zeros(3))


def test_bounds_validation():
    with pytest.raises(bc.InputError):
        bc.BalanceBounds(0, 2)
    with pytest.raises(bc.InputError):
        bc.BalanceBounds(3, 2)
    bounds = bc.BalanceBounds(3, 3)
    with pytest.raises(bc.InfeasibleBoundsError):
        bounds.validate(n=8, k=3)  # 3 * 3 > 8
    with pytest.raises(bc.InfeasibleBoundsError):
        bc.BalanceBounds(1, 2).validate(n=9, k=3)  # 2 * 3 < 9
    bc.BalanceBounds(2, 4).validate(n=9, k=3)


def test_balanced_assignment_invariants():
    asg = bc.BalancedAssignment.from_labels([0, 1, 0, 1, 2], 3)
    assert asg.sizes.tolist() == [2, 2, 1]
    assert asg.sizes.sum() == 5
    with pytest.raises(bc.StructureError):
        bc.BalancedAssignment.from_labels([0, 0, 0, 1], 2, bc.BalanceBounds(2, 2))
    with pytest.raises(bc.InputError):
        bc.BalancedAssignment.from_labels([0, 3], 2)


def test_callback_oracle():
    pts = random_points(1, 6, 2).points
    oracle = bc.CallbackOracle(lambda i, j: float(np.sqrt(((pts[i] - pts[j]) ** 2).sum())), 6)
    table = bc.distance_table(oracle, [0, 2])
    direct = bc.distance_table(bc.PointSet(pts), [0, 2])
    assert np.allclose(table, direct, rtol=1e-12)


@pytest.mark.parametrize("objective", ["center", "median", "means"])
def test_timings_cover_every_phase(objective):
    ps = random_points(12, 200, 3)
    bounds = bc.BalanceBounds(60, 75)
    start = time.perf_counter()
    if objective == "center":
        res = bc.solve_kbcenter(ps, 3, bounds)
    else:
        res = bc.solve_balanced(ps, 3, bounds, objective=objective, seed=2)
    wall = time.perf_counter() - start
    timings = res.diagnostics["timings"]
    assert list(timings) == list(bc.core.PHASES)
    assert list(bc.core.PHASES) == ["candidates", "columns", "sweep", "winner", "rounding", "evaluation"]
    assert all(t >= 0.0 for t in timings.values())
    assert sum(timings.values()) <= wall


@pytest.mark.parametrize("objective", ["center", "median"])
def test_timings_charge_the_sweep_to_its_phase(monkeypatch, objective):
    # a sweep slowed by 50 ms shows up as sweep time, not as winner time
    module, name = (bc.kcenter, "_search_tuples") if objective == "center" else (bc.kmedian, "_evaluate_tuples")
    sweep = getattr(module, name)

    def slow_sweep(*args):
        time.sleep(0.05)
        return sweep(*args)

    monkeypatch.setattr(module, name, slow_sweep)
    ps = random_points(13, 60, 2)
    bounds = bc.BalanceBounds(18, 22)
    if objective == "center":
        res = bc.solve_kbcenter(ps, 3, bounds)
    else:
        res = bc.solve_balanced(ps, 3, bounds, objective=objective, seed=2)
    timings = res.diagnostics["timings"]
    assert timings["sweep"] >= 0.05
    assert timings["winner"] < 0.05


def test_timings_of_an_all_coincident_solve():
    ps = bc.PointSet(np.zeros((6, 2)))
    bounds = bc.BalanceBounds(3, 3)
    for res in (bc.solve_kbcenter(ps, 2, bounds), bc.solve_balanced(ps, 2, bounds, objective="median")):
        assert set(res.diagnostics["timings"]) == set(bc.core.PHASES)
        assert all(t >= 0.0 for t in res.diagnostics["timings"].values())


def test_import_loads_no_scipy():
    # scipy serves only the reference checkers in balclust.oracle; a plain
    # import of the package must not pay for loading it
    code = "import sys, balclust; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(bc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True, env=env)
    assert out.stdout.strip() == "[]"
