import json
import math

import numpy as np
import pytest

import balclust as bc
from balclust.cli import main, run_scaling_bench
from balclust.io import read_matrix_csv, read_points_csv, read_points_json, write_points_csv
from balclust.oracle import tight_line_fixture

from conftest import euclidean_matrix, random_points


def test_csv_round_trip(tmp_path):
    pts = random_points(1, 8, 3).points
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    loaded = read_points_csv(path)
    assert np.allclose(loaded.points, pts, rtol=0, atol=0)


def test_csv_error_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(bc.InputError, match="row 2, column 2"):
        read_points_csv(path)


def test_csv_ragged_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(bc.InputError, match="row 2"):
        read_points_csv(path)


def test_csv_header_skip(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("x,y\n1.0,2.0\n")
    assert read_points_csv(path, skip_header=True).n == 1


def test_json_points(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text("[[0.0, 1.0], [2.0, 3.0]]")
    assert read_points_json(path).n == 2
    bad = tmp_path / "bad.json"
    bad.write_text('[[0.0, 1.0], [2.0, "x"]]')
    with pytest.raises(bc.InputError, match="point 2, coordinate 2"):
        read_points_json(bad)


def test_matrix_csv(tmp_path):
    mat = euclidean_matrix(random_points(2, 5, 2).points)
    path = tmp_path / "mat.csv"
    write_points_csv(path, mat)
    oracle = read_matrix_csv(path)
    assert oracle.n == 5
    bad = tmp_path / "rect.csv"
    bad.write_text("0.0,1.0,2.0\n1.0,0.0,1.0\n")
    with pytest.raises(bc.InputError, match="square"):
        read_matrix_csv(bad)


def run_cli(args):
    return main(args)


def test_cli_run_deterministic_json(tmp_path, capsys):
    fx = tight_line_fixture(0.1)
    data = tmp_path / "line.csv"
    write_points_csv(data, fx.points)
    argv = [
        "run", "--input", str(data), "-k", "3", "--lower", "2", "--upper", "2",
        "--objective", "center", "--first-index", "1",
        "--emit-assignment", "--emit-diagnostics",
    ]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    second = capsys.readouterr().out

    a, b = json.loads(first), json.loads(second)
    a.pop("wall_time_sec"), b.pop("wall_time_sec")
    assert a == b
    assert a["schema"] == 1
    assert a["objective_value"] == pytest.approx(3.9, abs=1e-12)
    assert a["labels"] == [0, 0, 1, 1, 2, 2] or len(a["labels"]) == 6
    assert a["cluster_sizes"] == [2, 2, 2]


def test_cli_run_median_with_oracle(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    write_points_csv(data, random_points(9, 8, 2).points)
    argv = [
        "run", "--input", str(data), "-k", "2", "--lower", "2", "--upper", "6",
        "--objective", "median", "--seed", "4", "--compare-oracle",
    ]
    assert run_cli(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["ratio"] >= 1 - 1e-12


@pytest.mark.parametrize("objective, k", [("center", 3), ("median", 2), ("means", 2)])
def test_cli_diagnostics_count_swept_multisets(tmp_path, capsys, objective, k):
    n = 24
    data = tmp_path / "pts.csv"
    write_points_csv(data, random_points(21, n, 2).points)
    argv = [
        "run", "--input", str(data), "-k", str(k), "--lower", str(n // k - 2), "--upper", str(n // k + 2),
        "--objective", objective, "--seed", "3", "--emit-diagnostics",
    ]
    assert run_cli(argv) == 0
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    m = k if objective == "center" else diagnostics["num_candidates"]
    assert m > 1
    assert diagnostics["tuples_evaluated"] == math.comb(m + k - 1, k)
    assert 0 <= diagnostics["tuples_pruned"] < diagnostics["tuples_evaluated"]


def test_cli_output_file(tmp_path):
    data = tmp_path / "pts.csv"
    write_points_csv(data, random_points(5, 6, 2).points)
    out = tmp_path / "result.json"
    argv = [
        "run", "--input", str(data), "-k", "2", "--lower", "3", "--upper", "3",
        "--output", str(out),
    ]
    assert run_cli(argv) == 0
    assert json.loads(out.read_text())["k"] == 2


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n")
    code = run_cli(["run", "--input", str(bad), "-k", "1", "--lower", "1", "--upper", "1"])
    assert code == 2
    assert "row 1, column 1" in capsys.readouterr().err


def test_cli_infeasible_bounds_exit_code(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    write_points_csv(data, random_points(5, 6, 2).points)
    code = run_cli(["run", "--input", str(data), "-k", "3", "--lower", "3", "--upper", "3"])
    assert code == 3
    err = capsys.readouterr().err
    assert "floor(n/k)" in err


def test_cli_oracle_guard(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    write_points_csv(data, random_points(5, 30, 2).points)
    code = run_cli([
        "run", "--input", str(data), "-k", "2", "--lower", "1", "--upper", "30",
        "--compare-oracle",
    ])
    assert code == 2


def test_cli_matrix_input(tmp_path, capsys):
    mat = euclidean_matrix(random_points(3, 6, 2).points)
    path = tmp_path / "mat.csv"
    write_points_csv(path, mat)
    argv = [
        "run", "--input", str(path), "--format", "csv-matrix",
        "-k", "2", "--lower", "3", "--upper", "3",
    ]
    assert run_cli(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "center_coords" not in payload


def test_bench_rows_and_determinism():
    rows = run_scaling_bench([200, 400], dim=4, k=2, objective="center",
                             seed=1, backends=["numpy"], repeats=1)
    assert [r["n"] for r in rows] == [200, 400]
    rows2 = run_scaling_bench([200, 400], dim=4, k=2, objective="center",
                              seed=1, backends=["numpy"], repeats=1)
    assert [r["cost"] for r in rows] == [r["cost"] for r in rows2]


def test_bench_cli_empty_sweep(capsys):
    assert run_cli(["bench", "--sizes", "", "--backends", "numpy"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "n,d,k,objective,backend,seconds,cost"


def test_bench_cli_rows(capsys):
    code = run_cli([
        "bench", "--sizes", "128,256", "--dim", "3", "-k", "2",
        "--objective", "median", "--backends", "numpy",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("128,3,2,median,numpy,")
