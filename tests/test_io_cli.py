import gzip
import json
import math

import numpy as np
import pytest

import balclust as bc
import balclust.io as bio
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


@pytest.mark.parametrize("text, skip_header", [("x,y\n1,2\n3\n", True), ("1,2\n\n3\n", False)])
def test_csv_ragged_error_names_file_row(tmp_path, text, skip_header):
    path = tmp_path / "ragged.csv"
    path.write_text(text)
    with pytest.raises(bc.InputError, match="row 3 has 1 columns, expected 2"):
        read_points_csv(path, skip_header=skip_header)


# name: (file bytes, skip_header, what the strict parser gives)
_CSV_EDGE_CASES = {
    "quoted cells": (b'"1.5",2\n3,"4"\n', False, "array"),
    "underscore digits": (b"1_0,2\n3,4\n", False, "array"),
    "whitespace-only line": (b"1,2\n  \t\n3,4\n", False, "array"),
    "comma-only line": (b"1,2\n,\n3,4\n", False, "array"),
    "hash line": (b"# x,y\n1,2\n", False, "error"),
    "hash header": (b"# x,y\n1,2\n", True, "array"),
    "trailing comma": (b"1,2,\n3,4,\n", False, "error"),
    "nan": (b"1,nan\n3,4\n", False, "error"),
    "inf": (b"1,2\n-inf,4\n", False, "error"),
    "overflow": (b"1,2\n1e999,4\n", False, "error"),
    "utf-8 bom": (b"\xef\xbb\xbf1,2\n3,4\n", False, "error"),
    "utf-8 bom header": (b"\xef\xbb\xbfx,y\n1,2\n", True, "array"),
    "crlf": (b"1,2\r\n3,4\r\n", False, "array"),
    "blank first line and header": (b"\nx,y\n1,2\n", True, "error"),
    "empty file": (b"", False, "error"),
    "header only": (b"x,y\n", True, "error"),
    "single value": (b"7.25\n", False, "array"),
}


def _csv_outcome(read):
    try:
        arr = read()
    except bc.InputError as exc:
        return "error", str(exc)
    return "array", arr.shape, arr.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data, skip_header, kind", list(_CSV_EDGE_CASES.values()), ids=list(_CSV_EDGE_CASES))
def test_csv_edge_cases_match_strict_parser(tmp_path, data, skip_header, kind):
    path = tmp_path / "edge.csv"
    path.write_bytes(data)
    outcome = _csv_outcome(lambda: read_points_csv(path, skip_header=skip_header).points)
    assert outcome == _csv_outcome(lambda: np.asarray(bio._rows_from_csv(path, skip_header)))
    assert outcome[0] == kind


# name: (file bytes, skip_header, the array the fast path reads). The strict
# parser's csv reader fails on these: an unclosed quote makes it read the rest
# of the file as the header, and a field over its 131,072-character limit
# raises _csv.Error. The fast path reads the data rows as they stand.
_CSV_FAST_PATH_ONLY = {
    "unclosed quote in header": (b'x,"y\n1,2\n3,4\n', True, [[1.0, 2.0], [3.0, 4.0]]),
    "header over field limit": (b"x" * 200_000 + b",y\n1,2\n", True, [[1.0, 2.0]]),
    "cell over field limit": (b"1," + b"0" * 200_000 + b"5\n3,4\n", False, [[1.0, 5.0], [3.0, 4.0]]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data, skip_header, expected", list(_CSV_FAST_PATH_ONLY.values()), ids=list(_CSV_FAST_PATH_ONLY))
def test_csv_fast_path_reads_what_strict_parser_cannot(tmp_path, data, skip_header, expected):
    path = tmp_path / "edge.csv"
    path.write_bytes(data)
    assert np.array_equal(read_points_csv(path, skip_header=skip_header).points, expected)


def test_csv_reads_only_the_named_file(tmp_path):
    # Given a path, np.loadtxt would read p.csv.gz in place of a missing
    # p.csv, and decompress a named p.csv.gz.
    (tmp_path / "p.csv.gz").write_bytes(gzip.compress(b"1,2\n"))
    with pytest.raises(FileNotFoundError):
        read_points_csv(tmp_path / "p.csv")
    with pytest.raises(ValueError):
        read_points_csv(tmp_path / "p.csv.gz")


def test_matrix_csv_header_and_ragged_row(tmp_path):
    mat = euclidean_matrix(random_points(4, 3, 2).points)
    path = tmp_path / "mat.csv"
    path.write_text("a,b,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in mat.tolist()))
    assert np.array_equal(read_matrix_csv(path, skip_header=True).matrix, mat)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,1,2\n1,0,1\n\n2,1\n")
    with pytest.raises(bc.InputError, match="row 4 has 2 columns, expected 3"):
        read_matrix_csv(ragged)


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


def test_cli_matrix_bad_cell_exit_code(tmp_path, capsys):
    bad = tmp_path / "mat.csv"
    bad.write_text("0,1,2\n1,0,x\n2,1,0\n")
    code = run_cli([
        "run", "--input", str(bad), "--format", "csv-matrix",
        "-k", "1", "--lower", "1", "--upper", "3",
    ])
    assert code == 2
    assert "row 2, column 3: 'x' is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("data, skip_header, where", [
    # a byte that is not UTF-8, in the second data row
    (b"1,2\n3,4\n5,\xff\n", False, "row 3, column 2: '\\udcff' is not a number"),
    # a header the fast path must skip, then a cell over the csv field limit
    # that reads as inf, so the strict parser is asked to report it
    (b"x,y\n1,2\n3," + b"1" * 200_000 + b"\n", True, "row 3: field larger than field limit"),
], ids=["byte 0xff", "cell over field limit"])
def test_cli_unreadable_csv_exit_code(tmp_path, capsys, data, skip_header, where):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    args = ["run", "--input", str(bad), "-k", "1", "--lower", "1", "--upper", "3"]
    code = run_cli(args + ["--skip-header"] * skip_header)
    assert code == 2
    assert where in capsys.readouterr().err


def test_bench_rows_and_determinism():
    rows = run_scaling_bench([200, 400], dim=4, k=2, objective="center",
                             seed=1, repeats=1)
    assert [r["n"] for r in rows] == [200, 400]
    rows2 = run_scaling_bench([200, 400], dim=4, k=2, objective="center",
                              seed=1, repeats=1)
    assert [r["cost"] for r in rows] == [r["cost"] for r in rows2]


def test_bench_cli_empty_sweep(capsys):
    assert run_cli(["bench", "--sizes", ""]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "n,d,k,objective,seconds,cost"


def test_bench_cli_rows(capsys):
    code = run_cli([
        "bench", "--sizes", "128,256", "--dim", "3", "-k", "2",
        "--objective", "median",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("128,3,2,median,")
