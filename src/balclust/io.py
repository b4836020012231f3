"""Parsers for point and distance-matrix inputs.

CSV files are read by numpy's C parser (``np.loadtxt``). A file it rejects,
or that reads as empty or holds a non-finite value, is read again by the
strict parser, so a file gives the strict parser's array or its error. The
exceptions are files the strict parser's csv reader cannot read although
their data rows are plain numbers: a header with an unclosed quote, or a
field over the csv module's 131,072-character limit. The C parser loads those.
Every parse failure is an :class:`InputError` that names the offending row,
and the column where a cell is at fault; bytes the text encoding cannot
decode make their cell fail as not a number. Both are 1-based; rows are
the lines of the file, header and blank lines included, and a record whose
quoted cell holds a line break is named by the line it starts on.
"""

from __future__ import annotations

import csv
import json
import math
import warnings

import numpy as np

from .core import InputError, MatrixOracle, PointSet


def _records(fh, path: str):
    """The csv records of ``fh``, each with the 1-based file line it starts
    on (a quoted cell may hold line breaks, so a record can span lines). A
    csv error, such as a field over the csv module's size limit, becomes an
    :class:`InputError` naming the line its record starts on."""
    reader = csv.reader(fh)
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise InputError(f"{path}: row {start}: {exc}") from None


def _rows_from_csv(path: str, skip_header: bool) -> list[list[float]]:
    rows: list[list[float]] = []
    row_numbers: list[int] = []
    # Undecodable bytes become lone surrogates, so they fail as a cell that
    # is not a number, in their own row and column; a decode error would be
    # raised for a whole block of the file, not for the row holding them.
    with open(path, newline="", errors="surrogateescape") as fh:
        for rno, row in _records(fh, path):
            if skip_header and rno == 1:
                continue
            if not row or all(not cell.strip() for cell in row):
                continue
            values = []
            for cno, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise InputError(
                        f"{path}: row {rno}, column {cno}: {cell.strip()!r} is not a number"
                    ) from None
                if not math.isfinite(value):
                    raise InputError(f"{path}: row {rno}, column {cno}: non-finite value")
                values.append(value)
            rows.append(values)
            row_numbers.append(rno)
    if not rows:
        raise InputError(f"{path}: no data rows")
    width = len(rows[0])
    for rno, row in zip(row_numbers, rows):
        if len(row) != width:
            raise InputError(f"{path}: row {rno} has {len(row)} columns, expected {width}")
    return rows


def _read_csv(path: str, skip_header: bool) -> np.ndarray:
    """The file's data rows as a 2-d float64 array.

    ``np.loadtxt`` parses the file without building a Python float per
    cell. Whatever it cannot read as a non-empty, all-finite array (quoted
    cells, ``1_0``, whitespace-only lines, ragged or bad rows) goes to
    :func:`_rows_from_csv`, which returns the array or raises the
    :class:`InputError` that names the row and column. A bad file is thus
    parsed twice; a good one once.
    """
    # Given a path, numpy would also fetch URLs and read a missing file's
    # .gz/.bz2/.xz sibling; given the open file it reads only that file.
    with open(path) as fh:
        try:
            with warnings.catch_warnings():
                # An empty file is the strict parser's to report.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                arr = np.loadtxt(
                    fh, delimiter=",", dtype=np.float64, ndmin=2,
                    comments=None, quotechar=None, skiprows=int(skip_header),
                )
        except ValueError:
            arr = None
    if arr is not None and arr.size and np.isfinite(arr).all():
        return arr
    return np.asarray(_rows_from_csv(path, skip_header))


def read_points_csv(path: str, skip_header: bool = False) -> PointSet:
    return PointSet(_read_csv(path, skip_header))


def read_points_json(path: str) -> PointSet:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: expected a non-empty array of point arrays")
    rows = []
    for rno, row in enumerate(data, start=1):
        if not isinstance(row, list):
            raise InputError(f"{path}: point {rno} is not an array")
        values = []
        for cno, cell in enumerate(row, start=1):
            if not isinstance(cell, (int, float)) or isinstance(cell, bool) or not math.isfinite(cell):
                raise InputError(f"{path}: point {rno}, coordinate {cno}: not a finite number")
            values.append(float(cell))
        rows.append(values)
    width = len(rows[0])
    for rno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise InputError(f"{path}: point {rno} has {len(row)} coordinates, expected {width}")
    return PointSet(np.asarray(rows))


def read_matrix_csv(path: str, skip_header: bool = False) -> MatrixOracle:
    matrix = _read_csv(path, skip_header)
    if matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"{path}: distance matrix must be square, got {matrix.shape}")
    return MatrixOracle(matrix)


def write_points_csv(path: str, points: np.ndarray) -> None:
    arr = np.asarray(points, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in arr:
            writer.writerow([repr(float(v)) for v in row])
