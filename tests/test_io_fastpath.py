"""Differential test of the CSV fast path against the strict parser.

Skipped where hypothesis is not installed, so the other io tests still run.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import balclust.io as bio
from balclust.io import read_points_csv

_CELL_TEXT = [repr, "%.17g".__mod__, "%g".__mod__]


@settings(max_examples=80, deadline=None)
@given(
    values=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 4)),
        elements=st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-(2**63), 2**63).map(float)
        | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
    ),
    cell_text=st.sampled_from(_CELL_TEXT),
    skip_header=st.booleans(),
)
def test_csv_fast_path_matches_strict_parser(tmp_path_factory, values, cell_text, skip_header):
    path = tmp_path_factory.mktemp("csv") / "pts.csv"
    header = ",".join(f"x{j}" for j in range(values.shape[1])) + "\n" if skip_header else ""
    path.write_text(header + "".join(",".join(map(cell_text, row)) + "\n" for row in values.tolist()))
    with mock.patch.object(bio, "_rows_from_csv", side_effect=AssertionError("strict parser called")):
        fast = read_points_csv(path, skip_header=skip_header).points
    strict = np.asarray(bio._rows_from_csv(path, skip_header))
    assert fast.shape == strict.shape == values.shape
    assert np.array_equal(fast.view(np.int64), strict.view(np.int64))
