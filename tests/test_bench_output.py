"""A benchmark run reports its result as the last line of standard output:
strict JSON with ``correct``, ``failed`` and the metrics that
``BENCHMARK.json`` declares. A run whose last line is anything else reports
nothing, so its output format is checked here on a short run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import balclust as bc

ROOT = Path(bc.__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"

pytestmark = pytest.mark.skipif(not RUN.is_file(), reason="perfbench/ is not next to src/")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _bench_result(trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "median-bicriteria-k3", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    result = json.loads(out.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {metric["name"] for metric in json.load(fh)[kind]}


def test_plain_run_reports_the_end_to_end_metrics():
    assert set(_bench_result(0)["metrics"]) == _declared("end_to_end")


def test_traced_run_reports_every_per_layer_metric():
    assert _declared("per_layer") <= set(_bench_result(1)["metrics"])
