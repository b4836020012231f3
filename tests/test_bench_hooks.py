"""The benchmark in ``perfbench/`` reads per-layer metrics through hooks on
named attributes of ``balclust`` and through keys of ``diagnostics``. A
missing attribute or key drops its metric from the report without an error,
so a rename in the package must fail here instead."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import balclust as bc
import balclust.io

TRACING = Path(bc.__file__).resolve().parents[2] / "perfbench" / "tracing.py"

pytestmark = pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not next to src/")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_attribute_resolves():
    missing = []
    for module, path, span, _ in load_tracing().HOOKS:
        owner = importlib.import_module(module)
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module}.{path} ({span})")
    assert not missing


def test_diagnostics_keys_read_by_the_bench():
    rng = np.random.default_rng(0)
    points = bc.PointSet(rng.standard_normal((40, 3)))
    bounds = bc.BalanceBounds(10, 20)
    center = bc.solve_kbcenter(points, 3, bounds).diagnostics
    assert {"tuples_evaluated", "probes"} <= center.keys()
    for objective in ("median", "means"):
        balanced = bc.solve_balanced(points, 3, bounds, objective=objective, seed=0).diagnostics
        assert {"tuples_evaluated", "fallbacks"} <= balanced.keys()


def test_every_hooked_span_is_entered(tmp_path):
    # a hook on a function the solvers no longer call reads 0 in the bench
    # without an error; one small run of each traced path must enter them all
    tracing = load_tracing()
    rng = np.random.default_rng(1)
    csv = tmp_path / "points.csv"
    np.savetxt(csv, rng.standard_normal((60, 3)), delimiter=",")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        points = balclust.io.read_points_csv(str(csv))
        bounds = bc.BalanceBounds(15, 25)
        bc.solve_kbcenter(points, 3, bounds)
        for objective in ("median", "means"):
            bc.solve_balanced(points, 3, bounds, objective=objective, seed=0)
        bc.solve_balanced(points, 3, bounds, generator=bc.GonzalezGenerator())
        bc.solve_kbcenter(bc.MatrixOracle(bc.distance_table(points, np.arange(60))), 3, bounds)
    finally:
        tracer.remove()
    assert tracer.missing == set()
    assert [span for _, _, span, _ in tracing.HOOKS if tracer.calls(span) == 0] == []
    # three gonzalez calls (two k-center solves and the GonzalezGenerator one)
    # each take the one farthest-point traversal, matrix input included
    assert tracer.calls("kernels.farthest_point_order") == 3
