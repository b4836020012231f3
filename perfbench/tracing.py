"""Per-layer spans recorded from outside the program.

Each hook replaces a public function at the attribute its caller looks it up
through: the solvers bind the flow, region, rounding and evaluation functions
by name at import, so those hooks sit on ``balclust.kcenter.*`` and
``balclust.kmedian.*``; kernels are looked up as ``kernels.<fn>`` at call
time, and oracle columns and generators through their classes. A span's
self time is its duration minus the spans of hooked calls inside it.

A hook whose function is gone (removed or renamed) is skipped, and every
metric fed by its span is left out of the report.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _count_candidates(counts, args, result):
    counts["candidates"] += len(getattr(result, "indices", result))


def _coverage_bytes(counts, args, result):
    counts["coverage_bytes"] += args[0].nbytes


def _level_bytes(counts, args, result):
    counts["level_bytes"] += args[0].nbytes


def _coverage_probe(counts, args, result):
    if result is None:
        counts["coverage_rejected"] += 1
    else:
        counts["coverage_passed"] += 1
        counts["coverage_regions"] += len(result[0])


def _level_regions(counts, args, result):
    counts["level_regions"] += result.num_regions
    counts["level_regions_max"] = max(counts["level_regions_max"], result.num_regions)


def _min_cost_edges(counts, args, result):
    counts["min_cost_edges"] += args[0].num_edges


#: (module, attribute, span, observer of (counts, args, result) or None)
HOOKS = (
    ("balclust.io", "read_points_csv", "io.read", None),
    ("balclust.kcenter", "gonzalez", "candidates.generate", _count_candidates),
    ("balclust.candidates", "GonzalezGenerator.generate", "candidates.generate", _count_candidates),
    ("balclust.candidates", "BicriteriaGenerator.generate", "candidates.generate", _count_candidates),
    ("balclust.core", "EuclideanOracle.columns", "core.columns", None),
    ("balclust.kcenter", "evaluate_objective", "core.evaluate", None),
    ("balclust.kmedian", "evaluate_objective", "core.evaluate", None),
    ("balclust.kernels", "coverage_counts", "kernels.coverage_counts", _coverage_bytes),
    ("balclust.kernels", "level_codes", "kernels.level_codes", _level_bytes),
    ("balclust.kernels", "euclidean_columns", "kernels.euclidean_columns", None),
    ("balclust.kernels", "farthest_point_order", "kernels.farthest_point_order", None),
    ("balclust.kcenter", "check_feasible", "kcenter.probe", None),
    ("balclust.kcenter", "expand_assignment", "kcenter.expand", None),
    ("balclust.kmedian", "expand_assignment", "kcenter.expand", None),
    ("balclust.kcenter", "coverage_region_counts", "regions.coverage", _coverage_probe),
    ("balclust.kcenter", "build_coverage_regions", "regions.coverage", None),
    ("balclust.kmedian", "build_level_regions", "regions.level", _level_regions),
    ("balclust.kcenter", "max_flow", "flow.max_flow", None),
    ("balclust.kmedian", "min_cost_max_flow", "flow.min_cost", _min_cost_edges),
    ("balclust.kcenter", "coverage_network", "flow.network_build", None),
    ("balclust.kmedian", "level_network", "flow.network_build", None),
    ("balclust.kcenter", "round_to_integral", "rounding.round", None),
    ("balclust.kmedian", "round_to_integral", "rounding.round", None),
)


class Tracer:
    """Installs the hooks, and records calls and self time per span plus the
    observers' work counts until ``reset``."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # span -> [calls, self seconds]
        self.counts: defaultdict = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[list[float]] = []
        self._installed: list = []

    def install(self) -> None:
        for module, path, span, observe in HOOKS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.add(span)
                continue
            setattr(owner, attr, self._wrap(fn, span, observe))
            self._installed.append((owner, attr, fn))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def call(self, span: str, fn, *args, **kwargs):
        """Run ``fn`` as one span."""
        inner = [0.0]
        self._stack.append(inner)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += took
            rec = self.spans.setdefault(span, [0, 0.0])
            rec[0] += 1
            rec[1] += took - inner[0]

    def _wrap(self, fn, span, observe):
        def traced(*args, **kwargs):
            result = self.call(span, fn, *args, **kwargs)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def self_s(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0))[1]

    def calls(self, span: str) -> int:
        return self.spans.get(span, (0, 0.0))[0]

    def layer_metrics(self, solver: str, diagnostics: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced solve, as name -> (value, unit).

        ``solver`` is the span the benchmark wrapped the solver call in
        ("kcenter.solve" or "kmedian.solve"); the other solver's sweep
        counts read 0.
        """
        c = self.counts

        def mean(total, n):
            return total / n if n else 0.0

        def diag(entry, key):
            if solver != entry:
                return 0
            return diagnostics.get(key)

        rows = [
            ("candidates.generate_s", "s", "candidates.generate", self.self_s("candidates.generate")),
            ("candidates.count", "count", "candidates.generate", c["candidates"]),
            ("core.columns_s", "s", "core.columns", self.self_s("core.columns")),
            ("core.columns_calls", "count", "core.columns", self.calls("core.columns")),
            ("core.evaluate_s", "s", "core.evaluate", self.self_s("core.evaluate")),
            ("kernels.coverage_counts_s", "s", "kernels.coverage_counts", self.self_s("kernels.coverage_counts")),
            ("kernels.coverage_counts_gb", "GB", "kernels.coverage_counts", c["coverage_bytes"] / 1e9),
            ("kernels.level_codes_s", "s", "kernels.level_codes", self.self_s("kernels.level_codes")),
            ("kernels.level_codes_gb", "GB", "kernels.level_codes", c["level_bytes"] / 1e9),
            ("kernels.euclidean_columns_s", "s", "kernels.euclidean_columns", self.self_s("kernels.euclidean_columns")),
            ("kernels.farthest_point_order_s", "s", "kernels.farthest_point_order", self.self_s("kernels.farthest_point_order")),
            ("kcenter.tuples", "count", None, diag("kcenter.solve", "tuples_evaluated")),
            ("kcenter.probes", "count", None, diag("kcenter.solve", "probes")),
            ("kcenter.probe_s", "s", "kcenter.probe", self.self_s("kcenter.probe")),
            ("kcenter.self_s", "s", None, self.self_s("kcenter.solve")),
            ("kcenter.expand_s", "s", "kcenter.expand", self.self_s("kcenter.expand")),
            ("regions.coverage_s", "s", "regions.coverage", self.self_s("regions.coverage")),
            ("regions.coverage_rejected", "count", "regions.coverage", c["coverage_rejected"]),
            ("regions.coverage_regions_mean", "count", "regions.coverage", mean(c["coverage_regions"], c["coverage_passed"])),
            ("regions.level_s", "s", "regions.level", self.self_s("regions.level")),
            ("regions.level_calls", "count", "regions.level", self.calls("regions.level")),
            ("regions.level_regions_mean", "count", "regions.level", mean(c["level_regions"], self.calls("regions.level"))),
            ("regions.level_regions_max", "count", "regions.level", c["level_regions_max"]),
            ("flow.max_flow_calls", "count", "flow.max_flow", self.calls("flow.max_flow")),
            ("flow.max_flow_s", "s", "flow.max_flow", self.self_s("flow.max_flow")),
            ("flow.min_cost_calls", "count", "flow.min_cost", self.calls("flow.min_cost")),
            ("flow.min_cost_s", "s", "flow.min_cost", self.self_s("flow.min_cost")),
            ("flow.min_cost_edges_mean", "count", "flow.min_cost", mean(c["min_cost_edges"], self.calls("flow.min_cost"))),
            ("flow.network_build_s", "s", "flow.network_build", self.self_s("flow.network_build")),
            ("kmedian.tuples", "count", None, diag("kmedian.solve", "tuples_evaluated")),
            ("kmedian.fallbacks", "count", None, diag("kmedian.solve", "fallbacks")),
            ("kmedian.self_s", "s", None, self.self_s("kmedian.solve")),
            ("rounding.round_s", "s", "rounding.round", self.self_s("rounding.round")),
        ]
        return {
            name: (value, unit)
            for name, unit, span, value in rows
            if value is not None and span not in self.missing
        }
