"""Benchmark of balclust: runs one workload for a fixed time and prints its
metrics as the last line of standard output.

    python3 perfbench/run.py --workload center-k5 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports balclust from ``src/``.
The instance is generated from ``--seed``, written to a CSV file under
``perfbench/work/`` and loaded through ``balclust.io``. Solves then run back
to back (a closed loop, one process, at least two solves) until
``--seconds`` of solving is spent, and every output is checked apart from
the solver (checks.py).

``--trace 0`` reports the end-to-end metrics: ``solve_s`` (median wall time
of one solver call), ``setup_s`` (median of set-ups in fresh interpreters
held to one CPU: import, CSV read, PointSet and oracle) and
``peak_rss_mb``. ``--trace 1``
times one plain solve, then repeats the solve with the hooks of tracing.py
installed and reports the per-layer metrics (medians over the traced solves)
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import CenterChecks, CheckFailed, SumChecks, check_common, gonzalez_seeds
from tracing import Tracer
from workloads import EPSILON, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
#: Set-ups per run, at least 3 and at most 7, stopping once 4 s are spent;
#: setup_s is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 4.0


def write_csv(path: Path, points: np.ndarray) -> None:
    """Shortest round-trip decimal form, so the file reads back bit-exact."""
    with open(path, "w") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in points.tolist())


def setup_once(path: Path, n: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(path)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    took, count = out.stdout.split()
    if int(count) != n:
        raise RuntimeError(f"set-up read {count} points, expected {n}")
    return float(took)


class Session:
    """Solves of one loaded instance, each checked, with the run's tallies."""

    def __init__(self, bc, workload, oracle, seed: int, tracer: Tracer | None):
        self.bc, self.workload, self.oracle, self.seed, self.tracer = bc, workload, oracle, seed, tracer
        self.points = oracle.point_set.points
        self.span = "kcenter.solve" if workload.objective == "center" else "kmedian.solve"
        self.attempted = self.failed = 0
        self.correct = True
        self.values: list[float] = []
        self._verified: set = set()
        rng = np.random.default_rng([seed, 1])
        w = workload
        if w.objective == "center":
            self.checker = CenterChecks(self.points, w.k, w.bounds, rng)
        else:
            if w.generator == "gonzalez":
                candidates = gonzalez_seeds(self.points, w.k)
            else:  # the set the solver's default generator draws for this seed
                candidates = bc.BicriteriaGenerator(seed=seed).generate(oracle, w.k, w.objective)
            self.checker = SumChecks(self.points, w.k, w.bounds, w.objective, EPSILON, candidates, rng)

    def solve(self, traced: bool):
        """One checked solve; returns (seconds, result or None if it failed)."""
        self.attempted += 1
        args = (self.bc, self.oracle, self.seed)
        start = time.perf_counter()
        try:
            result = self.tracer.call(self.span, self.workload.solve, *args) if traced else self.workload.solve(*args)
        except Exception as exc:  # a solve that raises is a failed operation; the run goes on
            print(f"solve failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return time.perf_counter() - start, None
        took = time.perf_counter() - start
        w = self.workload
        try:
            cols = check_common(result, self.points, w.k, w.bounds, w.objective)
            key = (tuple(result.centers.tolist()), float(result.value))
            if key not in self._verified:  # the deep checks depend only on centers and value
                self.checker.check(result, cols)
                self._verified.add(key)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return took, None
        self.values.append(float(result.value))
        return took, result


#: Solves per run at the least, so that no run rests on a single solve.
MIN_SOLVES = 2


def _keep_solving(times: list[float], spent: float, seconds: float, least: int = MIN_SOLVES) -> bool:
    """Start another solve unless ``least`` are done and it would end more
    than half a solve past the window."""
    return len(times) < least or spent + sum(times) + 0.5 * statistics.median(times) < seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "balclust" / "__init__.py").is_file():
        print(f"perfbench: no balclust package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import balclust as bc
    import balclust.io

    if Path(bc.__file__).resolve().parent != (SRC / "balclust").resolve():
        print(f"perfbench: imported balclust from {bc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    generated = w.points(args.seed)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{w.name}-{args.seed}-{os.getpid()}.csv"
    tracer = Tracer() if args.trace else None
    try:
        write_csv(path, generated)
        setups = []
        while not args.trace and len(setups) < SETUP_MAX and (len(setups) < SETUP_MIN or sum(setups) < SETUP_BUDGET_S):
            setups.append(setup_once(path, w.n))
        if tracer:
            tracer.install()
        try:
            loaded = balclust.io.read_points_csv(str(path))
        finally:
            if tracer:
                tracer.remove()
    finally:
        path.unlink(missing_ok=True)
    oracle = bc.EuclideanOracle(loaded)
    session = Session(bc, w, oracle, args.seed, tracer)
    if not np.array_equal(loaded.points, generated):
        print("check failed: the instance did not read back bit-exact", file=sys.stderr)
        session.correct = False

    if tracer:
        io_read = tracer.spans.get("io.read")
        plain, _ = session.solve(traced=False)
        tracer.install()
        times, layers = [], []
        try:
            while _keep_solving(times, plain, args.seconds, least=1):
                tracer.reset()
                took, result = session.solve(traced=True)
                times.append(took)
                if result is not None:
                    layers.append(tracer.layer_metrics(session.span, result.diagnostics))
        finally:
            tracer.remove()
        metrics = {}
        for name in set.intersection(*(set(m) for m in layers)) if layers else ():
            metrics[name] = {"value": statistics.median(m[name][0] for m in layers), "unit": layers[0][name][1]}
        if io_read is not None:
            metrics["io.read_s"] = {"value": io_read[1], "unit": "s"}
        traced_s = statistics.median(times)
        metrics["trace.solve_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - plain, "unit": "s"}
        if tracer.missing:
            print(f"hooks not found, metrics left out: {sorted(tracer.missing)}", file=sys.stderr)
    else:
        times = []
        while _keep_solving(times, 0.0, args.seconds):
            times.append(session.solve(traced=False)[0])
        metrics = {
            "solve_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    lower, upper = w.bounds
    print(
        f"{w.name} seed={args.seed} n={w.n} d={w.d} k={w.k} bounds=[{lower},{upper}] "
        f"value={session.values[0] if session.values else None!r} solve_times={[round(t, 3) for t in times]}"
    )
    print(json.dumps({
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": dict(sorted(metrics.items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
