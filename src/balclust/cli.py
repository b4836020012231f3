"""Command-line surface: solve one instance (``run``) or time solves over a
sweep of instance sizes for scaling measurements (``bench``)."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from .candidates import BicriteriaGenerator, GonzalezGenerator
from .core import (
    BalanceBounds,
    EuclideanOracle,
    InfeasibleBoundsError,
    InputError,
    as_oracle,
    evaluate_objective,
)
from .io import read_matrix_csv, read_points_csv, read_points_json
from .kcenter import solve_kbcenter
from .kmedian import solve_balanced

SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="balclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one instance and emit a JSON result")
    run.add_argument("--input", required=True, help="path to the input file")
    run.add_argument(
        "--format",
        default="csv-points",
        choices=["csv-points", "json-points", "csv-matrix"],
    )
    run.add_argument("--objective", default="center", choices=["center", "median", "means"])
    run.add_argument("-k", "--k", type=int, required=True)
    run.add_argument("--lower", type=int, required=True)
    run.add_argument("--upper", type=int, required=True)
    run.add_argument("--epsilon", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--first-index", type=int, default=0)
    run.add_argument("--generator", default=None, choices=["gonzalez", "bicriteria"])
    run.add_argument("--skip-header", action="store_true", help="input CSV has a header row")
    run.add_argument("--output", default=None, help="write JSON here instead of stdout")
    run.add_argument("--emit-assignment", action="store_true")
    run.add_argument("--emit-diagnostics", action="store_true")
    run.add_argument("--compare-oracle", action="store_true", help="size-guarded brute-force ratio")

    bench = sub.add_parser("bench", help="time solves over an instance-size sweep")
    bench.add_argument("--sizes", default="", help="comma-separated point counts")
    bench.add_argument("--dim", type=int, default=32)
    bench.add_argument("-k", "--k", type=int, default=3)
    bench.add_argument("--objective", default="center", choices=["center", "median", "means"])
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--epsilon", type=float, default=1.0)
    bench.add_argument("--repeats", type=int, default=1)
    bench.add_argument("--output", default=None, help="write CSV here instead of stdout")
    return parser


def _load_input(args):
    if args.format == "csv-points":
        return as_oracle(read_points_csv(args.input, skip_header=args.skip_header))
    if args.format == "json-points":
        return as_oracle(read_points_json(args.input))
    return read_matrix_csv(args.input, skip_header=args.skip_header)


def _solve(oracle, args, bounds):
    if args.objective == "center":
        return solve_kbcenter(
            oracle,
            args.k,
            bounds,
            first_index=args.first_index,
        )
    if args.generator == "gonzalez":
        generator = GonzalezGenerator(first_index=args.first_index)
    else:
        generator = BicriteriaGenerator(seed=args.seed)
    return solve_balanced(
        oracle,
        args.k,
        bounds,
        epsilon=args.epsilon,
        objective=args.objective,
        generator=generator,
        seed=args.seed,
    )


def cmd_run(args) -> int:
    oracle = _load_input(args)
    bounds = BalanceBounds(args.lower, args.upper)
    bounds.validate(oracle.n, args.k)
    start = time.perf_counter()
    result = _solve(oracle, args, bounds)
    elapsed = time.perf_counter() - start

    recomputed = evaluate_objective(result.assignment, result.centers, oracle, result.objective)
    if abs(recomputed - result.value) > 1e-9 * max(1.0, abs(result.value)):
        raise InputError("internal: emitted objective failed independent recomputation")

    payload = {
        "schema": SCHEMA_VERSION,
        "objective": result.objective,
        "k": result.k,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "n": oracle.n,
        "seed": args.seed,
        "centers": [int(c) for c in result.centers],
        "objective_value": result.value,
        "cluster_sizes": result.assignment.sizes.tolist(),
        "wall_time_sec": elapsed,
    }
    if result.objective != "center":
        payload["epsilon"] = args.epsilon
    if isinstance(oracle, EuclideanOracle):
        payload["center_coords"] = oracle.point_set.points[result.centers].tolist()
    if args.emit_assignment:
        payload["labels"] = result.assignment.labels.tolist()
    if args.emit_diagnostics:
        payload["diagnostics"] = result.diagnostics
    if args.compare_oracle:
        from .oracle import BRUTE_FORCE_MAX_K, BRUTE_FORCE_MAX_N, brute_force_optimum

        if oracle.n > BRUTE_FORCE_MAX_N or args.k > BRUTE_FORCE_MAX_K:
            raise InputError(
                f"--compare-oracle is limited to n <= {BRUTE_FORCE_MAX_N} and "
                f"k <= {BRUTE_FORCE_MAX_K} (got n={oracle.n}, k={args.k})"
            )
        oracle_cost, _, _ = brute_force_optimum(oracle, args.k, bounds, result.objective)
        payload["oracle"] = {
            "cost": oracle_cost,
            "ratio": (result.value / oracle_cost) if oracle_cost > 0 else None,
        }

    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


BENCH_FIELDS = ["n", "d", "k", "objective", "seconds", "cost"]


def run_scaling_bench(
    sizes,
    dim: int,
    k: int,
    objective: str,
    seed: int = 0,
    epsilon: float = 1.0,
    repeats: int = 1,
) -> list[dict]:
    """Timed solves on synthetic Gaussian data, one row per n.

    One untimed solve of a small instance runs first, so first-call costs
    never land inside a timed region; the reported time is the best of
    ``repeats`` runs. The cost
    column is identical across invocations with the same seed (exact ties
    between candidate tuples are broken by generation order).
    """
    rng = np.random.default_rng(seed)
    warm = EuclideanOracle(rng.standard_normal((max(64, 4 * k), dim)))
    _solve_bench(warm, k, objective, epsilon, seed)

    rows: list[dict] = []
    for n in sizes:
        data_rng = np.random.default_rng(seed + int(n))
        oracle = EuclideanOracle(data_rng.standard_normal((int(n), dim)))
        best = None
        cost = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            result = _solve_bench(oracle, k, objective, epsilon, seed)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
            cost = result.value
        rows.append(
            {
                "n": int(n),
                "d": dim,
                "k": k,
                "objective": objective,
                "seconds": best,
                "cost": cost,
            }
        )
    return rows


def _solve_bench(oracle, k, objective, epsilon, seed):
    n = oracle.n
    bounds = BalanceBounds(max(1, n // (2 * k)), min(n, 2 * ((n + k - 1) // k)))
    if objective == "center":
        return solve_kbcenter(oracle, k, bounds)
    return solve_balanced(
        oracle, k, bounds, epsilon=epsilon, objective=objective, generator=GonzalezGenerator()
    )


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rows = run_scaling_bench(
        sizes,
        args.dim,
        args.k,
        args.objective,
        seed=args.seed,
        epsilon=args.epsilon,
        repeats=args.repeats,
    )
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=BENCH_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if args.output:
            out.close()
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_bench(args)
    except InfeasibleBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
