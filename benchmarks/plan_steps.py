"""Per-step times of the plan a first ``factorize()`` builds.

For each benchmark workload's input (``benchmarks/e2e/harness.py``), a
fresh analysis per repetition, then each step a first factorization
takes before its kernels run, timed alone in the order the drivers take
them, in ms (medians over the repetitions): with the analysis helper's
one-pass plan (``repro.dag.builder.factor_plan``) its pass first, then
the accessors, which find their parts memoised; without it (an older
tree) each step builds its own part.  Also the whole ``factorize()`` of
a fresh solver against a refactorization of the same pattern, and the
plan lookups such a refactorization makes (the driver's ``factor_plan``
call, then the accessors it reads), timed once right after the fresh
``factorize()``, in us: all of them, and the ``factor_plan`` call alone.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python benchmarks/plan_steps.py [--reps 12] [WORKLOAD ...]

Run the same command with ``PYTHONPATH`` on another tree's ``src`` to
compare two trees.
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro import SparseSolver
from repro.core import solver as solver_module
from repro.core.factor import assembly_map
from repro.core.options import SolverOptions
from repro.dag import builder
from repro.kernels.indexcache import get_couple_cache, panel_layout
from repro.runtime import threaded
from repro.sparse import load_matrix

#: (workload, collection matrix, scale, factotype, runtime, workers), as
#: ``benchmarks/e2e/harness.WORKLOADS`` runs them.
WORKLOADS = (
    ("shell2d_lu", "afshell10", 0.5, "lu", "threaded", 2),
    ("vol3d_ldlt", "Serena", 0.5, "ldlt", "threaded", 2),
    ("helm3d_zldlt", "pmlDF", 1.3, "ldlt", "threaded", 2),
    ("elast3d_llt_seq_rhs16", "audi", 1.0, "llt", "sequential", 1),
)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e3


def _steps(solver: SparseSolver, ft: str, runtime: str, w: int) -> list:
    symbol, dtype = solver.analysis.symbol, solver.matrix.values.dtype
    permuted = solver._permuted_matrix()
    counts = getattr(builder, "symbol_counts", None) or getattr(
        solver_module, "_symbol_counts", None)
    unit = runtime != "sequential"
    steps = []
    if hasattr(builder, "factor_plan"):
        steps.append(("one-pass plan", lambda: builder.factor_plan(
            symbol, ft, dtype, w if unit else None)))
    steps += [
        ("layout", lambda: panel_layout(symbol)),
        ("couple plan", lambda: get_couple_cache(symbol)),
        ("plan validate", lambda: get_couple_cache(symbol).validate()),
        ("flops + nnz", lambda: counts(symbol, ft, dtype)),
        ("assembly map", lambda: assembly_map(symbol, permuted, ft)),
        ("row blocks", lambda: builder.row_blocks(symbol, ft, dtype)),
    ]
    if unit:
        def dag():
            return builder.get_dag(symbol, ft, granularity="unit",
                                   dtype=dtype, n_workers=w)

        steps += [("unit DAG", dag),
                  ("executor tasks", lambda: threaded._executor_tasks(dag()))]
    return steps


def _lookups(solver: SparseSolver, ft: str, runtime: str, w: int):
    """The plan lookups of a second ``factorize()`` of ``solver``, in
    the order the driver and the solver make them: the driver's
    ``factor_plan`` call, then the accessors."""
    symbol, dtype = solver.analysis.symbol, solver.matrix.values.dtype
    permuted = solver._permuted_matrix()
    unit = runtime != "sequential"

    def plan() -> None:
        builder.factor_plan(symbol, ft, dtype, w if unit else None)

    def accessors() -> None:
        assembly_map(symbol, permuted, ft)
        panel_layout(symbol)
        get_couple_cache(symbol)
        if unit:
            threaded._executor_tasks(builder.get_dag(
                symbol, ft, granularity="unit", dtype=dtype, n_workers=w))
        builder.row_blocks(symbol, ft, dtype)
        builder.symbol_counts(symbol, ft, dtype)

    return plan, accessors


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", help="default: all four")
    ap.add_argument("--reps", type=int, default=12)
    args = ap.parse_args()
    for name, matrix, scale, ft, runtime, w in WORKLOADS:
        if args.workloads and name not in args.workloads:
            continue
        A = load_matrix(matrix, scale, 0)
        opts = SolverOptions(factotype=ft, runtime=runtime, n_workers=w)
        times: dict[str, list[float]] = {}
        fresh, again, lookups, plan_call = [], [], [], []
        for rep in range(args.reps + 1):       # the first one warms up
            solver = SparseSolver(A, opts)
            solver.analyze()
            for label, fn in _steps(solver, ft, runtime, w):
                t = _timed(fn)
                if rep:
                    times.setdefault(label, []).append(t)
            other = SparseSolver(A, opts)
            other.analyze()
            other._permuted_matrix()
            t_fresh = _timed(other.factorize)
            plan, accessors = _lookups(other, ft, runtime, w)
            t_plan = _timed(plan)
            t_lookups = t_plan + _timed(accessors)
            t_again = _timed(other.factorize)
            if rep:
                fresh.append(t_fresh)
                lookups.append(t_lookups * 1e3)
                plan_call.append(t_plan * 1e3)
                again.append(t_again)
        print(f"== {name}")
        total = 0.0
        for label, ts in times.items():
            total += statistics.median(ts)
            print(f"  {label:<16} {statistics.median(ts):8.3f} ms")
        print(f"  {'sum':<16} {total:8.3f} ms")
        print(f"  factorize(): fresh {statistics.median(fresh):.2f} ms, "
              f"refactorization {statistics.median(again):.2f} ms")
        print(f"  refactorization's plan lookups "
              f"{statistics.median(lookups):.1f} us (factor_plan "
              f"{statistics.median(plan_call):.1f} us)")


if __name__ == "__main__":
    main()
