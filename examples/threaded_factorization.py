"""Real parallel factorization on the C DAG executor.

Unlike the other examples (which *simulate* scheduling on a modelled
machine), this one executes the factorization DAG for real: one
GIL-free call runs every task, the calling thread and C worker threads
popping ready tasks and calling the native kernels, so panels genuinely
factor in parallel.  The executor runs the coarse *unit* DAG (one
lock-free task per panel or fused leaf subtree — a handful of tasks per
worker, and a single task when the whole tree is worth under 1e8
flops), so the factor is bit-identical to the sequential driver's; it is
checked against it and used to solve a system.

    python examples/threaded_factorization.py [grid] [workers]
"""

import sys
import time

import numpy as np

from repro.core.factorization import factorize_sequential
from repro.core.triangular import solve_factored
from repro.runtime.threaded import factorize_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.sparse import grid_laplacian_3d
from repro.symbolic import SymbolicOptions, analyze


def main() -> None:
    nx = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    A = grid_laplacian_3d(nx, jitter=0.05, seed=1)
    print(f"3D Poisson, n = {A.n_rows}")
    res = analyze(A, SymbolicOptions(split_max_width=96))
    permuted = A.permute(res.perm.perm)

    t0 = time.perf_counter()
    ref = factorize_sequential(res.symbol, permuted, "llt")
    t_seq = time.perf_counter() - t0
    print(f"sequential factorization: {t_seq:.2f} s")

    trace = ExecutionTrace()
    t0 = time.perf_counter()
    par = factorize_threaded(
        res.symbol, permuted, "llt", n_workers=workers, trace=trace
    )
    t_par = time.perf_counter() - t0
    print(f"threaded ({workers} workers): {t_par:.2f} s "
          f"(speedup {t_seq / t_par:.2f}x)")

    worst = max(
        float(np.max(np.abs(a - b))) if a.size else 0.0
        for a, b in zip(ref.L, par.L)
    )
    print(f"max |L_seq - L_par| = {worst:.2e}")

    b = np.ones(A.n_rows)
    x = res.perm.undo_on_vector(
        solve_factored(par, res.perm.apply_to_vector(b))
    )
    resid = np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)
    print(f"residual of threaded factor solve: {resid:.2e}")

    print(f"\nthread schedule ({len(trace.events)} tasks):")
    print(trace.gantt(width=80))


if __name__ == "__main__":
    main()
