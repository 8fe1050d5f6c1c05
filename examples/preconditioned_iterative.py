"""Iterative solves: plain CG against CG preconditioned by the factorization.

PaStiX doubles as a preconditioner engine: its refinement menu runs
GMRES / CG / BiCGstab with the factorization as right preconditioner,
and the exact factor converges in one or two iterations.  This example
compares that with unpreconditioned CG on a 3D Poisson problem and
reports nnz, CG iterations, and the estimated condition number of the
system.

    python examples/preconditioned_iterative.py [grid_size]
"""

import sys

import numpy as np

from repro import SparseSolver
from repro.core.krylov import conjugate_gradient
from repro.sparse import grid_laplacian_3d


def main() -> None:
    nx = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    A = grid_laplacian_3d(nx, jitter=0.05, seed=4)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.n_rows)
    print(f"3D Poisson: n = {A.n_rows}, nnz = {A.nnz}")

    solver = SparseSolver(A)
    solver.factorize()
    print(f"estimated kappa_1(A) = {solver.condest():.2e}\n")

    plain = conjugate_gradient(A, b, tol=1e-10, max_iter=2000)
    print(f"{'preconditioner':>22} | {'nnz':>8} | {'CG iters':>8} | residual")
    print("-" * 60)
    print(f"{'none':>22} | {A.nnz:>8} | {plain.iterations:>8} | "
          f"{plain.residual_norm:.1e}")

    exact = conjugate_gradient(
        A, b, precondition=solver._raw_solve, tol=1e-10
    )
    nnz_exact = solver.analysis.symbol.nnz()
    print(f"{'exact factorization':>22} | {nnz_exact:>8} | "
          f"{exact.iterations:>8} | {exact.residual_norm:.1e}")
    print("\nMore fill, fewer iterations — the exact factor converges "
          "immediately.")


if __name__ == "__main__":
    main()
