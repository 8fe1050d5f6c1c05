"""Public solver API.

Typical use::

    from repro import SparseSolver
    from repro.sparse import grid_laplacian_3d

    A = grid_laplacian_3d(20)
    solver = SparseSolver(A)          # llt by default
    solver.analyze()
    info = solver.factorize()
    x = solver.solve(b)

The three phases mirror PaStiX: *analyze* (ordering + symbolic, pattern
only), *factorize* (numeric, re-runnable for new values), *solve*
(triangular solves + iterative refinement).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.factor import NumericFactor
from repro.core.factorization import factorize_sequential
from repro.core.options import SolverOptions
from repro.core.refinement import (
    ConvergenceWarning,
    RefinementResult,
    iterative_refinement,
)
from repro.core.triangular import solve_factored
from repro.kernels.cost import flops_total
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic.analyze import AnalysisResult, analyze

__all__ = ["SparseSolver", "FactorizationInfo"]


def _symbol_counts(symbol, factotype: str, dtype) -> tuple[float, int]:
    """``(flops, nnz_factor)`` of factorizing ``symbol``.

    Both depend on the symbol only, so — like the couple plan they are
    read off and the DAGs — they are computed once per analysis and
    memoised on the symbol object: refactorizing new values of one
    pattern does not pay them again.
    """
    memo = symbol.__dict__.setdefault("_counts_memo", {})
    key = (factotype, np.dtype(dtype).str)
    if key not in memo:
        memo[key] = (
            flops_total(symbol, factotype, dtype),
            symbol.nnz(factotype=factotype),
        )
    return memo[key]


@dataclass(frozen=True)
class FactorizationInfo:
    """Metrics of one factorization run."""

    factotype: str
    runtime: str
    n: int
    nnz_factor: int
    flops: float
    elapsed: float
    n_pivots_perturbed: int = 0
    #: The numeric backend that actually ran (``"native"`` or
    #: ``"numpy"``) — not the one requested.
    kernels: str = "numpy"

    @property
    def gflops(self) -> float:
        """Achieved GFlop/s (paper-convention flops / wall time)."""
        return self.flops / self.elapsed / 1e9 if self.elapsed > 0 else 0.0


class SparseSolver:
    """Supernodal sparse direct solver (Cholesky / LDLᵀ / LU).

    Parameters
    ----------
    matrix:
        Square sparse matrix.  LLᵀ/LDLᵀ expect symmetric values; LU only
        a symmetric *pattern* is required (it is symmetrised internally,
        as PaStiX works on ``A + Aᵀ``).
    options:
        :class:`SolverOptions`; defaults give Cholesky + nested dissection.
    """

    def __init__(
        self,
        matrix: SparseMatrixCSC,
        options: SolverOptions | None = None,
    ) -> None:
        if not matrix.is_square:
            raise ValueError("solver requires a square matrix")
        if matrix.values is None:
            raise ValueError("solver requires numeric values")
        self.matrix = matrix
        self.options = options or SolverOptions()
        self.analysis: Optional[AnalysisResult] = None
        self.factor: Optional[NumericFactor] = None
        self._permuted: Optional[SparseMatrixCSC] = None
        #: The entries of the analysis pattern ``matrix`` has no value for
        #: (``value_map`` −1), assembled as explicit zeros.
        self._zeros: Optional[np.ndarray] = None
        self.last_info: Optional[FactorizationInfo] = None
        self.last_refinement: Optional[RefinementResult] = None

    # ------------------------------------------------------------------
    def analyze(self) -> AnalysisResult:
        """Run (or return the cached) analyze phase."""
        if self.analysis is None:
            self.analysis = analyze(self.matrix, self.options.symbolic)
        return self.analysis

    def _permuted_matrix(self) -> SparseMatrixCSC:
        """The matrix in the analysis order, on the analysis pattern's own
        arrays (which keeps the symbol's memoised assembly map valid): one
        gather of the values through ``value_map``, explicit zeros where
        the matrix has no entry (those positions are in the symbol)."""
        if self._permuted is None:
            analysis = self.analyze()
            if self._zeros is None:
                self._zeros = np.flatnonzero(analysis.value_map < 0)
            source = self.matrix.values
            values = (source[analysis.value_map] if source.size
                      else np.zeros(analysis.value_map.size, source.dtype))
            values[self._zeros] = 0
            pattern = analysis.pattern
            self._permuted = SparseMatrixCSC(
                pattern.n_rows, pattern.n_cols, pattern.colptr,
                pattern.rowind, values,
            )
        return self._permuted

    # ------------------------------------------------------------------
    def factorize(self) -> FactorizationInfo:
        """Numeric factorization with the configured runtime."""
        analysis = self.analyze()
        permuted = self._permuted_matrix()
        opts = self.options
        flops, nnz_factor = _symbol_counts(
            analysis.symbol, opts.factotype, self.matrix.values.dtype
        )

        start = time.perf_counter()
        if opts.runtime == "sequential":
            self.factor = factorize_sequential(
                analysis.symbol,
                permuted,
                opts.factotype,
                pivot_threshold=opts.pivot_threshold,
                kernels=opts.kernels,
            )
        else:
            from repro.runtime.threaded import factorize_threaded

            self.factor = factorize_threaded(
                analysis.symbol,
                permuted,
                opts.factotype,
                n_workers=opts.n_workers,
                pivot_threshold=opts.pivot_threshold,
                kernels=opts.kernels,
            )
        elapsed = time.perf_counter() - start

        monitor = getattr(self.factor, "pivot_monitor", None)
        self.last_info = FactorizationInfo(
            factotype=opts.factotype,
            runtime=opts.runtime,
            n=analysis.n,
            nnz_factor=nnz_factor,
            flops=flops,
            elapsed=elapsed,
            n_pivots_perturbed=0 if monitor is None else monitor.n_perturbed,
            kernels=self.factor.kernels,
        )
        return self.last_info

    # ------------------------------------------------------------------
    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        assert self.factor is not None and self.analysis is not None
        b = np.asarray(b)
        if np.iscomplexobj(b) and not np.issubdtype(
            self.factor.dtype, np.complexfloating
        ):
            # Real A: solve [Re b | Im b] as one block and recombine
            # (exact); casting b to the factor's dtype would silently
            # drop the imaginary part.
            both = self._raw_solve(np.column_stack([b.real, b.imag]))
            half = both.shape[1] // 2
            return (both[:, :half] + 1j * both[:, half:]).reshape(b.shape)
        perm = self.analysis.perm
        pb = perm.apply_to_vector(b.astype(self.factor.dtype, copy=False))
        if self.options.runtime == "threaded":
            from repro.runtime.threaded import solve_threaded

            px = solve_threaded(
                self.factor, pb, n_workers=self.options.n_workers
            )
        else:
            px = solve_factored(self.factor, pb)
        return perm.undo_on_vector(px)

    def solve(self, b: np.ndarray, *, method: str = "refine") -> np.ndarray:
        """Solve ``A x = b`` (factorizing first if needed).

        ``method`` selects the outer iteration around the factorization
        (mirroring PaStiX's refinement choices):

        * ``"refine"`` — simple iterative refinement (default);
        * ``"gmres"`` / ``"bicgstab"`` — Krylov solves with the
          factorization as right preconditioner (useful when the factor
          is only approximate or the system is ill-conditioned);
        * ``"cg"`` — preconditioned conjugate gradients (SPD only);
        * ``"none"`` — a single forward/backward solve.

        An answer whose iteration stopped short of ``refine_tol`` comes
        with a :class:`~repro.core.refinement.ConvergenceWarning`
        (``last_refinement`` holds the details).
        """
        if self.factor is None:
            self.factorize()
        b = np.asarray(b)
        if b.ndim not in (1, 2) or b.shape[0] != self.matrix.n_rows:
            raise ValueError("right-hand side has wrong shape")
        if b.ndim == 2 and method not in ("refine", "none"):
            raise ValueError(
                "block right-hand sides support methods 'refine' and 'none'"
            )
        if method == "none" or (method == "refine" and not self.options.refine):
            return self._raw_solve(b)
        if method == "refine":
            result = iterative_refinement(
                self.matrix,
                self._raw_solve,
                b,
                tol=self.options.refine_tol,
                max_iter=self.options.refine_max_iter,
            )
        else:
            from repro.core.krylov import (
                bicgstab,
                conjugate_gradient,
                gmres,
            )

            solvers = {"gmres": gmres, "cg": conjugate_gradient,
                       "bicgstab": bicgstab}
            if method not in solvers:
                raise ValueError(f"unknown solve method {method!r}")
            result = solvers[method](
                self.matrix,
                b,
                precondition=self._raw_solve,
                tol=self.options.refine_tol,
                max_iter=self.options.refine_max_iter * 10,
            )
        self.last_refinement = result
        if not result.converged:
            warnings.warn(
                f"{method} stopped at relative residual "
                f"{result.residual_norm:.3e} > {self.options.refine_tol:g} "
                f"after {result.iterations} iteration(s)",
                ConvergenceWarning, stacklevel=2,
            )
        return result.x

    # ------------------------------------------------------------------
    def update_values(self, matrix: SparseMatrixCSC) -> None:
        """Swap in new numeric values with the *same* sparsity pattern.

        The expensive analyze phase (ordering + symbolic) is reused — the
        standard direct-solver workflow for sequences of systems sharing
        one structure (time steps, Newton iterations).  The next
        :meth:`factorize`/:meth:`solve` call refactorizes the new values.
        """
        if matrix.shape != self.matrix.shape:
            raise ValueError("new matrix has a different shape")
        if matrix.values is None:
            raise ValueError("new matrix has no values")
        if not (
            np.array_equal(matrix.colptr, self.matrix.colptr)
            and np.array_equal(matrix.rowind, self.matrix.rowind)
        ):
            raise ValueError(
                "sparsity pattern changed: build a new SparseSolver"
            )
        self.matrix = matrix
        self._permuted = None   # invalidate the permuted values
        self.factor = None      # force refactorization
        self.last_info = None

    def condest(self) -> float:
        """Estimated 1-norm condition number (Hager–Higham, symmetric
        factorizations use the same solve for Aᵀ)."""
        from repro.core.condest import condest as _condest

        if self.factor is None:
            self.factorize()
        return _condest(self.matrix, self._raw_solve)

    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative residual ‖b − A x‖₂ / ‖b‖₂."""
        r = np.asarray(b) - self.matrix.matvec(x)
        bn = float(np.linalg.norm(b))
        return float(np.linalg.norm(r)) / (bn if bn else 1.0)
