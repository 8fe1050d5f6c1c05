"""Block triangular solves on a :class:`NumericFactor`.

Forward substitution walks the panels in ascending order, backward in
descending order; within a panel the dense diagonal triangle is solved
and the tall part applied as a GEMV/GEMM.  Plain (non-conjugated)
transposes throughout — the complex collection entries are complex
*symmetric*.  :class:`SolveSteps` holds the NumPy steps, left-looking:
the body of :func:`solve_factored` on a factor without the native sweeps
and of the solve DAG's tasks (:func:`repro.runtime.solve_threaded`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.factor import NumericFactor
from repro.kernels import native
from repro.kernels.dense import triangular_solve
from repro.kernels.indexcache import get_couple_cache

__all__ = ["SolveSteps", "solve_factored"]


class SolveSteps:
    """The NumPy triangular sweeps of one solve, over ``x`` in place
    (left-looking): the oracle of the native sweeps
    (:class:`repro.kernels.native.SolveSweeps`, whose :meth:`run` this
    mirrors), and what runs a solve on a factor without them.

    ``panels`` is the panel list :meth:`run` takes ranges of (default:
    every panel, ascending).  A solve task of the coarse DAG of
    :func:`repro.dag.build_solve_dag` runs the forward (ascending) or
    backward (descending) steps of its unit's panels back to back.  Every
    shared access is ordered by a DAG edge, so the result does not depend
    on the order the tasks run in:

    * the forward step of panel ``k`` subtracts, in ascending source
      order, its descendants' slices of their private contribution slabs
      (``slab[j] = L[j][w:, :] @ y_j``), solves the diagonal triangle,
      and writes only ``x[f:l]`` and its own slab;
    * the backward step of ``k`` reads the final ``x`` of the rows below
      it (all owned by tree ancestors), applies ``D⁻¹`` (LDLᵀ) to its own
      segment, solves the transposed triangle and writes only ``x[f:l]``.

    ``x`` may be one right-hand side ``(n,)`` or a block ``(n, k)``.
    """

    def __init__(self, factor: NumericFactor, x: np.ndarray,
                 panels: Optional[np.ndarray] = None) -> None:
        self.factor = factor
        self.x = x
        self.panels = (np.arange(factor.n_cblk) if panels is None
                       else panels)
        self.sources = get_couple_cache(factor.symbol).sources
        self.ptr = factor.symbol.cblk_ptr.tolist()
        self.slabs: list[Optional[np.ndarray]] = [None] * factor.n_cblk

    def run(self, lo: int, hi: int, backward: bool) -> None:
        """Forward steps of ``panels[lo:hi]`` ascending, or backward
        steps descending."""
        if backward:
            for k in self.panels[lo:hi][::-1].tolist():
                self._backward(k)
        else:
            for k in self.panels[lo:hi].tolist():
                self._forward(k)

    def _forward(self, k: int) -> None:
        factor, x, slabs = self.factor, self.x, self.slabs
        f, l = self.ptr[k], self.ptr[k + 1]
        w = l - f
        panel = factor.L[k]
        rhs = x[f:l]
        for j, i0, i1, cols_local in self.sources[k]:
            rhs[cols_local] -= slabs[j][i0:i1]
        y = triangular_solve(
            panel[:w, :w], rhs, lower=True, unit=factor.factotype != "llt"
        )
        x[f:l] = y
        if panel.shape[0] > w:
            slabs[k] = panel[w:, :] @ y

    def _backward(self, k: int) -> None:
        factor, x = self.factor, self.x
        f, l = self.ptr[k], self.ptr[k + 1]
        w = l - f
        panel = factor.L[k]
        lu = factor.factotype == "lu"
        rhs = x[f:l]
        if factor.factotype == "ldlt":
            d = factor.D[k]
            rhs = rhs / (d if rhs.ndim == 1 else d[:, None])
        if panel.shape[0] > w:
            tall = factor.U[k] if lu else panel
            rhs = rhs - tall[w:, :].T @ x[factor.rows[k][w:]]
        if lu:
            # Packed LU: the diagonal block's upper triangle is U11.
            x[f:l] = triangular_solve(panel[:w, :w], rhs, lower=False)
        else:
            x[f:l] = triangular_solve(
                panel[:w, :w], rhs, lower=True,
                unit=factor.factotype == "ldlt", trans=True,
            )


def rhs_copy(factor: NumericFactor, b: np.ndarray) -> np.ndarray:
    """``b`` copied C-contiguous in the factor's dtype: the array a solve
    works on in place.  A complex ``b`` on a real factor raises
    ``TypeError`` — the cast would drop its imaginary part;
    :meth:`repro.core.solver.SparseSolver.solve` solves its real and
    imaginary parts as one real block instead."""
    if np.iscomplexobj(b) and not np.issubdtype(factor.dtype,
                                                np.complexfloating):
        raise TypeError(f"complex right-hand side on a real "
                        f"({np.dtype(factor.dtype)}) factor: solve its "
                        f"real and imaginary parts separately")
    return np.array(b, dtype=factor.dtype, order="C")


def solve_factored(factor: NumericFactor, b: np.ndarray) -> np.ndarray:
    """Full solve through the factor: forward, (diagonal,) backward.

    ``b`` may be one right-hand side (shape ``(n,)``) or a block of them
    (shape ``(n, k)``) — the block variant amortises the factor traversal,
    as in the solvers' multiple-RHS interfaces.

    The backend follows ``factor.kernels``: on a native factor one C call
    per sweep (:class:`repro.kernels.native.SolveSweeps`), otherwise
    :class:`SolveSteps`; either runs the steps ``solve_threaded`` runs
    per task, in the same order per row, so the two are bit-identical.
    A complex ``b`` on a real factor raises ``TypeError``
    (:func:`rhs_copy`).
    """
    x = rhs_copy(factor, b)
    sweeps = native.solve_sweeps(factor, x) or SolveSteps(factor, x)
    sweeps.run(0, factor.n_cblk, backward=False)
    sweeps.run(0, factor.n_cblk, backward=True)
    return x
