"""Block triangular solves on a :class:`NumericFactor`.

Forward substitution walks the panels in ascending order, backward in
descending order; within a panel the dense diagonal triangle is solved
and the tall part applied as a GEMV/GEMM.  Plain (non-conjugated)
transposes throughout — the complex collection entries are complex
*symmetric*.
"""

from __future__ import annotations

import numpy as np

from repro.core.factor import NumericFactor
from repro.kernels import native
from repro.kernels.dense import triangular_solve

__all__ = ["forward_solve", "backward_solve", "solve_factored"]


def _diag_lower(factor: NumericFactor, k: int) -> tuple[np.ndarray, bool]:
    """Lower-triangular diagonal block of panel ``k`` and its unit flag."""
    w = factor.symbol.cblk_width(k)
    diag = factor.L[k][:w, :w]
    unit = factor.factotype in ("ldlt", "lu")
    return diag, unit


def forward_solve(factor: NumericFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``L y = b`` (L as stored: unit lower for LDLᵀ/LU)."""
    x = np.array(b, dtype=factor.dtype, copy=True)
    sym = factor.symbol
    for k in range(sym.n_cblk):
        f, l = int(sym.cblk_ptr[k]), int(sym.cblk_ptr[k + 1])
        w = l - f
        diag, unit = _diag_lower(factor, k)
        y = triangular_solve(diag, x[f:l], lower=True, unit=unit)
        x[f:l] = y
        panel = factor.L[k]
        if panel.shape[0] > w:
            below = factor.rows[k][w:]
            x[below] -= panel[w:, :] @ y
    return x


def backward_solve(factor: NumericFactor, y: np.ndarray) -> np.ndarray:
    """Solve the upper system: ``Lᵀ x = y`` (llt/ldlt) or ``U x = y`` (lu)."""
    x = np.array(y, dtype=factor.dtype, copy=True)
    sym = factor.symbol
    for k in range(sym.n_cblk - 1, -1, -1):
        f, l = int(sym.cblk_ptr[k]), int(sym.cblk_ptr[k + 1])
        w = l - f
        if factor.factotype == "lu":
            upanel = factor.U[k]
            diag = factor.L[k][:w, :w]  # packed LU: upper triangle is U11
            if upanel.shape[0] > w:
                below = factor.rows[k][w:]
                # U[cols, below] = Uᵀ-panel rows: subtract U12 · x2.
                x[f:l] -= upanel[w:, :].T @ x[below]
            x[f:l] = triangular_solve(diag, x[f:l], lower=False)
        else:
            panel = factor.L[k]
            diag, unit = _diag_lower(factor, k)
            if panel.shape[0] > w:
                below = factor.rows[k][w:]
                x[f:l] -= panel[w:, :].T @ x[below]
            x[f:l] = triangular_solve(
                diag, x[f:l], lower=True, unit=unit, trans=True
            )
    return x


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
    per sweep (:class:`repro.kernels.native.SolveSweeps`: the steps
    ``solve_threaded`` runs per task, in the same order per row, so the
    two are bit-identical), otherwise the NumPy sweeps above.  A complex
    ``b`` on a real factor raises ``TypeError`` (:func:`rhs_copy`).
    """
    x = rhs_copy(factor, b)
    sweeps = native.solve_sweeps(factor, x)
    if sweeps is not None:
        sweeps.run(0, factor.n_cblk, backward=False)
        sweeps.run(0, factor.n_cblk, backward=True)
        return x
    y = forward_solve(factor, x)
    if factor.factotype == "ldlt":
        d = factor.D_arena
        if d is None:   # a factor built from per-panel lists
            d = np.concatenate([np.empty(0, factor.dtype), *factor.D])
        y = y / (d if y.ndim == 1 else d[:, None])
    return backward_solve(factor, y)
