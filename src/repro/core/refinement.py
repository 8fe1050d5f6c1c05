"""Iterative refinement.

Static pivoting can lose a few digits on ill-conditioned systems; PaStiX
(like SuperLU) recovers them with simple iterative refinement on the
original matrix.  The loop runs in the *original* ordering; the caller's
solve closure hides the permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sparse.csc import SparseMatrixCSC

__all__ = ["iterative_refinement", "RefinementResult", "ConvergenceWarning"]


class ConvergenceWarning(RuntimeWarning):
    """:meth:`repro.SparseSolver.solve` returns an answer whose iterative
    refinement stopped short of its tolerance.

    Without pivoting a tiny pivot can leave a factor that refinement
    cannot correct; the warning is how such an answer is told apart from
    a converged one (``warnings.simplefilter("error", ConvergenceWarning)``
    turns it into an exception).
    """


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of iterative refinement."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    history: tuple[float, ...]


def iterative_refinement(
    matrix: SparseMatrixCSC,
    solve: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iter: int = 10,
) -> RefinementResult:
    """Refine ``solve``'s answer to ``A x = b``.

    ``solve`` applies the (approximately) factored operator; the loop is
    ``r = b − A x``, ``x += solve(r)`` until the relative residual drops
    under ``tol`` or stops improving.  A non-finite residual (a NaN or Inf
    in ``b``, the matrix or the factor) ends the loop at once with
    ``converged=False``: no further sweep can make it finite.
    """
    b = np.asarray(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return RefinementResult(np.zeros_like(b), 0, 0.0, True, ())

    x = solve(b)
    history: list[float] = []
    resnorm = float("inf")
    for it in range(max_iter):
        r = b - matrix.matvec(x)
        resnorm = float(np.linalg.norm(r)) / bnorm
        history.append(resnorm)
        if resnorm <= tol:
            return RefinementResult(x, it, resnorm, True, tuple(history))
        if not np.isfinite(resnorm):
            break
        if len(history) >= 2 and resnorm >= history[-2] * 0.5:
            # Stagnation: further sweeps will not help.
            break
        x = x + solve(r)
    return RefinementResult(x, len(history), resnorm, resnorm <= tol, tuple(history))
