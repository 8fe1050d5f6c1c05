"""Dense kernels on contiguous blocks.

The solver performs *static pivoting* (the paper, §III: "PASTIX doesn't
perform dynamic pivoting … which allows the factorized matrix structure
to be fully known at the analysis step"), so the LDLᵀ and LU kernels here
deliberately do **not** pivot.  The generators guarantee diagonal
dominance, making that numerically safe, as in the paper's test set.

All kernels operate on NumPy arrays and lean on BLAS/LAPACK through NumPy
and SciPy (which release the GIL — the threaded runtime depends on this).
That includes the no-pivot kernels: they first run LAPACK's *pivoting*
factorization (``?sytrf`` / ``?getrf``) and keep its result only when it
provably pivoted nowhere (:func:`_static_pivots_ok`), which on the
diagonally dominant blocks of this solver is always; otherwise the
Python column loop — the definition of static pivoting, with its
zero-pivot error and tiny-pivot perturbation — runs as before.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

__all__ = [
    "potrf",
    "ldlt_nopiv",
    "getrf_nopiv",
    "triangular_solve",
    "trsm_lower_right",
    "trsm_unit_lower_left",
]


def potrf(block: np.ndarray) -> np.ndarray:
    """Cholesky factorization: returns lower ``L`` with ``L Lᵀ = block``.

    Real SPD blocks only (the complex collection entries use LDLᵀ or LU).
    """
    if np.iscomplexobj(block):
        raise TypeError("potrf is for real SPD blocks; use ldlt_nopiv/getrf_nopiv")
    return np.linalg.cholesky(block)


class PivotMonitor:
    """Static-pivoting safety net.

    PaStiX-style solvers do not exchange rows at factorization time;
    instead, a pivot whose magnitude falls under ``threshold`` is
    *perturbed* to ``±threshold`` and counted, and iterative refinement
    recovers the lost digits afterwards (the SuperLU-dist / PaStiX
    static-pivoting recipe).  One monitor instance is threaded through a
    factorization; ``n_perturbed`` reports how often it fired.  The
    counter is lock-protected: the threaded runtime factorizes panels
    concurrently and ``+=`` on an attribute is not atomic in Python.
    """

    def __init__(self, threshold: float = 0.0) -> None:
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.threshold = threshold
        self.n_perturbed = 0
        self._count_lock = threading.Lock()

    def fix(self, pivot, where: str):
        """Return a safe pivot, perturbing (or raising) as configured."""
        if pivot != 0 and abs(pivot) >= self.threshold:
            return pivot
        if self.threshold == 0.0:
            raise ZeroDivisionError(
                f"zero pivot at {where} (static pivoting failed)"
            )
        with self._count_lock:
            self.n_perturbed += 1
        if pivot == 0:
            return self.threshold
        return pivot / abs(pivot) * self.threshold


_STRICT = PivotMonitor(0.0)

#: LAPACK routines of the fast paths, by dtype (other dtypes take the
#: column loop).  ``zsytrf`` is the complex-*symmetric* factorization
#: (plain transpose), which is the LDLᵀ contract here; not ``zhetrf``.
_SYTRF = {
    np.dtype(np.float64): sla.lapack.dsytrf,
    np.dtype(np.complex128): sla.lapack.zsytrf,
}
_GETRF = {
    np.dtype(np.float64): sla.lapack.dgetrf,
    np.dtype(np.complex128): sla.lapack.zgetrf,
}
_TRTRS = {
    np.dtype(np.float64): sla.lapack.dtrtrs,
    np.dtype(np.complex128): sla.lapack.ztrtrs,
}


def triangular_solve(
    a: np.ndarray, b: np.ndarray, *, lower: bool, unit: bool = False,
    trans: bool = False,
) -> np.ndarray:
    """Solve ``a x = b`` — ``aᵀ x = b`` when ``trans`` (plain transpose,
    never conjugated) — for a triangular ``a``; ``b`` is ``(n,)`` or
    ``(n, k)``.  Only the named triangle of ``a`` is read, and ``unit``
    means its diagonal is taken as ones.

    Every triangular solve of the factorization and of both solve paths
    goes through here.  ``scipy.linalg.solve_triangular`` spends 10 µs
    and more per call validating arguments and looking LAPACK up, several
    times the arithmetic on a panel-sized block; this calls the held
    ``?trtrs`` handle the way SciPy does (same arguments, so the same
    bits) and keeps its contract: a zero on the diagonal raises
    ``numpy.linalg.LinAlgError``, an illegal argument ``ValueError``,
    any memory layout of ``a`` and ``b`` is accepted, and dtypes other
    than float64/complex128 (or mixed ones) go to SciPy itself.
    """
    trtrs = _TRTRS.get(a.dtype)
    if trtrs is None or b.dtype != a.dtype or not b.size:
        return sla.solve_triangular(
            a, b, lower=lower, trans=int(trans), unit_diagonal=unit,
            check_finite=False,
        )
    if a.flags.f_contiguous:
        x, info = trtrs(a, b, lower=lower, trans=trans, unitdiag=unit)
    else:
        # LAPACK reads column-major: hand a row-major block over as its
        # (free) transposed view and solve the transposed system.
        x, info = trtrs(a.T, b, lower=not lower, trans=not trans,
                        unitdiag=unit)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}-th argument of internal trtrs"
        )
    return x


def _static_pivots_ok(
    pivots: np.ndarray, ipiv: np.ndarray, info: int, first: int,
    monitor: PivotMonitor,
) -> bool:
    """Did a LAPACK pivoting factorization do what static pivoting does?

    Only if it succeeded (``info == 0``), interchanged nothing
    (``ipiv`` is the identity counted from ``first``, which also rules
    out ``?sytrf``'s negative 2×2-block markers) and every pivot is one
    the column loop would have kept as is: finite (a NaN or Inf anywhere
    in the eliminated rows reaches a pivot) and not under the monitor's
    threshold.  Anything else is left to the column loop.
    """
    size = np.abs(pivots)  # NaN fails both comparisons below
    return bool(
        info == 0
        and size.min() >= monitor.threshold
        and size.max() < np.inf
        and (ipiv == np.arange(first, first + ipiv.size)).all()
    )


@lru_cache(maxsize=256)
def _strict_lower_mask(w: int) -> np.ndarray:
    """Read-only strict-lower-triangle mask of order ``w``.

    ``np.tril`` rebuilds this mask on every call, which on the many
    narrow diagonal blocks costs several times the LAPACK call itself.
    """
    mask = np.tri(w, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def ldlt_nopiv(
    block: np.ndarray, monitor: PivotMonitor | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """LDLᵀ factorization without pivoting.

    Returns ``(L, d)`` with ``L`` unit lower triangular and ``d`` the
    diagonal of ``D``, such that ``L·diag(d)·Lᵀ = block``.  Works for real
    symmetric and *complex symmetric* (not Hermitian) blocks — the
    transpose is plain, never conjugated, matching the paper's Z-LDLᵀ
    matrices.  ``monitor`` enables tiny-pivot perturbation.

    Fast path: ``?sytrf(lower=1)`` when it pivoted nowhere
    (:func:`_static_pivots_ok`) — the same elimination, blocked, so equal
    to the loop below to roundoff.  Fallback, and the reference: a
    right-looking column loop, O(w) Python iterations of vectorised
    rank-1 updates.
    """
    monitor = monitor or _STRICT
    sytrf = _SYTRF.get(block.dtype)
    if sytrf is not None and block.size:
        ldu, ipiv, info = sytrf(block, lower=1)
        d = ldu.diagonal().copy()
        if _static_pivots_ok(d, ipiv, info, 1, monitor):
            L = np.where(_strict_lower_mask(d.size), ldu, 0.0)
            np.fill_diagonal(L, 1.0)
            return L, d
    a = np.array(block)  # working copy
    w = a.shape[0]
    d = np.empty(w, dtype=a.dtype)
    for j in range(w):
        dj = monitor.fix(a[j, j], f"column {j}")
        d[j] = dj
        col = a[j + 1:, j] / dj
        a[j + 1:, j] = col
        # Trailing update: A22 -= col * dj * colᵀ  (plain transpose).
        a[j + 1:, j + 1:] -= np.outer(col * dj, col)
    L = np.tril(a, -1)
    np.fill_diagonal(L, 1.0)
    return L, d


def getrf_nopiv(
    block: np.ndarray, monitor: PivotMonitor | None = None
) -> np.ndarray:
    """LU factorization without pivoting, packed in one array.

    Returns ``LU`` with the strict lower triangle holding ``L`` (unit
    diagonal implicit) and the upper triangle holding ``U``.
    ``monitor`` enables tiny-pivot perturbation.

    Fast path: ``?getrf`` when partial pivoting interchanged nothing
    (:func:`_static_pivots_ok`); fallback and reference: the column loop.
    """
    monitor = monitor or _STRICT
    getrf = _GETRF.get(block.dtype)
    if getrf is not None and block.size:
        lu, piv, info = getrf(block)
        if _static_pivots_ok(lu.diagonal(), piv, info, 0, monitor):
            return lu
    a = np.array(block)
    w = a.shape[0]
    for j in range(w):
        piv = monitor.fix(a[j, j], f"column {j}")
        a[j, j] = piv
        a[j + 1:, j] /= piv
        a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j], a[j, j + 1:])
    return a


def trsm_lower_right(diag_l: np.ndarray, b: np.ndarray, *, unit: bool = False) -> np.ndarray:
    """Solve ``X · diag_lᵀ = b`` for ``X`` (right-side lower-transpose TRSM).

    This is the panel TRSM of the factorization: ``L21 = A21 · L11^{-T}``.
    Plain transpose (complex-symmetric safe).  ``unit`` marks a unit
    diagonal.
    """
    # X L^T = B  <=>  L X^T = B^T
    return triangular_solve(diag_l, b.T, lower=True, unit=unit).T


def trsm_unit_lower_left(diag_l: np.ndarray, b: np.ndarray, *, unit: bool = True) -> np.ndarray:
    """Solve ``diag_l · X = b`` (left lower TRSM), unit diagonal by default.

    Used for the U panel of the LU factorization: ``U12 = L11^{-1} A12``.
    """
    return triangular_solve(diag_l, b, lower=True, unit=unit)
