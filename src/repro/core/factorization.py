"""Sequential supernodal factorization.

The reference driver: every panel in ascending order, left-looking —
each panel receives the updates of its sources (ascending), then is
factorized.  Ascending source order is the order in which PaStiX's
right-looking loop (§III) delivers those updates, so the factor is the
same.  The task-based runtimes execute exactly the same kernel calls in
a different (dependency-respecting) order, so this driver doubles as the
correctness oracle for every scheduler.  One loop runs it on either
backend: :func:`repro.kernels.native.factorize_panels` (one C call over
all panels) or its NumPy twin :func:`repro.kernels.panel.factorize_panels`.
"""

from __future__ import annotations

import numpy as np

from repro.core.factor import NumericFactor
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic.structures import SymbolMatrix

__all__ = ["factorize_sequential", "facing_cblks"]


def facing_cblks(symbol: SymbolMatrix, k: int) -> np.ndarray:
    """The cblks updated by panel ``k`` (unique faces, ascending)."""
    b0, b1 = int(symbol.blok_ptr[k]) + 1, int(symbol.blok_ptr[k + 1])
    if b0 >= b1:
        return np.empty(0, dtype=np.int64)
    faces = symbol.blok_face[b0:b1]
    # Bloks are sorted by row, hence by face; dedupe consecutive.
    keep = np.ones(faces.size, dtype=bool)
    keep[1:] = faces[1:] != faces[:-1]
    return faces[keep]


def contributing_cblks(symbol: SymbolMatrix, t: int) -> np.ndarray:
    """The cblks whose updates land in panel ``t`` (unique, ascending)."""
    bloks = symbol.facing_bloks(t)
    if bloks.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(symbol.blok_owner[bloks])


def factorize_sequential(
    symbol: SymbolMatrix,
    matrix: SparseMatrixCSC,
    factotype: str,
    *,
    dtype=None,
    pivot_threshold: float = 0.0,
) -> NumericFactor:
    """Factorize ``matrix`` (already permuted to the analysis order).

    The symbol's couple plan (:func:`repro.kernels.indexcache.\
get_couple_cache`) is attached as ``factor.index_cache``, so no update
    re-derives its index bookkeeping.

    ``pivot_threshold`` > 0 enables static-pivot perturbation: pivots
    smaller in magnitude are replaced by ±threshold and counted on
    ``factor.pivot_monitor`` (iterative refinement recovers the digits —
    the static-pivoting recipe PaStiX shares with SuperLU-dist).

    The host picks the numeric backend
    (:func:`repro.kernels.native.resolve_kernels`): the C kernel of
    :mod:`repro.kernels.native` where it loads, agreeing with the NumPy
    kernels to roundoff, else the NumPy kernels (the reference; also
    inside :func:`repro.cbuild.python_bodies`).  It is recorded as
    ``factor.kernels``.
    """
    from repro.kernels import native, panel
    from repro.kernels.indexcache import get_couple_cache

    factor = NumericFactor.assemble(symbol, matrix, factotype, dtype=dtype)
    factor.kernels = native.resolve_kernels(factor.dtype)
    factor.index_cache = get_couple_cache(symbol)
    if pivot_threshold > 0.0:
        from repro.kernels.dense import PivotMonitor

        factor.pivot_monitor = PivotMonitor(pivot_threshold)
    body = native if factor.kernels == "native" else panel
    body.factorize_panels(factor, np.arange(symbol.n_cblk, dtype=np.int64))
    return factor
