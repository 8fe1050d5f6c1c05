"""Sequential supernodal factorization.

The reference driver on the NumPy kernels: panels in ascending order,
each panel factorized then immediately applied to all facing panels (the
right-looking variant PaStiX uses, §III).  The task-based runtimes
execute exactly the same kernel calls in a different
(dependency-respecting) order, so this driver doubles as the correctness
oracle for every scheduler.  On the default native backend the whole
factorization is one C call over all panels
(:func:`repro.kernels.native.factorize_panels`), left-looking with
ascending sources — the order in which the right-looking loop's updates
reach each panel.
"""

from __future__ import annotations

import numpy as np

from repro.core.factor import NumericFactor
from repro.kernels.panel import panel_factorize, panel_update
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic.structures import SymbolMatrix

__all__ = ["factorize_sequential", "factorization_order", "facing_cblks"]


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


def factorization_order(symbol: SymbolMatrix) -> range:
    """Panel processing order of the sequential driver (ascending is a
    topological order: every update goes from a lower to a higher cblk)."""
    return range(symbol.n_cblk)


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
    kernels to roundoff, else the NumPy kernels (the reference,
    right-looking: each panel is factorized, then applied to every panel
    it faces; also inside :func:`repro.cbuild.python_bodies`).  It is
    recorded as ``factor.kernels``.
    """
    from repro.kernels.indexcache import get_couple_cache
    from repro.kernels.native import factorize_panels, resolve_kernels

    factor = NumericFactor.assemble(symbol, matrix, factotype, dtype=dtype)
    factor.kernels = resolve_kernels(factor.dtype)
    factor.index_cache = get_couple_cache(symbol)
    if pivot_threshold > 0.0:
        from repro.kernels.dense import PivotMonitor

        factor.pivot_monitor = PivotMonitor(pivot_threshold)
    if factor.kernels == "native":
        factorize_panels(factor, np.arange(symbol.n_cblk, dtype=np.int64))
    else:
        for k in factorization_order(symbol):
            panel_factorize(factor, k)
            for t in facing_cblks(symbol, k):
                panel_update(factor, k, int(t))
    return factor
