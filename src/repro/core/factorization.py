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
    workspace: bool = True,
    variant: str = "right",
    pivot_threshold: float = 0.0,
    kernels: str = "native",
) -> NumericFactor:
    """Factorize ``matrix`` (already permuted to the analysis order).

    ``workspace`` selects the CPU two-step update kernel (temporary +
    dispatch) vs. the direct-scatter GPU-twin kernel; both produce
    identical factors.  The symbol's couple plan
    (:func:`repro.kernels.indexcache.get_couple_cache`) is attached as
    ``factor.index_cache``, so no update re-derives its index
    bookkeeping.

    ``pivot_threshold`` > 0 enables static-pivot perturbation: pivots
    smaller in magnitude are replaced by ±threshold and counted on
    ``factor.pivot_monitor`` (iterative refinement recovers the digits —
    the static-pivoting recipe PaStiX shares with SuperLU-dist).

    ``variant`` picks the update grouping of §III: ``"right"`` (PaStiX's
    choice — "all updates generated by a single panel are directly
    applied to the multiple destination panels") or ``"left"`` ("all
    tasks contributing to a single panel are associated in a single
    task").  Both compute the same factor; they differ in when each
    update executes — which the scheduling benches exploit.

    ``kernels`` selects the numeric backend: ``"native"`` (the default:
    the C kernel of :mod:`repro.kernels.native`, agreeing with the NumPy
    kernels to roundoff) or ``"numpy"`` (the reference the bit-identity
    statements above are about).  ``"native"`` falls back to ``"numpy"``
    when it cannot be built here and whenever ``workspace`` or
    ``variant`` is off its default — they are ablations of the NumPy
    kernels (:func:`repro.kernels.native.resolve_kernels`).  The
    effective backend is recorded as ``factor.kernels``.
    """
    from repro.kernels.indexcache import get_couple_cache
    from repro.kernels.native import factorize_panels, resolve_kernels

    if variant not in ("right", "left"):
        raise ValueError(f"unknown variant {variant!r}")
    factor = NumericFactor.assemble(symbol, matrix, factotype, dtype=dtype)
    factor.kernels = resolve_kernels(
        kernels,
        ablation=not (workspace and variant == "right"),
        dtype=factor.dtype,
    )
    factor.index_cache = get_couple_cache(symbol)
    if pivot_threshold > 0.0:
        from repro.kernels.dense import PivotMonitor

        factor.pivot_monitor = PivotMonitor(pivot_threshold)
    if factor.kernels == "native":
        factorize_panels(factor, np.arange(symbol.n_cblk, dtype=np.int64))
    elif variant == "right":
        for k in factorization_order(symbol):
            panel_factorize(factor, k)
            for t in facing_cblks(symbol, k):
                panel_update(factor, k, int(t), workspace=workspace)
    else:
        for t in factorization_order(symbol):
            for k in contributing_cblks(symbol, t):
                panel_update(factor, int(k), t, workspace=workspace)
            panel_factorize(factor, t)
    return factor
